import math
import re

import mpmath as mp
import numpy as np
import pytest

from fouriergit import (
    DiscreteSpectrum,
    PeakParams,
    TailParams,
    central_moment,
    energy_moment,
    eval_peak,
    eval_tail,
    make_model,
    midpoint_grid,
    summarize,
)

from conftest import random_spectrum


def _mp_peak(omega, xi=-0.95, beta=0.05, alpha=5.0):
    z = (mp.mpf(omega) - mp.mpf(xi)) / mp.mpf(beta)
    return (
        mp.exp(-z * z / 2)
        / (mp.mpf(beta) * mp.sqrt(2 * mp.pi))
        * (1 + mp.erf(mp.mpf(alpha) * z / mp.sqrt(2)))
    )


def _mp_tail(omega, thr=-0.95, lam=1.0, rho=0.002, gamma=1.0):
    if omega < thr:
        return mp.mpf(0)
    d = abs(mp.mpf(omega) - mp.mpf(thr))
    return mp.mpf(lam) * mp.mpf(rho) / (d ** mp.mpf(gamma) + mp.mpf(rho))


def mp_peak(omega):
    with mp.workdps(50):
        return float(_mp_peak(omega))


def mp_tail(omega):
    with mp.workdps(50):
        return float(_mp_tail(omega))


class TestProfiles:
    def test_peak_at_location(self):
        # erf(0) = 0, so the value is the bare Gaussian prefactor
        assert abs(eval_peak(-0.95) - 1.0 / (0.05 * math.sqrt(2 * math.pi))) < 1e-12

    def test_peak_against_high_precision_evaluation(self):
        for omega in (-0.999, -0.97, -0.95, -0.90, -0.85, -0.5):
            assert eval_peak(omega) == pytest.approx(mp_peak(omega), rel=1e-13)

    def test_peak_on_model_grid_against_high_precision(self):
        # on the left flank erf(alpha z / sqrt 2) is near -1, where 1 + erf
        # cancels; exp(-z^2/2) of a rounded z carries about z^2 eps, so the
        # gate grows with z^2 and stays a few ulp near the peak
        om = midpoint_grid(512)
        vals = eval_peak(om)
        z = (om + 0.95) / 0.05
        gate = (8 + z * z) * np.finfo(np.float64).eps
        with mp.workdps(50):
            ref = [_mp_peak(o) for o in om]
        checked = 0
        for v, r, g in zip(vals, ref, gate):
            if r > 1e-300:
                assert abs(v - r) <= g * r
                checked += 1
        assert checked > 100

    def test_peak_far_left_underflows(self):
        assert eval_peak(-50.0) == 0.0

    def test_peak_vectorized(self):
        om = np.linspace(-1, 1, 7)
        vals = eval_peak(om)
        assert vals.shape == om.shape
        assert np.all(vals >= 0)

    def test_tail_at_threshold_is_one(self):
        assert eval_tail(-0.95) == 1.0

    def test_tail_below_threshold_is_zero(self):
        assert eval_tail(-0.95 - 0.1) == 0.0
        assert eval_tail(-1.0) == 0.0

    def test_tail_against_high_precision_evaluation(self):
        for omega in (-0.95, -0.9, -0.5, 0.0, 0.7, 1.0):
            assert eval_tail(omega) == pytest.approx(mp_tail(omega), rel=1e-13)
        for gamma in (0.5, 2.0):
            with mp.workdps(50):
                want = float(_mp_tail(0.3, gamma=gamma))
            got = eval_tail(0.3, TailParams(gamma=gamma))
            assert got == pytest.approx(want, rel=1e-13)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PeakParams(beta=0.0)
        with pytest.raises(ValueError):
            TailParams(rho=-1.0)
        with pytest.raises(ValueError):
            TailParams(gamma=0.0)

    @pytest.mark.parametrize(
        "params, field, value, domain",
        [(PeakParams, "xi", math.nan, "finite"),
         (PeakParams, "alpha", math.nan, "finite"),
         (PeakParams, "beta", math.inf, "positive and finite"),
         (TailParams, "omega_thr", math.inf, "finite"),
         (TailParams, "lam", -5.0, "nonnegative and finite"),
         (TailParams, "rho", math.inf, "positive and finite"),
         (TailParams, "gamma", 0.0, "positive and finite")],
    )
    def test_param_domains(self, params, field, value, domain):
        # a NaN alpha used to end in "weights sum to nan", and an infinite
        # threshold or a negative tail amplitude gave a model
        with pytest.raises(ValueError, match=f"^{field} must be {domain}, got "):
            params(**{field: value})
        assert TailParams(lam=0.0).lam == 0.0


class TestMakeModel:
    def test_model_statistics(self, stats_a, stats_b):
        assert stats_a.mu1 == pytest.approx(-0.911, abs=5e-3)
        assert stats_a.sigma == pytest.approx(0.031, abs=5e-3)
        assert stats_b.mu1 == pytest.approx(-0.907, abs=5e-3)
        assert stats_b.sigma == pytest.approx(0.067, abs=5e-3)

    def test_weights_against_high_precision_profiles(self, model_a, model_b):
        # the normalized profiles at 50 digits, against the weights that
        # make_model evaluates on the whole grid at once
        for s, with_tail in ((model_a, False), (model_b, True)):
            with mp.workdps(50):
                vals = [
                    _mp_peak(om) + (_mp_tail(om) if with_tail else 0)
                    for om in s.eigenfrequencies
                ]
                total = mp.fsum(vals)
                ref = np.array([float(v / total) for v in vals])
            assert np.abs(s.weights - ref).max() <= 4e-15 * s.weights.max()

    def test_normalization_and_positivity(self, model_a, model_b):
        for s in (model_a, model_b):
            assert abs(s.weights.sum() - 1.0) < 1e-12
            assert (s.weights >= 0).all()
            assert (np.diff(s.eigenfrequencies) > 0).all()

    def test_midpoint_placement(self, model_a):
        assert np.array_equal(model_a.eigenfrequencies, midpoint_grid(512))
        assert model_a.eigenfrequencies[0] == -1.0 + 1.0 / 512.0
        assert model_a.eigenfrequencies[-1] == 1.0 - 1.0 / 512.0
        assert np.array_equal(midpoint_grid(1, 2.0), [0.0])

    def test_two_point_model(self):
        s = make_model("A", n_eigen=2)
        assert s.n_eigen == 2
        assert abs(s.weights.sum() - 1.0) < 1e-12

    def test_case_insensitive_kind(self):
        a = make_model("a")
        assert np.array_equal(a.weights, make_model("A").weights)

    def test_degenerate_parameters_rejected(self):
        # peak far outside the grid leaves zero weight everywhere
        with pytest.raises(ValueError, match="^model A weights sum to 0.0; "):
            make_model("A", peak=PeakParams(xi=100.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_model("C")


class TestDiscreteSpectrum:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteSpectrum([0.0, 0.5], [0.2, -0.1])
        with pytest.raises(ValueError):
            DiscreteSpectrum([0.5, 0.0], [0.2, 0.1])
        with pytest.raises(ValueError):
            DiscreteSpectrum([0.0, 1.5], [0.2, 0.1])
        with pytest.raises(ValueError):
            DiscreteSpectrum([0.0], [0.2, 0.1])
        with pytest.raises(ValueError):
            DiscreteSpectrum([], [])
        with pytest.raises(ValueError):
            DiscreteSpectrum([0.0, np.nan], [0.2, 0.1])

    @pytest.mark.parametrize("om, w", [([[0.0, 0.5]], [0.2, 0.1]),
                                       ([0.0, 0.5], [[0.2, 0.1]]), (0.0, 0.2)])
    def test_arrays_must_be_1d(self, om, w):
        with pytest.raises(ValueError,
                           match="^eigenfrequencies and weights must be 1-d$"):
            DiscreteSpectrum(om, w)

    @pytest.mark.parametrize("norm_scale", [np.inf, np.nan, -np.inf, 0.0])
    def test_norm_scale_must_be_positive_and_finite(self, norm_scale):
        with pytest.raises(ValueError, match="^norm_scale must be positive and finite"):
            DiscreteSpectrum([0.0, 0.5], [0.2, 0.1], norm_scale=norm_scale)

    def test_arrays_frozen(self):
        s = DiscreteSpectrum([0.0, 0.5], [0.2, 0.1])
        with pytest.raises(ValueError):
            s.weights[0] = 1.0
        for array in (s.eigenfrequencies, s.weights):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)

    def test_tiny_weights_clamped(self):
        s = DiscreteSpectrum([0.0, 0.5], [1e-310, 0.1])
        assert s.weights[0] == 0.0
        # below 1e-300 is clamped, 1e-300 itself kept
        s = DiscreteSpectrum([0.0, 0.5, 1.0], [0.9e-300, 1e-300, 0.1])
        assert list(s.weights) == [0.0, 1e-300, 0.1]

    def test_norm_scale_boundary_allowed(self):
        s = DiscreteSpectrum([-1.0, 1.0], [0.5, 0.5])
        assert s.norm_scale == 1.0


class TestMoments:
    def test_zeroth_moment_is_total_weight(self, model_a, model_b):
        assert energy_moment(model_a, 0) == pytest.approx(1.0, abs=1e-12)
        assert energy_moment(model_b, 0) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_moments(self):
        s = DiscreteSpectrum([-0.5, 0.5], [0.5, 0.5])
        assert energy_moment(s, 1) == pytest.approx(0.0, abs=1e-15)
        assert energy_moment(s, 2) == pytest.approx(0.25, rel=1e-15)
        assert central_moment(s, 2) == pytest.approx(0.25, rel=1e-15)
        assert central_moment(s, 1) == pytest.approx(0.5, rel=1e-15)

    def test_single_point_central_moment_vanishes(self):
        s = DiscreteSpectrum([0.3], [1.0])
        assert central_moment(s, 2) == 0.0
        assert summarize(s).sigma == 0.0
        assert summarize(s).mu1 == pytest.approx(0.3, rel=1e-15)

    def test_zero_total_weight_refused(self):
        # weights are nonnegative, so mu0 = 0 is the one total refused here
        s = DiscreteSpectrum([0.0, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError,
                           match="^central moments need positive total weight$"):
            central_moment(s, 2)
        with pytest.raises(ValueError, match="^summary needs positive total weight$"):
            summarize(s)

    def test_against_plain_python_sums(self):
        for seed in range(5):
            s = random_spectrum(seed)
            mu0 = sum(s.weights)
            for n in range(5):
                expect = sum(
                    w * om**n for om, w in zip(s.eigenfrequencies, s.weights)
                )
                assert energy_moment(s, n) == pytest.approx(expect, rel=1e-13)
            mean = energy_moment(s, 1) / mu0
            for n in range(1, 5):
                expect = sum(
                    w * abs(om - mean) ** n
                    for om, w in zip(s.eigenfrequencies, s.weights)
                )
                assert central_moment(s, n) == pytest.approx(expect, rel=1e-13)

    def test_order_validation(self):
        s = DiscreteSpectrum([0.0, 0.5], [0.2, 0.1])
        with pytest.raises(ValueError):
            energy_moment(s, -1)
        with pytest.raises(ValueError):
            central_moment(s, 0)

    def test_moment_consistency(self):
        # central second moment equals mu2 - mu1^2 for normalized spectra
        for seed in range(20):
            s = random_spectrum(seed, normalized=True)
            mu1 = energy_moment(s, 1)
            lhs = central_moment(s, 2)
            rhs = energy_moment(s, 2) - mu1**2
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_summary_central_matches_sigma(self, model_a):
        summ = summarize(model_a, orders=(2, 3))
        assert summ.central[2] == pytest.approx(summ.mu0 * summ.sigma**2, rel=1e-12)
        assert set(summ.central) == {2, 3}
        assert set(summarize(model_a).central) == {2}
        # order 1, the mean absolute deviation, is the lowest
        assert summarize(model_a, orders=(1,)).central == {1: central_moment(model_a, 1)}

    def test_weight_scaling(self):
        s = random_spectrum(3)
        c = 2.75
        scaled = DiscreteSpectrum(s.eigenfrequencies, s.weights * c)
        for n in range(4):
            assert energy_moment(scaled, n) == pytest.approx(
                c * energy_moment(s, n), rel=1e-12
            )
        for n in range(1, 4):
            assert central_moment(scaled, n) == pytest.approx(
                c * central_moment(s, n), rel=1e-12
            )
        # the mean and width are per unit weight
        for field in ("mu1", "sigma"):
            assert getattr(summarize(scaled), field) == pytest.approx(
                getattr(summarize(s), field), rel=1e-12)

    def test_tail_bounds(self, model_a, model_b):
        # mass beyond Gamma of the mean obeys the second-moment and
        # higher-moment tail inequalities on every spectrum we generate
        spectra = [model_a, model_b] + [
            random_spectrum(seed, normalized=True) for seed in range(10)
        ]
        for s in spectra:
            mu0 = s.mu0
            mean = energy_moment(s, 1) / mu0
            dist = np.abs(s.eigenfrequencies - mean)
            for gamma in np.logspace(-3, 0.5, 25):
                tail = s.weights[dist >= gamma].sum()
                for n in (2, 3, 4):
                    assert tail <= central_moment(s, n) / gamma**n + 1e-15


class TestSpectrumCsv:
    def test_round_trip_exact(self, tmp_path):
        from fouriergit.serialize import read_spectrum, write_spectrum

        s = random_spectrum(11, n=33, norm_scale=2.5)
        path = tmp_path / "s.csv"
        write_spectrum(path, s)
        back = read_spectrum(path)
        assert np.array_equal(back.eigenfrequencies, s.eigenfrequencies)
        assert np.array_equal(back.weights, s.weights)
        assert back.norm_scale == s.norm_scale

    def test_file_format(self, tmp_path):
        from fouriergit.serialize import write_spectrum

        s = DiscreteSpectrum([0.0, 0.5], [0.25, 0.75])
        path = tmp_path / "s.csv"
        write_spectrum(path, s)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"omega,weight" in raw
        assert raw.startswith(b"# norm_scale=1")

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_norm_scale_refused(self, tmp_path, value):
        from fouriergit.serialize import read_spectrum, write_spectrum

        path = tmp_path / "s.csv"
        write_spectrum(path, DiscreteSpectrum([0.0, 0.5], [0.25, 0.75]))
        lines = path.read_text().splitlines()
        assert lines[0] == "# norm_scale=1"
        path.write_text("\n".join([f"# norm_scale={value}", *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: norm_scale "):
            read_spectrum(path)

    def test_plain_comment_skipped_and_norm_scale_defaults_to_one(self, tmp_path):
        from fouriergit.serialize import read_spectrum

        path = tmp_path / "s.csv"
        path.write_text("# lines by hand\nomega,weight\n0,0.25\n0.5,0.75\n")
        s = read_spectrum(path)
        assert s.norm_scale == 1.0
        assert np.array_equal(s.eigenfrequencies, [0.0, 0.5])
        assert np.array_equal(s.weights, [0.25, 0.75])

    @pytest.mark.parametrize("text, message", [
        ("weight,omega\n0.25,0\n", "expected header omega,weight, got "),
        ("# norm_scale=1\n\n", "no CSV header found$"),
    ])
    def test_header_refused(self, tmp_path, text, message):
        from fouriergit.serialize import read_spectrum

        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            read_spectrum(path)

    def test_write_deterministic(self, tmp_path):
        from fouriergit.serialize import write_spectrum

        s = random_spectrum(4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_spectrum(p1, s)
        write_spectrum(p2, s)
        assert p1.read_bytes() == p2.read_bytes()
