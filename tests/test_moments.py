import math

import mpmath as mp
import numpy as np
import pytest

from fouriergit import (
    DiscreteSpectrum,
    ErrorBudget,
    FourierMomentSet,
    KernelSpec,
    _backend,
    chi_general,
    exact_moments,
    midpoint_grid,
    moment_error_summary,
    sampled_moments,
)

from conftest import random_spectrum


def mp_moment(spectrum, dt, n):
    with mp.workdps(40):
        total = mp.mpc(0)
        for om, w in zip(spectrum.eigenfrequencies, spectrum.weights):
            total += mp.mpf(w) * mp.expj(-mp.mpf(n) * mp.mpf(dt) * mp.mpf(om))
        return complex(total)


class TestFourierMomentSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            FourierMomentSet(dt=0.0, values=[1.0], provenance="exact", mu0=1.0)
        with pytest.raises(ValueError):
            FourierMomentSet(dt=1.0, values=[], provenance="exact", mu0=1.0)
        with pytest.raises(ValueError):
            FourierMomentSet(dt=1.0, values=[1.0], provenance="guessed", mu0=1.0)
        with pytest.raises(ValueError):
            FourierMomentSet(dt=1.0, values=[1.0], provenance="sampled", mu0=1.0)
        with pytest.raises(ValueError):
            FourierMomentSet(
                dt=1.0, values=[1.0], provenance="sampled", mu0=1.0,
                shots_per_part=0, seed=1,
            )

    def test_values_frozen(self):
        ms = FourierMomentSet(dt=1.0, values=[1.0, 0.5j], provenance="exact", mu0=1.0)
        with pytest.raises(ValueError):
            ms.values[0] = 0.0

    def test_negative_orders_conjugate(self):
        ms = FourierMomentSet(
            dt=1.0, values=[1.0, 0.3 + 0.4j, -0.1j], provenance="exact", mu0=1.0
        )
        assert ms.n_max == 2
        assert ms.moment(-1) == np.conj(ms.moment(1))
        assert ms.moment(-2) == 0.1j
        with pytest.raises(ValueError):
            ms.moment(3)
        with pytest.raises(ValueError):
            ms.moment(-3)


class TestExactMoments:
    def test_zeroth_is_total_weight(self, model_a):
        ms = exact_moments(model_a, dt=1.7, n_max=4)
        assert ms.values[0] == pytest.approx(model_a.mu0, rel=1e-14)
        assert ms.provenance == "exact"

    def test_against_high_precision(self):
        s = random_spectrum(7, n=12)
        dt = 2 * math.pi / 2.3
        ms = exact_moments(s, dt, n_max=8)
        for n in range(9):
            want = mp_moment(s, dt, n)
            assert ms.values[n].real == pytest.approx(want.real, abs=1e-13)
            assert ms.values[n].imag == pytest.approx(want.imag, abs=1e-13)

    def test_large_orders_against_high_precision(self):
        # the n_terms = 42371 norm-bound plan at norm_scale 7987.5: phases
        # reach n dt |omega| ~ 1.3e5 rad
        h = 7987.5
        kernel = KernelSpec.from_resolution(1.0, 0.01, h)
        budget = ErrorBudget(0.01, 0.01, 0.05, 1.0)
        dt = 2 * math.pi / chi_general(kernel, budget, mode="nyquist").period
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 1.5, 512)
        spectra = (
            DiscreteSpectrum(midpoint_grid(512, h), w / w.sum(), norm_scale=h),
            random_spectrum(6, n=512, norm_scale=h, normalized=True),
        )
        orders = (40_000, 41_111, 42_371)
        for s in spectra:
            ms = exact_moments(s, dt, n_max=max(orders))
            for n in orders:
                assert abs(ms.values[n] - mp_moment(s, dt, n)) <= 1e-10 * s.mu0

    def test_against_direct_formula(self, model_a):
        dt = 2 * math.pi / 2.02
        ms = exact_moments(model_a, dt, n_max=40)
        om, w = model_a.eigenfrequencies, model_a.weights
        for n in (0, 1, 13, 40):
            direct = np.sum(w * np.exp(-1j * n * dt * om))
            assert abs(ms.values[n] - direct) < 1e-14

    def test_phase_sign_for_single_line(self):
        # one eigenvalue at omega0 > 0 gives m_1 = e^{-i dt omega0}, i.e.
        # a negative phase angle
        s = DiscreteSpectrum([0.3], [1.0])
        ms = exact_moments(s, dt=1.0, n_max=1)
        assert np.angle(ms.values[1]) == pytest.approx(-0.3, rel=1e-12)

    def test_modulus_bounded_by_mu0(self):
        for seed in range(5):
            s = random_spectrum(seed)
            ms = exact_moments(s, dt=3.0, n_max=25)
            assert np.all(np.abs(ms.values) <= s.mu0 * (1 + 1e-12))

    def test_group_property_for_single_line(self):
        # for one line, m_n = m_1^n
        s = DiscreteSpectrum([0.41], [1.0])
        ms = exact_moments(s, dt=2.0, n_max=6)
        for n in range(7):
            assert ms.values[n] == pytest.approx(ms.values[1] ** n, rel=1e-12)

    def test_validation(self, model_a):
        with pytest.raises(ValueError):
            exact_moments(model_a, dt=0.0, n_max=3)
        with pytest.raises(ValueError):
            exact_moments(model_a, dt=1.0, n_max=-1)


class TestSampledMoments:
    def test_deterministic(self, model_a):
        kw = dict(dt=27.98, n_max=10, shots_per_part=100, seed=42)
        a = sampled_moments(model_a, **kw)
        b = sampled_moments(model_a, **kw)
        assert np.array_equal(a.values, b.values)
        assert a.provenance == "sampled"
        assert a.shots_per_part == 100
        assert a.seed == 42

    def test_prefix_stable_under_longer_runs(self, model_a):
        # order n draws from its own stream, so asking for more orders
        # leaves earlier estimates untouched
        short = sampled_moments(model_a, 27.98, n_max=6, shots_per_part=64, seed=3)
        long = sampled_moments(model_a, 27.98, n_max=20, shots_per_part=64, seed=3)
        assert np.array_equal(short.values, long.values[:7])

    def test_seed_changes_estimates(self, model_a):
        a = sampled_moments(model_a, 27.98, n_max=10, shots_per_part=100, seed=1)
        b = sampled_moments(model_a, 27.98, n_max=10, shots_per_part=100, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_zeroth_moment_exact(self, model_a):
        ms = sampled_moments(model_a, 27.98, n_max=5, shots_per_part=7, seed=0)
        assert ms.values[0] == model_a.mu0

    def test_estimates_on_measurement_lattice(self, model_a):
        # each part is 2k/shots - 1 for an integer k
        shots = 37
        ms = sampled_moments(model_a, 27.98, n_max=8, shots_per_part=shots, seed=5)
        for m in ms.values[1:]:
            for part in (m.real, m.imag):
                k = (part + 1.0) * shots / 2.0
                assert k == pytest.approx(round(k), abs=1e-9)
                assert 0 <= round(k) <= shots

    def test_error_shrinks_with_shots(self, model_a):
        dt = 27.98
        exact = exact_moments(model_a, dt, n_max=40)
        coarse = sampled_moments(model_a, dt, 40, shots_per_part=50, seed=11)
        fine = sampled_moments(model_a, dt, 40, shots_per_part=50000, seed=11)
        err_coarse = moment_error_summary(exact, coarse).rms
        err_fine = moment_error_summary(exact, fine).rms
        assert err_fine < err_coarse / 3

    def test_unbiased_over_seeds(self, model_a):
        dt = 27.98
        exact = exact_moments(model_a, dt, n_max=3)
        shots = 200
        n_seeds = 300
        acc = np.zeros(4, dtype=np.complex128)
        for seed in range(n_seeds):
            acc += sampled_moments(
                model_a, dt, 3, shots_per_part=shots, seed=seed
            ).values
        mean = acc / n_seeds
        # each part has variance <= 1/shots, so the seed-averaged mean has
        # standard error <= 1/sqrt(shots * n_seeds); demand 5 sigma
        tol = 5.0 / math.sqrt(shots * n_seeds)
        for n in range(1, 4):
            assert abs(mean[n].real - exact.values[n].real) < tol
            assert abs(mean[n].imag - exact.values[n].imag) < tol

    def test_clamp_restores_modulus_bound(self, model_a):
        # with a single shot each part is +-1, so |m_n| = sqrt(2) > mu0
        # unless clamped
        raw = sampled_moments(model_a, 27.98, 10, shots_per_part=1, seed=9)
        assert np.abs(raw.values[1:]).max() > 1.0 + 1e-9
        clamped = sampled_moments(
            model_a, 27.98, 10, shots_per_part=1, seed=9, clamp=True
        )
        assert np.abs(clamped.values).max() <= 1.0 + 1e-12
        # clamping preserves the phase of each estimate
        keep = np.abs(raw.values[1:]) > 0
        assert np.allclose(
            np.angle(clamped.values[1:][keep]), np.angle(raw.values[1:][keep])
        )

    def test_requires_normalized_spectrum(self):
        s = random_spectrum(1, normalized=False)
        assert abs(s.mu0 - 1.0) > 1e-6
        with pytest.raises(ValueError):
            sampled_moments(s, 10.0, 3, shots_per_part=10, seed=0)

    def test_validation(self, model_a):
        with pytest.raises(ValueError):
            sampled_moments(model_a, 27.98, 3, shots_per_part=0, seed=0)
        with pytest.raises(ValueError):
            sampled_moments(model_a, 27.98, 3, shots_per_part=10, seed=-1)


class TestMomentErrorSummary:
    def test_identical_sets(self, model_a):
        ms = exact_moments(model_a, 27.98, n_max=10)
        summ = moment_error_summary(ms, ms, lam=0.0066)
        assert summ.max_abs_err == 0.0
        assert summ.rms == 0.0
        assert summ.weighted_aggregate == 0.0

    def test_single_known_deviation(self, model_a):
        ms = exact_moments(model_a, 27.98, n_max=10)
        vals = np.array(ms.values)
        vals[4] += 1e-3
        other = FourierMomentSet(
            dt=ms.dt, values=vals, provenance="exact", mu0=ms.mu0
        )
        lam = 0.0066
        summ = moment_error_summary(ms, other, lam=lam)
        assert summ.max_abs_err == pytest.approx(1e-3, rel=1e-12)
        env = math.exp(-0.5 * (ms.dt * lam * 4) ** 2)
        period = 2 * math.pi / ms.dt
        assert summ.weighted_aggregate == pytest.approx(
            math.sqrt(2.0) * env * 1e-3 / period, rel=1e-12
        )

    def test_aggregate_is_rms_of_reconstruction_shift(self, model_a):
        # Fourier orthogonality: the weighted aggregate equals the RMS over
        # one period of the pointwise shift the moment deviations produce
        dt = 27.98
        lam = 0.0066
        period = 2 * math.pi / dt
        n_max = 8
        ms = exact_moments(model_a, dt, n_max=n_max)
        rng = np.random.default_rng(123)
        dm = 1e-3 * (rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1))
        dm[0] = dm[0].real  # zeroth moments of real spectra stay real
        other = FourierMomentSet(
            dt=dt,
            values=ms.values + dm,
            provenance="exact",
            mu0=ms.mu0,
        )
        summ = moment_error_summary(ms, other, lam=lam)

        nu = np.arange(64) * period / 64
        dm = other.values - ms.values
        n = np.arange(n_max + 1)
        env = np.exp(-0.5 * (dt * lam) ** 2 * n**2)
        shift = np.empty_like(nu)
        for j, v in enumerate(nu):
            series = env * dm * np.exp(1j * dt * n * v)
            shift[j] = (series[0].real + 2 * series[1:].real.sum()) / period
        rms = math.sqrt(float(np.mean(shift**2)))
        assert summ.weighted_aggregate == pytest.approx(rms, rel=1e-10)

    def test_truncates_to_common_orders(self, model_a):
        # m_n must not depend on n_max, bitwise, also across the edges of
        # the phase-power blocks of the moment kernel
        block = _backend._BLOCK
        edges = (*range(8), block - 1, block, block + 1, 3 * block + 7)
        wide = random_spectrum(11, n=4096, normalized=True)
        for spectrum, n_long, shorts in (
            (model_a, 20, (5,)),
            (model_a, 5000, edges),
            (wide, 5000, edges),
        ):
            long = exact_moments(spectrum, 27.98, n_max=n_long)
            for n_short in shorts:
                short = exact_moments(spectrum, 27.98, n_max=n_short)
                summ = moment_error_summary(long, short)
                assert summ.orders.size == n_short + 1
                assert summ.max_abs_err == 0.0
                assert summ.weighted_aggregate is None

    def test_dt_mismatch_rejected(self, model_a):
        a = exact_moments(model_a, 27.98, n_max=3)
        b = exact_moments(model_a, 28.0, n_max=3)
        with pytest.raises(ValueError):
            moment_error_summary(a, b)

    def test_lam_validation(self, model_a):
        ms = exact_moments(model_a, 27.98, n_max=3)
        with pytest.raises(ValueError):
            moment_error_summary(ms, ms, lam=0.0)


class TestMomentsCsv:
    def test_round_trip(self, tmp_path, model_a):
        from fouriergit.serialize import read_moments, write_moments

        for ms in (
            exact_moments(model_a, 27.98, n_max=12),
            sampled_moments(model_a, 27.98, 12, shots_per_part=77, seed=4),
        ):
            path = tmp_path / f"{ms.provenance}.csv"
            write_moments(path, ms)
            back = read_moments(path)
            assert back.dt == ms.dt
            assert np.array_equal(back.values, ms.values)
            assert back.provenance == ms.provenance
            assert back.shots_per_part == ms.shots_per_part
            assert back.seed == ms.seed
