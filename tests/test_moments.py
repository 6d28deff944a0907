import math
import re

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
    sampled_moments,
)

from conftest import random_spectrum


def scalar_sampled_values(spectrum, dt, n_max, shots, seed, clamp=False):
    """Reference sampler: one generator per part, one scalar binomial draw
    per order in sequence, and the clamp written out per estimate."""
    exact = exact_moments(spectrum, dt, n_max)
    gens = [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(p,)))
        for p in (0, 1)
    ]
    mu0 = spectrum.mu0
    vals = np.empty(n_max + 1, dtype=np.complex128)
    vals[0] = mu0
    for n in range(1, n_max + 1):
        est = []
        for gen, x in zip(gens, (exact.values[n].real, exact.values[n].imag)):
            p = min(max(0.5 * (1.0 + x), 0.0), 1.0)
            est.append(2.0 * gen.binomial(shots, p) / shots - 1.0)
        if clamp:
            est = [min(max(e, -1.0), 1.0) for e in est]
        m = complex(est[0], est[1])
        if clamp and abs(m) > mu0:
            m *= mu0 / abs(m)
        vals[n] = m
    return vals


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
        for dt in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="^dt must be positive and finite"):
                FourierMomentSet(dt=dt, values=[1.0], provenance="exact", mu0=1.0)
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
        # a sampled set records integer shot counts and seeds
        for shots, seed, field in ((2.5, 1, "shots_per_part"),
                                   (2, 1.5, "seed"), (2, -1, "seed"),
                                   (math.nan, 1, "shots_per_part"),
                                   (2, math.inf, "seed")):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                FourierMomentSet(
                    dt=1.0, values=[1.0, 0.5], provenance="sampled", mu0=1.0,
                    shots_per_part=shots, seed=seed,
                )
        ms = FourierMomentSet(
            dt=1.0, values=[1.0, 0.5], provenance="sampled", mu0=1.0,
            shots_per_part=np.int64(2), seed=np.uint32(1),
        )
        assert (ms.shots_per_part, ms.seed) == (2, 1)

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

    def test_large_orders_against_high_precision(self, monkeypatch):
        # the n_terms = 42371 norm-bound plan at norm_scale 7987.5: phases
        # reach n dt |omega| ~ 1.3e5 rad. Its nyquist period is 2 h = L h on
        # the midpoint lines, which take the FFT path (one doubling table of
        # a single phase, 16 exponentials); the random lines take the direct
        # kernel (23 exponentials per line)
        evaluated = []
        expi = _backend._expi

        def counting(phase):
            evaluated.append(phase.size)
            return expi(phase)

        monkeypatch.setattr(_backend, "_expi", counting)
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
        for s, exponentials in zip(spectra, (16, 23 * 512)):
            evaluated.clear()
            ms = exact_moments(s, dt, n_max=max(orders))
            assert sum(evaluated) == exponentials
            for n in orders:
                assert abs(ms.values[n] - mp_moment(s, dt, n)) <= 1e-10 * s.mu0

    @pytest.mark.parametrize("norm_scale", [7987.5, 3.3])
    @pytest.mark.parametrize("turns", [1, 2, 3])
    def test_uniform_lines_against_high_precision(self, norm_scale, turns):
        # the FFT path carries the lines' phase offsets to first order, in
        # extended precision, so it stays at float64 rounding even where the
        # direct kernel's phase rounding has grown to ~5e-14
        rng = np.random.default_rng(8)
        w = rng.uniform(0.5, 1.5, 512)
        s = DiscreteSpectrum(
            midpoint_grid(512, norm_scale), w / w.sum(), norm_scale=norm_scale
        )
        dt = 2 * math.pi * turns / (2 * norm_scale)
        assert _backend._commensurate(s.eigenfrequencies, dt) == turns
        ms = exact_moments(s, dt, n_max=42_371)
        for n in (1, 12, 511, 512, 4_097, 40_000, 42_371):
            assert abs(ms.values[n] - mp_moment(s, dt, n)) <= 2e-15 * s.mu0

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

    @pytest.mark.parametrize("dt", [math.inf, math.nan, -math.inf])
    def test_non_finite_dt_refused(self, model_a, dt):
        # an infinite step used to give NaN moments with a RuntimeWarning
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            exact_moments(model_a, dt, 3)
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            sampled_moments(model_a, dt, 3, shots_per_part=10, seed=0)

    @pytest.mark.parametrize("n_max", [3.7, 0.5, math.inf, math.nan, -1.0])
    def test_non_integer_n_max_refused(self, model_a, n_max):
        # 3.7 used to give the moments to order 3 without a word
        with pytest.raises(ValueError, match="^n_max must be (an integer|>= 0), got "):
            exact_moments(model_a, 1.0, n_max)
        with pytest.raises(ValueError, match="^n_max must be (an integer|>= 0), got "):
            sampled_moments(model_a, 1.0, n_max, shots_per_part=10, seed=0)

    def test_integral_n_max_accepted(self, model_a):
        for n_max in (3, 3.0, np.int64(3)):
            assert exact_moments(model_a, 1.0, n_max).n_max == 3

    def test_n_max_independent_bitwise(self, model_a):
        # m_n must not depend on n_max, bitwise, also across the edges of
        # the phase-power blocks (block 0 is a matrix-vector product of its
        # own), of the block centers (each later block is two half blocks
        # around its center), of the doubling phase tables (rows 2^j of the
        # low table, block-row counts 2^j) and of the fixed-shape tiles
        # (_TILE blocks from order _BLOCK on) of the moment kernel
        block, tile = _backend._BLOCK, _backend._TILE
        half = block // 2
        low_rows = [1 << j for j in range(8)]  # up to _BLOCK rows
        block_rows = [1 << j for j in range(6)]  # up to _TILE rows
        edges = sorted({
            *range(8),
            *(k + d for k in low_rows for d in (-1, 0, 1)),
            *(block * (1 + r) + d for r in block_rows for d in (-1, 0, 1)),
            3 * block + 7,
            block + half - 1, block + half, block + half + 1,
            tile * block + half - 1, tile * block + half + 1,
            tile * block - 1, tile * block, tile * block + 1,
            block + tile * block - 1, block + tile * block,
            block + tile * block + 1,
            2 * tile * block + 7,
        })
        wide = random_spectrum(11, n=4096, normalized=True)
        for spectrum, n_long, shorts in (
            (model_a, 20, (5,)),
            (model_a, 3 * tile * block, edges),
            (wide, 3 * tile * block, edges),
        ):
            long = exact_moments(spectrum, 27.98, n_max=n_long)
            for n_short in shorts:
                short = exact_moments(spectrum, 27.98, n_max=n_short)
                assert np.array_equal(short.values, long.values[: n_short + 1])


class TestExactMomentsMemo:
    def test_repeated_call_returns_the_same_set(self, model_a, moment_sums):
        first = exact_moments(model_a, 27.98, 10)
        # equal arguments of another type are the same key
        for dt, n_max in ((27.98, 10), (np.float64(27.98), np.int64(10)),
                          (27.98, 10.0)):
            assert exact_moments(model_a, dt, n_max) is first
        assert len(moment_sums) == 1

    @pytest.mark.parametrize("change", ["spectrum", "dt", "n_max"])
    def test_each_key_part_misses_alone(self, model_a, moment_sums, change):
        first = exact_moments(model_a, 27.98, 10)
        spectrum, dt, n_max = model_a, 27.98, 10
        if change == "spectrum":  # equal content, another object
            spectrum = DiscreteSpectrum(model_a.eigenfrequencies, model_a.weights)
        elif change == "dt":
            dt = float(np.nextafter(27.98, 30.0))
        else:
            n_max = 11
        again = exact_moments(spectrum, dt, n_max)
        assert again is not first
        assert len(moment_sums) == 2
        want = _backend.phase_moment_sums(
            spectrum.eigenfrequencies, spectrum.weights, dt, n_max
        )
        assert np.array_equal(again.values, want)
        assert again.dt == dt

    def test_only_the_last_call_is_kept(self, model_a, moment_sums):
        a = exact_moments(model_a, 27.98, 10)
        exact_moments(model_a, 28.0, 10)
        assert exact_moments(model_a, 27.98, 10) is not a
        assert len(moment_sums) == 3

    def test_checks_run_before_the_memo(self, model_a):
        exact_moments(model_a, 27.98, 10)
        with pytest.raises(ValueError, match="^dt must be positive"):
            exact_moments(model_a, -27.98, 10)
        with pytest.raises(ValueError, match="^n_max must be an integer"):
            exact_moments(model_a, 27.98, 10.5)

    @pytest.mark.parametrize("array", ["eigenfrequencies", "weights"])
    def test_write_to_unfrozen_spectrum_recomputes(self, moment_sums, array):
        s = random_spectrum(4, n=16, normalized=True)
        first = exact_moments(s, 1.3, 6)
        arr = getattr(s, array)
        arr.setflags(write=True)
        arr[3] *= 0.5
        again = exact_moments(s, 1.3, 6)
        assert again is not first
        assert len(moment_sums) == 2
        want = _backend.phase_moment_sums(s.eigenfrequencies, s.weights, 1.3, 6)
        assert np.array_equal(again.values, want)
        assert again.mu0 == s.mu0

    def test_write_to_unfrozen_result_recomputes(self, model_a):
        first = exact_moments(model_a, 27.98, 10)
        first.values.setflags(write=True)
        first.values[2] = 7.0
        again = exact_moments(model_a, 27.98, 10)
        assert again is not first
        want = _backend.phase_moment_sums(
            model_a.eigenfrequencies, model_a.weights, 27.98, 10
        )
        assert np.array_equal(again.values, want)

    def test_seeds_share_one_exact_set(self, model_a, moment_sums):
        for seed in range(50):
            sampled_moments(model_a, 27.98, 25, shots_per_part=100, seed=seed)
        assert len(moment_sums) == 1


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
        # orders draw from each part's stream in sequence, so asking for
        # more orders leaves earlier estimates untouched
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
        err_coarse = np.sqrt(np.mean(np.abs(coarse.values - exact.values) ** 2))
        err_fine = np.sqrt(np.mean(np.abs(fine.values - exact.values) ** 2))
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

    def test_requires_normalized_spectrum(self, monkeypatch):
        s = random_spectrum(1, normalized=False)
        assert abs(s.mu0 - 1.0) > 1e-6

        def no_work(*args, **kwargs):
            raise AssertionError("exact moments computed before the mu0 check")

        # the normalization is refused before any moment is computed
        monkeypatch.setattr("fouriergit.moments.exact_moments", no_work)
        with pytest.raises(ValueError, match="normalized spectrum"):
            sampled_moments(s, 10.0, 3, shots_per_part=10, seed=0)

    @pytest.mark.parametrize("shots", [1, 3, 29, 31, 260, 5000, 10**7])
    def test_matches_scalar_draws_per_part_stream(self, model_a, shots):
        # all orders of a part come from one binomial call on one stream;
        # bitwise the same as scalar draws from that stream in order
        got = sampled_moments(model_a, 27.98, 60, shots, seed=17).values
        want = scalar_sampled_values(model_a, 27.98, 60, shots, 17)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("shots", [1, 3, 29, 31, 260, 5000, 10**7])
    def test_prefix_stable_across_binomial_algorithms(self, model_a, shots):
        # numpy draws by inversion below n*p = 30 and by BTPE above, with
        # different numbers of uniforms per draw; either way the first 25
        # orders do not see how many follow
        short = sampled_moments(model_a, 27.98, 25, shots, seed=8)
        long = sampled_moments(model_a, 27.98, 400, shots, seed=8)
        assert np.array_equal(short.values, long.values[:26])

    def test_vectorized_clamp_matches_scalar_formula(self, model_a):
        got = sampled_moments(
            model_a, 27.98, 40, shots_per_part=1, seed=9, clamp=True
        ).values
        want = scalar_sampled_values(model_a, 27.98, 40, 1, 9, clamp=True)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_shot_count_limited_to_int64(self, model_a):
        largest = int(np.iinfo(np.int64).max)
        m = sampled_moments(model_a, 27.98, 2, shots_per_part=largest, seed=0)
        assert m.shots_per_part == largest
        with pytest.raises(ValueError, match="shots_per_part"):
            sampled_moments(model_a, 27.98, 2, shots_per_part=largest + 1,
                            seed=0)

    def test_validation(self, model_a):
        with pytest.raises(ValueError):
            sampled_moments(model_a, 27.98, 3, shots_per_part=0, seed=0)
        with pytest.raises(ValueError):
            sampled_moments(model_a, 27.98, 3, shots_per_part=10, seed=-1)
        # 10.7 shots used to run as 10 and be recorded as 10
        for shots, seed, field in ((10.7, 0, "shots_per_part"),
                                   (10, 0.5, "seed"), (True, 0, "shots_per_part"),
                                   ("10", 0, "shots_per_part")):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                sampled_moments(model_a, 27.98, 3, shots_per_part=shots, seed=seed)
        ms = sampled_moments(
            model_a, 27.98, 3, shots_per_part=np.int32(10), seed=np.int64(0)
        )
        assert ms.shots_per_part == 10


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

    @pytest.mark.parametrize(
        "key, line",
        [("dt", None), ("mu0", None), ("provenance", None),
         ("dt", "# dt=abc"), ("mu0", "# mu0=abc"), ("dt", "# dt="),
         ("mu0", "# mu0=false")],
    )
    def test_metadata_checked(self, tmp_path, model_a, key, line):
        # a missing or non-numeric metadata value names the file and the key
        from fouriergit.serialize import read_moments, write_moments

        path = tmp_path / "m.csv"
        write_moments(path, exact_moments(model_a, 27.98, n_max=3))
        lines = [
            line if raw.startswith(f"# {key}=") else raw
            for raw in path.read_text().splitlines()
        ]
        path.write_text("\n".join(x for x in lines if x is not None) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*\\b{key}\\b"):
            read_moments(path)
