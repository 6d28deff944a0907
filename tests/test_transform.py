import math

import mpmath as mp
import numpy as np
import pytest

from fouriergit import (
    DiscreteSpectrum,
    ErrorBudget,
    FourierMomentSet,
    FrequencyWindow,
    KernelSpec,
    PeriodicKernelParams,
    TransformCurve,
    _backend,
    error_report,
    exact_moments,
    exact_transform,
    gaussian_kernel,
    make_plan,
    reconstruct,
    sampled_moments,
    truncation_bound,
)

from conftest import random_spectrum


def mp_transform(spectrum, lam, nu, period=None, images=40):
    with mp.workdps(40):
        total = mp.mpf(0)
        lam_mp = mp.mpf(lam)
        pref = 1 / (lam_mp * mp.sqrt(2 * mp.pi))
        js = range(-images, images + 1) if period is not None else (0,)
        for om, w in zip(spectrum.eigenfrequencies, spectrum.weights):
            for j in js:
                shift = j * mp.mpf(period) if period is not None else 0
                z = (mp.mpf(nu) - mp.mpf(om) + shift) / lam_mp
                total += mp.mpf(w) * mp.exp(-z * z / 2)
        return float(pref * total)


class TestTransformCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransformCurve([0.0, 1.0], [1.0], "exact_gaussian")
        with pytest.raises(ValueError):
            TransformCurve([0.0], [1.0], "mystery")
        with pytest.raises(ValueError):
            TransformCurve([0.0, 1.0], [1.0, -0.5], "exact_gaussian")

    def test_reconstructed_may_dip_negative(self):
        # truncated series can undershoot; only exact kinds must be >= 0
        c = TransformCurve([0.0, 1.0], [1.0, -0.5], "reconstructed")
        assert c.values[1] == -0.5

    def test_arrays_frozen(self):
        c = TransformCurve([0.0, 1.0], [1.0, 2.0], "reconstructed")
        with pytest.raises(ValueError):
            c.values[0] = 3.0


class TestExactTransform:
    def test_against_high_precision(self):
        s = random_spectrum(2, n=8, normalized=True)
        lam = 0.07
        grid = np.array([-0.8, -0.2, 0.0, 0.33, 0.9])
        curve = exact_transform(s, lam, grid)
        assert curve.kind == "exact_gaussian"
        for nu, got in zip(grid, curve.values):
            assert got == pytest.approx(mp_transform(s, lam, nu), rel=1e-12)

    def test_single_line_is_kernel(self):
        s = DiscreteSpectrum([0.2], [1.0])
        grid = np.linspace(-1, 1, 41)
        curve = exact_transform(s, 0.05, grid)
        assert np.allclose(curve.values, gaussian_kernel(grid, 0.2, 0.05), rtol=1e-13)

    def test_total_mass(self, model_a):
        grid = np.linspace(-2, 2, 8001)
        curve = exact_transform(model_a, 0.01, grid)
        assert np.trapezoid(curve.values, grid) == pytest.approx(
            model_a.mu0, abs=1e-6
        )

    def test_periodic_against_high_precision(self):
        s = random_spectrum(5, n=6, normalized=True)
        lam, period = 0.06, 0.8
        kernel = KernelSpec(delta=3 * lam, sigma_leak=0.1, lam=lam)
        params = PeriodicKernelParams.from_period(period, kernel)
        grid = np.array([-0.3, 0.0, 0.11, 0.39])
        curve = exact_transform(s, lam, grid, periodic=params)
        assert curve.kind == "exact_periodic"
        for nu, got in zip(grid, curve.values):
            assert got == pytest.approx(
                mp_transform(s, lam, nu, period=period), rel=1e-11
            )

    def test_periodicity(self, model_a, kernel001):
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        grid = np.linspace(-1, -0.8, 17)
        a = exact_transform(model_a, kernel001.lam, grid, periodic=params)
        b = exact_transform(model_a, kernel001.lam, grid + 0.3, periodic=params)
        c = exact_transform(model_a, kernel001.lam, grid - 3 * 0.3, periodic=params)
        assert np.allclose(a.values, b.values, rtol=1e-12)
        assert np.allclose(a.values, c.values, rtol=1e-12)

    def test_periodic_dominates_plain(self, model_a, kernel001):
        # wrapping only ever adds (positive) image mass
        params = PeriodicKernelParams.from_period(0.5, kernel001)
        grid = np.linspace(-1, -0.8, 33)
        plain = exact_transform(model_a, kernel001.lam, grid)
        wrapped = exact_transform(model_a, kernel001.lam, grid, periodic=params)
        assert np.all(wrapped.values >= plain.values - 1e-13)

    def test_lam_validation(self, model_a):
        with pytest.raises(ValueError):
            exact_transform(model_a, 0.0, [0.0])

    @pytest.mark.parametrize("lam", [math.inf, math.nan, -math.inf])
    def test_non_finite_lam_refused(self, model_a, kernel001, lam):
        # an infinite width used to return a curve of zeros
        params = PeriodicKernelParams.from_period(0.5, kernel001)
        for periodic in (None, params):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                exact_transform(model_a, lam, [-0.9, -0.8], periodic=periodic)


class TestReconstruct:
    def test_matches_periodic_transform(self, model_a, kernel001, budget001,
                                        stats_a, window_model):
        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )
        params = PeriodicKernelParams.from_period(plan.period, kernel001)
        grid = np.linspace(window_model.nu_min, window_model.nu_max, 301)
        moments = exact_moments(model_a, params.dt, plan.n_terms)
        rec = reconstruct(moments, kernel001, params, plan.n_terms, grid)
        wrapped = exact_transform(model_a, kernel001.lam, grid, periodic=params)
        err = np.abs(rec.values - wrapped.values).max()
        assert err <= truncation_bound(plan.n_terms, plan.period, kernel001.lam)
        assert err * budget001.omega_scale <= budget001.eps_n
        assert rec.kind == "reconstructed"

    def test_truncation_bound_holds_for_single_line(self, kernel001):
        # worst case for truncation: all weight in one line
        s = DiscreteSpectrum([0.1], [1.0])
        period = 1.0
        params = PeriodicKernelParams.from_period(period, kernel001)
        grid = np.linspace(0.0, period, 257)
        wrapped = exact_transform(s, kernel001.lam, grid, periodic=params)
        for n in (20, 40, 80):
            moments = exact_moments(s, params.dt, n)
            rec = reconstruct(moments, kernel001, params, n, grid)
            err = np.abs(rec.values - wrapped.values).max()
            assert err <= truncation_bound(n, period, kernel001.lam)

    def test_more_terms_tighter(self, model_a, kernel001):
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        grid = np.linspace(-1.0, -0.8, 101)
        wrapped = exact_transform(model_a, kernel001.lam, grid, periodic=params)
        moments = exact_moments(model_a, params.dt, 64)
        errs = []
        for n in (4, 8, 16, 32, 64):
            rec = reconstruct(moments, kernel001, params, n, grid)
            errs.append(np.abs(rec.values - wrapped.values).max())
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-10 * max(wrapped.values)

    def test_two_sided_series_agrees_with_fast_path(self, model_a, kernel001):
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        grid = np.linspace(-1.0, -0.8, 40)
        moments = exact_moments(model_a, params.dt, 30)
        fast = reconstruct(moments, kernel001, params, 30, grid)
        full = reconstruct(moments, kernel001, params, 30, grid, full_series=True)
        assert np.allclose(fast.values, full.values, rtol=1e-12, atol=1e-12)

    def test_two_sided_series_rejects_asymmetric_moments(self, kernel001):
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        bad = FourierMomentSet(
            dt=params.dt,
            values=np.array([1.0 + 0.2j, 0.5, 0.25]),
            provenance="exact",
            mu0=1.0,
        )
        with pytest.raises(ValueError):
            reconstruct(bad, kernel001, params, 2, [0.05], full_series=True)

    def test_sampled_moments_tag_the_curve(self, model_a, kernel001):
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        moments = sampled_moments(
            model_a, params.dt, 10, shots_per_part=50, seed=1
        )
        rec = reconstruct(moments, kernel001, params, 10, [0.0, 0.1])
        assert rec.kind == "sampled_reconstructed"

    def test_moment_shift_rms_is_parseval_sum(self, model_a, kernel001):
        # Fourier orthogonality: the RMS over one period of the shift that
        # moment deviations dm_n cause in the reconstruction is
        # (1/P) sqrt(|env_0 dm_0|^2 + sum_{n>=1} 2 |env_n dm_n|^2)
        dt, n_max = 27.98, 8
        params = PeriodicKernelParams.from_period(2 * math.pi / dt, kernel001)
        ms = exact_moments(model_a, params.dt, n_max=n_max)
        rng = np.random.default_rng(123)
        dm = 1e-3 * (rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1))
        dm[0] = dm[0].real  # zeroth moments of real spectra stay real
        other = FourierMomentSet(
            dt=ms.dt, values=ms.values + dm, provenance="exact", mu0=ms.mu0
        )
        nu = np.arange(64) * params.period / 64
        shift = (
            reconstruct(other, kernel001, params, n_max, nu).values
            - reconstruct(ms, kernel001, params, n_max, nu).values
        )
        rms = math.sqrt(float(np.mean(shift**2)))
        n = np.arange(n_max + 1)
        env = np.exp(-0.5 * (params.dt * kernel001.lam) ** 2 * n**2)
        weights = np.where(n == 0, 1.0, 2.0)
        dm = other.values - ms.values
        parseval = math.sqrt(float(np.sum(weights * np.abs(env * dm) ** 2)))
        assert rms == pytest.approx(parseval / params.period, rel=1e-10)

    def test_validation(self, model_a, kernel001):
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        moments = exact_moments(model_a, params.dt, 10)
        with pytest.raises(ValueError):
            reconstruct(moments, kernel001, params, 0, [0.0])
        with pytest.raises(ValueError):
            reconstruct(moments, kernel001, params, 11, [0.0])
        other = PeriodicKernelParams.from_period(0.31, kernel001)
        with pytest.raises(ValueError):
            reconstruct(moments, kernel001, other, 10, [0.0])



@pytest.fixture()
def resummations(monkeypatch):
    """Counts the series resummations behind reconstruct."""
    from fouriergit import transform

    calls = []
    original = transform.reconstruct_series

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(transform, "reconstruct_series", counting)
    return calls


class TestReconstructMemo:
    @pytest.fixture()
    def inputs(self, model_a, kernel001):
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        moments = exact_moments(model_a, params.dt, 30)
        return moments, kernel001, params, np.linspace(-1.0, -0.8, 41)

    def test_repeated_call_returns_the_same_curve(self, inputs, resummations):
        moments, kernel, params, grid = inputs
        first = reconstruct(moments, kernel, params, 30, grid)
        # an equal grid in another object or type is the same key
        for g in (grid, grid.copy(), list(grid)):
            assert reconstruct(moments, kernel, params, 30, g) is first
        assert len(resummations) == 1

    @pytest.mark.parametrize(
        "change", ["moments", "lam", "period", "n_terms", "grid", "grid_size"]
    )
    def test_each_key_part_misses_alone(self, inputs, resummations, change):
        moments, kernel, params, grid = inputs
        first = reconstruct(moments, kernel, params, 30, grid)
        n_terms = 30
        if change == "moments":  # equal content, another object
            moments = FourierMomentSet(moments.dt, moments.values, "exact",
                                       moments.mu0)
        elif change == "lam":
            kernel = KernelSpec(kernel.delta, kernel.sigma_leak,
                                kernel.lam * 0.99, kernel.norm_scale)
        elif change == "period":  # one ulp, within the dt match check
            params = PeriodicKernelParams.from_period(
                float(np.nextafter(params.period, 1.0)), kernel
            )
            assert params.period != 0.3
        elif change == "n_terms":
            n_terms = 29
        elif change == "grid":
            grid = grid.copy()
            grid[17] = np.nextafter(grid[17], 0.0)
        else:
            grid = grid[:-1]
        again = reconstruct(moments, kernel, params, n_terms, grid)
        assert again is not first
        assert len(resummations) == 2
        want = _backend.reconstruct_series(
            np.asarray(grid), moments.values, params.dt, kernel.lam,
            params.period, n_terms,
        )
        assert np.array_equal(again.values, want)
        assert np.array_equal(again.grid, grid)

    def test_full_series_is_never_cached(self, inputs, resummations):
        moments, kernel, params, grid = inputs
        fast = reconstruct(moments, kernel, params, 30, grid)
        full = reconstruct(moments, kernel, params, 30, grid, full_series=True)
        again = reconstruct(moments, kernel, params, 30, grid, full_series=True)
        assert full is not fast and again is not full and again is not fast
        # the two-sided sums leave the fast path's entry in place
        assert reconstruct(moments, kernel, params, 30, grid) is fast
        assert len(resummations) == 1

    def test_checks_run_before_the_memo(self, inputs, kernel001):
        moments, kernel, params, grid = inputs
        reconstruct(moments, kernel, params, 30, grid)
        with pytest.raises(ValueError, match="exceeds the stored moment range"):
            reconstruct(moments, kernel, params, 31, grid)
        other = PeriodicKernelParams.from_period(0.31, kernel001)
        with pytest.raises(ValueError, match="does not match"):
            reconstruct(moments, kernel, other, 30, grid)

    def test_write_to_unfrozen_moments_recomputes(self, kernel001, resummations):
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        s = random_spectrum(6, n=16, normalized=True)
        moments = exact_moments(s, params.dt, 12)
        grid = np.linspace(-0.5, 0.5, 9)
        first = reconstruct(moments, kernel001, params, 12, grid)
        moments.values.setflags(write=True)
        moments.values[3] = 0.25
        again = reconstruct(moments, kernel001, params, 12, grid)
        assert again is not first
        assert len(resummations) == 2
        want = _backend.reconstruct_series(
            grid, moments.values, params.dt, kernel001.lam, params.period, 12
        )
        assert np.array_equal(again.values, want)
        assert not np.array_equal(again.values, first.values)

    def test_write_to_unfrozen_curve_recomputes(self, inputs, resummations):
        moments, kernel, params, grid = inputs
        first = reconstruct(moments, kernel, params, 30, grid)
        first.values.setflags(write=True)
        first.values[0] = -1.0
        again = reconstruct(moments, kernel, params, 30, grid)
        assert again is not first
        assert again.values[0] != -1.0
        assert len(resummations) == 2

    def test_readme_flow_computes_each_step_once(
        self, model_a, kernel001, budget001, stats_a, window_model,
        moment_sums, resummations,
    ):
        # exact_moments -> reconstruct -> error_report, as in the README
        # Quickstart: the report reuses the caller's moments and curve
        plan = make_plan("variance", kernel001, budget001,
                         window=window_model, moments=stats_a)
        params = PeriodicKernelParams.from_period(plan.period, kernel001)
        moments = exact_moments(model_a, params.dt, plan.n_terms)
        grid = np.linspace(window_model.nu_min, window_model.nu_max, 257)
        curve = reconstruct(moments, kernel001, params, plan.n_terms, grid)
        report = error_report(model_a, plan, kernel001, window_model,
                              budget001, n_grid=grid.size)
        assert report.within_period_budget and report.within_truncation_budget
        assert len(moment_sums) == 1 and len(resummations) == 1
        wrapped = exact_transform(model_a, kernel001.lam, grid, periodic=params)
        eps_n = budget001.omega_scale * np.abs(curve.values - wrapped.values).max()
        assert report.eps_n_measured == eps_n


class TestErrorReport:
    def test_variance_plan_within_budget(
        self, model_a, kernel001, budget001, stats_a, window_model
    ):
        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )
        report = error_report(
            model_a, plan, kernel001, window_model, budget001, n_grid=512
        )
        assert report.within_period_budget
        assert report.within_truncation_budget
        assert report.eps_p_measured <= budget001.eps_p
        assert report.eps_n_measured <= budget001.eps_n
        assert report.eps_total_measured <= (
            report.eps_p_measured + report.eps_n_measured
        ) * (1 + 1e-12)

    def test_general_plan_much_tighter(
        self, model_a, kernel001, budget001, window_model
    ):
        plan = make_plan("general", kernel001, budget001)
        report = error_report(
            model_a, plan, kernel001, window_model, budget001, n_grid=256
        )
        assert report.eps_p_measured < 1e-6
        assert report.eps_total_measured < 1e-6

    def test_sampled_moments_add_statistical_error(
        self, model_a, kernel001, budget001, stats_a, window_model
    ):
        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )
        params = PeriodicKernelParams.from_period(plan.period, kernel001)
        noisy = sampled_moments(
            model_a, params.dt, plan.n_terms, shots_per_part=200, seed=7
        )
        exact_rep = error_report(
            model_a, plan, kernel001, window_model, budget001, n_grid=128
        )
        noisy_rep = error_report(
            model_a, plan, kernel001, window_model, budget001, n_grid=128,
            moments=noisy,
        )
        assert noisy_rep.eps_n_measured > exact_rep.eps_n_measured

    def test_grid_validation(
        self, model_a, kernel001, budget001, stats_a, window_model, monkeypatch
    ):
        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )

        def no_work(*args, **kwargs):
            raise AssertionError("error_report did work before checking n_grid")

        # a bad grid is refused before any transform or moment is computed
        monkeypatch.setattr("fouriergit.transform.exact_transform", no_work)
        monkeypatch.setattr("fouriergit.transform.exact_moments", no_work)
        for n_grid in (-1, 0, 1):
            with pytest.raises(ValueError, match=f"n_grid must be >= 2, got {n_grid}"):
                error_report(
                    model_a, plan, kernel001, window_model, budget001, n_grid=n_grid
                )

