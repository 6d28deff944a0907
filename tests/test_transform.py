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
    error_report,
    exact_moments,
    exact_transform,
    gaussian_kernel,
    make_plan,
    reconstruct,
    sampled_moments,
    sampled_reconstruction,
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


class TestSampledReconstruction:
    def test_deterministic_and_uses_plan_shots(
        self, model_a, kernel001, budget001, stats_a, window_model
    ):
        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )
        grid = np.linspace(-1.0, -0.8, 65)
        a = sampled_reconstruction(model_a, plan, kernel001, grid, seed=3)
        b = sampled_reconstruction(model_a, plan, kernel001, grid, seed=3)
        assert np.array_equal(a.values, b.values)
        assert a.kind == "sampled_reconstructed"
        # matches the manual pipeline at the plan's own shot count
        params = PeriodicKernelParams.from_period(plan.period, kernel001)
        m = sampled_moments(
            model_a, params.dt, plan.n_terms, plan.shots_per_moment, 3
        )
        manual = reconstruct(m, kernel001, params, plan.n_terms, grid)
        assert np.array_equal(a.values, manual.values)

    def test_shot_override_and_convergence(
        self, model_a, kernel001, budget001, stats_a, window_model
    ):
        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )
        grid = np.linspace(-1.0, -0.8, 65)
        params = PeriodicKernelParams.from_period(plan.period, kernel001)
        exact = reconstruct(
            exact_moments(model_a, params.dt, plan.n_terms),
            kernel001, params, plan.n_terms, grid,
        )
        coarse = sampled_reconstruction(
            model_a, plan, kernel001, grid, seed=5, shots_per_part=20
        )
        fine = sampled_reconstruction(
            model_a, plan, kernel001, grid, seed=5, shots_per_part=200000
        )
        err_coarse = np.abs(coarse.values - exact.values).max()
        err_fine = np.abs(fine.values - exact.values).max()
        assert err_fine < err_coarse / 5

    def test_plan_without_shots_needs_override(
        self, model_a, kernel001, budget001, stats_a, window_model
    ):
        from fouriergit import ExtensionPlan

        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )
        bare = ExtensionPlan(
            period=plan.period, chi=plan.chi, n_terms=plan.n_terms,
            shots_per_moment=None, total_shots=None, method=plan.method,
            inputs_echo=dict(plan.inputs_echo),
        )
        grid = [0.0]
        with pytest.raises(ValueError):
            sampled_reconstruction(model_a, bare, kernel001, grid, seed=1)
        curve = sampled_reconstruction(
            model_a, bare, kernel001, grid, seed=1, shots_per_part=10
        )
        assert curve.values.shape == (1,)
