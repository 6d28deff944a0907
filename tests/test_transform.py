import dataclasses
import math
from types import SimpleNamespace

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
    summarize,
    truncation_bound,
)
from fouriergit.transform import _curves

from conftest import (
    MemoContract,
    normal_mixture_moments,
    random_spectrum,
    same_bits,
    wrapped_normal,
)


def mp_transform(spectrum, lam, nu, period=None, images=40, reach=math.inf):
    """The transform at nu in 40-digit arithmetic, over the images -images..
    images of each line, leaving out the terms more than reach lam away."""
    with mp.workdps(40):
        total = mp.mpf(0)
        lam_mp = mp.mpf(lam)
        pref = 1 / (lam_mp * mp.sqrt(2 * mp.pi))
        js = range(-images, images + 1) if period is not None else (0,)
        for om, w in zip(spectrum.eigenfrequencies, spectrum.weights):
            for j in js:
                shift = j * mp.mpf(period) if period is not None else 0
                z = (mp.mpf(nu) - mp.mpf(om) + shift) / lam_mp
                if abs(z) <= reach:
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

    def test_exact_kinds_allow_rounding_below_zero(self):
        # an exact curve may dip 1e-15 max(1, largest value) below zero
        TransformCurve([0.0, 1.0], [-1e-15, 0.5], "exact_gaussian")
        TransformCurve([0.0, 1.0], [-4e-15, 4.0], "exact_periodic")
        for values in ([-1.1e-15, 0.5], [-4.4e-15, 4.0]):
            with pytest.raises(ValueError, match="must be nonnegative"):
                TransformCurve([0.0, 1.0], values, "exact_gaussian")

    def test_reconstructed_may_dip_negative(self):
        # truncated series can undershoot; only exact kinds must be >= 0
        c = TransformCurve([0.0, 1.0], [1.0, -0.5], "reconstructed")
        assert c.values[1] == -0.5

    def test_arrays_frozen(self):
        c = TransformCurve([0.0, 1.0], [1.0, 2.0], "reconstructed")
        with pytest.raises(ValueError):
            c.values[0] = 3.0
        for array in (c.grid, c.values):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)


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

    def test_too_few_images_refused(self, model_a):
        # an extension made for a narrower kernel sums no image, while lam
        # = 0.2 at period 0.6 needs 13 on each side: summed with 0 the
        # transform is off by 5.5% of its maximum, so it is refused. More
        # images than needed give the same bits
        narrow = PeriodicKernelParams.from_period(
            0.6, KernelSpec.from_resolution(0.02, 0.01, 1.0))
        assert narrow.wrap_count == 0 and _backend.image_count(0.2, 0.6) == 13
        grid = np.linspace(-1.0, -0.8, 257)
        with pytest.raises(ValueError, match=r"sums 0 images on each side; "
                           r"lam=0.2 at period 0.6 needs 13$"):
            exact_transform(model_a, 0.2, grid, periodic=narrow)
        least, more = (exact_transform(model_a, 0.2, grid,
                                       periodic=PeriodicKernelParams(0.6, k))
                       for k in (13, 14))
        assert same_bits(least.values, more.values)
        none = _backend.gaussian_transform(grid, model_a.eigenfrequencies,
                                           model_a.weights, 0.2, 0.6, 0)
        assert np.abs(none - least.values).max() > 0.05 * least.values.max()

    def test_lam_validation(self, model_a):
        with pytest.raises(ValueError):
            exact_transform(model_a, 0.0, [0.0])

    @pytest.mark.parametrize("lam", [1e-300, 1e-156])
    def test_lam_too_small_for_the_exponent_refused(self, lam):
        # -1/(2 lam^2) divided by zero at 1e-300; at 1e-156 it was -inf and
        # the grid point on the line at 0 read NaN for about 4e155
        s = DiscreteSpectrum([0.0, 0.5], [1.0, 1.0])
        for periodic in (None, PeriodicKernelParams(2.0, 0)):
            with pytest.raises(ValueError, match=rf"^lam={lam} is too small"):
                exact_transform(s, lam, [0.0, 0.25], periodic=periodic)

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

    @pytest.mark.parametrize("model", ["A", "B"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-2])
    def test_reflection_reflects_the_curves(self, model, eps, kernel001,
                                            window_model, request):
        # omega -> -omega, with the window and the grid reflected too: the
        # variance plan is the same, and the plain and periodic transforms
        # and the reconstruction at the reflected points are the original
        # curves to within 8 eps max|curve| (measured: at most 1.8 eps).
        # Model B at eps 1e-4 plans 143 terms, past the moment kernel's
        # block 0; the other three plan 96, 25 and 31 terms
        spectrum = request.getfixturevalue(f"model_{model.lower()}")
        mirror = DiscreteSpectrum(-spectrum.eigenfrequencies[::-1],
                                  spectrum.weights[::-1],
                                  norm_scale=spectrum.norm_scale)
        window = FrequencyWindow(-window_model.nu_max, -window_model.nu_min)
        grid = np.linspace(window_model.nu_min, window_model.nu_max, 257)
        budget = ErrorBudget(eps, eps, 0.05, 2.0 / 512, 0.05)
        plans = [make_plan("variance", kernel001, budget, window=w,
                           moments=summarize(s))
                 for s, w in ((spectrum, window_model), (mirror, window))]
        echo = plans[0].inputs_echo
        assert plans[1] == dataclasses.replace(plans[0], inputs_echo={
            **echo, "nu_min": window.nu_min, "nu_max": window.nu_max,
            "mu1": -echo["mu1"]})
        plan = plans[0]
        if (model, eps) == ("B", 1e-4):
            assert plan.n_terms > _backend._BLOCK
        params = PeriodicKernelParams.from_period(plan.period, kernel001)
        curves = []
        for s, nus in ((spectrum, grid), (mirror, -grid[::-1])):
            moments = exact_moments(s, params.dt, plan.n_terms)
            curves.append((
                exact_transform(s, kernel001.lam, nus),
                exact_transform(s, kernel001.lam, nus, periodic=params),
                reconstruct(moments, kernel001, params, plan.n_terms, nus),
            ))
        for a, b in zip(*curves):
            bound = 8 * np.finfo(np.float64).eps * np.abs(a.values).max()
            assert np.abs(b.values[::-1] - a.values).max() <= bound, a.kind

    @pytest.mark.parametrize("method", ["variance", "central"])
    def test_shift_moves_the_curves(self, model_a, method):
        # omega -> omega + c, c = 0.37, with the grid moved by c too: under
        # one plan the reconstruction at fl(nu + c) is the original one at
        # nu. The two series differ by (2/P) Re sum_n env_n exp(i n x) (exp(i
        # n dt c) m'_n - m_n), whose size is the measured moment gap (the
        # factor rounding 2 eps (1 + n dt c) |m_n|), plus each evaluation's
        # rounding, 1e-14 + 8 eps n max|x| of each term as in the closed-form
        # check, plus fl(nu + c)'s own, u n max|x'|
        c, eps = 0.37, np.finfo(np.float64).eps
        kernel = KernelSpec.from_resolution(0.02, 0.01, 2.0)
        budget = ErrorBudget(0.01, 0.01, 0.05, 2.0 / 512)
        plan = make_plan(method, kernel, budget, window=FrequencyWindow(-1.0, -0.8),
                         moments=summarize(model_a, orders=(2, 4)),
                         central_order=4 if method == "central" else None)
        params = PeriodicKernelParams.from_period(plan.period, kernel)
        moved = DiscreteSpectrum(model_a.eigenfrequencies + c, model_a.weights,
                                 norm_scale=2.0)
        grid = np.linspace(-1.0, -0.8, 257)
        n, dt = np.arange(plan.n_terms + 1), params.dt
        m, m_moved = (exact_moments(s, dt, plan.n_terms) for s in (model_a, moved))
        curves = [reconstruct(mo, kernel, params, plan.n_terms, g).values
                  for mo, g in ((m, grid), (m_moved, grid + c))]
        env = np.exp(-0.5 * (dt * kernel.lam * n) ** 2)
        size = np.abs(m.values)
        gap = np.abs(np.exp(1j * n * dt * c) * m_moved.values - m.values)
        top = dt * max(np.abs(grid).max(), np.abs(grid + c).max())
        term = (gap + 2 * eps * (1 + n * dt * c) * size
                + size * (2e-14 + 16 * eps * n * top + eps / 2 * n * top))
        assert m_moved.values[0] == m.values[0]
        tol = 2 * np.sum(env[1:] * term[1:]) / plan.period
        assert np.abs(curves[1] - curves[0]).max() <= tol

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

    def test_one_term_agrees_with_two_sided_series(self, model_a, kernel001):
        # n_terms = 1 is the least reconstruct takes: the series m_0 plus
        # one harmonic
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        grid = np.linspace(-1.0, -0.8, 40)
        moments = exact_moments(model_a, params.dt, 1)
        fast = reconstruct(moments, kernel001, params, 1, grid)
        full = reconstruct(moments, kernel001, params, 1, grid, full_series=True)
        assert np.allclose(fast.values, full.values, rtol=1e-12, atol=1e-12)

    def test_time_step_tolerance(self, model_a, kernel001):
        # moments at a time step within 1e-12 relative of the extension's
        # are accepted, and refused beyond it
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        near = exact_moments(model_a, params.dt * (1 + 0.8e-12), 2)
        reconstruct(near, kernel001, params, 2, [-0.9])
        far = exact_moments(model_a, params.dt * (1 + 1.2e-12), 2)
        with pytest.raises(ValueError, match="does not match"):
            reconstruct(far, kernel001, params, 2, [-0.9])

    def test_two_sided_residue_is_relative(self, model_a, kernel001):
        # the imaginary residue is judged against the curve's scale, so a
        # set of weight 1e6 resums as the fast path does
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        exact = exact_moments(model_a, params.dt, 10)
        heavy = FourierMomentSet(dt=exact.dt, values=1e6 * exact.values,
                                 provenance="exact", mu0=1e6)
        grid = np.linspace(-1.0, -0.8, 40)
        fast = reconstruct(heavy, kernel001, params, 10, grid)
        full = reconstruct(heavy, kernel001, params, 10, grid, full_series=True)
        assert np.allclose(fast.values, full.values, rtol=1e-12, atol=0.0)
        # the residue may reach 1e-10 of the scale: an m_0 tilted by 0.8e-10
        # is accepted, by 1.2e-10 refused
        for tilt in (0.8e-10, 1.2e-10):
            tilted = FourierMomentSet(dt=params.dt, values=[1.0 + tilt * 1j, 0.0],
                                      provenance="exact", mu0=1.0)
            if tilt < 1e-10:
                reconstruct(tilted, kernel001, params, 1, [0.0], full_series=True)
            else:
                with pytest.raises(ValueError, match="imaginary residue"):
                    reconstruct(tilted, kernel001, params, 1, [0.0],
                                full_series=True)

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


class TestReconstructMemo(MemoContract):
    PARTS = ("moments", "lam", "period", "n_terms", "grid", "grid_size")

    @pytest.fixture()
    def args(self, model_a, kernel001):
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        moments = exact_moments(model_a, params.dt, 30)
        return moments, kernel001, params, 30, np.linspace(-1.0, -0.8, 41)

    @pytest.fixture()
    def computed(self, resummations):
        return resummations

    call = staticmethod(reconstruct)

    @staticmethod
    def fresh(moments, kernel, params, n_terms, grid):
        return _backend.reconstruct_series(
            np.asarray(grid, dtype=np.float64), moments.values, params.dt,
            kernel.lam, params.period, int(n_terms),
        )

    @staticmethod
    def copies(moments, kernel, params, n_terms, grid):
        equal = FourierMomentSet(moments.dt, moments.values.copy(), "exact",
                                 moments.mu0)
        return ((equal, kernel, params, n_terms, grid.copy()),
                (moments, kernel, params, float(n_terms), list(grid)))

    @staticmethod
    def change(part, moments, kernel, params, n_terms, grid):
        if part == "moments":  # one moment one ulp up
            values = moments.values.copy()
            values[5] = complex(np.nextafter(values[5].real, 1.0), values[5].imag)
            moments = FourierMomentSet(moments.dt, values, "exact", moments.mu0)
        elif part == "lam":
            kernel = KernelSpec(kernel.delta, kernel.sigma_leak,
                                kernel.lam * 0.99, kernel.norm_scale)
        elif part == "period":  # one ulp, within the dt match check
            params = PeriodicKernelParams.from_period(
                float(np.nextafter(params.period, 1.0)), kernel
            )
            assert params.period != 0.3
        elif part == "n_terms":
            n_terms -= 1
        elif part == "grid":
            grid = grid.copy()
            grid[17] = np.nextafter(grid[17], 0.0)
        else:
            grid = grid[:-1]
        return moments, kernel, params, n_terms, grid

    @staticmethod
    def array(result):
        return result.values

    def test_full_series_is_never_cached(self, args, resummations):
        moments, kernel, params, n_terms, grid = args
        fast = reconstruct(moments, kernel, params, 30, grid)
        full = reconstruct(moments, kernel, params, 30, grid, full_series=True)
        again = reconstruct(moments, kernel, params, 30, grid, full_series=True)
        assert full is not fast and again is not full and again is not fast
        # the two-sided sums leave the fast path's entry in place
        assert reconstruct(moments, kernel, params, 30, grid) is fast
        assert len(resummations) == 1

    def test_checks_run_before_the_memo(self, args, kernel001):
        moments, kernel, params, n_terms, grid = args
        reconstruct(moments, kernel, params, 30, grid)
        with pytest.raises(ValueError, match="exceeds the stored moment range"):
            reconstruct(moments, kernel, params, 31, grid)
        other = PeriodicKernelParams.from_period(0.31, kernel001)
        with pytest.raises(ValueError, match="does not match"):
            reconstruct(moments, kernel, other, 30, grid)

    def test_write_to_unfrozen_moments_recomputes(self, kernel001, resummations):
        # written through .base, the one route around the frozen view, and
        # made read-only again: the bytes changed, so the key did
        params = PeriodicKernelParams.from_period(0.3, kernel001)
        s = random_spectrum(6, n=16, normalized=True)
        values = exact_moments(s, params.dt, 12).values
        moments = FourierMomentSet(params.dt, values, "exact", s.mu0)
        grid = np.linspace(-0.5, 0.5, 9)
        first = reconstruct(moments, kernel001, params, 12, grid)
        moments.values.base.setflags(write=True)
        moments.values.base[3] = 0.25
        moments.values.base.setflags(write=False)
        again = reconstruct(moments, kernel001, params, 12, grid)
        assert again is not first
        assert len(resummations) == 2
        want = self.fresh(moments, kernel001, params, 12, grid)
        assert same_bits(again.values, want)
        assert not np.array_equal(again.values, first.values)

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


@pytest.fixture()
def plain_transforms(monkeypatch):
    """Counts the plain Gaussian transforms behind exact_transform."""
    from fouriergit import transform

    calls = []
    original = transform.gaussian_transform

    def counting(*args):
        if len(args) == 4:  # no period: the plain transform
            calls.append(args)
        return original(*args)

    monkeypatch.setattr(transform, "gaussian_transform", counting)
    return calls


def _plain(spectrum, lam, grid):
    return exact_transform(spectrum, lam, grid)


class TestPlainTransformMemo(MemoContract):
    PARTS = ("lines", "weights", "lam", "grid", "grid_size")

    @pytest.fixture()
    def args(self):
        return random_spectrum(8, n=40), 0.05, np.linspace(-1.0, 1.0, 41)

    @pytest.fixture()
    def computed(self, plain_transforms):
        return plain_transforms

    call = staticmethod(_plain)

    @staticmethod
    def fresh(spectrum, lam, grid):
        return _backend.gaussian_transform(
            np.asarray(grid, dtype=np.float64), spectrum.eigenfrequencies,
            spectrum.weights, float(lam))

    @staticmethod
    def copies(spectrum, lam, grid):
        equal = DiscreteSpectrum(spectrum.eigenfrequencies.copy(),
                                 spectrum.weights.copy(), norm_scale=2.0)
        return (equal, lam, grid.copy()), (spectrum, np.float64(lam), list(grid))

    @staticmethod
    def change(part, spectrum, lam, grid):
        om, w = spectrum.eigenfrequencies.copy(), spectrum.weights.copy()
        if part == "lines":  # one line one ulp up
            om[7] = np.nextafter(om[7], 1.0)
        elif part == "weights":
            w[7] = np.nextafter(w[7], 1.0)
        elif part == "lam":
            lam = np.nextafter(lam, 1.0)
        elif part == "grid":
            grid = grid.copy()
            grid[17] = np.nextafter(grid[17], 0.0)
        else:
            grid = grid[:-1]
        return DiscreteSpectrum(om, w), lam, grid

    @staticmethod
    def array(result):
        return result.values

    def test_periodic_transform_is_never_held(self, args, plain_transforms):
        spectrum, lam, grid = args
        params = PeriodicKernelParams(0.3, _backend.image_count(lam, 0.3))
        plain = exact_transform(spectrum, lam, grid)
        first = exact_transform(spectrum, lam, grid, periodic=params)
        again = exact_transform(spectrum, lam, grid, periodic=params)
        assert again is not first and same_bits(again.values, first.values)
        assert first.kind == "exact_periodic"
        # the periodic calls leave the plain entry in place
        assert exact_transform(spectrum, lam, grid) is plain
        assert len(plain_transforms) == 1

    def test_alias_free_periodic_transform_is_the_plain_curve(self, monkeypatch):
        # under the norm-bound plan no image of lines inside the period
        # reaches the window [0, 400]: the periodic call computes and holds
        # the plain transform, runs no periodic kernel, and returns the plain
        # values relabelled, bitwise what the periodic kernel gives; the
        # plain call after it hits. A period of 2 runs the periodic kernel
        from fouriergit import transform

        kernels = []
        original = transform.gaussian_transform

        def counting(*args):
            kernels.append(len(args))
            return original(*args)

        monkeypatch.setattr(transform, "gaussian_transform", counting)
        h = 7987.5
        rng = np.random.default_rng(32)
        om = np.sort(rng.uniform(-h, h, 2048))
        spectrum = DiscreteSpectrum(om, rng.uniform(0.5, 1.5, 2048), norm_scale=h)
        kernel = KernelSpec.from_resolution(1.0, 0.01, h)
        params = PeriodicKernelParams.from_period(2 * h, kernel)
        grid = np.linspace(0.0, 400.0, 1024)
        wrapped = exact_transform(spectrum, kernel.lam, grid, periodic=params)
        plain = exact_transform(spectrum, kernel.lam, grid)
        assert kernels == [4]
        assert (wrapped.kind, plain.kind) == ("exact_periodic", "exact_gaussian")
        fresh = _backend.gaussian_transform(grid, om, spectrum.weights, kernel.lam,
                                            params.period, params.wrap_count)
        assert same_bits(wrapped.values, fresh) and same_bits(plain.values, fresh)
        short = PeriodicKernelParams.from_period(2.0, kernel)
        exact_transform(spectrum, kernel.lam, grid, periodic=short)
        assert kernels == [4, 6]
        # an empty grid is alias-free whatever the period
        for params in (params, short):
            empty = exact_transform(spectrum, kernel.lam, [], periodic=params)
            assert empty.kind == "exact_periodic" and empty.values.shape == (0,)

    def test_plans_of_one_model_share_the_plain_transform(
        self, model_a, kernel001, stats_a, window_model, plain_transforms
    ):
        # 12 variance plans of model A through error_report evaluate the
        # plain transform once; each plan's plain curve is bitwise the fresh
        # one, and each report meets its budget
        grid = np.linspace(window_model.nu_min, window_model.nu_max, 1024)
        fresh = self.fresh(model_a, kernel001.lam, grid)
        for eps in np.logspace(-4.0, -1.0, 12):
            budget = ErrorBudget(float(eps), float(eps), 0.05, 2.0 / 512, 0.05)
            plan = make_plan("variance", kernel001, budget, window=window_model,
                             moments=stats_a)
            report = error_report(model_a, plan, kernel001, window_model, budget)
            assert report.within_period_budget and report.within_truncation_budget
            plain = _curves(model_a, plan, kernel001, grid)[0]
            assert same_bits(plain.values, fresh)
        assert len(plain_transforms) == 1


def _truncation_lam(n_terms, period, x=2.5):
    """The lam at which erfc(sqrt(2) pi lam n_terms / period) = erfc(x), so
    that the truncation bound bites at n_terms."""
    return x * period / (math.sqrt(2) * math.pi * n_terms)


# wide and nearly line-like components on a unit period: at the lam of
# _truncation_lam the envelope, not the moments' decay, ends each series
_UNIT_MIXTURE = ((0.5, -0.12, 2e-4), (0.3, 0.21, 1e-7), (0.2, 0.37, 1e-3))
# the resonance and quasi-elastic responses with one nearly line-like
# component, which keeps the series going to the norm-bound plan's end
_WIDE_MIXTURE = ((0.5, 20.0, 22.0), (0.4, 85.1970181, 250.0), (0.1, 300.0, 0.01))


class TestClosedFormReference:
    """reconstruct against the closed-form moments and periodic transform of
    a normal mixture: within Omega truncation_bound plus a rounding
    allowance, on both resummation paths."""

    @staticmethod
    def _check(components, n_terms, period, lam, grid, omega=1.0):
        kernel = KernelSpec(delta=10 * lam, sigma_leak=0.01, lam=lam)
        params = PeriodicKernelParams.from_period(period, kernel)
        values = normal_mixture_moments(components, params.dt, n_terms)
        mu0 = sum(c[0] for c in components)
        rec = reconstruct(FourierMomentSet(params.dt, values, "exact", mu0),
                          kernel, params, n_terms, grid)
        exact = wrapped_normal(components, lam, period, grid)
        # every term n of the sum rounds its phase n x, x = fl(dt nu), by at
        # most 8 eps (1 + n max|x|) through the two doubling tables or the
        # long-double tile phase, and carries a fixed 1e-14 for its product,
        # the sum and the NUFFT kernel; m_0 enters at 1e-14 too
        n = np.arange(1, n_terms + 1)
        g = np.abs(np.exp(-0.5 * (params.dt * lam * n) ** 2) * values[1:])
        top = params.dt * np.abs(grid).max()
        eps = np.finfo(np.float64).eps
        rounding = (1e-14 * abs(values[0])
                    + 2 * np.sum(g * (1e-14 + 8 * eps * n * top))) / period
        measured = omega * np.abs(rec.values - exact).max()
        allowed = omega * (truncation_bound(n_terms, period, lam, mu0) + rounding)
        assert measured <= allowed
        return measured / allowed

    @pytest.mark.parametrize("n_terms", [4000, 9000, 20000])
    @pytest.mark.parametrize("points", [257, 600, 1024])
    def test_unit_period(self, n_terms, points):
        # one-chunk (257) and multi-chunk grids, below and above 8 385
        # terms on the block path, and 20 000 terms on 1 024 points on the
        # NUFFT path
        grid = np.linspace(-0.5, 0.5, points)
        self._check(_UNIT_MIXTURE, n_terms, 1.0, _truncation_lam(n_terms, 1.0),
                    grid, omega=2.0 / 512)

    @pytest.mark.parametrize("points", [257, 1024])
    def test_norm_bound_plan(self, points):
        # 42 371 terms under the norm-bound plan, on the block path (257
        # points) and the NUFFT path (1 024 points) of its window
        kernel = KernelSpec.from_resolution(1.0, 0.01, 7987.5)
        budget = ErrorBudget(0.01, 0.01, 0.05, 1.0, 0.05)
        plan = make_plan("general", kernel, budget, chi_mode="nyquist")
        assert plan.n_terms == 42371
        self._check(_WIDE_MIXTURE, plan.n_terms, plan.period, kernel.lam,
                    np.linspace(0.0, 400.0, points), omega=budget.omega_scale)


def _reference(spectrum, lam, nu, period=None):
    """The transform at nu from mp_transform, over the lines with an image
    within _REACH lam of nu and only those terms: every other term is below
    exp(-750). Every image within reach of such a line is summed."""
    omegas = spectrum.eigenfrequencies
    d = nu - omegas
    if period is not None:
        d = d - period * np.round(d / period)
    near = np.abs(d) <= (1 + 1e-9) * _backend._REACH * lam
    lines = SimpleNamespace(eigenfrequencies=omegas[near],
                            weights=spectrum.weights[near])
    far = np.abs(nu - lines.eigenfrequencies).max(initial=0.0)
    images = 0 if period is None else math.ceil((far + _backend._REACH * lam) / period)
    return mp_transform(lines, lam, nu, period, images, reach=_backend._REACH)


def _kernel_tolerance(spectrum, lam, nu, period=None, wrap=0):
    """A bound on |exact_transform - reference| at nu, from the kernel's
    arithmetic, u = eps/2:
    - the offset x = nu - w - (n + j) P, n the nearest image, takes at most
      three roundings, each of at most u X, X the largest of |nu - w|,
      |n P|, |j P| and |x|; c = -1/(2 lam^2) and (x c) x round by 4 u, so
      the argument is off by at most 4 u |arg| + 3 u X |x| / lam^2, and exp
      adds 2 u;
    - the 2 wrap image sums, the products with the weights, the BLAS sum of
      at most L lines and the division by sqrt(2 pi) lam add (L + 2 wrap +
      5) u of the sum, and the reference's rounding to a float u more;
    - a term below 2^-1074, an underflow or one left out beyond the reach,
      is off by less than 2^-1074 per line and image (at most 81), and the
      images beyond wrap of the nearest sum to below twice the first,
      exp(-((wrap + 1/2) P)^2 / (2 lam^2)), per side."""
    u = np.finfo(np.float64).eps / 2
    omegas, weights = spectrum.eigenfrequencies, spectrum.weights
    d = (nu - omegas)[:, None]
    if period is None:
        x, size, tail = d, np.abs(d), 0.0
    else:
        n = np.round(d / period) * period
        j = np.arange(-wrap, wrap + 1) * period
        x = d - n - j
        size = np.maximum(np.maximum(np.abs(d), np.abs(n)), np.maximum(np.abs(j), np.abs(x)))
        tail = 4 * math.exp(-((wrap + 0.5) * period) ** 2 / (2 * lam * lam))
    arg = -0.5 * (x / lam) ** 2
    slip = 4 * u * np.abs(arg) + 3 * u * size * np.abs(x) / (lam * lam)
    terms = weights[:, None] * np.exp(arg)
    bound = ((terms * (np.expm1(slip) + 2 * u * np.exp(slip))).sum()
             + (omegas.size + 2 * wrap + 6) * u * terms.sum()
             + weights.sum() * (81 * 2.0**-1074 + tail))
    return bound / (math.sqrt(2 * math.pi) * lam)


class TestExactEpsP:
    """exact_transform, plain and periodic, against 40-digit sums at a few
    grid points, each within a bound derived from the kernel's arithmetic,
    and error_report's eps_p against the reference's, at scale."""

    @staticmethod
    def _check(spectrum, lam, grid, params, points):
        """The plain and periodic curves on grid, each checked against the
        reference at the points; the references and bounds per point."""
        curves = (exact_transform(spectrum, lam, grid),
                  exact_transform(spectrum, lam, grid, periodic=params))
        found = {}
        for i in points:
            found[i] = []
            for curve, period, wrap in zip(curves, (None, params.period),
                                           (0, params.wrap_count)):
                ref = _reference(spectrum, lam, grid[i], period)
                tol = _kernel_tolerance(spectrum, lam, grid[i], period, wrap)
                assert abs(curve.values[i] - ref) <= tol, (i, period)
                found[i].append((ref, tol))
        return curves, found

    def test_norm_bound_plan(self):
        # 4 096 random lines under the norm-bound plan on [0, 400]: the
        # extent rule holds, so the periodic curve is the plain one; every
        # image j != 0 lies at least d from the window, so the reference's
        # periodic - plain is below 4 mu0 exp(-d^2 / (2 lam^2)) / (sqrt(2
        # pi) lam) per point, positive in 40 digits and 0.0 as a float:
        # exactly the measured eps_p
        h = 7987.5
        kernel = KernelSpec.from_resolution(1.0, 0.01, h)
        budget = ErrorBudget(0.01, 0.01, 0.05, 1.0, 0.05)
        plan = make_plan("general", kernel, budget, chi_mode="nyquist")
        params = PeriodicKernelParams.from_period(plan.period, kernel)
        rng = np.random.default_rng(2525)
        omegas = np.unique(rng.uniform(-h, h, 4096))
        weights = rng.uniform(0.5, 1.5, omegas.size)
        spectrum = DiscreteSpectrum(omegas, weights / weights.sum(), norm_scale=h)
        window = FrequencyWindow(0.0, 400.0)
        grid = np.linspace(window.nu_min, window.nu_max, 1024)
        lam = kernel.lam
        assert omegas.size == 4096 and _backend.alias_free(grid, omegas, lam, plan.period)
        (plain, wrapped), _ = self._check(spectrum, lam, grid, params, (0, 300, 777, 1023))
        assert same_bits(plain.values, wrapped.values)
        report = error_report(spectrum, plan, kernel, window, budget)
        d = min(omegas[0] + plan.period - window.nu_max,
                window.nu_min - (omegas[-1] - plan.period))
        with mp.workdps(40):
            gap = (budget.omega_scale * 4 * spectrum.mu0
                   * mp.exp(-mp.mpf(d) ** 2 / (2 * mp.mpf(lam) ** 2))
                   / (mp.sqrt(2 * mp.pi) * lam))
        assert d > 7000 and gap > 0
        assert float(gap) == 0.0 == report.eps_p_measured

    def test_model_a_variance_plan(self, model_a, kernel001, budget001, stats_a,
                                   window_model):
        # model A's variance plan runs the periodic kernel: at the grid
        # point of the largest |periodic - plain| error_report's eps_p is
        # Omega |reference periodic - reference plain|, within Omega times
        # the two points' bounds and the rounding of both differences
        plan = make_plan("variance", kernel001, budget001, window=window_model,
                         moments=stats_a)
        params = PeriodicKernelParams.from_period(plan.period, kernel001)
        grid = np.linspace(window_model.nu_min, window_model.nu_max, 1024)
        lam = kernel001.lam
        assert not _backend.alias_free(grid, model_a.eigenfrequencies, lam, plan.period)
        plain = exact_transform(model_a, lam, grid)
        wrapped = exact_transform(model_a, lam, grid, periodic=params)
        top = int(np.argmax(np.abs(wrapped.values - plain.values)))
        _, found = self._check(model_a, lam, grid, params, (0, top, 511, 1023))
        (ref_plain, tol_plain), (ref_wrapped, tol_wrapped) = found[top]
        report = error_report(model_a, plan, kernel001, window_model, budget001)
        omega, u = budget001.omega_scale, np.finfo(np.float64).eps / 2
        measured = omega * abs(ref_wrapped - ref_plain)
        tol = (omega * (tol_plain + tol_wrapped + u * (ref_plain + ref_wrapped))
               + 2 * u * (report.eps_p_measured + measured))
        assert report.eps_p_measured > 0
        assert abs(report.eps_p_measured - measured) <= tol


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

    def test_default_grid_has_1024_points(
        self, model_a, kernel001, budget001, stats_a, window_model
    ):
        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )
        report = error_report(model_a, plan, kernel001, window_model, budget001)
        assert report.n_grid == 1024

    def test_budget_met_at_equality(self):
        # a measured error equal to its target is within budget
        from fouriergit.transform import _measure

        grid = [0.0, 1.0]
        report = _measure(
            TransformCurve(grid, [0.0, 0.0], "exact_gaussian"),
            TransformCurve(grid, [0.25, 0.0], "exact_periodic"),
            TransformCurve(grid, [0.75, 0.0], "reconstructed"),
            ErrorBudget(0.25, 0.5, 0.05, 1.0),
        )
        assert (report.eps_p_measured, report.eps_n_measured,
                report.eps_total_measured) == (0.25, 0.5, 0.75)
        assert report.within_period_budget and report.within_truncation_budget

    def test_verdicts_are_bools_that_round_trip(self, tmp_path):
        # a budget of numpy floats still gives Python bools, and a numpy
        # bool is written as true/false, so the key=value file reads back
        # a bool, not the string 'True'
        from fouriergit.serialize import format_value, read_keyvalues, write_keyvalues
        from fouriergit.transform import _measure

        assert [format_value(np.bool_(v)) for v in (True, False)] == ["true", "false"]
        grid = [0.0, 1.0]
        report = _measure(
            TransformCurve(grid, [0.0, 0.0], "exact_gaussian"),
            TransformCurve(grid, [0.25, 0.0], "exact_periodic"),
            TransformCurve(grid, [0.75, 0.0], "reconstructed"),
            ErrorBudget(np.float64(0.25), np.float64(0.4), 0.05, np.float64(1.0)),
        )
        assert type(report.within_period_budget) is bool
        assert type(report.within_truncation_budget) is bool
        path = tmp_path / "report.txt"
        write_keyvalues(path, dataclasses.asdict(report))
        back = read_keyvalues(path)
        assert back["within_period_budget"] is True
        assert back["within_truncation_budget"] is False

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

    def test_held_curve_cannot_be_written(
        self, model_a, kernel001, budget001, stats_a, window_model
    ):
        # the report holds its reconstructed curve; a caller's reconstruct
        # on the same moments and grid gets that curve, and cannot make it
        # writable to change what the next report measures
        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )
        before = error_report(
            model_a, plan, kernel001, window_model, budget001, n_grid=257
        )
        params = PeriodicKernelParams.from_period(plan.period, kernel001)
        moments = exact_moments(model_a, params.dt, plan.n_terms)
        grid = np.linspace(window_model.nu_min, window_model.nu_max, 257)
        curve = reconstruct(moments, kernel001, params, plan.n_terms, grid)
        with pytest.raises(ValueError, match="WRITEABLE"):
            values = curve.values
            values.setflags(write=True)
            values *= 2.0
            values.setflags(write=False)
        after = error_report(
            model_a, plan, kernel001, window_model, budget001, n_grid=257
        )
        assert before.eps_n_measured == pytest.approx(1.97e-15, rel=0.01)
        assert after.eps_n_measured == before.eps_n_measured
        assert after.within_truncation_budget

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

