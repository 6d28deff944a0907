import subprocess
import sys

import numpy as np

from fouriergit import (
    FourierMomentSet,
    KernelSpec,
    PeriodicKernelParams,
    _backend,
    reconstruct,
)
from fouriergit._backend import (
    active_backend,
    gaussian_transform,
    periodic_transform,
    phase_moment_sums,
    reconstruct_series,
)

from conftest import package_env, periodic_line, random_spectrum

# orders spanning several phase-power blocks, with a partial last block
N_MULTI = 3 * _backend._BLOCK + 7


def _case(seed):
    s = random_spectrum(seed, n=64, normalized=True)
    rng = np.random.default_rng(1000 + seed)
    nus = np.sort(rng.uniform(-1.0, 1.0, size=41))
    return s, nus


class TestNumpyKernels:
    def test_phase_moments_match_direct_sum(self):
        s = random_spectrum(0, n=16, normalized=True)
        dt = 5.7
        vals = phase_moment_sums(s.eigenfrequencies, s.weights, dt, N_MULTI)
        eps = np.finfo(np.float64).eps
        om_max = np.abs(s.eigenfrequencies).max()
        for n in range(N_MULTI + 1):
            direct = np.sum(s.weights * np.exp(-1j * n * dt * s.eigenfrequencies))
            # past the old orders both sums round a phase argument of size
            # n dt |omega|, so the bound grows with n there
            tol = 1e-14 if n <= 12 else 4 * eps * (1 + n * dt * om_max) * s.mu0
            assert abs(vals[n] - direct) <= tol

    def test_gaussian_transform_matches_broadcast(self):
        s = random_spectrum(1, n=32)
        nus = np.linspace(-1, 1, 27)
        got = gaussian_transform(nus, s.eigenfrequencies, s.weights, 0.08)
        direct = (
            np.exp(-0.5 * ((nus[:, None] - s.eigenfrequencies[None, :]) / 0.08) ** 2)
            / (0.08 * np.sqrt(2 * np.pi))
            @ s.weights
        )
        assert np.allclose(got, direct, rtol=1e-13)

    def test_periodic_transform_sums_images(self):
        s = random_spectrum(2, n=8)
        nus = np.linspace(-0.4, 0.4, 9)
        lam, period, wrap = 0.05, 0.8, 3
        got = periodic_transform(
            nus, s.eigenfrequencies, s.weights, lam, period, wrap
        )
        # a wide enough centered image sum agrees: all images that differ
        # between the two enumerations lie many widths out and underflow
        direct = np.zeros_like(nus)
        for j in range(-wrap - 2, wrap + 3):
            d = nus[:, None] - s.eigenfrequencies[None, :] + j * period
            direct += (
                np.exp(-0.5 * (d / lam) ** 2) / (lam * np.sqrt(2 * np.pi))
            ) @ s.weights
        assert np.allclose(got, direct, rtol=1e-12)

    def test_reconstruct_matches_explicit_series(self):
        s, nus = _case(3)
        # lam small enough that the envelope keeps every block: env_N ~ 0.37
        lam, period, n_terms = 0.004, 7.0, N_MULTI
        dt = 2 * np.pi / period
        moments = phase_moment_sums(
            s.eigenfrequencies, s.weights, dt, n_terms + 2
        )
        got = reconstruct_series(nus, moments, dt, lam, period, n_terms)
        n = np.arange(1, n_terms + 1)
        env = np.exp(-0.5 * (dt * lam) ** 2 * n**2)
        series = moments[0].real + 2 * (
            np.exp(1j * dt * nus[:, None] * n[None, :])
            * (env * moments[1 : n_terms + 1])
        ).real.sum(axis=1)
        assert np.allclose(got, series / period, rtol=1e-12, atol=1e-15)
        # the two-sided complex sum of transform.reconstruct agrees too
        mset = FourierMomentSet(dt, moments, "exact", s.mu0)
        kernel = KernelSpec(delta=0.02, sigma_leak=0.01, lam=lam)
        params = PeriodicKernelParams.from_period(period, kernel)
        fast = reconstruct(mset, kernel, params, n_terms, nus)
        full = reconstruct(mset, kernel, params, n_terms, nus, full_series=True)
        assert np.array_equal(fast.values, got)
        assert np.allclose(fast.values, full.values, rtol=1e-12, atol=1e-15)

    def test_noncontiguous_input_accepted(self):
        s = random_spectrum(4, n=40, normalized=True)
        om = s.eigenfrequencies[::2]
        w = s.weights[::2]
        a = phase_moment_sums(om, w, 3.0, N_MULTI)
        b = phase_moment_sums(om.copy(), w.copy(), 3.0, N_MULTI)
        assert np.array_equal(a, b)
        nus = np.linspace(-1.0, 1.0, 61)[::3]
        strided = np.stack([a, b], axis=1)[:, 0]
        period = 2 * np.pi / 3.0
        c = reconstruct_series(nus, strided, 3.0, 0.01, period, N_MULTI)
        d = reconstruct_series(nus.copy(), a, 3.0, 0.01, period, N_MULTI)
        assert np.array_equal(c, d)


# Dense references: every (grid point, line[, image]) term with the
# kernels' own per-term arithmetic, so only the summation order can differ.


def _dense_plain(nus, omegas, weights, lam):
    c = -0.5 / (lam * lam)
    d = nus[:, None] - omegas[None, :]
    terms = np.exp(c * d * d) * weights[None, :]
    return terms.sum(axis=1) / (np.sqrt(2 * np.pi) * lam)


def _dense_periodic(nus, omegas, weights, lam, period, wrap):
    c = -0.5 / (lam * lam)
    d = nus[:, None] - omegas[None, :]
    r = d - period * np.round(d / period)
    acc = np.zeros_like(r)
    for j in range(-wrap, wrap + 1):
        x = r - j * period
        acc += np.exp(c * x * x)
    return (acc * weights[None, :]).sum(axis=1) / (np.sqrt(2 * np.pi) * lam)


def _check_both(nus, omegas, weights, lam, period, wrap):
    plain = gaussian_transform(nus, omegas, weights, lam)
    wrapped = periodic_transform(nus, omegas, weights, lam, period, wrap)
    ref_plain = _dense_plain(nus, omegas, weights, lam)
    ref_wrapped = _dense_periodic(nus, omegas, weights, lam, period, wrap)
    np.testing.assert_allclose(plain, ref_plain, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(wrapped, ref_wrapped, rtol=1e-14, atol=0.0)
    return plain, wrapped


class TestPrunedTransforms:
    """The transforms skip, per grid chunk, the lines whose every kernel
    term is exactly 0.0; the dense all-lines sums above must agree."""

    def test_wide_spectrum_over_many_chunks(self):
        # lines far wider than the kernel, so most chunks keep few lines;
        # a shuffled grid gives chunks that are not sorted
        s = random_spectrum(5, n=3000, norm_scale=50.0)
        rng = np.random.default_rng(5)
        nus = np.linspace(-55.0, 55.0, 5 * _backend._CHUNK + 17)
        for grid in (nus, rng.permutation(nus)):
            _check_both(grid, s.eigenfrequencies, s.weights, 0.05, 131.0, 1)

    def test_lines_at_the_edge_of_reach(self):
        # chunk j spans [100 j, 100 j + 1]; its own line sits right of the
        # chunk where the nearest grid term is exp(-e_j), so only that one
        # term is nonzero at the chunk's last point. Below e = 745.13 it is
        # a tiny but nonzero (even subnormal) value that a too-tight reach
        # drops; at and past it the term underflows in the dense sum too.
        lam = 0.01
        exps = [600.0, 700.0, 740.0, 745.0, 745.1, 745.2, 750.0, 760.0]
        n = _backend._CHUNK
        nus = np.concatenate([100.0 * j + np.linspace(0.0, 1.0, n) for j in range(len(exps))])
        omegas = np.array(
            [100.0 * j + 1.0 + np.sqrt(2 * e) * lam for j, e in enumerate(exps)]
        )
        # left of the last chunk, one line just inside its reach and one
        # just outside; the mask keeps the first and drops the second
        last_chunk = nus[-n:]
        reach = np.sqrt(2 * _backend._UNDERFLOW) * lam + 0.5
        center = 0.5 * (last_chunk[0] + last_chunk[-1])
        edge = center - reach * np.array([1 - 1e-9, 1 + 1e-9])
        omegas = np.sort(np.concatenate([omegas, edge]))
        kept = omegas[_backend._within_reach(last_chunk, omegas, lam)]
        assert edge[0] in kept and edge[1] not in kept
        plain, wrapped = _check_both(nus, omegas, np.ones(omegas.size), lam, 1e4, 1)
        last = plain[n - 1 :: n]
        assert np.all(last[:5] > 0.0) and last[0] <= 1e-250
        assert np.all(last[5:] == 0.0) and plain[-n] == 0.0
        assert np.array_equal(plain, wrapped)

    def test_periodic_wrap_around_near_half_period(self):
        # lines just inside -P/2 reach a grid just inside +P/2 through the
        # next image only
        period, lam = 2.0, 0.02
        rng = np.random.default_rng(8)
        omegas = np.sort(rng.uniform(-1.0, -0.9, 40))
        weights = rng.uniform(0.5, 1.5, 40)
        nus = np.concatenate([np.linspace(0.9, 1.0, 300), np.linspace(-1.0, -0.5, 300)])
        _, wrapped = _check_both(nus, omegas, weights, lam, period, 1)
        assert wrapped[299] > 1.0  # nu = P/2 sees the lines across the seam

    def test_wide_kernel_with_several_images(self):
        lam, period = 0.5, 1.0
        wrap = PeriodicKernelParams.from_period(
            period, KernelSpec(delta=2.0, sigma_leak=0.01, lam=lam)
        ).wrap_count
        assert wrap >= 2
        s = random_spectrum(9, n=50, norm_scale=3.0)
        nus = np.linspace(-4.0, 4.0, 2 * _backend._CHUNK + 3)
        _check_both(nus, s.eigenfrequencies, s.weights, lam, period, wrap)

    def test_periodic_kernel_single_line(self):
        kernel = KernelSpec.from_resolution(0.02, 0.01)
        params = PeriodicKernelParams.from_period(1.0, kernel)
        nus = np.linspace(-0.5, 0.5, 3 * _backend._CHUNK + 1)
        omega = 0.4985
        got = periodic_line(nus, omega, kernel.lam, params)
        ref = _dense_periodic(
            nus, np.array([omega]), np.array([1.0]), kernel.lam,
            params.period, params.wrap_count,
        )
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        assert got[0] > 1.0 and got[len(nus) // 2] == 0.0

    def test_nan_grid_point_stays_local(self):
        # a NaN has no distance to any line; the chunk keeps every line, so
        # the NaN stays in its own row as in the dense sum
        s = random_spectrum(6, n=200, norm_scale=5.0)
        nus = np.linspace(-5.0, 5.0, 300)
        nus[10] = np.nan
        for got in _check_both(nus, s.eigenfrequencies, s.weights, 0.05, 11.0, 1):
            assert np.isnan(got[10]) and np.isfinite(np.delete(got, 10)).all()


class TestDispatch:
    def test_active_backend_consistent(self):
        assert active_backend() == "numpy"

    def test_import_loads_numpy_only(self):
        # numpy is the only runtime dependency; no optional accelerator or
        # special-function package is pulled in at import
        code = (
            "import sys, fouriergit; "
            "print(','.join(m for m in ('scipy', 'numba') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=package_env(),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == ""
