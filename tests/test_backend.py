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

from conftest import random_spectrum

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
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == ""
