"""Numerical hot loops with optional numba acceleration.

The phase-moment sums and the truncated Fourier reconstruction have one
implementation, a blocked numpy kernel that needs only a few complex
exponential tables and BLAS products. The plain and periodic Gaussian
transforms on frequency grids exist twice: in pure numpy and as numba
``@njit`` loops. The transform implementation is chosen at import time from
the environment variable ``FOURIERGIT_BACKEND``:

``auto``   use numba when importable, numpy otherwise (default)
``numba``  require numba, raise if it cannot be imported
``numpy``  force the pure-numpy path

The numpy variants are always importable under their ``*_numpy`` names so the
two transform paths can be compared directly (see ``tests/test_backend.py``).
numba kernels are compiled without fastmath so both backends agree to
roundoff.
"""

from __future__ import annotations

import math
import os

import numpy as np

_ENV_VAR = "FOURIERGIT_BACKEND"
_CHUNK = 256  # grid rows per numpy broadcast block; bounds temp memory
_BLOCK = 128  # orders per phase-power block; fixed so m_n ignores n_max

_requested = os.environ.get(_ENV_VAR, "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    raise ValueError(
        f"{_ENV_VAR} must be one of 'auto', 'numba', 'numpy'; got {_requested!r}"
    )

if _requested == "numpy":
    _HAVE_NUMBA = False
else:
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        if _requested == "numba":
            raise RuntimeError(
                f"{_ENV_VAR}=numba but numba is not importable"
            ) from None
        _HAVE_NUMBA = False


def _as_f64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _expi(phase):
    """exp(i phase) of a real array, without a complex product to form i phase."""
    z = np.zeros(phase.shape, dtype=np.complex128)
    z.imag = phase
    return np.exp(z, out=z)


# ---------------------------------------------------------------------------
# phase moment sums: m_n = sum_k w_k exp(-i n dt w_k), n = 0..n_max


def phase_moment_sums_numpy(omegas, weights, dt, n_max):
    """Fourier phase moments of a weighted point spectrum.

    Orders are split as n = n0 + r with n0 a multiple of the block width
    _BLOCK and 0 <= r < _BLOCK, so that exp(-i n dt w) factors into
    exp(-i r dt w) exp(-i n0 dt w). One table exp(-i r dt w_k) serves
    every block; each block adds one fresh weighted exponential row
    w_k exp(-i n0 dt w_k) and one matrix-vector product. That is
    O((_BLOCK + n_max/_BLOCK) L) exponentials for L lines instead of
    O(n_max L), and every factor is a fresh exponential, so no phase
    roundoff accumulates along n.

    m_n is bitwise independent of n_max. The table has min(_BLOCK,
    n_max + 1) rows, but each row is a fresh exponential of the same phase
    whatever the row count, and each entry of a matrix-vector product is
    one row's dot product with the block row, summed in an order set by L
    alone (tests compare n_max = 0..7, _BLOCK - 1.._BLOCK + 1 and 3 _BLOCK
    + 7 against n_max = 5000, bitwise). The block starts do not depend on
    n_max either. The block width is a fixed constant for that reason;
    deriving it from n_max, or contracting all blocks in one matrix
    product whose shape grows with n_max, changes the BLAS summation order
    and with it the last bits. m_0 is the plain weight sum: at n_max = 0
    the one-row product would take another BLAS code path and round
    differently.
    """
    omegas = _as_f64(omegas)
    weights = _as_f64(weights)
    r = np.arange(min(_BLOCK, n_max + 1))
    low = _expi(np.multiply.outer(-dt * r, omegas))
    out = np.empty(n_max + 1, dtype=np.complex128)
    for n0 in range(0, n_max + 1, _BLOCK):
        row = weights * _expi((-dt * n0) * omegas)
        out[n0 : n0 + _BLOCK] = (low @ row)[: n_max + 1 - n0]
    out[0] = weights.sum()
    return out


# ---------------------------------------------------------------------------
# Gaussian transform on a grid: Phi(nu) = sum_k w_k G(nu - w_k)


def gaussian_transform_numpy(nus, omegas, weights, lam):
    """Plain Gaussian-kernel transform of a point spectrum on a nu grid."""
    nus = _as_f64(nus)
    omegas = _as_f64(omegas)
    weights = _as_f64(weights)
    c = -0.5 / (lam * lam)
    out = np.empty(nus.shape[0])
    for i in range(0, nus.shape[0], _CHUNK):
        d = nus[i : i + _CHUNK, None] - omegas[None, :]
        out[i : i + _CHUNK] = np.exp(c * d * d) @ weights
    return out / (math.sqrt(2.0 * math.pi) * lam)


def _gaussian_transform_loop(nus, omegas, weights, lam):
    c = -0.5 / (lam * lam)
    pref = 1.0 / (math.sqrt(2.0 * math.pi) * lam)
    out = np.empty(nus.shape[0])
    for i in range(nus.shape[0]):
        acc = 0.0
        for k in range(omegas.shape[0]):
            d = nus[i] - omegas[k]
            acc += weights[k] * math.exp(c * d * d)
        out[i] = acc * pref
    return out


# ---------------------------------------------------------------------------
# Periodically extended transform: replicas summed around the nearest image


def periodic_transform_numpy(nus, omegas, weights, lam, period, wrap_count):
    """Periodic Gaussian transform; wrap_count images on each side of the
    nearest replica."""
    nus = _as_f64(nus)
    omegas = _as_f64(omegas)
    weights = _as_f64(weights)
    c = -0.5 / (lam * lam)
    out = np.empty(nus.shape[0])
    for i in range(0, nus.shape[0], _CHUNK):
        d = nus[i : i + _CHUNK, None] - omegas[None, :]
        r = d - period * np.round(d / period)
        acc = np.zeros_like(r)
        for j in range(-wrap_count, wrap_count + 1):
            x = r - j * period
            acc += np.exp(c * x * x)
        out[i : i + _CHUNK] = acc @ weights
    return out / (math.sqrt(2.0 * math.pi) * lam)


def _periodic_transform_loop(nus, omegas, weights, lam, period, wrap_count):
    c = -0.5 / (lam * lam)
    pref = 1.0 / (math.sqrt(2.0 * math.pi) * lam)
    out = np.empty(nus.shape[0])
    for i in range(nus.shape[0]):
        acc = 0.0
        for k in range(omegas.shape[0]):
            d = nus[i] - omegas[k]
            r = d - period * round(d / period)
            s = 0.0
            for j in range(-wrap_count, wrap_count + 1):
                x = r - j * period
                s += math.exp(c * x * x)
            acc += weights[k] * s
        out[i] = acc * pref
    return out


# ---------------------------------------------------------------------------
# Truncated Fourier reconstruction:
# Phi(nu) = (m_0.re + 2 sum_{n=1}^{N} Re[exp(+i n dt nu) env_n m_n]) / P


def reconstruct_numpy(nus, moment_values, dt, lam, period, n_terms):
    """Evaluate the conjugate-symmetric truncated Fourier series on a grid.

    With g_n = env_n m_n and n = q W + r (block width W = min(_BLOCK,
    n_terms + 1)), the series is sum_q exp(i q W dt nu) sum_r exp(i r dt nu)
    g_{qW+r}. Per grid chunk this is one exponential table per factor and
    one matrix product with the W x Q block matrix of g, never a grid x
    n_terms phase matrix.
    """
    nus = _as_f64(nus)
    width = min(_BLOCK, n_terms + 1)
    n_blocks = -(-(n_terms + 1) // width)
    n = np.arange(1, n_terms + 1)
    env = np.exp(-0.5 * (dt * lam) ** 2 * n * n)
    g = np.zeros(n_blocks * width, dtype=np.complex128)
    g[1 : n_terms + 1] = env * moment_values[1 : n_terms + 1]
    g = g.reshape(n_blocks, width).T  # g[r, q] = g_{qW+r}, g_0 = 0
    r = np.arange(width)
    starts = np.arange(n_blocks) * width
    out = np.empty(nus.shape[0])
    for i in range(0, nus.shape[0], _CHUNK):
        x = dt * nus[i : i + _CHUNK, None]
        s = (_expi(x * r) @ g) * _expi(x * starts)
        out[i : i + _CHUNK] = s.sum(axis=1).real
    return (moment_values[0].real + 2.0 * out) / period


if _HAVE_NUMBA:
    gaussian_transform_numba = njit(cache=True, nogil=True)(_gaussian_transform_loop)
    periodic_transform_numba = njit(cache=True, nogil=True)(_periodic_transform_loop)

    def _wrap_gauss(nus, omegas, weights, lam):
        return gaussian_transform_numba(
            _as_f64(nus), _as_f64(omegas), _as_f64(weights), lam
        )

    def _wrap_periodic(nus, omegas, weights, lam, period, wrap_count):
        return periodic_transform_numba(
            _as_f64(nus), _as_f64(omegas), _as_f64(weights), lam, period, wrap_count
        )

    ACTIVE_BACKEND = "numba"
    gaussian_transform = _wrap_gauss
    periodic_transform = _wrap_periodic
else:
    ACTIVE_BACKEND = "numpy"
    gaussian_transform = gaussian_transform_numpy
    periodic_transform = periodic_transform_numpy

phase_moment_sums = phase_moment_sums_numpy
reconstruct_series = reconstruct_numpy


def active_backend():
    """Name of the implementation in use: 'numba' or 'numpy'."""
    return ACTIVE_BACKEND
