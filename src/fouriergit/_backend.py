"""Numerical kernels: phase moments, Gaussian transforms, series resummation.

Each job has one numpy implementation. The phase-moment sums and the
truncated Fourier reconstruction are blocked kernels that need only a few
complex exponential tables and BLAS products. One Gaussian-transform kernel
serves the plain and the periodic transform; it broadcasts one grid chunk
at a time, which bounds the temporary memory, against the lines within
reach of the chunk only, and skips just terms that are exactly 0.0.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 256  # grid rows per numpy broadcast block; bounds temp memory
_BLOCK = 128  # orders per phase-power block; fixed so m_n ignores n_max
_UNDERFLOW = 750.0  # exp(-x) is 0.0 in float64 beyond 745.2; margin for rounding


def _as_f64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _expi(phase):
    """exp(i phase) of a real array, without a complex product to form i phase."""
    z = np.zeros(phase.shape, dtype=np.complex128)
    z.imag = phase
    return np.exp(z, out=z)


# ---------------------------------------------------------------------------
# phase moment sums: m_n = sum_k w_k exp(-i n dt w_k), n = 0..n_max


def phase_moment_sums(omegas, weights, dt, n_max):
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


def _within_reach(chunk, omegas, lam, period=None):
    """Indices, in line order, of the lines whose nearest image (per period, if
    given) may come within sqrt(2 _UNDERFLOW) lam of a chunk point; every term
    of the others is 0.0. Any chunk order works; a NaN keeps every line."""
    lo, hi = chunk.min(), chunk.max()
    d = 0.5 * (lo + hi) - omegas
    if period is not None:
        d -= period * np.round(d / period)
    reach = math.sqrt(2.0 * _UNDERFLOW) * lam + 0.5 * (hi - lo)
    return np.flatnonzero(~(np.abs(d) > reach))


def gaussian_transform(nus, omegas, weights, lam, period=None, wrap_count=0):
    """Gaussian-kernel transform of a point spectrum on a nu grid; given a
    period, each line enters through its nearest image and wrap_count
    images on each side, summed in order j = -wrap_count..wrap_count."""
    nus = _as_f64(nus)
    omegas = _as_f64(omegas)
    weights = _as_f64(weights)
    c = -0.5 / (lam * lam)
    out = np.empty(nus.shape[0])
    for i in range(0, nus.shape[0], _CHUNK):
        k = _within_reach(nus[i : i + _CHUNK], omegas, lam, period)
        d = nus[i : i + _CHUNK, None] - omegas[None, k]
        if period is not None:
            d -= period * np.round(d / period)
        acc = np.zeros_like(d)
        term = np.empty_like(d)  # reused by every image: no temporaries per image
        for j in range(-wrap_count, wrap_count + 1):
            x = d - j * period if j else d
            np.multiply(x, c, out=term)
            term *= x
            acc += np.exp(term, out=term)
        out[i : i + _CHUNK] = acc @ weights[k]
    return out / (math.sqrt(2.0 * math.pi) * lam)


# ---------------------------------------------------------------------------
# Truncated Fourier reconstruction:
# Phi(nu) = (m_0.re + 2 sum_{n=1}^{N} Re[exp(+i n dt nu) env_n m_n]) / P


def reconstruct_series(nus, moment_values, dt, lam, period, n_terms):
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


def active_backend():
    """Name of the kernel implementation, kept for output metadata."""
    return "numpy"
