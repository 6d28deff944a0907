"""Numerical kernels: phase moments, Gaussian transforms, series resummation.

Each job has one numpy implementation. The phase-moment sums and the
truncated Fourier reconstruction are blocked kernels built from factored
complex exponential tables and BLAS products: every table row exp(i k phase)
is the product of two fresh exponentials, so a table of K rows costs about
_STEP + K/_STEP exponentials per phase, and no roundoff accumulates along k.
The moment kernel takes block 0 (orders below _BLOCK) from one
matrix-vector product of the low-order table with the weights, the same
product whatever n_max, and contracts the later blocks in tiles of _TILE
blocks, starting at orders _BLOCK + j _TILE _BLOCK, in one matrix product
each, so the low-order table is read once per tile, not per block. Every tile
has the same shape and start whatever n_max, so BLAS sums each m_n in the
same order and m_n is bitwise independent of n_max; a call below order
_BLOCK builds no tile.
One Gaussian-transform kernel serves the plain and the periodic transform;
it broadcasts one grid chunk at a time, which bounds the temporary memory,
against the lines within reach of the chunk only, and skips just terms that
are exactly 0.0.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 256  # grid rows per numpy broadcast block; bounds temp memory
_BLOCK = 128  # orders per phase-power block; fixed so m_n ignores n_max
_TILE = 32  # blocks per moment matrix product; fixed so m_n ignores n_max
_STEP = 16  # rows per low factor of a phase table
_UNDERFLOW = 750.0  # exp(-x) is 0.0 in float64 beyond 745.2; margin for rounding


def _as_f64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _expi(phase):
    """exp(i phase) of a real array, without a complex product to form i phase."""
    z = np.zeros(phase.shape, dtype=np.complex128)
    z.imag = phase
    return np.exp(z, out=z)


def _phase_table(phase, count):
    """exp(i k phase) for k < count, shape (count,) + phase.shape.

    Row a _STEP + b is exp(i a _STEP phase) exp(i b phase), a product of two
    fresh exponentials; the high factor of rows 0.._STEP - 1 is exp(0) = 1,
    so those rows equal _expi(k phase) exactly, whatever count is.
    """
    low = _expi(np.multiply.outer(np.arange(min(_STEP, count)), phase))
    high = _expi(np.multiply.outer(np.arange(0, count, _STEP), phase))
    return (high[:, None] * low).reshape((-1,) + phase.shape)[:count]


# ---------------------------------------------------------------------------
# phase moment sums: m_n = sum_k w_k exp(-i n dt w_k), n = 0..n_max


def phase_moment_sums(omegas, weights, dt, n_max):
    """Fourier phase moments of a weighted point spectrum.

    Orders are split as n = n0 + r with n0 a multiple of the block width
    _BLOCK and 0 <= r < _BLOCK, so that exp(-i n dt w) factors into
    exp(-i r dt w) exp(-i n0 dt w). One low table exp(-i r dt w_k) serves
    every block. Block 0 is the low table times the weights, one
    matrix-vector product. The later block rows w_k exp(-i n0 dt w_k) are
    formed _TILE at a time in one reused (_TILE, L) buffer, as a table of the
    first _TILE block rows times one fresh exponential row per tile, the
    tiles starting at n0 = _BLOCK + j _TILE _BLOCK; each tile meets the low
    table in one matrix product, so the low table is read once per tile and
    the (N/_BLOCK, L) matrix of all block rows never exists. A call with
    n_max < _BLOCK builds no block rows and no tile. Both tables are
    factored phase tables: L lines up to order N cost about
    (42 + (N - _BLOCK)/(_TILE _BLOCK)) L complex exponentials, at most 24 L
    below order _BLOCK, instead of N L, and every factor is a fresh
    exponential, so no phase roundoff accumulates along n.

    m_n is bitwise independent of n_max. Each table row is the same product
    of the same fresh exponentials whatever the row count, and the block and
    tile starts do not depend on n_max either. Block 0 is the same
    matrix-vector product whatever n_max: (_BLOCK, L) @ (L,) from n_max =
    _BLOCK - 1 on, below that the same product on fewer rows, which the BLAS
    sums row by row, each row against the weights in an order set by L
    alone. Every tile has _TILE rows, the unused rows of the last one zero,
    so the tile side of every product has one shape whatever n_max, and the
    BLAS sums each entry, one tile row against one low row, in an order set
    by L alone (tests compare n_max = 0..7 and the edges of _STEP orders, of
    _BLOCK orders, of _STEP blocks and of the tiles against a longer n_max,
    bitwise). The constants are fixed for that reason: a tile height that
    follows n_max, or one product over all blocks whose shape grows with
    n_max, changes the BLAS summation order and with it the last bits. m_0
    is the plain weight sum: at n_max = 0 the one-row product takes another
    BLAS code path and rounds differently.
    """
    omegas = _as_f64(omegas)
    weights = _as_f64(weights)
    phase = -dt * omegas
    n_blocks = -(-(n_max + 1) // _BLOCK)
    span = _TILE * _BLOCK
    if n_blocks > 1:
        # in place and before the large low table, to keep the peak memory low
        used = min(_TILE, n_blocks - 1)
        rows = np.zeros((_TILE, omegas.size), dtype=np.complex128)
        rows[:used] = _phase_table(_BLOCK * phase, used)
        rows[:used] *= weights
    low = _phase_table(phase, min(_BLOCK, n_max + 1))
    if n_blocks == 1:
        out = low @ weights
    else:
        tile = np.empty_like(rows)
        out = np.empty(n_max + 1, dtype=np.complex128)
        out[:_BLOCK] = low @ weights
        for n0 in range(_BLOCK, n_max + 1, span):
            np.multiply(rows, _expi(n0 * phase), out=tile)
            tile[n_blocks - n0 // _BLOCK :] = 0.0
            out[n0 : n0 + span] = (tile @ low.T).ravel()[: n_max + 1 - n0]
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
    g_{qW+r}. Per grid chunk this is one factored phase table per factor and
    one matrix product with the Q x W block matrix of g, never a grid x
    n_terms phase matrix.
    """
    nus = _as_f64(nus)
    width = min(_BLOCK, n_terms + 1)
    n_blocks = -(-(n_terms + 1) // width)
    n = np.arange(1, n_terms + 1)
    env = np.exp(-0.5 * (dt * lam) ** 2 * n * n)
    g = np.zeros(n_blocks * width, dtype=np.complex128)
    g[1 : n_terms + 1] = env * moment_values[1 : n_terms + 1]
    g = g.reshape(n_blocks, width)  # g[q, r] = g_{qW+r}, g_0 = 0
    out = np.empty(nus.shape[0])
    for i in range(0, nus.shape[0], _CHUNK):
        x = dt * nus[i : i + _CHUNK]
        s = g @ _phase_table(x, width)
        s *= _phase_table(width * x, n_blocks)
        out[i : i + _CHUNK] = s.sum(axis=0).real
    return (moment_values[0].real + 2.0 * out) / period


def active_backend():
    """Name of the kernel implementation, kept for output metadata."""
    return "numpy"
