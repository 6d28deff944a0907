"""Numerical kernels: phase moments, Gaussian transforms, series resummation.

The phase moments have three paths, chosen from the lines and dt alone,
never from n_max:
- fft: L equally spaced lines of spacing h, with dt h L / (2 pi) a whole
  number j of turns to within a few eps j, take every moment from one FFT
  of the weights and one of the weights times the lines' per-line phase
  offsets, to first order in those offsets; every midpoint-grid spectrum
  under the nyquist norm-bound plan (period 2 norm_scale = L h) qualifies.
- nufft: other lines, at least _NUFFT_LINES of them with a finite dt
  max|w| of at least _NUFFT_SCALE, where np.longdouble is wider than
  float64, take block 0 from the direct kernel and every later order from
  tiles of a type-1 NUFFT (exponential-of-semicircle kernel of
  _NUFFT_WIDTH points, grid of 2 _NUFFT_TILE points, phases in
  np.longdouble). Its error does not grow with the order: one line of
  weight 1 is off by at most 3.2e-14 over three tiles (64 grid offsets),
  which _NUFFT_SCALE keeps at a tenth of the contract below at order
  _BLOCK; against 40-digit sums on 4 096 random lines under the norm-bound
  plan it is within 1.2e-14 mu0 up to order 42 371, the direct kernel
  within 1.1e-13.
- direct: every other input runs the blocked direct kernel.
All three meet one accuracy contract against the direct sum, 1e-14 mu0
through order 12 and 4 eps (1 + n dt max|w|) mu0 beyond, and on each m_n
is bitwise independent of n_max.
Every other job has one numpy implementation. The direct phase-moment sums
and the truncated Fourier reconstruction are blocked kernels built from
doubling complex exponential tables and BLAS products: table row exp(i k
phase) is the product of the fresh exponentials exp(i 2^j phase) of the set
bits j of k, so a table of K rows costs bit_length(K - 1) exponentials per
phase, and row k carries at most bit_length(K - 1) products, not k
accumulated steps.
Both grid kernels cut the grid into the fewest chunks of about _CHUNK
points (_chunk_step). The resummation cuts the orders into Q blocks of W
= min(_BLOCK, n_terms + 1) and takes, per chunk, one complex (Q, W)
product with the doubling table of the rows exp(i r x), met elementwise by
that of the block phases exp(i q W x); below _BLOCK terms that is the one
product g @ table. A long series on many points takes tiles of a type-2
NUFFT instead, the adjoint of the moments' type-1 NUFFT, with its kernel
points (_kernel_points, whose grid cells are built in integers) and
_deconvolution; it holds the kernel points of its x in a one-entry memo
(_held_points). A grid that is one chunk keeps its table of the rows
exp(i r x) in a one-entry memo (_held_table), so a later resummation on
the same x and row count builds only the block phases. _recall is the one
memo rule, also of exact_moments, reconstruct and the plain
exact_transform: a hit is an equal key, since every held array is
_frozen.
The direct moment kernel takes block 0 (orders below _BLOCK) from one
matrix-vector product of the low-order table with the weights, the same
product whatever n_max. The later orders come _TILE blocks at a time: the
rows w_k exp(i j _BLOCK phase), j < _TILE, times the one fresh exponential
row exp(i n0 phase) of the tile start n0, meet the low table in one complex
product whose entry (j, r) is m_{n0 + j _BLOCK + r}. Every tile has the same
shape and every start is fixed, whatever n_max, so BLAS sums each m_n in the
same order and m_n is bitwise independent of n_max; a call below order
_BLOCK builds no tile.
One Gaussian-transform kernel serves the plain and the periodic transform.
It works one grid chunk at a time, which bounds the temporary memory, on the
lines within reach of the chunk only. Within a chunk it wraps each line to
its nearest image once per span of grid points (the spans cut as the
chunks are), by one subtraction, where the nearest image is the same at
both ends of the span, and rounds per pair only for the lines whose image
changes inside it. It evaluates every line's own image in one dense pass,
which starts the sum, then adds the images in order j = -1, +1, -2, +2,
..., each for only the lines whose terms can change the sum, one index set
at once (_live_lines). It skips a line whose every term of the image in
the span is exactly 0.0, found from the exact range of its offsets; adding
+0.0 to a nonnegative sum changes no bit. It also skips an image that is
absorbed: its argument is at least _ABSORBED below the own term t_0's (c
(s^2 - 2 s d) <= -_ABSORBED, s = j period). A normal t_0 is then more
than 2^57 times the image's term, and every sum the image meets holds
t_0, so the term rounds away alone; a subnormal or zero t_0 leaves the
image's argument below -748, where its term is exactly 0.0. The result is
bitwise that of evaluating every term in that order. alias_free decides
from the extents of the grid and the lines alone when a periodic transform
is exactly the plain one, which exact_transform then reuses.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_CHUNK = 256  # grid rows per numpy broadcast block; bounds temp memory
_BLOCK = 128  # orders per phase-power block; fixed so m_n ignores n_max
_TILE = 32  # blocks per moment matrix product; fixed so m_n ignores n_max
_ZERO = 745.2  # exp(-x) is 0.0 in float64 for x above 745.134 (2^-1075)
_UNDERFLOW = 750.0  # exp(-x) is 0.0 in float64 beyond 745.2; margin for rounding
_REACH = math.sqrt(2.0 * _UNDERFLOW)  # in units of lam: every term beyond is 0.0
_ABSORBED = 40.0  # exp(-40) < 2^-57, an eighth of half an ulp: margin for rounding
_SPAN = 64  # grid rows per liveness decision in the Gaussian transform
_exp = np.exp  # the Gaussian transform's exponential; tests count its elements
_EPS = np.finfo(np.float64).eps
_TURN_EPS = 8  # eps j that dt h L / (2 pi) may miss j by on the FFT path
_SPACING_ULPS = 8  # ulp of max|w| that a line may miss w_0 + k h by there
_MAX_TURNS = 2**20  # bounds j, and with it the offsets the FFT path admits
# an extended float type for the FFT path's per-line offsets, and 2 pi in it:
# fl(2 pi) plus its rounding residual 2 sin(fl(pi))
_EXTENDED = np.finfo(np.longdouble).eps < _EPS
_TAU_EXT = np.longdouble(math.tau) + 2 * np.longdouble(math.sin(math.pi))
_NUFFT_TILE = 16384  # orders per NUFFT tile; fixed so m_n ignores n_max
_NUFFT_WIDTH = 16  # grid points the NUFFT kernel spreads each line onto
_NUFFT_BETA = 2.30 * _NUFFT_WIDTH  # the kernel's shape, for a grid of 2 tiles
_NUFFT_LINES = 1024  # the fewest lines that take the NUFFT path
_NUFFT_SCALE = 2.5  # the least dt max|w| that takes it: 10x margin at _BLOCK
_SERIES_POINTS = 384  # the fewest grid points per full tile that take the NUFFT
assert _NUFFT_TILE & (_NUFFT_TILE - 1) == 0  # grid cells wrap by a bit mask


def _as_f64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _expi(phase):
    """exp(i phase) of a real array, without a complex product to form i phase."""
    z = np.zeros(phase.shape, dtype=np.complex128)
    z.imag = phase
    return np.exp(z, out=z)


def _phase_table(phase, count):
    """exp(i k phase) for k < count, shape (count,) + phase.shape.

    Built by doubling in one output array: row 0 is 1, and rows 2^j to
    2^(j+1) - 1 are rows 0 to 2^j - 1 times the fresh exponential
    exp(i 2^j phase), whose argument 2^j phase is exact. Row k is thus the
    product of the exponentials of its set bits, lowest first, whatever count
    is, and row 2^j equals _expi(2^j phase); the table costs bit_length(count
    - 1) exponentials per phase.
    """
    table = np.empty((count,) + phase.shape, dtype=np.complex128)
    table[:1] = 1.0
    top = 1
    while top < count:
        n = min(top, count - top)
        np.multiply(table[:n], _expi(top * phase), out=table[top : top + n])
        top *= 2
    return table


# ---------------------------------------------------------------------------
# phase moment sums: m_n = sum_k w_k exp(-i n dt w_k), n = 0..n_max


def phase_moment_sums(omegas, weights, dt, n_max):
    """Fourier phase moments of a weighted point spectrum.

    Equally spaced lines whose spacing dt maps onto a whole number of turns
    over the L lines (_commensurate) take their moments from FFTs of the
    weights (_fft_moments); many lines spread over a wide phase range
    (_spreads) take the orders past block 0 from a type-1 NUFFT
    (_nufft_moments); every other input runs the blocked direct kernel
    (_direct_moments). The choice reads only the lines and dt, never n_max,
    so m_n is bitwise independent of n_max on every path.
    """
    omegas = _as_f64(omegas)
    weights = _as_f64(weights)
    j = _commensurate(omegas, dt)
    if j:
        return _fft_moments(omegas, weights, dt, n_max, j)
    if _spreads(omegas, dt):
        return _nufft_moments(omegas, weights, dt, n_max)
    return _direct_moments(omegas, weights, dt, n_max)


def _commensurate(omegas, dt):
    """The whole number of turns j >= 1 that dt h L spans, for L equally
    spaced lines of spacing h; 0 when the lines do not qualify.

    The scalar screen comes first: with h = (w[L-1] - w[0]) / (L - 1),
    dt h L / (2 pi) must lie below _MAX_TURNS and within _TURN_EPS eps j of
    j. Only then does one O(L) pass check that every line lies within
    _SPACING_ULPS ulp of max|w| of w[0] + k h. Without an extended float
    type to take the per-line offsets in, no input qualifies."""
    L = omegas.size
    if L < 2 or not _EXTENDED:
        return 0
    h = (omegas[-1] - omegas[0]) / (L - 1)
    turns = dt * h * L / math.tau
    if not 0.5 <= turns < _MAX_TURNS:  # also refuses NaN
        return 0
    j = round(turns)
    if not abs(turns - j) <= _TURN_EPS * _EPS * j:
        return 0
    grid = omegas[0] + np.arange(L) * h
    if not np.abs(omegas - grid).max() <= _SPACING_ULPS * np.spacing(
        np.abs(omegas).max()
    ):
        return 0
    return j


def _fft_moments(omegas, weights, dt, n_max, j):
    """Phase moments of L equally spaced lines, dt (w_k - w_0) close to
    2 pi j k / L, from one FFT call on two rows of length L.

    With phase = fl(-dt w_0) and the per-line offsets eps_k = dt w_k + phase
    - 2 pi j k / L, taken in np.longdouble so that they are exact to well
    below float64 rounding,

        m_n = exp(i n phase) sum_k w_k exp(-2 pi i q k / L) exp(-i n eps_k)
            = exp(i n phase) [F0 - i n F1][q] + O((n eps_k)^2),  q = n j mod L,

    with F0 = fft(w) and F1 = fft(w eps_k). eps_k collects the rounding of
    the spacing, of dt, of the lines and of phase, all of a few eps times
    dt max|w|, so the first-order term leaves an error of order (n eps dt
    max|w|)^2, far below the float64 rounding of the direct kernel's own
    phases. exp(i n phase) is the doubling table of the one phase,
    bit_length(n_max) exponentials in all. Each m_n is an entry-by-entry
    product of values that do not depend on n_max, so it is bitwise
    independent of n_max; m_0 is the plain weight sum, as on the direct
    path. numpy.fft is imported on the FFT and NUFFT paths only."""
    from numpy import fft

    L = omegas.size
    phase = -dt * omegas[0]
    ext = np.longdouble
    offsets = ext(dt) * omegas.astype(ext) + ext(phase)
    offsets -= _TAU_EXT * (j * np.arange(L)) / L
    spectra = fft.fft(np.stack((weights, (weights * offsets).astype(np.float64))))
    n = np.arange(n_max + 1)
    f0, f1 = np.take(spectra, n * j, axis=1, mode="wrap")  # bins q = n j mod L
    f0.real += n * f1.imag
    f0.imag -= n * f1.real
    f0 *= _phase_table(np.array([phase]), n_max + 1)[:, 0]
    f0[0] = weights.sum()
    return f0


def _direct_moments(omegas, weights, dt, n_max):
    """Phase moments of any weighted point spectrum, by blocked tables.

    Block 0, orders below _BLOCK, is the low table exp(-i r dt w_k), r <
    _BLOCK, times the weights: one matrix-vector product (_block_zero). The
    later orders come in tiles of _TILE blocks, the tiles starting at n0 =
    _BLOCK + t _TILE _BLOCK. With the block rows b_{jk} = w_k exp(-i j
    _BLOCK dt w_k), j < _TILE, and the low table's rows r < _BLOCK,

        m_{n0 + j _BLOCK + r} = sum_k exp(-i r dt w_k) b_{jk} exp(-i n0 dt w_k),

    so a tile is one complex (_TILE, L) @ (L, _BLOCK) product of the block
    rows, times one fresh exponential row exp(-i n0 dt w_k), with the
    transposed low table: 4 _TILE _BLOCK L real multiplies. The (N/_BLOCK,
    L) matrix of all block rows never exists; beyond the low table a call
    holds the (_TILE, L) block rows, one tile of them and the output. A
    call with n_max < _BLOCK builds neither. All phase tables are built by
    doubling: L lines up to order N cost 7 L complex exponentials for the
    low table, 5 L for the block rows and L per tile, so (12 +
    ceil((N + 1 - _BLOCK)/(_TILE _BLOCK))) L instead of N L, and at most
    7 L below order _BLOCK; every factor is a fresh exponential, so no
    phase roundoff accumulates along n.

    m_n is bitwise independent of n_max. Each table row is the same product
    of the same fresh exponentials, in the same order, whatever the row
    count, and the tile starts do not depend on n_max either. Block 0 is
    the same matrix-vector product whatever n_max: (_BLOCK, L) @ (L,) from
    n_max = _BLOCK - 1 on, below that the same product on fewer rows, which
    the BLAS sums row by row, each row against the weights in an order set
    by L alone. The block rows always have _TILE rows, those of the last
    tile past n_max computed and dropped, so every tile product has one
    shape whatever n_max, and the BLAS sums each entry, one block row
    against one low-table row, in an order set by L alone (tests compare
    n_max = 0..7 and the edges of the low table's power-of-two rows, of the
    blocks, of the block rows and of the tiles against a longer n_max,
    bitwise). The constants are fixed for that reason: a tile width that
    follows n_max, or one product over all blocks whose shape grows with
    n_max, changes the BLAS summation order and with it the last bits. m_0
    is the plain weight sum: at n_max = 0 the one-row product takes another
    BLAS code path and rounds differently.
    """
    phase = -dt * omegas
    if n_max >= _BLOCK:  # before the large low table, to keep the peak low
        rows = _phase_table(_BLOCK * phase, _TILE)
        rows *= weights
    low, head = _block_zero(phase, weights, n_max)
    if n_max < _BLOCK:
        return head
    span = _TILE * _BLOCK
    out = np.empty(n_max + 1, dtype=np.complex128)
    out[:_BLOCK] = head
    for n0 in range(_BLOCK, n_max + 1, span):
        tile = (rows * _expi(n0 * phase)) @ low.T
        out[n0 : n0 + span] = tile.ravel()[: n_max + 1 - n0]
    return out


def _block_zero(phase, weights, n_max):
    """The low table exp(i r phase), r < min(_BLOCK, n_max + 1), and block 0,
    its matrix-vector product with the weights, m_0 the plain weight sum."""
    low = _phase_table(phase, min(_BLOCK, n_max + 1))
    head = low @ weights
    head[0] = weights.sum()
    return low, head


def _spreads(omegas, dt):
    """Whether lines that are not commensurate take the NUFFT path: at least
    _NUFFT_LINES of them, an extended float type for their phases, and a
    finite dt max|w| of at least _NUFFT_SCALE."""
    return (_EXTENDED and omegas.size >= _NUFFT_LINES
            and _NUFFT_SCALE <= dt * np.abs(omegas).max() < math.inf)


def _nufft_moments(omegas, weights, dt, n_max):
    """Phase moments of many irregular lines: block 0 as on the direct path,
    every later order from a type-1 NUFFT with an exponential-of-semicircle
    kernel (Barnett, Magland and af Klinteberg, SIAM J. Sci. Comput. 41,
    2019).

    Block 0 is _block_zero, bitwise the direct kernel's. The orders from
    _BLOCK on form tiles of S = _NUFFT_TILE orders, tile t centered at c =
    _BLOCK + t S + S/2. With theta_k = dt w_k mod 2 pi in [-pi, pi] and
    a_k = w_k exp(-i c theta_k),

        m_{c+r} = sum_k a_k exp(-i r theta_k),  -S/2 <= r < S/2,

    a type-1 NUFFT: each a_k is spread onto the W = _NUFFT_WIDTH nearest
    points of a periodic grid of M = 2S points over one turn, spacing h =
    2 pi / M, with weights psi(l h - theta_k), psi(x) = exp(beta
    (sqrt(1 - (2x / W h)^2) - 1)), beta = _NUFFT_BETA; one numpy.fft.fft of
    the grid gives sum_k a_k exp(-i r theta_k) psihat(r) / h, up to aliasing
    that the kernel keeps small for |r| <= M/4, and dividing by
    psihat(r) / h (_deconvolution) leaves the moments. theta_k, the grid
    offsets theta_k / h and c theta_k mod 2 pi are taken in np.longdouble,
    as on the FFT path, so no float64 rounding of a phase of size n dt
    |w| enters: the error stays at the kernel's, whatever the order. The
    kernel points (_kernel_points) are built once per call; a tile costs
    L exponentials, 2 W L real products and sums and one FFT of M points.
    Every tile has the same center and shape whatever n_max, so m_n is
    bitwise independent of n_max. numpy.fft is imported past block 0 only;
    the low table is dropped before the tiles, whose buffers do not grow
    with n_max.
    """
    head = _block_zero(-dt * omegas, weights, n_max)[1]  # drops the low table
    if n_max < _BLOCK:
        return head
    from numpy import fft

    size, ext = 2 * _NUFFT_TILE, np.longdouble
    theta = _wrapped(ext(dt) * omegas.astype(ext))
    first, spread = _kernel_points(theta)
    # the interleaved float index of each point's real and imaginary part
    cells = _cells(2 * first, 2 * _NUFFT_WIDTH, 2 * size).ravel()
    scale = _deconvolution()
    half = _NUFFT_TILE // 2
    out = np.empty(n_max + 1, dtype=np.complex128)
    out[:_BLOCK] = head
    # buffers every tile reuses; only the grid sums are allocated per tile
    terms = np.empty(spread.shape, dtype=np.complex128)
    spectrum = np.empty(size, dtype=np.complex128)
    tile = np.empty(_NUFFT_TILE, dtype=np.complex128)
    for n0 in range(_BLOCK, n_max + 1, _NUFFT_TILE):
        turn = _wrapped(ext(n0 + half) * theta)
        np.multiply((weights * _expi(-turn.astype(np.float64)))[:, None], spread,
                    out=terms)
        grid = np.bincount(cells, terms.view(np.float64).ravel(), 2 * size)
        fft.fft(grid.view(np.complex128), out=spectrum)
        del grid
        np.multiply(spectrum[-half:], scale[:half], out=tile[:half])  # r < 0
        np.multiply(spectrum[:half], scale[half:], out=tile[half:])
        out[n0 : n0 + _NUFFT_TILE] = tile[: n_max + 1 - n0]
    return out


def _wrapped(turn):
    """turn, an np.longdouble array, reduced in place to [-pi, pi] by whole
    turns of _TAU_EXT."""
    turn -= _TAU_EXT * np.round(turn / _TAU_EXT)
    return turn


def _kernel_points(theta):
    """The W = _NUFFT_WIDTH points of the periodic NUFFT grid of M = 2
    _NUFFT_TILE points over one turn nearest each phase theta
    (np.longdouble, within a turn of 0): the leftmost one's grid index, an
    int64 not yet reduced mod M, and the kernel's weights psi(l h - theta)
    at all W, (theta.size, W). The leftmost index is ceil(v), v the phase
    in grid units less W/2, taken exactly in integers: the cast rounds
    toward 0, and adding 1 where it fell below v rounds up. The grid
    offsets are taken in np.longdouble; the kernel is even, so the same
    weights spread a point onto the grid (type 1) and gather it back
    (type 2)."""
    size, width = 2 * _NUFFT_TILE, _NUFFT_WIDTH
    u = theta * (size / _TAU_EXT)  # grid units
    v = u - width // 2
    first = v.astype(np.int64)  # the leftmost of the W grid points
    first += first < v
    x = (first - u).astype(np.float64)[:, None] + np.arange(width)
    x *= 2.0 / width  # in [-1, 1): l - u over half the kernel width
    x *= x
    np.subtract(1.0, x, out=x)
    np.sqrt(x, out=x)
    x -= 1.0
    x *= _NUFFT_BETA
    return first, np.exp(x, out=x)


def _cells(first, count, size):
    """The count consecutive cells from first on, mod size, a power of two,
    per row: (first.size, count) int64 indices."""
    return (first[:, None] + np.arange(count)) & (size - 1)


@functools.cache
def _deconvolution():
    """h / psihat(r) for r = -S/2 .. S/2 - 1, S = _NUFFT_TILE, read-only,
    built on first use and kept for the process: S floats.

    psihat(r) = (W h / 2) int_{-1}^{1} phi(z) cos(r W h z / 2) dz with phi(z)
    = exp(beta (sqrt(1 - z^2) - 1)), so that with W h / 2 = pi W / (2 S) the
    table is 1 / (W int_0^1 phi(z) cos(r pi W z / (2 S)) dz). The integral
    is the trapezoid rule on 64 intervals, one cosine row of S/2 + 1 entries
    per node: the integrand is even in z, and phi and its derivatives are of
    order exp(-beta) ~ 1e-16 at z = 1, so the rule converges as on a
    periodic function, to within 2e-16 of 512 intervals, well below the
    rounding of the float64 sums."""
    width, half, n = _NUFFT_WIDTH, _NUFFT_TILE // 2, 64
    z = np.linspace(0.0, 1.0, n + 1)
    c = np.exp(_NUFFT_BETA * (np.sqrt(1.0 - z * z) - 1.0)) / n
    c[[0, -1]] *= 0.5
    rho = np.arange(half + 1) * (math.pi * width / (2 * _NUFFT_TILE))
    total = np.zeros(half + 1)
    for zq, cq in zip(z, c):
        total += cq * np.cos(rho * zq)
    inverse = 1.0 / (width * total)
    return _frozen(np.concatenate((inverse[half:0:-1], inverse[:half])))


# ---------------------------------------------------------------------------
# Gaussian transform on a grid: Phi(nu) = sum_k w_k G(nu - w_k)


def _chunk_step(size, target=_CHUNK):
    """Points per grid chunk: the fewest chunks of about target points (at
    most 1.5 target), so that no chunk is a small remainder that pays a
    whole chunk's fixed costs; a multiple of target keeps chunks of target.
    The Gaussian transform cuts its chunks into spans by the same rule,
    with target _SPAN."""
    return max(1, -(-size // max(1, round(size / target))))


def _within_reach(chunk, omegas, lam, period=None):
    """Indices, in line order, of the lines whose nearest image (per period, if
    given) may come within _REACH lam of a chunk point; every term of the
    others is 0.0. Any chunk order works; a NaN keeps every line."""
    lo, hi = chunk.min(), chunk.max()
    d = 0.5 * (lo + hi) - omegas
    if period is not None:
        d -= period * np.round(d / period)
    reach = _REACH * lam + 0.5 * (hi - lo)
    return np.flatnonzero(~(np.abs(d) > reach))


def _offsets(span, omegas, period):
    """nu - w for every (line, span point), wrapped to the line's nearest
    image, and its exact per-line minimum and maximum over the span.

    fl(fl(nu - w) / period) and round are monotone in nu, so a line whose
    nearest-image index n is the same at the span's minimum and maximum has
    that n at every span point; it is wrapped by one subtraction of
    fl(period n) per line, the same float operations as the per-pair
    rounding, and its range is the offset at the two ends. The other lines
    (a NaN point counts among them) are rounded per pair and their range is
    taken over the row."""
    d = span[None, :] - omegas[:, None]
    ends = np.array([[span.min()], [span.max()]]) - omegas
    if period is None:
        return d, ends
    n = np.round(ends / period)
    moved = np.flatnonzero(~(n[0] == n[1]))
    shift = period * n[0]
    wrapped = d[moved]
    wrapped -= period * np.round(wrapped / period)
    d -= shift[:, None]
    ends -= shift
    d[moved] = wrapped
    ends[:, moved] = wrapped.min(axis=1), wrapped.max(axis=1)
    return d, ends


def _live_lines(ends, shifts, c):
    """Per image shift s of -P, +P, -2 P, +2 P, ..., the indices of the lines
    with a term that can change the sum, for x = d - s, d in
    ends[0]..ends[1].

    fl(fl(x c) x) is even in x and nonincreasing in |x|, so the largest term
    of a line is the one at its x nearest 0; below -_UNDERFLOW every term of
    the line is exactly 0.0. An image is also left out where it is
    absorbed: its argument less the own image's, c (s^2 - 2 s d), is at
    most -_ABSORBED at both ends, the extremes of a linear function of d,
    so its argument is at least 40 below the own term t_0's, up to about
    1e-12 of rounding. If t_0 is normal the image's term is below e^-40 t_0
    < 2^-57 t_0; the own image is added first, so every sum the image meets
    holds t_0, and the term is under half an ulp of it and rounds away
    alone. If t_0 is subnormal or 0.0 its argument is below -708.39, the
    image's below -748, and exp returns exactly 0.0. A NaN keeps the line."""
    s = np.array(shifts)[:, None, None]
    x = ends - s
    near = np.clip(0.0, x[:, 0], x[:, 1])
    near *= near * c
    absorbed = ((s - 2.0 * ends) * (s * c) <= -_ABSORBED).all(axis=1)
    return [np.flatnonzero(row) for row in ~((near < -_UNDERFLOW) | absorbed)]


def alias_free(nus, omegas, lam, period):
    """Whether the periodic Gaussian transform is bitwise the plain one,
    from the extents [lo, hi] of the grid and [a, b] of the lines, with m =
    _REACH lam + 8 eps S, S the largest of |lo|, |hi|, |a|, |b| and P:
    hi - lo + m < P/2 keeps the nearest image of every line within reach
    its own, so no offset is wrapped; a + P - hi > m and lo - (b - P) > m
    put every image j != 0 beyond reach of the grid, so each chunk keeps the
    same lines and every image term is 0.0. 8 eps S bounds the rounding of
    these tests (2.5 eps S each) and of the kernel's chunk centre, offsets,
    reach and d / P (4 eps S). A NaN grid point fails the first test; an
    empty grid is True."""
    nus = _as_f64(nus)
    omegas = _as_f64(omegas)
    if not nus.size:
        return True
    lo, hi, a, b = nus.min(), nus.max(), omegas.min(), omegas.max()
    m = _REACH * lam + 8 * _EPS * max(abs(lo), abs(hi), abs(a), abs(b), period)
    return bool(hi - lo + m < period / 2 and a + period - hi > m
                and lo - (b - period) > m)


def image_count(lam, period):
    """Images summed on each side of a line's nearest one: the least k >= 0
    with (k + 1/2) P >= R (1 + 4 eps), R = sqrt(2 _ZERO) lam. Image j, |j| >
    k, lies at |x| >= (k + 1/2) P less the rounding of fl(j P) and fl(d - j
    P), at most 2 eps (k + 1/2) P, so |x| >= R and each of its terms,
    exp(fl(fl(x c) x)) with an argument below -745.14, is 0.0; the gap from
    745.134 to _ZERO covers the rounding of the wrap for lines within 1e10 R
    of the grid. The rule is tested in floats either side of ceil(R/P - 1/2)."""
    reach = math.sqrt(2.0 * _ZERO) * lam * (1.0 + 4 * _EPS)
    k = math.ceil(reach / period - 0.5)  # >= ceil(-0.5) = 0
    if (k + 0.5) * period < reach:
        k += 1
    elif (k - 0.5) * period >= reach:
        k -= 1
    return k


def gaussian_transform(nus, omegas, weights, lam, period=None, wrap_count=0):
    """Gaussian-kernel transform of a point spectrum on a nu grid; given a
    period, each line enters through its nearest image and wrap_count
    images on each side, summed own image first, then j = -1, +1, -2, +2,
    ... up to wrap_count. A lam whose -1/(2 lam^2) is not finite (lam
    below about 5.3e-155) raises ValueError.

    The grid is cut into the fewest chunks of about _CHUNK points
    (_chunk_step). Per chunk the lines within reach form the columns
    of one C-contiguous (points, lines) sum of kernel terms, which meets
    the weights in one matrix-vector product. The sum is filled one span at
    a time, the chunk cut into the fewest spans of about _SPAN points
    (_chunk_step; the whole chunk is one span when it keeps fewer than
    _CHUNK lines, where per-span overhead would outweigh the skipped work),
    in a (lines, points) layout so that a line's span is one contiguous
    row. Per span each line is wrapped once to its nearest image
    (_offsets), the own image of every line is evaluated in one dense
    pass, and per image j != 0 only the rows of the lines with a term that
    can change the sum are gathered and evaluated (_live_lines), each term
    as exp((x c) x) with x = d - j period.

    The output is bitwise that of evaluating every term. A line wrapped per
    span gets the same offsets as per-pair rounding; the own term t starts
    the sum, as 0.0 + t does; a skipped image term is exactly +0.0, and
    adding +0.0 to a sum of nonnegative terms (or to a NaN) changes no bit,
    or it is absorbed, and rounds away against the own term (_live_lines);
    the images are added in the same order; and the product takes the same
    array and line order.
    """
    c = -0.5 / (lam * lam) if lam * lam else -math.inf
    if not math.isfinite(c):
        raise ValueError(f"lam={lam} is too small: -1/(2 lam^2) is {c}")
    nus = _as_f64(nus)
    omegas = _as_f64(omegas)
    weights = _as_f64(weights)
    shifts = [j * period for k in range(1, wrap_count + 1) for j in (-k, k)]
    out = np.empty(nus.shape[0])
    size = _chunk_step(nus.shape[0])
    for i in range(0, nus.shape[0], size):
        chunk = nus[i : i + size]
        k = _within_reach(chunk, omegas, lam, period)
        om = omegas[k]
        step = _chunk_step(chunk.size, _SPAN) if k.size >= _CHUNK else chunk.size
        acc = np.empty((chunk.size, k.size))
        for p in range(0, chunk.size, step):
            d, ends = _offsets(chunk[p : p + step], om, period)
            span = d * c
            span *= d
            _exp(span, out=span)
            for s, rows in zip(shifts, _live_lines(ends, shifts, c) if shifts else ()):
                x = d[rows] - s
                span[rows] += _exp((x * c) * x)
            acc[p : p + step] = span.T
        out[i : i + size] = acc @ weights[k]
    return out / (math.sqrt(2.0 * math.pi) * lam)


# ---------------------------------------------------------------------------
# Truncated Fourier reconstruction:
# Phi(nu) = (m_0.re + 2 sum_{n=1}^{N} Re[exp(+i n dt nu) env_n m_n]) / P


def reconstruct_series(nus, moment_values, dt, lam, period, n_terms):
    """Evaluate the conjugate-symmetric truncated Fourier series on a grid.

    With x = dt nu and g_n = env_n m_n (g_0 = 0), the series is Re sum_n g_n
    exp(i n x). At least _NUFFT_TILE terms (a full NUFFT tile), where
    np.longdouble is wider than float64, take the NUFFT path (_nufft_series)
    when the grid has at least _SERIES_POINTS points per full tile: the
    points times the filled share n_terms / (T _NUFFT_TILE) of the T tiles
    the terms take, so a last tile of few orders does not pay a whole tile's
    transform for a grid the block path serves faster. Every other call
    takes the block path, which
    cuts the orders as n = q W + r with W = min(_BLOCK, n_terms + 1), so
    that with the (Q, W) block matrix g[q, r] = g_{qW+r} the series is
    Re sum_q exp(i q W x) sum_r g[q, r] exp(i r x). Per grid chunk
    (_chunk_step) that is one doubling table of the W rows exp(i r x) and
    one of the Q rows exp(i q W x), bit_length(W - 1) + bit_length(Q - 1)
    exponentials per grid point, and one complex (Q, W) @ (W, P) product
    met by the block rows elementwise. Below _BLOCK terms Q = 1, the row
    exp(0) = 1 costs no exponential, and the result is bitwise the one
    product g @ table. On a grid that is one chunk (fewer than 1.5 _CHUNK
    points) the table of the rows exp(i r x) comes from _held_table, so a
    later call on the same x and W reuses it.
    """
    nus = _as_f64(nus)
    tiles = -(-n_terms // _NUFFT_TILE)
    if (_EXTENDED and n_terms >= _NUFFT_TILE
            and nus.shape[0] * n_terms >= _SERIES_POINTS * _NUFFT_TILE * tiles):
        return _nufft_series(nus, moment_values, dt, lam, period, n_terms)
    width = min(_BLOCK, n_terms + 1)
    n_blocks = -(-(n_terms + 1) // width)
    g = np.zeros(n_blocks * width, dtype=np.complex128)
    env = _envelope(np.arange(1.0, n_terms + 1), dt, lam)
    g[1 : n_terms + 1] = env * moment_values[1 : n_terms + 1]
    g = g.reshape(n_blocks, width)  # g[q, r] = g_{qW+r}
    out = np.empty(nus.shape[0])
    step = _chunk_step(nus.shape[0])
    table = _held_table if step >= nus.shape[0] else _phase_table
    for i in range(0, nus.shape[0], step):
        x = dt * nus[i : i + step]
        s = g @ table(x, width)
        s *= _phase_table(width * x, n_blocks)
        out[i : i + step] = s.sum(axis=0).real
    return (moment_values[0].real + 2.0 * out) / period


def _envelope(n, dt, lam):
    """exp(-(dt lam n)^2 / 2) for the float orders n, computed in place."""
    env = n * (-0.5 * (dt * lam) ** 2)
    env *= n
    return np.exp(env, out=env)


def _nufft_series(nus, moment_values, dt, lam, period, n_terms):
    """The series by tiles of a type-2 NUFFT, the adjoint of the type-1
    NUFFT of _nufft_moments (Dutt and Rokhlin, SIAM J. Sci. Comput. 14, 1993).

    Tile t holds the orders n0 .. n0 + S - 1, S = _NUFFT_TILE, n0 = 1 + t S,
    around c = n0 + S/2. With theta_j = x_j mod 2 pi, x = fl(dt nu) as on
    the block path,

        sum_r g_{c+r} exp(i (c + r) x_j)
            = exp(i c theta_j) sum_r g_{c+r} exp(i r theta_j),  -S/2 <= r < S/2:

    one inverse FFT of the M = 2S coefficients g_{c+r} scale_r
    (_deconvolution) gives grid values whose sum over the W kernel points
    nearest theta_j (_kernel_points), weighted as the type-1 NUFFT spreads,
    is the inner sum. theta_j and c theta_j mod 2 pi are taken in
    np.longdouble. A tile costs S exponentials for the envelope, one FFT of
    M points and, per grid chunk (_chunk_step), W gathered values and one
    exponential per point. The kernel points come from _held_points, so a
    later call on the same x builds none; beyond the output and them a call
    holds one tile's buffers, whatever n_terms."""
    from numpy import fft

    size, half, ext = 2 * _NUFFT_TILE, _NUFFT_TILE // 2, np.longdouble
    theta, cells, spread = _held_points(dt * nus)
    scale = _deconvolution()
    step = _chunk_step(nus.shape[0])
    # buffers every tile reuses
    g = np.empty(_NUFFT_TILE, dtype=np.complex128)  # g_{c+r}, r = -S/2..
    coef = np.zeros(size, dtype=np.complex128)
    grid = np.empty(size, dtype=np.complex128)
    total = np.zeros(nus.shape[0], dtype=np.complex128)
    for n0 in range(1, n_terms + 1, _NUFFT_TILE):
        k = min(_NUFFT_TILE, n_terms + 1 - n0)
        np.multiply(_envelope(np.arange(float(n0), n0 + k), dt, lam),
                    moment_values[n0 : n0 + k], out=g[:k])
        g[k:] = 0.0
        np.multiply(g[:half], scale[:half], out=coef[-half:])  # r < 0
        np.multiply(g[half:], scale[half:], out=coef[:half])
        fft.ifft(coef, norm="forward", out=grid)
        for i in range(0, nus.shape[0], step):
            near = grid[cells[i : i + step]]
            near *= spread[i : i + step]
            turn = _wrapped(ext(n0 + half) * theta[i : i + step])
            total[i : i + step] += near.sum(axis=1) * _expi(turn.astype(np.float64))
        del near, turn  # before the next tile's envelope, to keep the peak
    return (moment_values[0].real + 2.0 * total.real) / period


def _held_points(x):
    """theta = x mod 2 pi in np.longdouble, the grid cells of its W =
    _NUFFT_WIDTH kernel points and their weights (_kernel_points), all
    read-only, for the x = dt nus of a NUFFT resummation, held by _recall
    under "series_points" and keyed on the bytes of x: 272 B per grid point
    (W indices, W weights and theta)."""
    def compute():
        theta = _wrapped(x.astype(np.longdouble))
        first, spread = _kernel_points(theta)
        cells = _cells(first, _NUFFT_WIDTH, 2 * _NUFFT_TILE)
        return _frozen(theta), _frozen(cells), _frozen(spread)

    return _recall("series_points", x.tobytes(), compute)


def _held_table(x, count):
    """_phase_table(x, count), read-only, for the x = dt nus of a grid that
    is one chunk, held by _recall under "x_table" and keyed on the bytes of
    x and count. It holds _BLOCK rows of fewer than 1.5 _CHUNK points
    (_chunk_step) at most, under 0.79 MB."""
    return _recall("x_table", (x.tobytes(), count),
                   lambda: _frozen(_phase_table(x, count)))


# The one-entry memos: site -> (key, result) of that site's last call.
_memos: dict = {}


def _recall(site, key, compute):
    """compute(), or the result held for site when key equals its key. A
    miss drops the site's entry before compute runs, so that at most one
    result per site is held, then holds the new result. Callers key on
    content, the bytes of the input arrays and the other arguments, so a
    written input misses and an equal copy hits, and return results whose
    arrays are _frozen, so a held result cannot change. Threads that miss
    at once may each compute a correct result."""
    held = _memos.get(site)
    if held is not None and held[0] == key:
        return held[1]
    del held  # with the entry, so that the old result is freed first
    _memos.pop(site, None)
    result = compute()
    _memos[site] = (key, result)
    return result


def _frozen(array):
    """A read-only view of array, after making array read-only. array must
    own its data: numpy then refuses to make the view writable again, so
    only a write through .base, which is not API, still reaches it."""
    array.setflags(write=False)
    return array.view()


def active_backend():
    """Name of the kernel implementation, kept for output metadata."""
    return "numpy"
