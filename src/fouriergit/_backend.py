"""Numerical kernels: phase moments, Gaussian transforms, series resummation.

The phase moments have two paths, chosen from the lines and dt alone. L
equally spaced lines of spacing h, with dt h L / (2 pi) a whole number j of
turns to within a few eps j, take every moment from one FFT of the weights
and one of the weights times the lines' per-line phase offsets, to first
order in those offsets; every midpoint-grid spectrum under the nyquist
norm-bound plan (period 2 norm_scale = L h) qualifies. Every other input
runs the blocked direct kernel. Both paths meet one accuracy contract
against the direct sum, 1e-14 mu0 through order 12 and 4 eps (1 + n dt
max|w|) mu0 beyond, and on both m_n is bitwise independent of n_max.
Every other job has one numpy implementation. The direct phase-moment sums
and the truncated Fourier reconstruction are blocked kernels built from
doubling complex exponential tables and BLAS products: table row exp(i k
phase) is the product of the fresh exponentials exp(i 2^j phase) of the set
bits j of k, so a table of K rows costs bit_length(K - 1) exponentials per
phase, and row k carries at most bit_length(K - 1) products, not k
accumulated steps.
Both grid kernels cut the grid into the fewest chunks of about _CHUNK
points (_chunk_step). The resummation keeps a series of fewer than _BLOCK
terms as one block, one complex product per chunk. A longer series is cut
into blocks centered at c = q _BLOCK, each exp(i c x) times a cos/sin
series in r = 0.._BLOCK/2. Per chunk a real coefficient matrix, built
once per call, contracts the longer of the block-phase and the cos/sin
tables, split into real and imaginary rows, and the result meets the
shorter table elementwise:
2Q(_BLOCK + 2) real multiplies per grid point for Q blocks, where the
complex block product takes 4Q _BLOCK.
The direct moment kernel takes block 0 (orders below _BLOCK) from one
matrix-vector product of the low-order table with the weights, the same
product whatever n_max. Each later block is centered, at c = q _BLOCK +
_BLOCK/2, so that exp(i(c +- r) phase) = exp(i c phase)(cos r phase +- i sin
r phase): one real cos/sin table of _BLOCK + 2 rows, split in place from the
low table, meets the complex rows w_k exp(i c phase_k) of _TILE blocks at a
time, viewed as interleaved floats, in one real matrix product per tile, and
each product entry serves the two orders c + r and c - r. That halves the
real multiplies of a complex product per block. Every tile has the same
shape and start, and every block the same center, whatever n_max, so BLAS
sums each m_n in the same order and m_n is bitwise independent of n_max; a
call below order _BLOCK builds no tile.
One Gaussian-transform kernel serves the plain and the periodic transform.
It works one grid chunk at a time, which bounds the temporary memory, on the
lines within reach of the chunk only. Within a chunk it wraps each line to
its nearest image once per span of grid points, by one subtraction, where
the nearest image is the same at both ends of the span, and rounds per pair
only for the lines whose image changes inside it. For each image it skips
the lines whose every term in the span is exactly 0.0, found from the exact
range of their offsets; adding +0.0 to a nonnegative sum changes no bit, so
the result is bitwise that of evaluating every term.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 256  # grid rows per numpy broadcast block; bounds temp memory
_BLOCK = 128  # orders per phase-power block; fixed so m_n ignores n_max
_TILE = 32  # blocks per moment matrix product; fixed so m_n ignores n_max
_SPLIT_ROWS = 16  # complex rows per copy in the in-place cos/sin split
_UNDERFLOW = 750.0  # exp(-x) is 0.0 in float64 beyond 745.2; margin for rounding
_SPAN = 64  # grid rows per liveness decision in the Gaussian transform
_RUNS = 16  # line slices per image and span in the Gaussian transform
_exp = np.exp  # the Gaussian transform's exponential; tests count its elements
_EPS = np.finfo(np.float64).eps
_TURN_EPS = 8  # eps j that dt h L / (2 pi) may miss j by on the FFT path
_SPACING_ULPS = 8  # ulp of max|w| that a line may miss w_0 + k h by there
_MAX_TURNS = 2**20  # bounds j, and with it the offsets the FFT path admits
# an extended float type for the FFT path's per-line offsets, and 2 pi in it:
# fl(2 pi) plus its rounding residual 2 sin(fl(pi))
_EXTENDED = np.finfo(np.longdouble).eps < _EPS
_TAU_EXT = np.longdouble(math.tau) + 2 * np.longdouble(math.sin(math.pi))


def _as_f64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _expi(phase):
    """exp(i phase) of a real array, without a complex product to form i phase."""
    z = np.zeros(phase.shape, dtype=np.complex128)
    z.imag = phase
    return np.exp(z, out=z)


def _phase_table(phase, count, out=None):
    """exp(i k phase) for k < count, shape (count,) + phase.shape, written
    into out when given.

    Built by doubling in one output array: row 0 is 1, and rows 2^j to
    2^(j+1) - 1 are rows 0 to 2^j - 1 times the fresh exponential
    exp(i 2^j phase), whose argument 2^j phase is exact. Row k is thus the
    product of the exponentials of its set bits, lowest first, whatever count
    is, and row 2^j equals _expi(2^j phase); the table costs bit_length(count
    - 1) exponentials per phase.
    """
    table = out
    if table is None:
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
    weights (_fft_moments); every other input runs the blocked direct kernel
    (_direct_moments). The choice reads only the lines and dt, never n_max,
    so m_n is bitwise independent of n_max on either path.
    """
    omegas = _as_f64(omegas)
    weights = _as_f64(weights)
    j = _commensurate(omegas, dt)
    if j:
        return _fft_moments(omegas, weights, dt, n_max, j)
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
    path. numpy.fft is imported here only, so no call off this path pays
    for it."""
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
    _BLOCK, times the weights: one matrix-vector product. Block q >= 1 is
    centered at c = q _BLOCK + H, H = _BLOCK // 2, and holds the orders c + r
    (0 <= r < H) and c - r (1 <= r <= H). With a_k = w_k exp(-i c dt w_k),

        m_{c +- r} = sum_k a_k (cos r dt w_k -+ i sin r dt w_k) = U_r +- i V_r,

    where U_r = sum_k cos(r dt w_k) a_k and V_r = sum_k sin(-r dt w_k) a_k
    have real table entries, so one real product against the complex a,
    viewed as interleaved floats, gives both halves of a block. The real
    table has 2H + 2 rows of L: rows 2r and 2r + 1 are the real and the
    imaginary part of the low table's row r, r = 0..H, split in place in
    the low table's memory (no new exponentials). The a rows are formed
    _TILE blocks at a time in one complex (L, _TILE) tile buffer, as a table
    of the rows w_k exp(-i j _BLOCK dt w_k), j < _TILE, times one fresh
    exponential row per tile, the tiles starting at order _BLOCK + j _TILE
    _BLOCK. Each tile is one real (2H + 2, L) @ (L, 2 _TILE) product, about
    half the real multiplies of the complex (_TILE, L) @ (L, _BLOCK) product
    of an uncentered block, and the (N/_BLOCK, L) matrix of all block rows
    never exists. The tile buffer sits in the low table's rows past H, so
    beyond the low table a call holds the block-row table and the output
    only. A call with n_max < _BLOCK builds no block rows and no tile. All
    phase tables are built by doubling: L lines up to order N cost 7 L
    complex exponentials for the low table, at most 5 L for the block-row
    table and L per tile, so at most (12 + ceil((N + 1 - _BLOCK)/(_TILE
    _BLOCK))) L instead of N L, and at most 7 L below order _BLOCK; every
    factor is a fresh exponential, so no phase roundoff accumulates along n.

    m_n is bitwise independent of n_max. Each table row is the same product
    of the same fresh exponentials, in the same order, whatever the row
    count, and the block centers and tile starts do not depend on n_max
    either. Block 0 is the same matrix-vector product whatever n_max:
    (_BLOCK, L) @ (L,) from n_max = _BLOCK - 1 on, below that the same
    product on fewer rows, which the BLAS sums row by row, each row against
    the weights in an order set by L alone. Every tile has _TILE columns,
    those of the last tile past n_max computed and dropped, so every tile
    product has one shape whatever n_max, the BLAS sums each entry, one
    table row against one tile column, in an order set by L alone, and
    U +- i V is taken entry by entry (tests compare n_max = 0..7 and the
    power-of-two edges of the low table, of _BLOCK orders, of the block
    centers, of the block-row table and of the tiles against a longer n_max,
    bitwise). The constants are fixed for that reason: a tile width or block
    center that follows n_max, or one product over all blocks whose shape
    grows with n_max, changes the BLAS summation order and with it the last
    bits. m_0 is the plain weight sum: at n_max = 0 the one-row product
    takes another BLAS code path and rounds differently.
    """
    phase = -dt * omegas
    n_blocks = -(-(n_max + 1) // _BLOCK)
    if n_blocks > 1:
        # in place and before the large low table, to keep the peak memory low
        used = min(_TILE, n_blocks - 1)
        rows = np.zeros((omegas.size, _TILE), dtype=np.complex128)
        rows[:, :used] = _phase_table(_BLOCK * phase, used).T
        rows[:, :used] *= weights[:, None]
    low = _phase_table(phase, min(_BLOCK, n_max + 1))
    head = low @ weights
    head[0] = weights.sum()
    if n_blocks == 1:
        return head
    # from here on the low table's memory holds the real table, its complex
    # row r <= half split in place into the rows 2r (cos) and 2r + 1 (sin)
    # through a copy of at most _SPLIT_ROWS rows, and in the _TILE complex rows
    # after those the tile buffer, so past block 0 a call allocates only the
    # block-row table, the output and small temporaries
    half = _BLOCK // 2
    cs = low[: half + 1].view(np.float64).reshape(2 * half + 2, -1)
    for a in range(0, half + 1, _SPLIT_ROWS):
        z = low[a : min(a + _SPLIT_ROWS, half + 1)].copy()
        cs[2 * a : 2 * (a + len(z)) : 2] = z.real
        cs[2 * a + 1 : 2 * (a + len(z)) : 2] = z.imag
    tile = low[half + 1 : half + 1 + _TILE].reshape(rows.shape)
    span = _TILE * _BLOCK
    out = np.empty(n_max + 1, dtype=np.complex128)
    out[:_BLOCK] = head
    block = np.empty((_TILE, _BLOCK), dtype=np.complex128)
    for n0 in range(_BLOCK, n_max + 1, span):
        np.multiply(rows, _expi((n0 + half) * phase)[:, None], out=tile)
        prod = cs @ tile.view(np.float64)  # row 2r holds U_r, row 2r + 1 V_r
        u = prod[0::2].view(np.complex128)
        iv = 1j * prod[1::2].view(np.complex128)
        np.add(u[:half], iv[:half], out=block[:, half:].T)
        np.subtract(u[half:0:-1], iv[half:0:-1], out=block[:, :half].T)
        out[n0 : n0 + span] = block.ravel()[: n_max + 1 - n0]
    return out


# ---------------------------------------------------------------------------
# Gaussian transform on a grid: Phi(nu) = sum_k w_k G(nu - w_k)


def _chunk_step(size):
    """Points per grid chunk: the fewest chunks of about _CHUNK points (at
    most 1.5 _CHUNK), so that no chunk is a small remainder that pays a
    whole chunk's fixed costs; a multiple of _CHUNK keeps chunks of _CHUNK."""
    return max(1, -(-size // max(1, round(size / _CHUNK))))


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
    n[0, moved] = 0.0
    shift = period * n[0]
    wrapped = d[moved]
    wrapped -= period * np.round(wrapped / period)
    d -= shift[:, None]
    ends -= shift
    d[moved] = wrapped
    ends[:, moved] = wrapped.min(axis=1), wrapped.max(axis=1)
    return d, ends


def _live_runs(ends, shifts, c):
    """Per image shift s, the row slices (start, stop) that hold every line
    with a term above exp(-_UNDERFLOW) for x = d - s, d in ends[0]..ends[1].

    fl(fl(x c) x) is even in x and nonincreasing in |x|, so the largest term
    of a line is the one at its x nearest 0; below -_UNDERFLOW every term of
    the line is exactly 0.0. A NaN keeps the line. An image with more than
    _RUNS runs of live lines gets one slice over all of them instead, so
    scattered lines cost some zeros rather than many slices."""
    x = ends - np.array(shifts)[:, None, None]
    near = np.clip(0.0, x[:, 0], x[:, 1])
    near *= near * c
    live = np.zeros((len(shifts), ends.shape[1] + 2), dtype=bool)
    live[:, 1:-1] = ~(near < -_UNDERFLOW)
    image, edge = np.nonzero(live[:, 1:] != live[:, :-1])
    runs = [[] for _ in shifts]
    for i, start, stop in zip(image[0::2], edge[0::2], edge[1::2]):
        runs[i].append((start, stop))
    return [r if len(r) <= _RUNS else [(r[0][0], r[-1][1])] for r in runs]


def gaussian_transform(nus, omegas, weights, lam, period=None, wrap_count=0):
    """Gaussian-kernel transform of a point spectrum on a nu grid; given a
    period, each line enters through its nearest image and wrap_count
    images on each side, summed in order j = -wrap_count..wrap_count.

    The grid is cut into the fewest chunks of about _CHUNK points
    (_chunk_step). Per chunk the lines within reach form the columns
    of one C-contiguous (points, lines) sum of kernel terms, which meets
    the weights in one matrix-vector product. The sum is filled one span of
    _SPAN points at a time (the whole chunk when it keeps fewer than _CHUNK
    lines, where per-span overhead would outweigh the skipped work), in a
    (lines, points) layout so that a run of lines is one contiguous block.
    Per span each line is wrapped once to its nearest image (_offsets), and
    per image j only the runs of lines with a term that can be nonzero are
    evaluated (_live_runs), each term as exp((x c) x) with x = d - j period.

    The output is bitwise that of evaluating every term. A line wrapped per
    span gets the same offsets as per-pair rounding; a skipped term is
    exactly +0.0, and adding +0.0 to a sum of nonnegative terms (or to a NaN)
    changes no bit; the images are added in the same order; and the product
    takes the same array and line order.
    """
    nus = _as_f64(nus)
    omegas = _as_f64(omegas)
    weights = _as_f64(weights)
    c = -0.5 / (lam * lam)
    shifts = [j * period if j else 0.0 for j in range(-wrap_count, wrap_count + 1)]
    out = np.empty(nus.shape[0])
    size = _chunk_step(nus.shape[0])
    for i in range(0, nus.shape[0], size):
        chunk = nus[i : i + size]
        k = _within_reach(chunk, omegas, lam, period)
        om = omegas[k]
        step = _SPAN if k.size >= _CHUNK else chunk.size
        acc = np.empty((chunk.size, k.size))
        for p in range(0, chunk.size, step):
            d, ends = _offsets(chunk[p : p + step], om, period)
            span = np.zeros_like(d)
            x = np.empty_like(d)  # buffers reused by every image
            term = np.empty_like(d)
            for s, runs in zip(shifts, _live_runs(ends, shifts, c)):
                for a, b in runs:
                    xs = np.subtract(d[a:b], s, out=x[a:b]) if s else d[a:b]
                    t = term[a:b]
                    np.multiply(xs, c, out=t)
                    t *= xs
                    span[a:b] += _exp(t, out=t)
            acc[p : p + step] = span.T
        out[i : i + size] = acc @ weights[k]
    return out / (math.sqrt(2.0 * math.pi) * lam)


# ---------------------------------------------------------------------------
# Truncated Fourier reconstruction:
# Phi(nu) = (m_0.re + 2 sum_{n=1}^{N} Re[exp(+i n dt nu) env_n m_n]) / P


def reconstruct_series(nus, moment_values, dt, lam, period, n_terms):
    """Evaluate the conjugate-symmetric truncated Fourier series on a grid.

    With x = dt nu and g_n = env_n m_n (g_0 = 0), the series is Re sum_n g_n
    exp(i n x). The grid is cut into the fewest chunks of about _CHUNK
    points, none a small remainder. Below _BLOCK terms the series is one
    block: per chunk one doubling table of the n_terms + 1 orders,
    bit_length(n_terms) exponentials per grid point, and one complex (1,
    n_terms + 1) product.

    From _BLOCK terms on, the orders form Q centered blocks (see
    _centered_coefficients): block q, centered at c = q _BLOCK, holds the
    orders c - H + 1 .. c + H, H = _BLOCK // 2, and sums to exp(i c x)
    sum_{r=0..H} (a_r cos rx + i b_r sin rx). With the block phases U_q =
    exp(i q _BLOCK x) the series is then

        sum_r cos(rx) Re(sum_q a_{q,r} U_q) - sin(rx) Im(sum_q b_{q,r} U_q),

    a real bilinear form in the 2Q real and imaginary parts of U and the
    2H + 2 cos and sin rows, with a real (2Q, 2H + 2) coefficient matrix
    built once per call. Per chunk of P points that is one doubling table
    of the H + 1 rows exp(i r x) and one of the Q rows U_q, bit_length(H) +
    bit_length(Q - 1) exponentials per grid point (16 at 42 371 terms); one
    real matrix product that contracts the longer table, split into its
    real and imaginary rows; one elementwise product with the rows of the
    shorter; and one column sum. Either way that is
    2Q(_BLOCK + 2)P real multiplies where a complex (Q, _BLOCK) @ (_BLOCK,
    P) product takes 4Q _BLOCK P. The elementwise pass costs more per row
    than the split, so the product contracts the block rows when Q > H + 1
    (from 8 385 terms on) and the cos and sin rows below.
    """
    nus = _as_f64(nus)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    env = n * (-0.5 * (dt * lam) ** 2)  # exp(-(dt lam n)^2 / 2), in place
    env *= n
    np.exp(env, out=env)
    out = np.empty(nus.shape[0])
    step = _chunk_step(nus.shape[0])
    if n_terms < _BLOCK:
        g = np.zeros((1, n_terms + 1), dtype=np.complex128)
        g[0, 1:] = env * moment_values[1 : n_terms + 1]
        for i in range(0, nus.shape[0], step):
            x = dt * nus[i : i + step]
            out[i : i + step] = (g @ _phase_table(x, n_terms + 1))[0].real
        return (moment_values[0].real + 2.0 * out) / period
    half = _BLOCK // 2
    coef = _centered_coefficients(env, moment_values, n_terms)
    n_blocks = len(coef) // 2
    over_blocks = n_blocks > half + 1
    # per-call buffers, which every chunk reuses while they are in cache
    blocks = np.empty((n_blocks, step), dtype=np.complex128)
    rows = np.empty((half + 1, step), dtype=np.complex128)
    split = np.empty((2, max(n_blocks, half + 1), step))
    for i in range(0, nus.shape[0], step):
        x = dt * nus[i : i + step]
        k = x.size
        u = _phase_table(_BLOCK * x, n_blocks, blocks[:, :k])
        cs = _phase_table(x, half + 1, rows[:, :k])
        long, short, form = (u, cs, coef.T) if over_blocks else (cs, u, coef)
        v = split[:, : len(long), :k]
        v[0] = long.real
        v[1] = long.imag
        s = form @ v.reshape(-1, k)
        s[: len(short)] *= short.real
        s[len(short) :] *= short.imag
        out[i : i + step] = s.sum(axis=0)
    return (moment_values[0].real + 2.0 * out) / period


def _centered_coefficients(env, moment_values, n_terms):
    """The real (2Q, 2H + 2) coefficient matrix of the centered blocks of
    g_n = env_n m_n, n = 1..n_terms, H = _BLOCK // 2.

    Block q, centered at c = q _BLOCK, holds the orders c - H + 1 .. c + H,
    with g_n = 0 for n <= 0, and Q is the least count with (Q - 1) _BLOCK +
    H >= n_terms. Since exp(i(c +- r)x) = exp(i c x)(cos rx +- i sin rx),
    the block sums to exp(i c x) sum_{r=0..H} (a_r cos rx + i b_r sin rx),
    with a_r = g_{c+r} + g_{c-r} and b_r = g_{c+r} - g_{c-r}, where g_{c-r}
    counts only for 0 < r < H: a_0 = b_0 = g_c (b_0 meets sin 0 = 0) and
    a_H = b_H = g_{c+H}, the order c - H belonging to the block before.
    Rows q and Q + q multiply Re U_q and Im U_q, U_q = exp(i q _BLOCK x);
    columns r and H + 1 + r give Re(sum_q a_{q,r} U_q) and -Im(sum_q
    b_{q,r} U_q).
    """
    half = _BLOCK // 2
    n_blocks = (n_terms - half - 1) // _BLOCK + 2
    span = n_blocks * _BLOCK
    pad = np.zeros(span + _BLOCK, dtype=np.complex128)  # pad[k] = g_{k - H}
    np.multiply(
        env, moment_values[1 : n_terms + 1], out=pad[half + 1 : half + n_terms + 1]
    )
    g = pad.view(np.float64).reshape(-1, 2).T  # rows Re g and Im g
    # g_{c+r} and g_{c-r}, r = 0..H
    plus = g[:, half : half + span].reshape(2, n_blocks, _BLOCK)[:, :, : half + 1]
    minus = g[:, :span].reshape(2, n_blocks, _BLOCK)[:, :, half::-1]
    coef = np.empty((2, n_blocks, 2, half + 1))
    a = coef[:, :, 0]  # Re a, then -Im a
    b = coef[::-1, :, 1]  # -Re b, then -Im b
    np.add(plus, minus, out=a)
    np.subtract(minus, plus, out=b)
    a[:, :, ::half] = plus[:, :, ::half]  # a_0 = g_c, a_H = g_{c+H}
    np.negative(plus[:, :, ::half], out=b[:, :, ::half])
    a[1] *= -1.0
    return coef.reshape(2 * n_blocks, 2 * half + 2)


def active_backend():
    """Name of the kernel implementation, kept for output metadata."""
    return "numpy"
