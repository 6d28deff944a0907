import functools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fouriergit import (
    ErrorBudget,
    FourierMomentSet,
    FrequencyWindow,
    KernelSpec,
    PeriodicKernelParams,
    _backend,
    make_model,
    make_plan,
    midpoint_grid,
    reconstruct,
    summarize,
)
from fouriergit._backend import (
    active_backend,
    gaussian_transform,
    phase_moment_sums,
    reconstruct_series,
)

from conftest import package_env, periodic_line, random_spectrum

# orders spanning several phase-power blocks, with a partial last block
N_MULTI = 3 * _backend._BLOCK + 7
# orders spanning several tiles of blocks, through every power-of-two row of
# the block-row table (the last, row 16, is block 17), with a partial last tile
N_TILES = 2 * _backend._TILE * _backend._BLOCK + 7


def _case(seed):
    s = random_spectrum(seed, n=64, normalized=True)
    rng = np.random.default_rng(1000 + seed)
    nus = np.sort(rng.uniform(-1.0, 1.0, size=41))
    return s, nus


def _assert_direct_sum(vals, omegas, weights, dt, orders):
    """vals[n] matches the direct sum sum_k w_k exp(-i n dt w_k) for every n
    in orders: to 1e-14 through order 12 and past that to a bound that grows
    with n, since both sums round a phase argument of size n dt |omega|."""
    eps = np.finfo(np.float64).eps
    om_max = np.abs(omegas).max()
    mu0 = weights.sum()
    for start in range(0, len(orders), 64):
        n = np.asarray(orders[start : start + 64])[:, None]
        direct = np.sum(weights * np.exp(-1j * n * dt * omegas), axis=1)
        n = n[:, 0]
        tol = np.where(n <= 12, 1e-14, 4 * eps * (1 + n * dt * om_max) * mu0)
        assert np.all(np.abs(vals[n] - direct) <= tol)


class TestNumpyKernels:
    def test_phase_moments_match_direct_sum(self):
        s = random_spectrum(0, n=16, normalized=True)
        dt = 5.7
        assert not _backend._commensurate(s.eigenfrequencies, dt)
        for n_max in (N_MULTI, N_TILES):
            vals = phase_moment_sums(s.eigenfrequencies, s.weights, dt, n_max)
            _assert_direct_sum(
                vals, s.eigenfrequencies, s.weights, dt, range(n_max + 1)
            )

    def test_block_zero_is_one_matrix_vector_product(self):
        # orders below _BLOCK of a multi-tile call are the low table times
        # the weights, bitwise: the centered tiles never touch block 0
        s = random_spectrum(14, n=4096, normalized=True)
        dt = 27.98
        vals = phase_moment_sums(s.eigenfrequencies, s.weights, dt, N_TILES)
        low = _backend._phase_table(-dt * s.eigenfrequencies, _backend._BLOCK)
        head = low @ s.weights
        assert np.array_equal(vals[1 : _backend._BLOCK], head[1:])
        assert vals[0] == s.weights.sum()

    def test_phase_table_rows(self):
        # row 2^j is the fresh exponential of its exact argument 2^j phase,
        # and every row k is row k - top times row top, top the highest set
        # bit of k, bitwise, whatever the row count; every row is a product
        # of at most bit_length(count - 1) fresh exponentials, so its error
        # is that of rounding its own phase, not accumulated along k
        rng = np.random.default_rng(12)
        eps = np.finfo(np.float64).eps
        sign = rng.choice([-1.0, 1.0], 33)
        phases = (
            rng.uniform(-5.0, 5.0, 33),
            rng.uniform(-1e-3, 1e-3, 33),  # where the error bound is tightest
            sign * rng.uniform(290.0, 310.0, 33),
        )
        for phase in phases:
            for count in (1, 2, 3, 15, 16, 17, 127, 128, 129, 332, 333):
                table = _backend._phase_table(phase, count)
                assert table.shape == (count, phase.size)
                assert np.array_equal(table[0], np.ones(phase.size))
                for k in range(1, count):
                    top = 1 << (k.bit_length() - 1)
                    if k == top:
                        assert np.array_equal(table[k], _backend._expi(k * phase))
                    assert np.array_equal(table[k], table[k - top] * table[top])
                    err = np.abs(table[k] - np.exp(1j * k * phase))
                    assert np.all(err <= 4 * eps * (1 + np.abs(k * phase)))

    def test_exponentials_counted_per_table_bit(self, monkeypatch):
        # counts work, not time: a table of count rows evaluates
        # bit_length(count - 1) exponential rows, so a regression to one
        # exponential per row fails here
        evaluated = []
        expi = _backend._expi

        def counting(phase):
            evaluated.append(phase.size)
            return expi(phase)

        monkeypatch.setattr(_backend, "_expi", counting)
        phase = np.linspace(-3.0, 3.0, 7)
        for count in (1, 2, 3, 4, 5, 16, 17, 128, 129, 332):
            evaluated.clear()
            _backend._phase_table(phase, count)
            assert sum(evaluated) == (count - 1).bit_length() * phase.size
        # the moments of L lines to order N: 7 L for the low table, 5 L for
        # the block-row table and L per tile
        s = random_spectrum(15, n=64, normalized=True)
        n_max = 42371
        span = _backend._TILE * _backend._BLOCK
        tiles = -(-(n_max + 1 - _backend._BLOCK) // span)
        evaluated.clear()
        phase_moment_sums(s.eigenfrequencies, s.weights, 27.98, n_max)
        assert sum(evaluated) == (12 + tiles) * s.n_eigen == 23 * s.n_eigen
        # equally spaced lines under the nyquist norm-bound plan take the FFT
        # path: one doubling table of the single phase -dt w_0, whatever L
        for n_lines in (64, 4096):
            omegas, weights, dt = _uniform_lines(n_lines, 7987.5, 1)
            evaluated.clear()
            phase_moment_sums(omegas, weights, dt, n_max)
            assert sum(evaluated) == n_max.bit_length() == 16
        # the resummation: bit_length(W - 1) + bit_length(Q - 1) per grid
        # point, W = 128 orders per block and Q = 332 blocks
        moments = np.ones(n_max + 1, dtype=np.complex128)
        nus = np.linspace(-1.0, 1.0, 5)
        evaluated.clear()
        reconstruct_series(nus, moments, 27.98, 0.001, 0.22, n_max)
        assert sum(evaluated) == (7 + 9) * nus.size

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
        got = gaussian_transform(
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
        # lam small enough that the envelope keeps every block: env_N ~ 0.37;
        # the long series takes a long period, because the explicit float64
        # reference rounds phases of size n dt |nu| too, and past a few
        # hundred radians its own error exceeds the tolerance. The centered
        # blocks of _BLOCK = 128 orders hold c - 63 .. c + 64 around c = 128
        # q, so the series ending around orders 64, 128 and 192 end at block
        # edges, and 127 terms are the last single block. 8 385 terms make
        # 66 blocks, one more than the 65 cos and sin rows, so there the
        # product contracts the block rows, and below the cos and sin rows.
        # Both a single block and centered blocks take the grid of _CHUNK + 1
        # points as one chunk, and that of 2.25 _CHUNK + 1 points as two
        # chunks, the second one short
        edges = (127, 128, 129, 191, 192, 193, 255, 256, 257)
        grid = np.linspace(-1.0, 1.0, _backend._CHUNK + 1)
        two_chunks = np.linspace(-1, 1, 9 * _backend._CHUNK // 4 + 1)
        cases = (
            *((n, 0.0175, 20.0, grid) for n in edges),
            (127, 0.0175, 20.0, two_chunks),
            (193, 0.0175, 20.0, two_chunks),
            (N_MULTI, 0.004, 7.0, nus),
            (N_TILES, 0.0055, 200.0, nus),
            (8385, 0.0055, 200.0, grid),
        )
        for n_terms, lam, period, nus in cases:
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
            kernel = KernelSpec(delta=0.08, sigma_leak=0.01, lam=lam)
            params = PeriodicKernelParams.from_period(period, kernel)
            fast = reconstruct(mset, kernel, params, n_terms, nus)
            full = reconstruct(mset, kernel, params, n_terms, nus, full_series=True)
            assert np.array_equal(fast.values, got)
            assert np.allclose(fast.values, full.values, rtol=1e-12, atol=1e-15)

    def test_single_block_series_is_one_product(self):
        # below _BLOCK terms the series is one complex product, g @ exp(i n
        # dt nu) with g_n = exp(-(dt lam n)^2 / 2) m_n, bitwise
        s = random_spectrum(16, n=64, normalized=True)
        nus = np.linspace(-1.0, 1.0, _backend._CHUNK)
        dt, lam, period = 2 * np.pi / 7.0, 0.004, 7.0
        moments = phase_moment_sums(s.eigenfrequencies, s.weights, dt, 200)
        for n_terms in (0, 1, 25, 31, 64, _backend._BLOCK - 1):
            n = np.arange(1, n_terms + 1)
            g = np.zeros((1, n_terms + 1), dtype=np.complex128)
            env = np.exp(-0.5 * (dt * lam) ** 2 * n * n)
            g[0, 1:] = env * moments[1 : n_terms + 1]
            table = _backend._phase_table(dt * nus, n_terms + 1)
            want = (moments[0].real + 2.0 * (g @ table)[0].real) / period
            got = reconstruct_series(nus, moments, dt, lam, period, n_terms)
            assert np.array_equal(got, want)

    def test_series_chunks_follow_one_rule(self, monkeypatch):
        # a single block and centered blocks cut the grid alike, into the
        # fewest chunks of about _CHUNK points: _CHUNK + 1 points are one
        # chunk, not a full one and a one-point remainder, and multiples of
        # _CHUNK keep chunks of _CHUNK points
        sizes = []
        table = _backend._phase_table

        def counting(phase, count, out=None):
            sizes.append(phase.size)
            return table(phase, count, out)

        monkeypatch.setattr(_backend, "_phase_table", counting)
        moments = np.ones(200, dtype=np.complex128)
        chunk = _backend._CHUNK
        for n_terms, tables in ((25, 1), (_backend._BLOCK - 1, 1), (186, 2)):
            for points, chunks in ((chunk + 1, [chunk + 1]),
                                   (4 * chunk, [chunk] * 4),
                                   (9 * chunk // 4 + 1, [289, 288])):
                sizes.clear()
                reconstruct_series(np.linspace(-1.0, 1.0, points), moments,
                                   27.98, 0.0066, 0.2245, n_terms)
                assert sizes == [c for c in chunks for _ in range(tables)]

    def test_transform_chunks_follow_one_rule(self, monkeypatch):
        # the Gaussian transform cuts the grid as the resummation does: a
        # grid of _CHUNK + 1 points is one chunk with one line-reach set-up,
        # not a full chunk and a one-point remainder
        sizes = []
        within_reach = _backend._within_reach

        def counting(chunk, *args):
            sizes.append(chunk.size)
            return within_reach(chunk, *args)

        monkeypatch.setattr(_backend, "_within_reach", counting)
        s = make_model("A")
        chunk = _backend._CHUNK
        for points, chunks in ((chunk + 1, [chunk + 1]),
                               (4 * chunk, [chunk] * 4),
                               (9 * chunk // 4 + 1, [289, 288])):
            for period in (None, 0.2245):
                sizes.clear()
                gaussian_transform(np.linspace(-1.0, -0.8, points),
                                   s.eigenfrequencies, s.weights, 0.0066,
                                   period, 0 if period is None else 1)
                assert sizes == chunks

    def test_moment_memory_stays_per_tile(self):
        # the block rows are built one fixed-shape tile at a time: the peak
        # of a long call exceeds that of a one-tile call by at most one
        # tile buffer, never by a row matrix that grows with n_max
        s = random_spectrum(13, n=4096, normalized=True)
        tile_bytes = _backend._TILE * s.n_eigen * 16

        def peak(n_max):
            tracemalloc.start()
            try:
                phase_moment_sums(s.eigenfrequencies, s.weights, 27.98, n_max)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_tile = peak(_backend._TILE * _backend._BLOCK - 1)
        assert peak(42371) <= one_tile + tile_bytes

    def test_one_block_moments_allocate_no_tile(self):
        # block 0 is one matrix-vector product: a call with n_max < _BLOCK
        # allocates neither the block rows nor the tile buffer, so its peak
        # stays at least one tile buffer below that of a one-tile call
        s = random_spectrum(13, n=4096, normalized=True)
        tile_bytes = _backend._TILE * s.n_eigen * 16
        peaks = []
        for n_max in (_backend._BLOCK - 1, _backend._TILE * _backend._BLOCK - 1):
            tracemalloc.start()
            try:
                phase_moment_sums(s.eigenfrequencies, s.weights, 27.98, n_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_block, one_tile = peaks
        assert one_block <= one_tile - tile_bytes

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


def _uniform_lines(n_lines, norm_scale, turns, seed=0):
    """Midpoint lines on [-norm_scale, norm_scale] with normalized random
    weights, and the dt of the period 2 norm_scale / turns, under which
    dt h L spans that many turns; turns = 1 is the nyquist norm-bound plan."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n_lines)
    dt = 2 * math.pi * turns / (2 * norm_scale)
    return midpoint_grid(n_lines, norm_scale), weights / weights.sum(), dt


class TestUniformLinesFft:
    @pytest.mark.parametrize("norm_scale", [7987.5, 3.3])
    @pytest.mark.parametrize("turns", [1, 2, 3])
    @pytest.mark.parametrize("n_lines", [2, 3, 512, 4096])
    def test_matches_direct_sum(self, n_lines, turns, norm_scale):
        omegas, weights, dt = _uniform_lines(n_lines, norm_scale, turns)
        assert _backend._commensurate(omegas, dt) == turns
        calls = (n_lines - 1, n_lines + 1, N_MULTI, N_TILES)
        longest = phase_moment_sums(omegas, weights, dt, max(calls))
        for n_max in calls:
            vals = phase_moment_sums(omegas, weights, dt, n_max)
            # every call is a bitwise prefix of the longest
            assert np.array_equal(vals, longest[: n_max + 1])
        # every order where the lines are few, otherwise orders 0..12, a
        # stride, and each order next to a multiple of L, where the FFT bin
        # n j mod L wraps
        step = max(1, n_lines // 32)
        wraps = np.arange(n_lines, max(calls) + 2, n_lines)[:, None] + [-1, 0, 1]
        orders = np.unique(np.r_[0:13, 0 : max(calls) + 1 : step, wraps.ravel()])
        orders = orders[orders <= max(calls)]
        _assert_direct_sum(longest, omegas, weights, dt, orders)

    def test_n_max_independent_bitwise(self):
        # the power-of-two edges of the single-phase table and the wrap of
        # the FFT bins at L, against a longer call
        omegas, weights, dt = _uniform_lines(512, 3.3, 2, seed=1)
        ref = phase_moment_sums(omegas, weights, dt, N_TILES)
        edges = [n for k in range(1, 13) for n in (2**k - 1, 2**k, 2**k + 1)]
        for n_max in [*range(8), 255, 256, 257, 511, 512, 513, *edges]:
            got = phase_moment_sums(omegas, weights, dt, n_max)
            assert np.array_equal(got, ref[: n_max + 1]), n_max
        assert ref[0] == weights.sum()

    @pytest.mark.parametrize("n_lines", [2, 3, 512, 4096])
    def test_near_misses_run_the_direct_kernel(self, n_lines):
        # one line moved by 1e-9 h, or the period scaled by 1 + 1e-9, is
        # not equally spaced or commensurate: bitwise the direct kernel
        omegas, weights, dt = _uniform_lines(n_lines, 7987.5, 1)
        moved = omegas.copy()
        moved[n_lines // 2] += 1e-9 * (omegas[1] - omegas[0])
        for om, step in ((moved, dt), (omegas, dt / (1 + 1e-9))):
            assert not _backend._commensurate(om, step)
            got = phase_moment_sums(om, weights, step, N_MULTI)
            want = _backend._direct_moments(om, weights, step, N_MULTI)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_other_inputs_run_the_direct_kernel(self):
        omegas, weights, dt = _uniform_lines(64, 1.0, 1)
        for om, step in (
            (omegas[:1], dt),  # one line has no spacing
            (omegas[::-1], dt),  # decreasing lines
            (omegas, 0.5 * dt),  # half a turn
            (omegas, math.inf),
            (omegas, math.nan),
        ):
            assert not _backend._commensurate(om, step)


def _every_term(nus, omegas, weights, lam, period=None, wrap=0):
    """The transform with every term of every within-reach line evaluated:
    the kernel's chunks and line sets, per-pair nearest-image rounding,
    per-term arithmetic exp((x c) x), image order and per-chunk product on a
    C-contiguous grid x lines array, with nothing skipped."""
    nus, omegas, weights = (np.asarray(a, dtype=np.float64) for a in (nus, omegas, weights))
    c = -0.5 / (lam * lam)
    out = np.empty(nus.size)
    step = _backend._chunk_step(nus.size)
    for i in range(0, nus.size, step):
        chunk = nus[i : i + step]
        k = _backend._within_reach(chunk, omegas, lam, period)
        d = chunk[:, None] - omegas[None, k]
        if period is not None:
            d -= period * np.round(d / period)
        acc = np.zeros_like(d)
        for j in range(-wrap, wrap + 1):
            x = d - j * period if j else d
            acc += np.exp((x * c) * x)
        out[i : i + step] = acc @ weights[k]
    return out / (math.sqrt(2.0 * math.pi) * lam)


def _every_term_count(nus, omegas, lam, period=None, wrap=0):
    """Exponentials the every-term evaluation takes: grid points times
    within-reach lines times images, summed over chunks."""
    total = 0
    step = _backend._chunk_step(nus.size)
    for i in range(0, nus.size, step):
        chunk = nus[i : i + step]
        total += chunk.size * _backend._within_reach(chunk, omegas, lam, period).size
    return total * (2 * wrap + 1)


def _assert_bitwise(nus, omegas, weights, lam, period=None, wrap=0):
    got = gaussian_transform(nus, omegas, weights, lam, period, wrap)
    want = _every_term(nus, omegas, weights, lam, period, wrap)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return got


@functools.lru_cache(maxsize=None)
def _default_sweep():
    """Arguments of the two plain and the 20 periodic transforms of the
    default `fouriergit sweep`: models A and B, 10 targets from 1e-4 to 0.1,
    variance plans on the window [-1, -0.8], 1024 grid points."""
    kernel = KernelSpec.from_resolution(0.02, 0.01, 1.0)
    window = FrequencyWindow(-1.0, -0.8)
    grid = np.linspace(-1.0, -0.8, 1024)
    plain, rows = [], []
    for kind in "AB":
        s = make_model(kind)
        moments = summarize(s)
        plain.append((grid, s.eigenfrequencies, s.weights, kernel.lam))
        for eps in np.logspace(-4.0, -1.0, 10):
            budget = ErrorBudget(float(eps), float(eps), 0.05, 2.0 / 512, 0.05)
            plan = make_plan("variance", kernel, budget, window=window,
                             moments=moments, window_term="max")
            params = PeriodicKernelParams.from_period(plan.period, kernel)
            rows.append(plain[-1] + (params.period, params.wrap_count))
    return plain, rows


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
    plain = _assert_bitwise(nus, omegas, weights, lam)
    wrapped = _assert_bitwise(nus, omegas, weights, lam, period, wrap)
    ref_plain = _dense_plain(nus, omegas, weights, lam)
    ref_wrapped = _dense_periodic(nus, omegas, weights, lam, period, wrap)
    np.testing.assert_allclose(plain, ref_plain, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(wrapped, ref_wrapped, rtol=1e-14, atol=0.0)
    return plain, wrapped


class TestPrunedTransforms:
    """The transforms skip, per grid chunk, the lines whose every kernel
    term is exactly 0.0; the dense all-lines sums above must agree, and the
    every-term evaluation bit for bit."""

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
        assert _backend._chunk_step(nus.size) == n
        omegas = np.array(
            [100.0 * j + 1.0 + np.sqrt(2 * e) * lam for j, e in enumerate(exps)]
        )
        # left of the last chunk, one line just inside its reach and one
        # just outside; the mask keeps the first and drops the second
        last_chunk = nus[-_backend._chunk_step(nus.size):]
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


class TestTransformMatchesEveryTerm:
    """The transform evaluates only the (line, image) blocks of a grid span
    that hold a nonzero term and wraps most lines once per span; its output
    equals the every-term evaluation bit for bit."""

    def test_default_sweep_rows(self):
        plain, rows = _default_sweep()
        assert len(rows) == 20 and {r[5] for r in rows} == {1}
        for args in plain + rows:
            _assert_bitwise(*args)

    def test_wrap_counts(self):
        s = random_spectrum(21, n=300, norm_scale=2.0)
        nus = np.linspace(-2.5, 2.5, 3 * _backend._CHUNK + 5)
        for wrap in range(4):
            for lam, period in ((0.05, 0.9), (0.2, 0.9), (0.02, 3.7)):
                _assert_bitwise(nus, s.eigenfrequencies, s.weights, lam, period, wrap)

    def test_nearest_image_changes_inside_chunk(self):
        # lines at exactly half a period from grid points, where round()
        # breaks the tie, and just beside them: their nearest image changes
        # between neighbouring grid points of one chunk
        period, lam = 0.4, 0.01
        nus = np.linspace(-1.0, 1.0, 2 * _backend._CHUNK)
        half = nus[::37] - 0.5 * period
        omegas = np.unique(np.concatenate([half, np.nextafter(half, 9), np.nextafter(half, -9)]))
        weights = np.linspace(0.5, 1.5, omegas.size)
        for wrap in (0, 1, 2):
            _assert_bitwise(nus, omegas, weights, lam, period, wrap)

    def test_period_at_twice_the_reach(self):
        # with P = 2 sqrt(2 _UNDERFLOW) lam the +-1 images of a line at the
        # seam sit right at the edge of the zero cut-off
        lam = 0.01
        edge = 2.0 * math.sqrt(2.0 * _backend._UNDERFLOW) * lam
        s = random_spectrum(22, n=400)
        nus = np.linspace(-1.0, 1.0, 4 * _backend._CHUNK + 9)
        for period in (edge * (1 - 1e-9), np.nextafter(edge, 0), edge,
                       np.nextafter(edge, 1), edge * (1 + 1e-9)):
            for wrap in (1, 2):
                _assert_bitwise(nus, s.eigenfrequencies, s.weights, lam, period, wrap)
        # lines at the seam of a grid point: their images lie P/2 away
        omegas = np.linspace(-1.0, 1.0, 9) + 0.5 * edge
        for period in (edge * (1 - 1e-12), edge * (1 + 1e-12)):
            _assert_bitwise(nus, omegas, np.ones(9), lam, period, 1)

    def test_unsorted_grid_and_lines(self):
        rng = np.random.default_rng(23)
        s = random_spectrum(23, n=500, norm_scale=3.0)
        order = rng.permutation(s.n_eigen)
        om, w = s.eigenfrequencies[order], s.weights[order]
        nus = rng.permutation(np.linspace(-3.0, 3.0, 3 * _backend._CHUNK + 1))
        _assert_bitwise(nus, om, w, 0.03)
        for wrap in (0, 1, 3):
            _assert_bitwise(nus, om, w, 0.03, 1.3, wrap)
        # scattered lines give more live runs than a span takes
        _assert_bitwise(np.sort(nus), om, w, 0.03, 0.2, 1)

    def test_subnormal_band_terms(self):
        # lines whose nearest term, to a grid point or through an image, is
        # exp(-e) with e across the subnormal band and the zero cut-off
        lam = 0.01
        es = [700.0, 708.0, 720.0, 740.0, 745.0, 745.1, 745.2, 749.0, 751.0]
        n = _backend._CHUNK
        nus = np.concatenate([10.0 * j + np.linspace(0.0, 1.0, n) for j in range(len(es))])
        assert _backend._chunk_step(nus.size) == n
        reach = np.sqrt(2.0 * np.array(es)) * lam
        base = 10.0 * np.arange(len(es))
        omegas = np.sort(np.concatenate([base + 1.0 + reach, base - reach]))
        weights = np.ones(omegas.size)
        plain = _assert_bitwise(nus, omegas, weights, lam)
        assert (plain > 0).any() and (plain[plain > 0] < 1e-300).any()
        for period in (2.0 * reach[2] + 1.0, 2.0 * reach[5] + 1.0, 50.0):
            _assert_bitwise(nus, omegas, weights, lam, period, 1)

    def test_exponentials_counted_on_live_blocks(self, monkeypatch):
        # counts work, not time: the default sweep's periodic transforms
        # evaluate 18 753 536 exponentials where the every-term evaluation
        # takes 30 698 496; a regression to evaluating every term fails here
        evaluated = []
        exp = _backend._exp

        def counting(x, out=None):
            evaluated.append(x.size)
            return exp(x, out=out)

        monkeypatch.setattr(_backend, "_exp", counting)
        _, rows = _default_sweep()
        for args in rows:
            gaussian_transform(*args)
        every = sum(_every_term_count(g, om, lam, p, w) for g, om, _, lam, p, w in rows)
        assert every == 30_698_496
        assert sum(evaluated) == 18_753_536


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

    def test_fft_loaded_only_on_the_uniform_path(self):
        # numpy imports numpy.fft lazily; a process whose moments never
        # qualify for the FFT path does not pay for that import
        code = (
            "import sys; from fouriergit import exact_moments, make_model; "
            "s = make_model('A'); exact_moments(s, 27.98, 25); "
            "print('numpy.fft' in sys.modules); "
            "exact_moments(s, 3.141592653589793, 25); "
            "print('numpy.fft' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=package_env(),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "True"]
