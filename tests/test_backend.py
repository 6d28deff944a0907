import ast
import functools
import math
import operator
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from fouriergit import (
    DiscreteSpectrum,
    ErrorBudget,
    FourierMomentSet,
    FrequencyWindow,
    KernelSpec,
    PeriodicKernelParams,
    _backend,
    exact_transform,
    make_model,
    make_plan,
    midpoint_grid,
    reconstruct,
    summarize,
)
from fouriergit._backend import (
    active_backend,
    gaussian_transform,
    image_count,
    phase_moment_sums,
    reconstruct_series,
)

from conftest import (MemoContract, package_env, periodic_line, random_spectrum,
                      same_bits)

# orders spanning several phase-power blocks, with a partial last block
N_MULTI = 3 * _backend._BLOCK + 7
# orders spanning two tiles of _TILE blocks, the first tile through every
# power-of-two block row (the last, row 16, holds orders 17 _BLOCK to 18
# _BLOCK - 1), the second tile partial
N_TILES = 2 * _backend._TILE * _backend._BLOCK + 7


def _case(seed):
    s = random_spectrum(seed, n=64, normalized=True)
    rng = np.random.default_rng(1000 + seed)
    nus = np.sort(rng.uniform(-1.0, 1.0, size=41))
    return s, nus


def _moment_peak(spectrum, dt, n_max):
    """The tracemalloc peak, in bytes, of one phase_moment_sums call."""
    tracemalloc.start()
    try:
        phase_moment_sums(spectrum.eigenfrequencies, spectrum.weights, dt, n_max)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_direct_sum(vals, omegas, weights, dt, orders):
    """vals[n] matches the direct sum sum_k w_k exp(-i n dt w_k) for every n
    in orders: to 1e-14 through order 12 and past that to a bound that grows
    with n, since both sums round a phase argument of size n dt |omega|."""
    for start in range(0, len(orders), 64):
        n = np.asarray(orders[start : start + 64])[:, None]
        direct = np.sum(weights * np.exp(-1j * n * dt * omegas), axis=1)
        n = n[:, 0]
        tol = _contract(n, omegas, weights, dt)
        assert np.all(np.abs(vals[n] - direct) <= tol)


def _contract(n, omegas, weights, dt, scale=None):
    """The moment paths' accuracy contract at the orders n: 1e-14 through
    order 12, 4 eps (1 + n scale) mu0 beyond, scale = dt max|w| unless given."""
    eps = np.finfo(np.float64).eps
    if scale is None:
        scale = dt * np.abs(omegas).max()
    n = np.asarray(n)
    return np.where(n <= 12, 1e-14, 4 * eps * (1 + n * scale) * weights.sum())


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
        # the weights, bitwise: neither the direct kernel's block-product
        # tiles (4 096 lines at dt 2) nor the NUFFT tiles (the spectra of its
        # accuracy gate) touch block 0
        s = random_spectrum(14, n=4096, normalized=True)
        cases = ((s.eigenfrequencies, s.weights, 2.0), *_nufft_spectra())
        for (omegas, weights, dt), spreads in zip(cases, (False, True, True, True)):
            assert _backend._spreads(omegas, dt) == spreads
            vals = phase_moment_sums(omegas, weights, dt, N_TILES)
            low = _backend._phase_table(-dt * omegas, _backend._BLOCK)
            head = low @ weights
            assert np.array_equal(vals[1 : _backend._BLOCK], head[1:])
            assert vals[0] == weights.sum()

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
        # the resummation's block path: bit_length(W - 1) + bit_length(Q -
        # 1) per grid point, W = 128 orders per block and Q = 332 blocks. A
        # grid of one chunk keeps its x table, so a second call builds only
        # the Q rows, and below W terms nothing; a grid of several chunks
        # keeps nothing. On the NUFFT path, from _SERIES_POINTS points per
        # full tile on (446 points at 42 371 terms, 86% of three tiles), one
        # exponential per point and tile, on every call
        moments = np.ones(n_max + 1, dtype=np.complex128)
        edge = -(-_backend._SERIES_POINTS * 3 * _backend._NUFFT_TILE // n_max)
        assert edge == 446
        for points, again in ((5, 9), (edge - 1, 7 + 9), (edge, 3)):
            nus = np.linspace(-1.0, 1.0, points)
            first = 3 if points >= edge else 7 + 9
            for per_point in (first, again):
                evaluated.clear()
                reconstruct_series(nus, moments, 27.98, 0.001, 0.22, n_max)
                assert sum(evaluated) == per_point * nus.size
        # a single block's table has exactly the n_terms + 1 orders, so 63
        # terms cost 6 exponentials per point and 64 terms 7
        nus = np.linspace(-1.0, 1.0, _backend._CHUNK + 1)
        for n_terms, bits in ((25, 5), (63, 6), (64, 7)):
            for per_point in (bits, 0):
                evaluated.clear()
                reconstruct_series(nus, moments, 27.98, 0.001, 0.22, n_terms)
                assert sum(evaluated) == per_point * nus.size

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
        # hundred radians its own error exceeds the tolerance. The blocks of
        # _BLOCK = 128 orders end around orders 128, 192 and 256, and 127
        # terms are the last single block; 8 385 terms make 66 blocks. Both
        # a single block and many blocks take the grid of _CHUNK + 1 points
        # as one chunk, and that of 2.25 _CHUNK + 1 points as two chunks,
        # the second one short
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
        # a single block and many blocks cut the grid alike, into the
        # fewest chunks of about _CHUNK points: _CHUNK + 1 points are one
        # chunk, not a full one and a one-point remainder, and multiples of
        # _CHUNK keep chunks of _CHUNK points. The held x table is emptied
        # before each call, so that every call builds both of its tables,
        # the block rows a single row of ones below _BLOCK terms
        sizes = []
        table = _backend._phase_table

        def counting(phase, count):
            sizes.append(phase.size)
            return table(phase, count)

        monkeypatch.setattr(_backend, "_phase_table", counting)
        moments = np.ones(200, dtype=np.complex128)
        chunk = _backend._CHUNK
        for n_terms, tables in ((25, 2), (_backend._BLOCK - 1, 2), (186, 2)):
            for points, chunks in ((chunk + 1, [chunk + 1]),
                                   (4 * chunk, [chunk] * 4),
                                   (9 * chunk // 4 + 1, [289, 288])):
                sizes.clear()
                _backend._memos.clear()
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

    def test_spans_follow_the_chunk_rule(self, monkeypatch):
        # a chunk that keeps at least _CHUNK lines is cut into spans as the
        # grid is cut into chunks, the fewest of about _SPAN points: 257
        # points are four spans of 65, 65, 65 and 62, not four of 64 and a
        # one-point remainder; a chunk of fewer lines is one span. The
        # output stays bitwise the every-term evaluation
        sizes = []
        offsets = _backend._offsets

        def counting(span, *args):
            sizes.append(span.size)
            return offsets(span, *args)

        monkeypatch.setattr(_backend, "_offsets", counting)
        s = random_spectrum(25, n=600, norm_scale=1.0)
        chunk = _backend._CHUNK
        for points, lines, spans in ((chunk + 1, 600, [65, 65, 65, 62]),
                                     (chunk, 600, [64] * 4),
                                     (chunk + 1, chunk, [65, 65, 65, 62]),
                                     (chunk + 1, chunk - 1, [chunk + 1])):
            for period, wrap in ((None, 0), (1.7, 1)):
                sizes.clear()
                _assert_bitwise(np.linspace(-1.0, 1.0, points),
                                s.eigenfrequencies[:lines], s.weights[:lines],
                                0.5, period, wrap)
                assert sizes == spans

    def test_moment_memory_stays_per_tile(self):
        # the block rows are built one fixed-shape tile at a time: the peak
        # of a long call exceeds that of a one-tile call by at most one
        # tile buffer, never by a row matrix that grows with n_max. At dt 2
        # the 4 096 lines on [-1, 1] span dt max|w| < _NUFFT_SCALE, so the
        # rule runs the direct kernel
        s = random_spectrum(13, n=4096, normalized=True)
        assert not _backend._spreads(s.eigenfrequencies, 2.0)
        tile_bytes = _backend._TILE * s.n_eigen * 16
        one_tile = _moment_peak(s, 2.0, _backend._TILE * _backend._BLOCK - 1)
        assert _moment_peak(s, 2.0, 42371) <= one_tile + tile_bytes

    def test_one_block_moments_allocate_no_tile(self):
        # block 0 is one matrix-vector product: a call with n_max < _BLOCK
        # allocates neither the block rows nor the tile buffer, so its peak
        # stays at least one tile buffer below that of a one-tile call; the
        # lines and dt are those of the direct kernel above
        s = random_spectrum(13, n=4096, normalized=True)
        assert not _backend._spreads(s.eigenfrequencies, 2.0)
        tile_bytes = _backend._TILE * s.n_eigen * 16
        one_block = _moment_peak(s, 2.0, _backend._BLOCK - 1)
        one_tile = _moment_peak(s, 2.0, _backend._TILE * _backend._BLOCK - 1)
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


def _held_series(nus, n_terms, dt=27.98):
    """A series on nus whose moments differ at every order, so that a
    wrong table row shows in the curve."""
    n = np.arange(n_terms + 1)
    moments = np.exp(0.37j * n) / (1.0 + 0.01 * n)
    return reconstruct_series(nus, moments, dt, 0.0066, 0.2245, n_terms)


_TABLE = _backend._phase_table  # the table kernel, whatever a test counts


class TestHeldXTable(MemoContract):
    """The one-entry memo of the x table exp(i r x) of a grid that is one
    chunk: a grid of up to 383 points, since 384 / _CHUNK = 1.5 rounds to
    two chunks of 192."""

    PARTS = ("x", "count")

    @pytest.fixture()
    def args(self):
        return 27.98 * np.linspace(-1.0, -0.8, 257), 26

    @pytest.fixture()
    def computed(self, monkeypatch):
        built = []
        monkeypatch.setattr(_backend, "_phase_table",
                            lambda *args: built.append(args) or _TABLE(*args))
        return built

    call = staticmethod(_backend._held_table)
    fresh = staticmethod(_TABLE)

    @staticmethod
    def copies(x, count):
        return (x.copy(), count), (x, np.int64(count))

    @staticmethod
    def change(part, x, count):
        if part == "x":
            x = x.copy()
            x[17] = np.nextafter(x[17], 0.0)
        else:  # a shorter table is a miss too, not a slice of the held one
            count -= 1
        return x, count

    @staticmethod
    def array(result):
        return result

    def test_grids_of_several_chunks_hold_nothing(self):
        for points in (384, 385, 4 * _backend._CHUNK):
            for n_terms in (25, 186):
                _held_series(np.linspace(-1.0, -0.8, points), n_terms)
                assert "x_table" not in _backend._memos

    def test_one_ulp_off_misses(self):
        # the key is x = dt nus: a grid point or a dt one ulp off misses
        # when it moves x. The curve depends on the grid through x alone, so
        # a point whose one-ulp move leaves x as it was may hit
        nus = np.linspace(-1.0, -0.8, 257)
        dt = 27.98
        same = dt * np.nextafter(nus, 0.0) == dt * nus
        kept, moved = nus.copy(), nus.copy()
        for grid, k in ((kept, np.flatnonzero(same)[0]),
                        (moved, np.flatnonzero(~same)[0])):
            grid[k] = np.nextafter(grid[k], 0.0)
        for n_terms in (25, 186):
            _backend._memos.clear()
            cold = _held_series(kept, n_terms)
            entry = _backend._memos["x_table"]
            assert np.array_equal(_held_series(nus, n_terms), cold)
            assert _backend._memos["x_table"] is entry
        for other, other_dt in ((moved, dt), (nus, np.nextafter(dt, 30.0))):
            assert not np.array_equal(dt * nus, other_dt * other)
            for n_terms in (25, 186):
                _backend._memos.clear()
                cold = _held_series(other, n_terms, other_dt)
                _held_series(nus, _backend._BLOCK - 1, dt)
                entry = _backend._memos["x_table"]
                got = _held_series(other, n_terms, other_dt)
                assert np.array_equal(got, cold)
                assert _backend._memos["x_table"] is not entry
                assert _backend._memos["x_table"][0][0] == (
                    other_dt * other).tobytes()

    def test_a_miss_frees_the_held_table_first(self):
        # a miss drops the held table before it builds the new one, so a
        # call never holds two: the peak of a miss stays below one table
        # above what was held before it
        nus = np.linspace(-1.0, -0.8, 383)
        table_bytes = _backend._BLOCK * nus.size * 16
        tracemalloc.start()
        try:
            _held_series(nus, _backend._BLOCK - 1)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _held_series(nus, _backend._BLOCK - 1, dt=13.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < table_bytes // 2

    def test_held_table_is_read_only(self):
        _held_series(np.linspace(-1.0, -0.8, 257), 25)
        table = _backend._memos["x_table"][1]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            table.setflags(write=True)


_KERNEL_POINTS = _backend._kernel_points  # whatever a test counts


def _fresh_points(x):
    """theta, the kernel points' cells, by the modulo, and their weights."""
    theta = np.array(_backend._turns(x, 0.0))
    first, spread = _KERNEL_POINTS(theta)
    cells = first[:, None] + np.arange(_backend._NUFFT_WIDTH)
    return theta, cells % (2 * _backend._NUFFT_TILE), spread


class TestHeldSeriesPoints(MemoContract):
    """The one-entry memo of the NUFFT resummation's kernel points, keyed
    on the bytes of x = dt nus."""

    PARTS = ("x",)

    @pytest.fixture()
    def args(self):
        return (NORM_BOUND_DT * np.linspace(0.0, 400.0, 1024),)

    @pytest.fixture()
    def computed(self, monkeypatch):
        built = []
        monkeypatch.setattr(_backend, "_kernel_points",
                            lambda theta: built.append(theta) or _KERNEL_POINTS(theta))
        return built

    call = staticmethod(_backend._held_points)

    @staticmethod
    def fresh(x):
        return _fresh_points(x)[1]

    @staticmethod
    def copies(x):
        return ((x.copy(),),)

    @staticmethod
    def change(part, x):
        x = x.copy()
        x[17] = np.nextafter(x[17], 0.0)
        return (x,)

    @staticmethod
    def array(result):
        return result[1]

    def test_every_held_array_is_frozen_and_fresh(self):
        # theta, the cells and their weights equal a cold build, the cells
        # taken by the bit mask those of the modulo, and none can be
        # written; a resummation on the grid takes the held points
        nus = np.linspace(0.0, 400.0, 1024)
        held = _backend._held_points(NORM_BOUND_DT * nus)
        for got, want in zip(held, _fresh_points(NORM_BOUND_DT * nus)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            with pytest.raises(ValueError, match="WRITEABLE"):
                got.setflags(write=True)
        moments = np.ones(_backend._NUFFT_TILE + 1, dtype=np.complex128)
        reconstruct_series(nus, moments, NORM_BOUND_DT, 0.33, 2 * 7987.5,
                           _backend._NUFFT_TILE)
        assert _backend._memos["series_points"][1] is held


def test_only_frozen_sets_writeable_flags():
    # every value array is made read-only by _backend._frozen alone, so no
    # module freezes an array its own way or reads the flag to trust it
    src = Path(__file__).resolve().parents[1] / "src" / "fouriergit"
    tree = ast.parse((src / "_backend.py").read_text())
    frozen = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_frozen")
    inside = {("_backend.py", n)
              for n in range(frozen.lineno, frozen.end_lineno + 1)}
    found = {
        (path.name, n)
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"setflags\(|flags\.writeable", line)
    }
    assert found and found <= inside, sorted(found - inside)


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

    @pytest.mark.parametrize("n_lines", [2, 3, 512, 1023])
    def test_near_misses_run_the_direct_kernel(self, n_lines):
        # one line moved by 1e-9 h, or the period scaled by 1 + 1e-9, is
        # not equally spaced or commensurate; fewer than _NUFFT_LINES lines
        # then run the direct kernel, bitwise
        self._assert_near_misses_run(n_lines, _backend._direct_moments)

    @pytest.mark.parametrize("n_lines", [1024, 4096])
    def test_near_misses_of_many_lines_run_the_nufft(self, n_lines):
        # the same near misses with at least _NUFFT_LINES lines, at dt max|w|
        # about pi, run the NUFFT path, bitwise
        self._assert_near_misses_run(n_lines, _backend._nufft_moments)

    @staticmethod
    def _assert_near_misses_run(n_lines, kernel):
        omegas, weights, dt = _uniform_lines(n_lines, 7987.5, 1)
        moved = omegas.copy()
        moved[n_lines // 2] += 1e-9 * (omegas[1] - omegas[0])
        for om, step in ((moved, dt), (omegas, dt / (1 + 1e-9))):
            assert not _backend._commensurate(om, step)
            assert _backend._spreads(om, step) == (n_lines >= _backend._NUFFT_LINES)
            got = phase_moment_sums(om, weights, step, N_MULTI)
            want = kernel(om, weights, step, N_MULTI)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_turn_count_bound(self):
        # _MAX_TURNS = 2**20 bounds j, and with it the offsets the FFT path
        # takes; dt = pi turns spans that many turns over 64 lines on [-1, 1]
        omegas = midpoint_grid(64, 1.0)
        for turns, j in ((2**20 - 1, 2**20 - 1), (2**20, 0), (2**20 + 1, 0)):
            assert _backend._commensurate(omegas, math.pi * turns) == j
        # the count may miss j by 8 eps j: 4 eps j is admitted, 16 eps j not
        eps = np.finfo(np.float64).eps
        for miss, j in ((4, 1000), (16, 0)):
            assert _backend._commensurate(omegas, math.pi * 1000 * (1 + miss * eps)) == j

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


# the dt of the nyquist norm-bound plan at norm_scale 7987.5 (period 15 975)
NORM_BOUND_DT = 2 * math.pi / (2 * 7987.5)


def _random_lines(n_lines, norm_scale, seed):
    """n_lines sorted uniform random lines on [-norm_scale, norm_scale]
    with normalized weights uniform on [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n_lines)
    omegas = np.sort(rng.uniform(-norm_scale, norm_scale, n_lines))
    return omegas, weights / weights.sum()


def _nufft_spectra():
    """The three spectra of the NUFFT path's accuracy gate, (omegas, weights,
    dt): 4 096 random lines under the norm-bound plan; 4 096 normal lines
    around 20 (spread 22) with 4 096 midpoint lines of weight 1e-9 over the
    norm-bound range; 4 096 random lines on [-1, 1] at dt 27.98."""
    rng = np.random.default_rng(2027)
    core = rng.normal(20.0, 22.0, 4096)
    omegas = np.concatenate([core, midpoint_grid(4096, 7987.5)])
    weights = np.concatenate([np.full(4096, 1 / 4096), np.full(4096, 1e-9)])
    order = np.argsort(omegas)
    unit = random_spectrum(14, n=4096, normalized=True)
    return (
        (*_random_lines(4096, 7987.5, 2026), NORM_BOUND_DT),
        (omegas[order], weights[order], NORM_BOUND_DT),
        (unit.eigenfrequencies, unit.weights, 27.98),
    )


# the first order of each of the first four NUFFT tiles
TILE_STARTS = [_backend._BLOCK + t * _backend._NUFFT_TILE for t in range(4)]


class TestNufftMoments:
    """Many irregular lines over a wide phase range take the orders past
    block 0 from tiles of _NUFFT_TILE orders of a type-1 NUFFT."""

    S = _backend._NUFFT_TILE
    STARTS = TILE_STARTS

    def test_matches_direct_sum(self):
        # the contract at every order near block 0, the tile edges and
        # centers and the order 2 S, where the image of m_0 aliases onto the
        # last orders of tile 1, and at a stride up to 42 371
        near = [s + d for s in self.STARTS for d in (-1, 0, 1)]
        centers = [s + self.S // 2 for s in self.STARTS[:3]]
        orders = np.unique(np.r_[0:13, 120:136, near, centers,
                                 2 * self.S - 3 : 2 * self.S + 4, 0:42372:97, 42371])
        orders = orders[orders <= 42371]
        for omegas, weights, dt in _nufft_spectra():
            assert not _backend._commensurate(omegas, dt)
            assert _backend._spreads(omegas, dt)
            vals = phase_moment_sums(omegas, weights, dt, 42371)
            _assert_direct_sum(vals, omegas, weights, dt, orders)

    def test_one_line_error_keeps_a_tenfold_margin(self):
        # the NUFFT is linear in the weights, so its error on any
        # nonnegative weights is at most mu0 times the worst error of one
        # line of weight 1. At 32 grid offsets, over three tiles, that stays
        # a tenth of the contract taken at dt max|w| = _NUFFT_SCALE: the
        # threshold keeps the margin at every order, the least (about 12x)
        # at order _BLOCK, the lower edge of tile 0
        n_max = self.STARTS[3] - 1
        n = np.arange(n_max + 1)
        rng = np.random.default_rng(7)
        worst = np.zeros(n_max + 1)
        offsets = np.r_[np.linspace(0.0, 1.0, 16, endpoint=False),
                        rng.uniform(0.0, 1.0, 16)]
        for frac in offsets:
            omega = (rng.integers(-self.S, self.S) + frac) * math.pi / self.S
            got = _backend._nufft_moments(np.array([omega]), np.ones(1), 1.0, n_max)
            turn = _backend._turns(*_backend._two_prod(n.astype(float), omega))[0]
            exact = np.cos(turn) - 1j * np.sin(turn)
            worst = np.maximum(worst, np.abs(got - exact))
        past = n[_backend._BLOCK :]
        bound = _contract(past, None, np.ones(1), 1.0, scale=_backend._NUFFT_SCALE)
        assert np.all(10 * worst[_backend._BLOCK :] <= bound)
        assert worst[: _backend._BLOCK].max() <= 1e-15

    def test_rule_reads_the_lines_and_dt(self):
        # both sides of _NUFFT_LINES and of _NUFFT_SCALE, bitwise the path
        # the rule picks; past block 0 the two paths differ in the last bits
        omegas, weights = _random_lines(_backend._NUFFT_LINES, 1.0, 31)
        top = np.abs(omegas).max()
        at = _backend._NUFFT_SCALE / top
        while at * top < _backend._NUFFT_SCALE:
            at = np.nextafter(at, math.inf)
        below = np.nextafter(at, 0.0)
        fewer = (omegas[1:], weights[1:] / weights[1:].sum())
        cases = (((omegas, weights), at, True), ((omegas, weights), below, False),
                 (fewer, at, False), (fewer, 10 * at, False),
                 ((omegas, weights), 10 * at, True))
        n_max = _backend._BLOCK + 7
        for (om, w), dt, spreads in cases:
            assert _backend._spreads(om, dt) == spreads
            got = phase_moment_sums(om, w, dt, n_max)
            nufft = _backend._nufft_moments(om, w, dt, n_max)
            direct = _backend._direct_moments(om, w, dt, n_max)
            assert not np.array_equal(nufft, direct)
            assert np.array_equal(got, nufft if spreads else direct)

    def test_non_finite_inputs_stay_off_the_path(self):
        omegas, _ = _random_lines(_backend._NUFFT_LINES, 1.0, 32)
        for step in (math.nan, math.inf):
            assert not _backend._spreads(omegas, step)
        # dt max|w| overflows, though dt and max|w| are below _SPLIT_MAX
        with np.errstate(over="ignore"):
            assert not _backend._spreads(omegas * 2.0**990, 2.0**990)
        for value in (math.nan, math.inf, -math.inf):
            bad = omegas.copy()
            bad[3] = value
            assert not _backend._spreads(bad, 27.98)

    def test_lines_beyond_the_split_run_the_direct_kernel(self):
        # Dekker's split overflows a factor above about 2^997, and the pair
        # paths then return NaN; lines, or a dt, above _SPLIT_MAX = 2^996
        # stay off them and run the direct kernel. Just below it the NUFFT
        # path takes them, and equally spaced lines the FFT path
        omegas, weights = _random_lines(_backend._NUFFT_LINES, 1.0, 34)
        uniform, _, _ = _uniform_lines(_backend._NUFFT_LINES, 1.0, 1)
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.isnan(_backend._nufft_moments(
                omegas * 2.0**1000, weights, 2.0**-1000, _backend._BLOCK)).any()
        for scale, pairs in ((2.0**1000, False), (1.999 * 2.0**996, False),
                             (0.999 * 2.0**996, True)):
            for lines, dt, fft in ((omegas * scale, 27.98 / scale, False),  # lines
                                   (omegas * (27.98 / scale), scale, False),  # dt
                                   (uniform * scale, math.pi / scale, pairs)):
                assert _backend._spreads(lines, dt) == pairs
                assert bool(_backend._commensurate(lines, dt)) == fft
                got = phase_moment_sums(lines, weights, dt, _backend._BLOCK + 7)
                direct = _backend._direct_moments(lines, weights, dt, _backend._BLOCK + 7)
                assert np.array_equal(got, direct) != pairs
                assert np.all(np.isfinite(got))
        # a dt of exactly _SPLIT_MAX is not below it; half of it is
        edge = _backend._SPLIT_MAX
        for dt, turns in ((edge, 0), (edge / 2, 1)):
            assert _backend._commensurate(uniform * (math.pi / dt), dt) == turns
            assert _backend._spreads(omegas * (27.98 / dt), dt) == bool(turns)

    def test_n_max_independent_bitwise(self):
        # across block 0's edge and each tile edge n_start + t S +- 1 and
        # the tile centers, against a longer call
        omegas, weights = _random_lines(1024, 7987.5, 33)
        dt = NORM_BOUND_DT
        assert _backend._spreads(omegas, dt)
        long = phase_moment_sums(omegas, weights, dt, self.STARTS[3] + 7)
        edges = [s + d for s in self.STARTS for d in (-1, 0, 1)]
        centers = [s + self.S // 2 + d for s in self.STARTS[:3] for d in (-1, 0)]
        for n_max in [*range(4), *edges, *centers, 42371]:
            got = phase_moment_sums(omegas, weights, dt, n_max)
            assert np.array_equal(got, long[: n_max + 1]), n_max

    def test_memory_does_not_grow_with_n_max(self):
        # the tiles reuse buffers of fixed size: past one tile, a call's
        # tracemalloc peak grows by no more than its longer output and 4 KB
        # of small Python objects. With 1 024 lines the tiles' buffers weigh
        # about as much as block 0's low table, so one more grid of 2
        # _NUFFT_TILE points (512 KB) per tile would show. A first call
        # builds what a process keeps: the FFT's plan and _deconvolution
        s = random_spectrum(13, n=1024, normalized=True)
        assert _backend._spreads(s.eigenfrequencies, 27.98)
        phase_moment_sums(s.eigenfrequencies, s.weights, 27.98, self.STARTS[1])
        one_tile = self.STARTS[1] - 1
        base = _moment_peak(s, 27.98, one_tile)
        for n_max in (self.STARTS[1], self.STARTS[2], 42371, self.STARTS[3] + 5):
            grown = _moment_peak(s, 27.98, n_max) - base
            assert grown <= 16 * (n_max - one_tile) + 4096

    def test_one_block_runs_no_fft(self, monkeypatch):
        # below order _BLOCK the path is block 0 alone; past it, one FFT of
        # 2 _NUFFT_TILE points per tile
        sizes = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft",
                            lambda a, **kw: sizes.append(a.size) or fft(a, **kw))
        s = random_spectrum(13, n=4096, normalized=True)
        om, w = s.eigenfrequencies, s.weights
        got = phase_moment_sums(om, w, 27.98, _backend._BLOCK - 1)
        direct = _backend._direct_moments(om, w, 27.98, _backend._BLOCK - 1)
        assert np.array_equal(got, direct)
        assert sizes == []
        phase_moment_sums(om, w, 27.98, self.STARTS[1])
        assert sizes == [2 * self.S] * 2

    def test_kernel_points_take_the_pair_ceil(self):
        # the leftmost of the W cells is ceil(u - W/2), u = (theta_hi +
        # theta_lo) M / (2 pi) the phase in grid units, taken in pairs
        # within about 2^-100 |u|: exactly at theta = 0 and 1e-300 beside
        # it, one ulp of theta_hi beside the pairs nearest whole grid units
        # l h, and over random phases. The pairs nearest l h, and one ulp of
        # theta_lo beside them, lie within 1e-32 M of l, and either side of it
        # is a right ceil there. The weights are psi at the offsets from
        # the cells taken
        M, W = 2 * self.S, _backend._NUFFT_WIDTH
        pairs, near = [(0.0, 0.0), (0.0, 1e-300), (0.0, -1e-300)], []
        with mpmath.workdps(50):
            tau = 2 * mpmath.pi
            for l in (1, -1, 5, -8, 8, M // 2 - 1):
                hi = float(l * tau / M)
                lo = float(l * tau / M - hi)
                pairs += [(np.nextafter(hi, 9.0), lo), (np.nextafter(hi, -9.0), lo)]
                near += [(hi, lo), (hi, np.nextafter(lo, 1.0)), (hi, np.nextafter(lo, -1.0))]
            rng = np.random.default_rng(44)
            pairs += [(t, 0.0) for t in rng.uniform(-np.pi, np.pi, 64)]
            theta = np.array(pairs + near).T
            u = [(mpmath.mpf(a) + mpmath.mpf(b)) * M / tau for a, b in theta.T]
            first, spread = _backend._kernel_points(theta)
            x = np.array([[float((f + l - v) * 2 / W) for l in range(W)]
                          for f, v in zip(first.tolist(), u)])
            ceil = [int(mpmath.ceil(v)) - W // 2 for v in u]
            whole = [int(mpmath.nint(v)) - W // 2 for v in u]
        assert first.dtype == np.int64
        assert first[: len(pairs)].tolist() == ceil[: len(pairs)]
        for f, v, w in zip(first[len(pairs) :], u[len(pairs) :], whole[len(pairs) :]):
            assert abs(v - mpmath.nint(v)) < 1e-32 * M and f in (w, w + 1)
        assert ceil[:3] == [-8, -7, -8]  # u = 0 is whole: its ceil is 0
        psi = np.exp(_backend._NUFFT_BETA * (np.sqrt(1.0 - x * x) - 1.0))
        assert np.allclose(spread, psi, rtol=1e-13, atol=0.0)

    def test_deconvolution_table(self):
        # h / psihat(r), r = -S/2 .. S/2 - 1: one read-only table of S
        # floats per process, even in r, growing towards the tile edges
        table = _backend._deconvolution()
        assert _backend._deconvolution() is table
        assert table.shape == (self.S,) and not table.flags.writeable
        half = self.S // 2
        assert np.array_equal(table[half + 1 :], table[half - 1 : 0 : -1])
        assert np.all(np.diff(table[half:]) > 0) and table[half] > 0


def _norm_bound_series():
    """The moments to order 42 371 of the 4 096 random lines of the NUFFT
    gate, under the norm-bound plan, with that plan's (dt, lam, period,
    n_terms)."""
    kernel = KernelSpec.from_resolution(1.0, 0.01, 7987.5)
    plan = make_plan("general", kernel, ErrorBudget(0.01, 0.01, 0.05, 1.0, 0.05),
                     chi_mode="nyquist")
    params = PeriodicKernelParams.from_period(plan.period, kernel)
    omegas, weights, _ = _nufft_spectra()[0]
    moments = phase_moment_sums(omegas, weights, params.dt, plan.n_terms)
    return moments, (params.dt, kernel.lam, plan.period, plan.n_terms)


def _pair_phase_series(nus, moments, dt, lam, period, n_terms):
    """The series at x = fl(dt nu), every phase n x reduced mod 2 pi from
    the exact product n x in float64 pairs, and every rounded term summed
    exactly (math.fsum)."""
    n = np.arange(1.0, n_terms + 1)
    g = np.exp(-0.5 * (dt * lam) ** 2 * n ** 2) * moments[1 : n_terms + 1]
    out = []
    for x in dt * np.asarray(nus):
        turn = _backend._turns(*_backend._two_prod(n, x))[0]
        out.append(math.fsum(g.real * np.cos(turn) - g.imag * np.sin(turn)))
    return (moments[0].real + 2 * np.array(out)) / period


def _series_peak(nus, moments, n_terms):
    """The tracemalloc peak, in bytes, of one NUFFT resummation, after a
    first call has built what a process keeps, less the held kernel points
    of the grid, so that the peak includes building them."""
    args = (nus, moments, NORM_BOUND_DT, 0.33, 2 * 7987.5, n_terms)
    _backend._nufft_series(*args)
    _backend._memos.pop("series_points")
    tracemalloc.start()
    try:
        _backend._nufft_series(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNufftSeries:
    """A series of at least _NUFFT_TILE terms on at least _SERIES_POINTS
    points per full tile takes tiles of a type-2 NUFFT, the adjoint of the
    moments'."""

    S = _backend._NUFFT_TILE

    @pytest.fixture()
    def nufft_calls(self, monkeypatch):
        calls = []
        series = _backend._nufft_series

        def counting(nus, *args):
            calls.append((nus.size, args[-1]))
            return series(nus, *args)

        monkeypatch.setattr(_backend, "_nufft_series", counting)
        return calls

    def test_rule_reads_terms_and_points(self, nufft_calls):
        # both sides of _NUFFT_TILE terms and of _SERIES_POINTS points per
        # full tile, bitwise the path the rule picks; the NUFFT agrees with
        # the block path, taken on pieces of the grid too small for the
        # NUFFT, to within 1e-14 max|f|, in other bits. S + 1 terms take a
        # second tile of one order, half full on average, so they need
        # twice the points: on 512 points, where the NUFFT paid two tiles
        # for the block path's work, they take the block path
        rng = np.random.default_rng(41)
        moments = np.exp(1j * rng.uniform(-np.pi, np.pi, self.S + 2))
        points = _backend._SERIES_POINTS
        args = (NORM_BOUND_DT, 0.33, 2 * 7987.5)
        for n_terms, size, nufft in ((self.S - 1, points, False),
                                     (self.S, points - 1, False),
                                     (self.S, points, True),
                                     (self.S + 1, 512, False),
                                     (self.S + 1, 2 * points - 1, False),
                                     (self.S + 1, 2 * points, True)):
            nus = np.linspace(0.0, 400.0, size)
            nufft_calls.clear()
            got = reconstruct_series(nus, moments, *args, n_terms)
            block = np.concatenate([reconstruct_series(nus[i : i + 256], moments,
                                                       *args, n_terms)
                                    for i in range(0, size, 256)])
            assert nufft_calls == ([(size, n_terms)] if nufft else [])
            other = _backend._nufft_series(nus, moments, *args, n_terms)
            assert np.array_equal(got, other) == nufft
            assert not np.array_equal(block, other)
            assert np.allclose(other, block, rtol=0.0, atol=1e-14 * np.abs(block).max())

    def test_benchmark_shapes_land_on_their_sides(self, nufft_calls):
        # the norm-bound plan's 42 371 terms on the 1 024-point grid of its
        # pipeline take the NUFFT, on 257 points the block path; the bundled
        # models' plans (at most 186 terms on up to 1 024 points) the block
        moments, (dt, lam, period, n_terms) = _norm_bound_series()
        assert n_terms == 42371
        for size, calls in ((1024, [(1024, n_terms)]), (257, [])):
            nufft_calls.clear()
            reconstruct_series(np.linspace(0.0, 400.0, size), moments, dt, lam,
                               period, n_terms)
            assert nufft_calls == calls
        nufft_calls.clear()
        ones = np.ones(187, dtype=np.complex128)
        for size in (257, 1024):
            reconstruct_series(np.linspace(-1.0, -0.8, size), ones, 27.98, 0.0066,
                               0.2245, 186)
        assert nufft_calls == []

    def test_matches_pair_phase_sum(self):
        # within 2e-14 max|f| of the sum with phases reduced in pairs (the
        # sum's own rounding is below 1e-19 max|f|) at 42 371 terms on both
        # sides of the rule, and over the whole period, where theta wraps
        # around the NUFFT grid
        moments, (dt, lam, period, n_terms) = _norm_bound_series()
        for nus in (np.linspace(0.0, 400.0, 257), np.linspace(0.0, 400.0, 1024),
                    np.linspace(-period / 2, period / 2, 1024)):
            got = reconstruct_series(nus, moments, dt, lam, period, n_terms)
            pick = np.r_[0 : nus.size : 16, nus.size - 1]
            want = _pair_phase_series(nus[pick], moments, dt, lam, period, n_terms)
            assert np.abs(got[pick] - want).max() <= 2e-14 * np.abs(got).max()

    def test_memory_does_not_grow_with_n_terms(self):
        # past one tile the peak grows by at most 16 KB of small Python
        # objects (about 1 KB per tile under a line tracer): every tile
        # reuses the same buffers, where one more chunk gather (64 KB),
        # envelope (128 KB) or grid (512 KB) per tile would show. Per grid
        # point it grows by the kernel points
        # (W weights and W indices), the phase and the sum, and 32 B to
        # spare; an unchunked gather would add 16 W B per point
        rng = np.random.default_rng(43)
        moments = np.exp(1j * rng.uniform(-np.pi, np.pi, 3 * self.S + 6))
        nus = np.linspace(0.0, 400.0, 1024)
        base = _series_peak(nus, moments, self.S)
        for n_terms in (self.S + 1, 2 * self.S, 42371, 3 * self.S + 5):
            assert _series_peak(nus, moments, n_terms) - base <= 16384
        per_point = 2 * _backend._NUFFT_WIDTH * 8 + 16 + 16 + 32
        wide = _series_peak(np.linspace(0.0, 400.0, 4096), moments, self.S)
        assert wide - base <= per_point * (4096 - 1024)


def _reflected(omegas, weights):
    """The lines at -w, in increasing order, with their weights."""
    return -omegas[::-1], weights[::-1]


def _norm_bound_inputs(seed=1):
    """The inputs of the norm_bound benchmark: 4 096 midpoint lines and
    4 096 seeded random lines on [-7 987.5, 7 987.5], the 1 024-point grid
    on [0, 400] and the dt of the norm-bound plan."""
    h = 7987.5
    rng = np.random.default_rng(seed)
    irregular = np.unique(rng.uniform(-h, h, 4096))
    while irregular.size < 4096:
        extra = rng.uniform(-h, h, 4096 - irregular.size)
        irregular = np.unique(np.concatenate([irregular, extra]))
    dt = _norm_bound_series()[1][0]
    return midpoint_grid(4096, h), irregular, np.linspace(0.0, 400.0, 1024), dt


def test_norm_bound_paths_read_no_platform(monkeypatch):
    # fft on the midpoint lines, nufft on the seeded random lines and the
    # NUFFT series on the 1 024-point grid, with the norm-bound plan's 42 371
    # terms. No choice reads the platform: _backend names no extended float
    # type, no platform, sys or os module, and takes np.finfo of float64 only
    src = Path(__file__).resolve().parents[1] / "src" / "fouriergit"
    tree = ast.parse((src / "_backend.py").read_text())
    names = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(tree)} | {
        alias.name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not names & {"longdouble", "clongdouble", "float128", "float96",
                        "platform", "sys", "os"}
    assert [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "np.finfo"] == ["np.finfo(np.float64)"]
    uniform, irregular, grid, dt = _norm_bound_inputs()
    calls = []
    for name in ("_fft_moments", "_nufft_moments", "_direct_moments", "_nufft_series"):
        kernel = getattr(_backend, name)
        monkeypatch.setattr(_backend, name, lambda *a, _k=kernel, _n=name:
                            calls.append(_n) or _k(*a))
    weights = np.full(4096, 1 / 4096)
    assert _backend._commensurate(uniform, dt) == 1
    assert not _backend._commensurate(irregular, dt) and _backend._spreads(irregular, dt)
    for lines in (uniform, irregular):
        m = phase_moment_sums(lines, weights, dt, 42371)
        reconstruct_series(grid, m, dt, 1.0 / 3, 2 * 7987.5, 42371)
    assert calls == ["_fft_moments", "_nufft_series", "_nufft_moments", "_nufft_series"]


def test_pair_helpers_are_error_free():
    # TwoSum and Dekker's product return fl(a + b) and fl(a b) with their
    # rounding errors, exactly: on random factors over 120 binades, and on
    # factors up to _SPLIT_MAX; _times(c, hi, lo) is c (hi + lo) to within
    # the two roundings of its low part, fl(e + fl(c lo))
    rng = np.random.default_rng(45)
    a = rng.uniform(-1.0, 1.0, 2000) * 2.0 ** rng.integers(-60, 60, 2000)
    b = rng.uniform(-1.0, 1.0, 2000) * 2.0 ** rng.integers(-60, 60, 2000)
    a[:100] = rng.uniform(0.5, 1.0, 100) * _backend._SPLIT_MAX
    b[:100] = rng.uniform(-1.0, 1.0, 100) * 2.0**-990
    for (hi, lo), op in ((_backend._two_sum(a, b), operator.add),
                         (_backend._two_prod(a, b), operator.mul)):
        assert np.array_equal(hi, op(a, b))
        assert all(Fraction(h) + Fraction(l) == op(Fraction(x), Fraction(y))
                   for h, l, x, y in zip(hi, lo, a, b))
    c, lo = 41088.0, b * 2.0**-60
    hi, low = _backend._times(c, a[100:], lo[100:])
    for h, l, x, y in zip(hi, low, a[100:], lo[100:]):
        exact = Fraction(c) * (Fraction(x) + Fraction(y))
        assert abs(Fraction(h) + Fraction(l) - exact) <= (abs(l) + abs(c * y)) * 2.0**-53


def test_pair_reduction_of_a_tile_phase():
    # theta = dt w mod 2 pi from the exact product, and c theta mod 2 pi at
    # the center c = 41 088 of the third NUFFT tile, on the 4 096 random
    # lines of the norm_bound benchmark, within 1e-24 of 40-digit values
    # mod 2 pi (a value at +-pi may take either end); each pair is
    # normalized
    _, lines, _, dt = _norm_bound_inputs()
    c = _backend._BLOCK + 2 * _backend._NUFFT_TILE + _backend._NUFFT_TILE // 2
    assert c == 41088
    theta = _backend._turns(*_backend._two_prod(dt, lines))
    turn = _backend._turns(*_backend._times(c, *theta))
    for hi, lo in (theta, turn):
        assert np.all(np.abs(hi) <= math.pi) and np.array_equal(hi + lo, hi)
    worst = [0, 0]
    with mpmath.workdps(40):
        tau = 2 * mpmath.pi
        for k in range(lines.size):
            for i, scale in enumerate((1, c)):
                pair = (theta, turn)[i]
                gap = (mpmath.mpf(pair[0][k]) + mpmath.mpf(pair[1][k])
                       - mpmath.mpf(dt) * mpmath.mpf(lines[k]) * scale)
                worst[i] = max(worst[i], abs(gap - tau * mpmath.nint(gap / tau)))
    assert worst[0] <= 1e-28 and worst[1] <= 1e-24, worst


class TestWeightsScale:
    """weights x a: every path is linear in the weights with phases that
    read only the lines and dt, so m_n(a w) = a m_n(w), and a series of the
    moments a m_n is a times the series."""

    @staticmethod
    def _cases():
        unit = random_spectrum(0, n=16, normalized=True)
        return (("direct", unit.eigenfrequencies, unit.weights, 5.7),
                ("fft", *_uniform_lines(4096, 7987.5, 1)),
                ("nufft", *_nufft_spectra()[0]))

    @pytest.mark.parametrize("a", [2.0**-3, 2.0**7])
    def test_power_of_two_scales_bitwise(self, a):
        # a power of two scales every rounded product and sum exactly, on
        # each moment path and on the block and NUFFT series paths
        for path, om, w, dt in self._cases():
            fft = bool(_backend._commensurate(om, dt))
            assert (fft, not fft and _backend._spreads(om, dt)) == (
                path == "fft", path == "nufft")
            m = phase_moment_sums(om, w, dt, 42371)
            assert np.array_equal(phase_moment_sums(om, a * w, dt, 42371), a * m), path
        moments, (dt, lam, period, n_terms) = _norm_bound_series()
        for size in (257, 1024):  # the block path, the NUFFT
            nus = np.linspace(0.0, 400.0, size)
            f = reconstruct_series(nus, moments, dt, lam, period, n_terms)
            fa = reconstruct_series(nus, a * moments, dt, lam, period, n_terms)
            assert np.array_equal(fa, a * f), size

    @pytest.mark.parametrize("a", [0.37, 3.0])
    def test_other_factors_within_a_derived_bound(self, a):
        # Both calls share the phase tables z, which read only the lines and
        # dt, and the BLAS order. On the direct path a computed m_n is the
        # sum over L lines of w_k z_k, each term through at most three
        # complex products (weight, tile row, low table) and the sum of L
        # terms, so it is within sqrt(2) gamma_{L+8} sum_k w_k |z_k| of the
        # exact sum over the same z_k, gamma_j = j u / (1 - j u) (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2002, 3.1 and
        # 3.6), and |z_k| <= 1 + gamma_16; fl(a w_k) adds u a w_k. On the
        # block series of N < _BLOCK terms a point sums N + 1 terms env_n
        # m_n z_n through two products each, then adds m_0, doubles and
        # divides by P: the same bound with L = N and mu0 replaced by
        # (|m_0| + 2 sum env_n |m_n|) / P
        u = np.finfo(np.float64).eps / 2
        gamma = lambda j: j * u / (1 - j * u)
        grow = (1 + gamma(16)) ** 2
        unit = random_spectrum(0, n=16, normalized=True)
        om, w = unit.eigenfrequencies, unit.weights
        m = phase_moment_sums(om, w, 5.7, 42371)
        gap = np.abs(phase_moment_sums(om, a * w, 5.7, 42371) - a * m)
        bound = (2 * math.sqrt(2) * gamma(om.size + 8) + u) * grow * a * w.sum()
        assert gap.max() <= bound
        n_terms, dt, lam, period = 100, 5.7, 0.05, 2 * math.pi / 5.7
        env = np.exp(-0.5 * (dt * lam * np.arange(1, n_terms + 1)) ** 2)
        nus = np.linspace(-1.0, 1.0, 257)
        f = reconstruct_series(nus, m, dt, lam, period, n_terms)
        fa = reconstruct_series(nus, a * m, dt, lam, period, n_terms)
        scale = (abs(m[0]) + 2 * np.sum(env * np.abs(m[1 : n_terms + 1]))) / period
        bound = (2 * math.sqrt(2) * gamma(n_terms + 8) + u) * grow * a * scale
        assert np.abs(fa - a * f).max() <= bound


def test_reflection_conjugates_the_moments():
    # omega -> -omega turns m_n into its conjugate; on each path the two
    # calls agree with that to within the contract
    omegas, weights, dt = _uniform_lines(512, 7987.5, 1)
    unit = random_spectrum(0, n=16, normalized=True)
    cases = (
        ("direct", unit.eigenfrequencies, unit.weights, 5.7),
        ("fft", omegas, weights, dt),
        ("nufft", *_nufft_spectra()[0]),
    )
    orders = np.unique(np.r_[0:13, 120:136, 0:42372:61, 16510:16515, 42371])
    for path, om, w, step in cases:
        for lines in ((om, w), _reflected(om, w)):
            assert bool(_backend._commensurate(lines[0], step)) == (path == "fft")
            assert _backend._spreads(lines[0], step) == (path == "nufft")
        m = phase_moment_sums(om, w, step, 42371)
        r = phase_moment_sums(*_reflected(om, w), step, 42371)
        gap = np.abs(r[orders] - np.conj(m[orders]))
        assert np.all(gap <= _contract(orders, om, w, step)), path


def test_shift_turns_the_moments_by_a_phase(model_a):
    # omega -> omega + c, c = 0.37, turns m_n into exp(-i n dt c) m_n. As
    # for the reflection, each path keeps that within the contract; on top
    # come the rounding of the shifted lines, fl(w + c) off by at most u
    # |w + c|, which turns m_n by at most u n dt max|w + c| mu0, and that of
    # the factor exp(-i n dt c), at most 2 eps (1 + n dt c) |m_n|. Model A
    # runs the direct path at its variance plan's dt, the others the FFT
    # and NUFFT paths at the norm-bound plan's
    c, eps = 0.37, np.finfo(np.float64).eps
    kernel = KernelSpec.from_resolution(0.02, 0.01, 1.0)
    plan = make_plan("variance", kernel, ErrorBudget(0.01, 0.01, 0.05, 2.0 / 512),
                     window=FrequencyWindow(-1.0, -0.8), moments=summarize(model_a))
    omegas, weights, dt = _uniform_lines(512, 7987.5, 1)
    cases = (
        ("direct", model_a.eigenfrequencies, model_a.weights, 2 * math.pi / plan.period),
        ("fft", omegas, weights, dt),
        ("nufft", *_nufft_spectra()[0]),
    )
    orders = np.unique(np.r_[0:13, 120:136, 0:42372:61, 16510:16515, 42371])
    for path, om, w, step in cases:
        for lines in (om, om + c):
            assert bool(_backend._commensurate(lines, step)) == (path == "fft")
            assert _backend._spreads(lines, step) == (path == "nufft")
        m = phase_moment_sums(om, w, step, 42371)[orders]
        moved = phase_moment_sums(om + c, w, step, 42371)[orders]
        gap = np.abs(moved - np.exp(-1j * orders * step * c) * m)
        tol = (_contract(orders, om + c, w, step)
               + eps / 2 * orders * step * np.abs(om + c).max() * w.sum()
               + 2 * eps * (1 + orders * step * c) * np.abs(m))
        assert np.all(gap <= tol), path


def _every_term(nus, omegas, weights, lam, period=None, wrap=0):
    """The transform with every term of every within-reach line evaluated:
    the kernel's chunks and line sets, per-pair nearest-image rounding,
    per-term arithmetic exp((x c) x), image order (own image first, then
    -1, +1, -2, +2, ...) and per-chunk product on a C-contiguous grid x
    lines array, with nothing skipped."""
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
        for j in [0] + [j for i in range(1, wrap + 1) for j in (-i, i)]:
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


@functools.lru_cache(maxsize=None)
def _coverage_rows():
    """Arguments of the 24 periodic transforms of the coverage_sweep
    benchmark: models A and B, variance and central order-4 plans, 6
    targets from 1e-4 to 0.1, on the window [-1, -0.8] at 257 points."""
    kernel = KernelSpec.from_resolution(0.02, 0.01, 1.0)
    window = FrequencyWindow(-1.0, -0.8)
    grid = np.linspace(-1.0, -0.8, 257)
    rows = []
    for kind in "AB":
        s = make_model(kind)
        moments = summarize(s, orders=(2, 4))
        for method in ("variance", "central"):
            for eps in np.logspace(-4.0, -1.0, 6):
                budget = ErrorBudget(float(eps), float(eps), 0.05, 2.0 / 512, 0.05)
                plan = make_plan(method, kernel, budget, window=window,
                                 moments=moments,
                                 central_order=4 if method == "central" else None)
                params = PeriodicKernelParams.from_period(plan.period, kernel)
                rows.append((grid, s.eigenfrequencies, s.weights, kernel.lam,
                             params.period, params.wrap_count))
    return rows


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
        # the NaN stays in its own row as in the dense sum. The NaN fails
        # the alias-free test, and in the series it stays in its own point
        # on the block path and on the NUFFT path, whose kernel points cast
        # it to an integer cell
        s = random_spectrum(6, n=200, norm_scale=5.0)
        nus = np.linspace(-5.0, 5.0, 300)
        nus[10] = np.nan
        for got in _check_both(nus, s.eigenfrequencies, s.weights, 0.05, 11.0, 1):
            assert np.isnan(got[10]) and np.isfinite(np.delete(got, 10)).all()
        clean = np.linspace(-5.0, 5.0, 300)
        assert _backend.alias_free(clean, s.eigenfrequencies, 0.05, 1e6)
        assert not _backend.alias_free(nus, s.eigenfrequencies, 0.05, 1e6)
        S = _backend._NUFFT_TILE
        rng = np.random.default_rng(6)
        moments = np.exp(1j * rng.uniform(-np.pi, np.pi, S + 1))
        args = (NORM_BOUND_DT, 0.33, 2 * 7987.5)
        for size, n_terms, series in ((300, 100, reconstruct_series),
                                      (1024, S, _backend._nufft_series)):
            grid = np.linspace(0.0, 400.0, size)
            grid[10] = np.nan
            with np.errstate(invalid="ignore"):
                got = series(grid, moments, *args, n_terms)
            assert np.isnan(got[10]) and np.isfinite(np.delete(got, 10)).all()


class TestTransformMatchesEveryTerm:
    """The transform evaluates only the (line, image) blocks of a grid span
    that hold a nonzero term and wraps most lines once per span; its output
    equals the every-term evaluation bit for bit."""

    def test_default_sweep_rows(self):
        plain, rows = _default_sweep()
        assert len(rows) == 20 and {r[5] for r in rows} == {0, 1}
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

    def test_far_image_pointwise(self):
        # one line at 0 seen from below P/2: at nu = 19.96 the image at +P
        # (x = -20.04) adds as much as the line itself, at nu = 18 nothing
        # the sum can hold. The values span 16 decades, so a max-relative
        # gate would not see the +P image dropped at the far end, where it
        # makes 1.4756009e-87 read 1.2277271e-87; each point is compared
        # bitwise instead
        nus = np.linspace(18.0, 19.96, 5)
        got = _assert_bitwise(nus, [0.0], [1.0], 1.0, 40.0, 1)
        assert got[-1] == pytest.approx(1.4756009e-87, rel=1e-7)
        assert got[0] / got[-1] > 1e15

    def test_unsorted_grid_and_lines(self):
        rng = np.random.default_rng(23)
        s = random_spectrum(23, n=500, norm_scale=3.0)
        order = rng.permutation(s.n_eigen)
        om, w = s.eigenfrequencies[order], s.weights[order]
        nus = rng.permutation(np.linspace(-3.0, 3.0, 3 * _backend._CHUNK + 1))
        _assert_bitwise(nus, om, w, 0.03)
        for wrap in (0, 1, 3):
            _assert_bitwise(nus, om, w, 0.03, 1.3, wrap)
        # scattered lines: each span's live lines are far from contiguous
        _assert_bitwise(np.sort(nus), om, w, 0.03, 0.2, 1)

    def test_scattered_live_lines(self):
        # shuffled lines over a sorted grid: each span of _SPAN points sees
        # its live lines scattered over about 70 runs, gathered by index
        rng = np.random.default_rng(24)
        omegas = rng.permutation(np.linspace(0.0, 1.0, 300))
        nus = np.linspace(0.0, 1.0, _backend._CHUNK)
        _assert_bitwise(nus, omegas, np.ones(300), 0.002)
        _assert_bitwise(nus, omegas, np.ones(300), 0.002, 1.0, 1)

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
        # evaluate 11 476 480 exponentials where the every-term evaluation
        # takes 27 010 048; a regression to evaluating every term, or every
        # absorbed image term, fails here. The own image is evaluated
        # densely, its rows whose every term is 0.0 too: 92 416 more terms
        # than a liveness test on the own image would evaluate
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
        assert every == 27_010_048
        assert sum(evaluated) == 11_476_480
        # one image on each side, as on every row before the count followed
        # the underflow reach: more every-term work, the same live terms
        evaluated.clear()
        for args in rows:
            gaussian_transform(*args[:5], 1)
        every = sum(_every_term_count(g, om, lam, p, 1) for g, om, _, lam, p, _ in rows)
        assert every == 30_698_496
        assert sum(evaluated) == 11_476_480


def _dead_own_rows(nus, omegas, lam, period=None):
    """The largest own-image argument fl(fl(d c) d) of each (span, line)
    whose own terms are all exactly 0.0, over the kernel's chunks and spans
    (_chunk_step, _within_reach, _offsets)."""
    c = -0.5 / (lam * lam)
    dead = []
    size = _backend._chunk_step(nus.size)
    for i in range(0, nus.size, size):
        chunk = nus[i : i + size]
        om = omegas[_backend._within_reach(chunk, omegas, lam, period)]
        step = chunk.size
        if om.size >= _backend._CHUNK:
            step = _backend._chunk_step(chunk.size, _backend._SPAN)
        for p in range(0, chunk.size, step):
            d, _ = _backend._offsets(chunk[p : p + step], om, period)
            top = ((d * c) * d).max(axis=1)
            dead.extend(top[np.exp(top) == 0.0])
    return np.array(dead)


class TestDeadOwnRows:
    """Every line's own image is evaluated in one dense pass, so a row whose
    own terms are all exactly +0.0 adds them, where the every-term sum adds
    0.0 + 0.0: the output keeps its bits."""

    @pytest.mark.parametrize("lam, period, wrap", [
        (0.01, None, 0), (0.001, None, 0), (0.01, 3.0, 1), (0.001, 0.7, 1),
        (0.001, 0.7, 2)])
    def test_rows_across_the_underflow_band(self, lam, period, wrap):
        # one chunk of 256 points with about 600 lines within its reach, so
        # cut into spans of 64: per span the lines beside the other spans
        # are dead, at own arguments from -745 to -3 200 at lam = 0.01 and,
        # at lam = 0.001, down to -3.1e5 (plain) or -2.6e4 (P = 0.7, whose
        # wrapped offsets stay within P/2)
        nus = np.linspace(0.0, 1.0, _backend._CHUNK)
        omegas = np.linspace(-0.05, 1.05, 600)
        weights = np.linspace(0.5, 1.5, 600)
        dead = _dead_own_rows(nus, omegas, lam, period)
        assert ((dead > -5000.0) & (dead < -745.2)).sum() > 100
        assert (dead < -5000.0).any() == (lam < 0.01)
        if lam < 0.01:
            assert dead.min() < -20_000.0
        _assert_bitwise(nus, omegas, weights, lam, period, wrap)

    @pytest.mark.parametrize("size", [1, 100])
    def test_rows_at_the_reach(self, size):
        # a span of one point or of a whole chunk (fewer than _CHUNK lines)
        # keeps the lines within _REACH lam of its points, so a dead own row
        # sits at the cut-off: lines within a few ulp of the reach either
        # side of the span, where fl(fl(d c) d) falls below -_UNDERFLOW
        lam = 0.01
        nus = np.linspace(0.0, 1.0, size) if size > 1 else np.array([0.0])
        reach = _backend._REACH * lam * (1.0 + np.arange(-8, 9) * _backend._EPS)
        omegas = np.concatenate([nus[0] - reach, nus[-1] + reach, [0.5]])
        weights = np.linspace(0.5, 1.5, omegas.size)
        assert (_dead_own_rows(nus, omegas, lam) < -_backend._UNDERFLOW).any()
        assert (_dead_own_rows(nus, omegas, lam, 10.0) < -_backend._UNDERFLOW).any()
        _assert_bitwise(nus, omegas, weights, lam)
        for wrap in (0, 1):
            _assert_bitwise(nus, omegas, weights, lam, 10.0, wrap)


class TestTinyLam:
    """gaussian_transform refuses a lam whose exponent scale c = -1/(2
    lam^2) is not finite: below about 1.5e-162 lam^2 is 0.0 and the scale
    divided by zero, and up to about 5.3e-155 it is -inf, which made a grid
    point on a line NaN."""

    def test_refused_below_the_least_finite_scale(self):
        # lam^2 is nondecreasing in lam; at sqrt(2^-1025) it rounds to at
        # most 2^-1025, whose -0.5 / lam^2 overflows
        least = math.sqrt(2.0**-1025)
        while not math.isfinite(-0.5 / (least * least)):
            least = float(np.nextafter(least, 1.0))
        assert 5.27e-155 < least < 5.28e-155
        args = ([0.0, 0.25], [0.0, 0.5], [1.0, 1.0])
        for lam in (float(np.nextafter(least, 0.0)), 1e-156, 1.5e-162, 1e-300, 5e-324):
            for periodic in ((), (2.0, 1)):
                with pytest.raises(ValueError, match="^" + re.escape(f"lam={lam} is too small")):
                    gaussian_transform(*args, lam, *periodic)
        for periodic in ((), (2.0, 1)):
            with np.errstate(over="ignore"):  # x c is -inf beyond |x| = 1
                got = gaussian_transform(*args, least, *periodic)
            assert got.tolist() == [1.0 / (math.sqrt(2.0 * math.pi) * least), 0.0]

    def test_narrow_kernel_overflows_nothing(self):
        # at lam = 1e-154, c is about -5e307, and (d c) d overflows to -inf
        # for |d| above about 1.3, as do _live_lines' bounds of an image
        # shift, whose exp is 0.0 and which decide right. The overflow warns
        # nowhere, and every value keeps its bits: the plain and the
        # periodic transform, with and without images, equal every term
        # evaluated with the overflow let through
        nus, omegas, weights = np.array([0.0, 3.0]), np.array([0.0, 0.5]), np.ones(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exact_transform(DiscreteSpectrum(omegas, weights), 1e-154, nus).values
            periodic = gaussian_transform(nus, omegas, weights, 1e-154, 8.0, 0)
            images = gaussian_transform(nus, omegas, weights, 1e-154, 2.0, 1)
        with np.errstate(over="ignore"):
            assert same_bits(got, _every_term(nus, omegas, weights, 1e-154))
            assert same_bits(periodic, _every_term(nus, omegas, weights, 1e-154, 8.0))
            assert same_bits(images, _every_term(nus, omegas, weights, 1e-154, 2.0, 1))
        assert got.tolist() == [1.0 / (math.sqrt(2.0 * math.pi) * 1e-154), 0.0]


class TestImageCount:
    """image_count is the least k >= 0 with (k + 1/2) P >= R (1 + 4 eps), R
    = sqrt(2 * 745.2) lam: every image it leaves out has only terms that are
    exactly 0.0, so the kernel at that count is bitwise the kernel at any
    larger one."""

    @staticmethod
    def _reach(lam):
        return math.sqrt(2.0 * 745.2) * lam * (1.0 + 4 * float(np.finfo(float).eps))

    @pytest.mark.parametrize("lam", [0.0065901, 0.05, 0.33, 1.0, 3.7e-4])
    def test_least_count_whose_first_left_out_image_vanishes(self, lam):
        # one ulp either side of each boundary, the least float P with
        # fl((k + 1/2) P) >= R; the first image left out, at (k + 1/2) P,
        # has a term of exactly 0.0, while one count fewer misses the rule,
        # and its first left-out image moved 1e-4 nearer has a nonzero
        # term: the count is tight to within the underflow margin
        reach = self._reach(lam)
        for k in range(6):
            edge = reach / (k + 0.5)
            while (k + 0.5) * edge < reach:
                edge = np.nextafter(edge, np.inf)
            while (k + 0.5) * np.nextafter(edge, 0.0) >= reach:
                edge = np.nextafter(edge, 0.0)
            below, above = np.nextafter(edge, 0.0), edge
            assert (image_count(lam, below), image_count(lam, above)) == (k + 1, k)
            for period in (below, edge, np.nextafter(edge, np.inf)):
                n = image_count(lam, period)
                assert type(n) is int
                assert math.exp(-((n + 0.5) * period) ** 2 / (2 * lam**2)) == 0.0
                if n:
                    assert (n - 0.5) * period < reach
                    near = (n - 0.5) * period * (1 - 1e-4)
                    assert math.exp(-near**2 / (2 * lam**2)) > 0.0

    def test_no_image_beyond_twice_the_reach(self):
        for lam in (0.0065901, 0.33, 2.0):
            r0 = math.sqrt(2.0 * 745.2) * lam
            for period in (2 * r0 * (1 + 1e-12), 10 * r0, 2 * 7987.5, 1e300):
                assert image_count(lam, period) == 0
            assert image_count(lam, 2 * r0 * (1 - 1e-12)) == 1

    def test_model_a_loosest_sweep_row(self):
        # the eps_p = 0.1 row of model A's sweep: 1.5 P lies 0.19% beyond
        # the reach, so one image on each side
        row = _default_sweep()[1][9]
        reach = self._reach(row[3])
        assert row[5] == 1 and reach < 1.5 * row[4] < 1.002 * reach

    def test_kernel_at_the_count_is_the_kernel_at_more_images(self):
        # seeded random lines, lam / P up to 1 (39 images on each side)
        nus = np.linspace(-2.5, 2.5, 300)
        for seed, (lam, period) in enumerate(
            ((0.01, 0.3), (0.05, 0.9), (0.2, 0.9), (0.5, 0.6), (0.9, 0.9))
        ):
            s = random_spectrum(40 + seed, n=120, norm_scale=2.0)
            args = (nus, s.eigenfrequencies, s.weights, lam, period)
            k = image_count(lam, period)
            got = gaussian_transform(*args, k)
            for more in (1, 4):
                assert same_bits(got, gaussian_transform(*args, k + more))

    def test_benchmark_transforms_match_one_image(self):
        # the 20 periodic transforms of the default sweep and the 24 of
        # coverage_sweep, whose plans summed one image on each side before
        # the count followed the underflow reach: 11 now sum none
        rows = _default_sweep()[1] + _coverage_rows()
        assert len(rows) == 44 and sorted(r[5] for r in rows).count(0) == 11
        for *args, k in rows:
            assert k <= 1
            assert same_bits(gaussian_transform(*args, k),
                             gaussian_transform(*args, 1))


def _live(ds, shifts, c):
    """_live_lines of lines that each sit at one offset d, as lists; shifts
    are those of the images j != 0."""
    ends = np.array([ds, ds], dtype=np.float64)
    return [rows.tolist() for rows in _backend._live_lines(ends, shifts, c)]


class TestAbsorbedImages:
    """An image j != 0 whose argument is at least 40 below the line's own
    term's is left out: the own image is added first, so the image's term
    rounds away alone, or it is exactly 0.0 where the own term is
    subnormal or 0.0. Each image, left or right of 0, goes by its own
    test."""

    def test_rule_at_the_cutoffs(self):
        # c = -1/2, P = 8: image +1's excess argument c P (P - 2 d) is -40
        # exactly at d = -1, where the image goes, and image -1's at d = 1.
        # At the offsets where the excess is the float next to -40 on
        # either side, the image stays above it and goes below it
        c, shifts = -0.5, [-8.0, 8.0]
        above, below = ((8.0 - np.nextafter(10.0, x)) / 2 for x in (0.0, 11.0))
        assert ((8.0 - 2 * above) * (8.0 * c), (8.0 - 2 * below) * (8.0 * c)) == (
            np.nextafter(-40.0, 0.0), np.nextafter(-40.0, -41.0))
        assert _live([above, -1.0, below], shifts, c) == [[0, 1, 2], [0]]
        assert _live([-above, 1.0, -below], shifts, c) == [[0], [0, 1, 2]]
        # a NaN offset keeps every image
        assert _live([np.nan], shifts, c) == [[0]] * 2

    def test_zero_test_on_an_image_that_is_not_absorbed(self):
        # c = -1/2, P = 1, a line at d = 39 (own argument -760.5): image -1
        # (x = 40, argument -800) is not absorbed (excess -39.5) but every
        # term is 0.0; image +1 (x = 38, argument -722) stays. Lines whose
        # image -1 sits at arguments just above and below -_UNDERFLOW
        # stay and go with it
        assert _live([39.0], [-1.0, 1.0], -0.5) == [[], [0]]
        edge = math.sqrt(2.0 * _backend._UNDERFLOW) - 1.0
        ds = [edge - 1e-9, edge + 1e-9]
        assert [(d + 1.0) * -0.5 * (d + 1.0) < -750.0 for d in ds] == [False, True]
        assert _live(ds, [-1.0, 1.0], -0.5) == [[0], [0, 1]]

    @pytest.mark.parametrize("lo", [-37.7, -39.0])
    def test_subnormal_or_zero_own_term_at_a_span_end(self, lo):
        # lam = 1, P = 74, one line at 0 and one span of grid points from lo
        # to 36. Image +1 is absorbed at both ends (excess -74 at nu = 36)
        # and live there (argument -722, a subnormal term), while the own
        # term at nu = lo is subnormal (-710.6) or 0.0 (-760.5). The image
        # is left out and every point stays bitwise the every-term sum
        c, period = -0.5, 74.0
        own = math.exp((lo * c) * lo)
        assert own == 0.0 if lo < -38.6 else 0.0 < own < np.finfo(float).tiny
        ends = np.array([[lo], [36.0]])
        live = _backend._live_lines(ends, [-period, period], c)
        assert [rows.tolist() for rows in live] == [[0], []]
        nus = np.linspace(lo, 36.0, 257)
        assert _backend._chunk_step(nus.size) == nus.size
        for wrap in (1, 2):
            _assert_bitwise(nus, [0.0], [1.0], 1.0, period, wrap)

    @pytest.mark.parametrize("wrap", [2, 3])
    def test_each_image_goes_alone(self, wrap):
        # c = -1/2, P = 8, lines at d = -3.875, -2, 2. Image -1 stays at
        # -3.875 (excess -1) and -2 (-16) and goes at 2 (-48); image -2
        # goes at -3.875 (-66) though image -1 stays. Image +1 stays only
        # at 2 (-16); image +2 and beyond go everywhere
        shifts = [8.0 * j for i in range(1, wrap + 1) for j in (-i, i)]
        ds = [-3.875, -2.0, 2.0]
        assert _live(ds, shifts, -0.5) == [[0, 1], [2]] + [[]] * (2 * wrap - 2)
        _assert_bitwise(np.array([0.0]), -np.array(ds), [0.5, 1.0, 1.5], 1.0, 8.0, wrap)

    @pytest.mark.parametrize("wrap", [1, 2, 3])
    def test_bitwise_across_the_cutoffs(self, wrap):
        # lines on a fine lattice of offsets through both cutoffs of each
        # image, for lam = 1 and P = 8 (the excess -40 of image -1 at d =
        # 1, of image +1 at d = -1) and for a lam and P that put the line's
        # own argument near -700 where image +1 is absorbed and still live;
        # spans of one point and of a whole chunk
        for lam, period, edge in ((1.0, 8.0, 1.0), (0.85524, 65.0, 32.0)):
            ds = edge + np.linspace(-1e-3, 1e-3, 41)
            omegas = np.unique(np.concatenate([-ds, ds, np.linspace(-4.0, 4.0, 97)]))
            for nus in (np.array([0.0]), np.linspace(-0.01, 0.01, 300)):
                _assert_bitwise(nus, omegas, np.linspace(0.5, 1.5, omegas.size),
                                lam, period, wrap)


class TestAliasFree:
    """alias_free is True only where the grid's extent [lo, hi] and the
    lines' [a, b] give hi - lo + m < P/2, a + P - hi > m and lo - (b - P) >
    m, with m the kernel's reach plus 8 eps S. On every input exact_transform
    with a period is bitwise the periodic kernel, and where alias_free is
    True that is bitwise the plain curve."""

    @staticmethod
    def _lines(period, extra=()):
        rng = np.random.default_rng(30)
        lines = rng.uniform(-period / 2, period / 2, 4096)
        return np.unique(np.concatenate([lines, extra]))

    @staticmethod
    def _assert_answer(nus, omegas, lam, period, wrap, free):
        omegas = np.sort(omegas)
        weights = np.linspace(0.5, 1.5, omegas.size)
        assert _backend.alias_free(nus, omegas, lam, period) == free
        plain = gaussian_transform(nus, omegas, weights, lam)
        wrapped = _assert_bitwise(nus, omegas, weights, lam, period, wrap)
        spectrum = DiscreteSpectrum(omegas, weights, norm_scale=np.abs(omegas).max())
        params = PeriodicKernelParams(period, wrap)
        curve = exact_transform(spectrum, lam, nus, periodic=params)
        assert curve.kind == "exact_periodic" and same_bits(curve.values, wrapped)
        if free:
            assert same_bits(plain, wrapped)
        return plain, wrapped

    def test_norm_bound_plan(self):
        # the norm-bound plan's period 2 norm_scale keeps every image of
        # lines inside the period away from the window [0, 400]; lines
        # where the nearest-image index turns at a grid end, P/2 - 400 and
        # P/2 one ulp either side, are out of reach of the grid
        period, lam = 2 * 7987.5, 0.33
        nus = np.linspace(0.0, 400.0, 1024)
        turns = np.array([400.0 - period / 2, period / 2])
        edges = np.concatenate([turns, np.nextafter(turns, -np.inf),
                                np.nextafter(turns, np.inf)])
        omegas = self._lines(period, edges)
        for wrap in (1, 2):
            self._assert_answer(nus, omegas, lam, period, wrap, True)
            self._assert_answer(-nus[::-1], -omegas[::-1], lam, period, wrap, True)

    def test_norm_bound_line_sets(self):
        # both line sets of the norm-bound benchmark, 4 096 midpoint lines
        # and 4 096 seeded random ones on [-h, h], on the window [0, 400]
        # and reflected
        h = 7987.5
        kernel = KernelSpec.from_resolution(1.0, 0.01, h)
        plan = make_plan("general", kernel, ErrorBudget(0.01, 0.01, 0.05, 1.0, 0.05),
                         chi_mode="nyquist")
        params = PeriodicKernelParams.from_period(plan.period, kernel)
        assert (plan.period, params.wrap_count) == (2 * h, 0)
        nus = np.linspace(0.0, 400.0, 1024)
        random = np.unique(np.random.default_rng(2525).uniform(-h, h, 4096))
        for omegas in (midpoint_grid(4096, h), random):
            self._assert_answer(nus, omegas, kernel.lam, plan.period, 1, True)
            self._assert_answer(-nus[::-1], -omegas[::-1], kernel.lam,
                                plan.period, 1, True)

    def test_nearest_image_turns_within_reach(self):
        # lines at +-(P/2 - g), one ulp either side, on the grid [-g, g]:
        # at the far grid end their offset is +-P/2, where the nearest-image
        # index turns. hi - lo + m = 2 g + m exceeds P/2, so the extent rule
        # refuses them all. With lam = 1/2 their images are dead, and where
        # the index stays 0 the kernel is still the plain curve; with lam = 1
        # the image there is as near as the line itself, live and not
        # absorbed
        period, g = 40.0, 1.0
        nus = np.linspace(-g, g, 257)
        edge = period / 2 - g
        for lines, narrow in ((np.array([-edge, np.nextafter(-edge, 0.0)]), True),
                              (np.array([edge, np.nextafter(edge, 0.0)]), True),
                              (np.array([np.nextafter(-edge, -99.0)]), False),
                              (np.array([np.nextafter(edge, 99.0)]), False)):
            for line in lines:
                plain, wrapped = self._assert_answer(
                    nus, np.array([-0.5, 0.5, line]), 0.5, period, 1, False)
                assert same_bits(plain, wrapped) or not narrow
            plain, wrapped = self._assert_answer(nus, lines, 1.0, period, 1, False)
            assert not np.array_equal(plain, wrapped)
        # on the grid [0, g] a line at 19.5 has offsets -19.5 to -18.5,
        # index 0 and dead images, but g + m exceeds P/2: refused, and the
        # kernel gives the plain curve
        plain, wrapped = self._assert_answer(np.linspace(0.0, g, 129), np.array([19.5]),
                                             0.5, period, 1, False)
        assert same_bits(plain, wrapped)

    def test_image_exactly_at_the_reach(self):
        # a line far from the grid whose image w - P lies at the reach of
        # the grid's one chunk: where _within_reach keeps it, the periodic
        # line set differs from the plain one; one ulp further out neither
        # keeps it. Either way the image lies within m of the grid, so the
        # extent rule refuses both; all of its terms are 0.0, so the kernel
        # gives the plain curve on both
        lam, period = 0.02, 4.0
        nus = np.linspace(-0.5, 0.5, 300)
        kept = lambda w: _backend._within_reach(nus, np.array([w]), lam, period).size
        w = period - (_backend._REACH * lam + 0.5)
        while kept(w):
            w = np.nextafter(w, -np.inf)
        while not kept(np.nextafter(w, np.inf)):
            w = np.nextafter(w, np.inf)
        pair = np.array([w, np.nextafter(w, np.inf)])
        assert not _backend._within_reach(nus, pair, lam).size
        for line in pair:
            plain, wrapped = self._assert_answer(nus, np.array([0.0, line]), lam,
                                                 period, 1, False)
            assert same_bits(plain, wrapped)

    def test_absorbed_images_count_as_plain(self):
        # lam = 1, P = 30, lines on [-4, 4], grid [-1, 1]: image +-1 is live
        # (argument above -600) but absorbed, so the kernel gives the plain
        # curve; the reach, 38.7, exceeds P/2, so the extent rule refuses
        rng = np.random.default_rng(31)
        omegas = np.sort(rng.uniform(-4.0, 4.0, 300))
        nus = np.linspace(-1.0, 1.0, 2 * _backend._CHUNK + 3)
        for wrap in (1, 3):
            plain, wrapped = self._assert_answer(nus, omegas, 1.0, 30.0, wrap, False)
            assert same_bits(plain, wrapped)
        # a period of 12 lets image +-1 reach past absorption
        self._assert_answer(nus, omegas, 1.0, 12.0, 3, False)
        # P = 66, a line at 31.9: at nu = -1 image -1 (x = 33.1, argument
        # -548) is live and not absorbed (excess -6.6), though the line's
        # own term is as small; the periodic sum differs in the last bits
        plain, wrapped = self._assert_answer(nus, np.array([31.9]), 1.0, 66.0, 1, False)
        assert not np.array_equal(plain, wrapped)

    def test_reach_sets_differ(self):
        # a line out of reach of the plain grid whose image comes within
        # reach: the line sets differ, so the answer is False
        lam, period = 0.02, 2.0
        nus = np.linspace(0.9, 1.0, 300)
        omegas = np.array([-0.95, 0.95])
        self._assert_answer(nus, omegas, lam, period, 1, False)

    def test_each_inequality_one_ulp_either_side(self):
        # P = 64 is the largest extent, and lam is set so that m = R + 8
        # eps 64 is exactly 2. Each case holds two tests with room to spare
        # and moves one grid end so that the third test's left side, in the
        # rule's float arithmetic, is the float below m (P/2 for the first
        # test), m itself or the float above it: alias_free is True only
        # where that test holds strictly. On each input exact_transform is
        # the periodic kernel and, where alias_free says so, the plain one
        period, u = 64.0, 2.0**-52
        lam = 2.0 / _backend._REACH
        margin = lambda lam: _backend._REACH * lam + 8 * np.finfo(np.float64).eps * period
        while margin(lam) > 2.0:
            lam = np.nextafter(lam, 0.0)
        m = margin(lam)
        assert m == 2.0
        near = np.array([-0.99 * _backend._REACH * lam, 0.5])
        below, above = np.nextafter(m, 0.0), np.nextafter(m, 4.0)
        # hi - lo + m < P/2 on the grid [0, hi], a line just inside the
        # reach left of it, whose offset at hi nears P/2
        for hi, side, free in ((30.0 - 16 * u, np.nextafter(32.0, 0.0), True),
                               (30.0, 32.0, False),
                               (30.0 + 32 * u, np.nextafter(32.0, 64.0), False)):
            assert hi - 0.0 + m == side
            self._assert_answer(np.linspace(0.0, hi, 300), near, lam, period, 1, free)
        # a + P - hi > m: the image a + P of the line a = -61 nears the grid
        # [-1, hi]; lo - (b - P) > m: the image b - P of b = 61 nears [lo, 1]
        for end, side, free in ((u, above, True), (0.0, m, False), (-u / 2, below, False)):
            hi, lo = 1.0 - 2 * end, -1.0 + 2 * end
            assert (-61.0 + period - hi, lo - (61.0 - period)) == (side, side)
            self._assert_answer(np.linspace(-1.0, hi, 300), np.array([-61.0, -0.3, 0.5]),
                                lam, period, 1, free)
            self._assert_answer(np.linspace(lo, 1.0, 300), np.array([-0.5, 0.3, 61.0]),
                                lam, period, 1, free)

    def test_rounding_allowance(self):
        # a reach of eps/2 (lam = eps / (2 _REACH)), P = 3, the grid [1, 1]
        # and a line a at the float next to -2 toward 0: in the rule's
        # arithmetic its image a + P lies eps beyond the grid, beyond the
        # reach, but the kernel rounds the offset 1 - a to 3, which puts
        # that image on the grid point: a term of 1, at weight 0.5. Without
        # the allowance 8 eps S the rule would call this alias-free; with
        # it, it refuses
        lam, period = np.finfo(np.float64).eps / (2 * _backend._REACH), 3.0
        nus, line = np.array([1.0]), np.nextafter(-2.0, 0.0)
        assert line + period - 1.0 > _backend._REACH * lam
        plain, wrapped = self._assert_answer(nus, np.array([line]), lam, period, 1,
                                             False)
        assert plain[0] == 0.0 and wrapped[0] == 0.5 / (math.sqrt(2 * math.pi) * lam)

    def test_nan_and_empty_grids(self):
        # a NaN grid point, wherever it sits, fails the rule; the kernel
        # then runs and keeps the NaN in its own point. An empty grid is
        # alias-free, and the periodic call returns an empty curve
        omegas = np.linspace(-3.0, 3.0, 50)
        nus = np.linspace(-1.0, 1.0, 300)
        assert _backend.alias_free(nus, omegas, 0.05, 100.0)
        for at in (0, 150, 299):
            grid = nus.copy()
            grid[at] = np.nan
            _, wrapped = self._assert_answer(grid, omegas, 0.05, 100.0, 1, False)
            assert np.isnan(wrapped[at]) and np.isfinite(np.delete(wrapped, at)).all()
        assert not _backend.alias_free(np.full(3, np.nan), omegas, 0.05, 100.0)
        for period, wrap in ((100.0, 1), (0.5, 4)):
            _, wrapped = self._assert_answer(np.empty(0), omegas, 0.05, period, wrap, True)
            assert wrapped.shape == (0,)

    def test_random_inputs(self):
        # 2 400 seeded inputs around the rule's edges: periods over four
        # decades, reaches from about a hundredth of the period to twice
        # it, grids up to P/2 wide, extreme lines whose images come within
        # half a reach to three reaches of the grid, lines near the reach
        # and near P/2 from the grid ends, wrap counts 1 to 3.
        # Wherever alias_free is True the periodic kernel is bitwise the
        # plain one; the rule says True in about a third of them
        rng = np.random.default_rng(2031)
        free = 0
        for _ in range(2400):
            period = 10.0 ** rng.uniform(-1.0, 3.0)
            lam = period * 10.0 ** rng.uniform(-3.5, -1.3)
            reach = _backend._REACH * lam
            lo = period * rng.uniform(-2.0, 2.0)
            hi = lo + period * rng.uniform(0.0, 0.5)
            nus = np.linspace(lo, hi, rng.integers(1, 300))
            if rng.random() < 0.3:
                nus = rng.permutation(nus)
            a = hi - period + reach * rng.uniform(0.5, 3.0)
            b = lo + period - reach * rng.uniform(0.5, 3.0)
            a, b = min(a, b), max(a, b)
            near = np.concatenate([[lo - reach, hi + reach, lo + period / 2,
                                    hi - period / 2]
                                   + reach * rng.uniform(-0.2, 0.2, 4),
                                   rng.uniform(a, b, rng.integers(0, 40))])
            omegas = np.unique(np.concatenate([[a, b], near[(near >= a) & (near <= b)]]))
            weights = rng.uniform(0.5, 1.5, omegas.size)
            if _backend.alias_free(nus, omegas, lam, period):
                free += 1
                wrapped = gaussian_transform(nus, omegas, weights, lam, period,
                                             rng.integers(1, 4))
                assert same_bits(wrapped, gaussian_transform(nus, omegas, weights, lam))
        assert 600 <= free <= 1800


class TestDispatch:
    def test_active_backend_consistent(self):
        assert active_backend() == "numpy"

    def test_import_loads_numpy_only(self):
        # numpy is the only runtime dependency: importing the package and
        # its CLI loads no top-level module outside the stdlib but numpy
        code = (
            "import sys; before = set(sys.modules); "
            "import fouriergit, fouriergit.cli; "
            "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(*sorted(loaded - set(sys.stdlib_module_names)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=package_env(),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["fouriergit", "numpy"]

    def test_numpy_is_the_only_declared_dependency(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
        assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]

    def test_fft_loaded_only_on_the_uniform_path(self):
        # numpy imports numpy.fft lazily; a process whose moments never
        # qualify for the FFT or the NUFFT path does not pay for that import
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

    def test_nufft_set_up_is_lazy(self):
        # the NUFFT path imports numpy.fft and builds its deconvolution
        # table only when a call reaches past block 0, once per process
        code = (
            "import sys, numpy as np; "
            "from fouriergit import DiscreteSpectrum, _backend, exact_moments; "
            "state = lambda: print('numpy.fft' in sys.modules, "
            "_backend._deconvolution.cache_info().misses); "
            "rng = np.random.default_rng(3); "
            "s = DiscreteSpectrum(np.sort(rng.uniform(-1, 1, 1024)), np.ones(1024)); "
            "state(); exact_moments(s, 27.98, 100); state(); "
            "exact_moments(s, 27.98, 200); state(); "
            "exact_moments(s, 27.98, 300); state()"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=package_env(),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "0"] * 2 + ["True", "1"] * 2
