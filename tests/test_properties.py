"""Property tests of the planners on generated moment summaries and
spectra.

Hypothesis draws what the planners may be told about a spectrum: mu0 from
1e-3 to 1e4, a mean inside the window, a spread, central orders 3 to 8,
every shots mode and the mode flags each method reads. It also draws normalized spectra
whose plans are measured: two lines at the window edges, and quantile grids
of a normal. A last test interleaves memoized calls on such inputs. The
runs are derandomized, so every run checks the same examples.
"""

import contextlib
import io
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fouriergit import (
    DiscreteSpectrum,
    ErrorBudget,
    FormulaValidityError,
    FourierMomentSet,
    FrequencyWindow,
    KernelSpec,
    MomentSummary,
    PeriodicKernelParams,
    _backend,
    error_report,
    exact_moments,
    make_plan,
    reconstruct,
    serialize,
    summarize,
)
from fouriergit.cli import main
from fouriergit.planner import _CHI_MODES, _SHOTS_MODES, _WINDOW_TERM_MODES

from conftest import random_spectrum, same_bits

KERNEL = KernelSpec.from_resolution(0.02, 0.01, 1.0)
BUDGET = ErrorBudget(0.01, 0.01, 0.05, 2.0 / 512.0, 0.05)  # the CLI defaults

_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     max_examples=60)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _windows(draw):
    """A window on a 1/64 grid inside [-1, 1] (short exact flag texts)."""
    lo = draw(st.integers(-64, 56))
    hi = draw(st.integers(lo + 1, 64))
    return FrequencyWindow(lo / 64.0, hi / 64.0)


@st.composite
def _requests(draw):
    """A method, a summary holding what that method reads, a window and
    the plan options."""
    method = draw(st.sampled_from(["general", "variance", "central"]))
    window = draw(_windows())
    mu0 = draw(_log_uniform(1e-3, 1e4))
    mu1 = window.nu_min + draw(st.floats(0.0, 1.0)) * window.span
    order = draw(st.integers(3, 8))
    moments = {
        "general": MomentSummary(mu0=mu0),
        "variance": MomentSummary(mu0=mu0, mu1=mu1,
                                  sigma=draw(_log_uniform(1e-3, 1.0))),
        "central": MomentSummary(mu0=mu0, mu1=mu1, central={
            order: mu0 * draw(_log_uniform(1e-3, 1.0)) ** order}),
    }[method]
    # only the mode flags the method reads, each unset (the library's
    # default) or set; --window-term only without --simplified
    options = {"shots_mode": draw(st.sampled_from(_SHOTS_MODES))}
    if method == "general":
        options["chi_mode"] = draw(st.sampled_from((None, *_CHI_MODES)))
    else:
        options["simplified"] = draw(st.sampled_from((None, False, True)))
        if not options["simplified"]:
            options["window_term"] = draw(
                st.sampled_from((None, *_WINDOW_TERM_MODES)))
    options = {k: v for k, v in options.items() if v is not None}
    return method, moments, order, window, options


def _flags(method, moments, order, window, options):
    argv = ["plan", "--method", method, f"--mu0={moments.mu0!r}",
            "--window", repr(window.nu_min), repr(window.nu_max),
            "--shots-mode", options["shots_mode"]]
    for key in ("chi_mode", "window_term"):
        if key in options:
            argv += ["--" + key.replace("_", "-"), options[key]]
    if method != "general":
        argv.append(f"--mu1={moments.mu1!r}")
    if method == "variance":
        argv.append(f"--sigma={moments.sigma!r}")
    if method == "central":
        argv += ["--central-order", str(order),
                 f"--central-value={moments.central[order]!r}"]
    if options.get("simplified"):
        argv.append("--simplified")
    return argv


@pytest.mark.filterwarnings("ignore::fouriergit.NoSavingWarning")
@_SETTINGS
@given(_requests())
def test_cli_prints_the_library_plan(req):
    # the flags build the same one summary the library is given
    method, moments, order, window, options = req
    try:
        plan = make_plan(method, KERNEL, BUDGET, window=window,
                         moments=moments, central_order=order, **options)
    except FormulaValidityError:
        plan = None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_flags(*req))
    out = out.getvalue()
    if plan is None:
        assert (code, out) == (2, "")
    else:
        assert (code, out) == (0, serialize.plan_to_text(plan))


@pytest.mark.filterwarnings("ignore::fouriergit.NoSavingWarning")
@_SETTINGS
@given(_windows(), st.integers(0, 2**20), _log_uniform(1e-3, 1e4),
       st.integers(3, 8), _log_uniform(1e-3, 1.0))
def test_min_window_term_is_max_on_the_narrower_window(
    window, where, mu0, order, spread
):
    # window_term=min budgets eps_p only on [mu1 - d, mu1 + d], d the
    # shorter distance from the mean to a window edge: there it is the max
    # plan. The mean sits on a 2^-26 grid, so the edge distances are exact.
    mu1 = window.nu_min + math.ldexp(where, -20) * window.span
    d = min(mu1 - window.nu_min, window.nu_max - mu1)
    narrow = FrequencyWindow(mu1 - d, mu1 + d)
    for method, moments in (
        ("variance", MomentSummary(mu0=mu0, mu1=mu1, sigma=spread)),
        ("central", MomentSummary(mu0=mu0, mu1=mu1,
                                  central={order: mu0 * spread**order})),
    ):
        a, b = (make_plan(method, KERNEL, BUDGET, window=w, moments=moments,
                          central_order=order, window_term=mode)
                for w, mode in ((window, "min"), (narrow, "max")))
        assert (a.period, a.chi, a.n_terms) == (b.period, b.chi, b.n_terms)
        assert (a.shots_per_moment, a.total_shots) == (
            b.shots_per_moment, b.total_shots)
        assert a.inputs_echo["window_term"] == b.inputs_echo["window_term"] == d


def _at_scale(draw, window, lines, weights):
    """The window and the spectrum of the given lines, all times a
    norm_scale drawn log-uniformly from 1e-3 to 1e4, and that scale."""
    scale = draw(_log_uniform(1e-3, 1e4))
    window = FrequencyWindow(window.nu_min * scale, window.nu_max * scale)
    lines = np.multiply(lines, scale)
    return scale, window, DiscreteSpectrum(lines, weights, norm_scale=scale)


@st.composite
def _edge_pairs(draw):
    """A window and a normalized two-line spectrum on its two edges, at a
    drawn norm scale."""
    window = draw(_windows())
    p = draw(_log_uniform(1e-4, 0.5))
    if draw(st.booleans()):
        p = 1.0 - p
    return _at_scale(draw, window, [window.nu_min, window.nu_max], [p, 1.0 - p])


@st.composite
def _normal_quantiles(draw):
    """A window and a normalized spectrum of equal weights on the midpoint
    quantiles of a normal whose mean lies inside the window and whose
    outer quantiles lie inside [-1, 1], at a drawn norm scale."""
    window = draw(_windows())
    mean = window.nu_min + draw(st.floats(0.01, 0.99)) * window.span
    n_lines = draw(st.integers(2, 512))
    widest = (1.0 - abs(mean)) / statistics.NormalDist().inv_cdf(1 - 0.5 / n_lines)
    normal = statistics.NormalDist(mean, widest * draw(_log_uniform(1e-3, 0.5)))
    lines = [normal.inv_cdf((k + 0.5) / n_lines) for k in range(n_lines)]
    return _at_scale(draw, window, lines, np.full(n_lines, 1.0 / n_lines))


@pytest.mark.parametrize("n_grid", [257, 1024])
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.one_of(_edge_pairs(), _normal_quantiles()))
def test_measured_truncation_error_within_budget(n_grid, case):
    # truncation_bound is rigorous, so the measured eps_n of a variance
    # plan stays within its budget on any normalized spectrum, at any norm
    # scale: the lines, the window, delta and omega_scale scale together.
    # 257 points are one resummation chunk, whose x table is held; 1 024
    # are four
    scale, window, spectrum = case
    kernel = KernelSpec.from_resolution(0.02 * scale, 0.01, scale)
    budget = ErrorBudget(0.01, 0.01, 0.05, 2.0 / 512.0 * scale, 0.05)
    plan = make_plan("variance", kernel, budget, window=window,
                     moments=summarize(spectrum))
    report = error_report(spectrum, plan, kernel, window, budget, n_grid=n_grid)
    assert report.eps_n_measured <= budget.eps_n


_MEMO_PERIOD = PeriodicKernelParams.from_period(0.5, KERNEL)
# one resummation chunk, whose x table is held, and two chunks
_MEMO_GRIDS = (np.linspace(-1.0, -0.5, 257), np.linspace(-1.0, 1.0, 520))
_MEMO_ORDERS = (20, 140)  # one block and two blocks


def _one_ulp(array, k):
    """A copy of array with entry k moved one ulp up, read-only."""
    out = array.copy()
    out.real[k] = np.nextafter(out.real[k], np.inf)
    out.setflags(write=False)
    return out


def _written(array, k):
    """array with entry k moved one ulp up in place: its owner, array or
    the base of a value object's frozen view, made writable, written and
    made read-only again."""
    owner = array if array.base is None else array.base
    owner.setflags(write=True)
    owner.real[k] = np.nextafter(owner.real[k], np.inf)
    owner.setflags(write=False)
    return array


def _cold_series(grid, moments, n_terms):
    """The resummation with its x-table memo emptied for the call and
    restored after, so that the result is the kernel's own."""
    held = dict(_backend._memos)
    _backend._memos.clear()
    try:
        return _backend.reconstruct_series(
            grid, moments.values, _MEMO_PERIOD.dt, KERNEL.lam,
            _MEMO_PERIOD.period, n_terms,
        )
    finally:
        _backend._memos.clear()
        _backend._memos.update(held)


_CHANGES = st.sampled_from(["same", "copy", "ulp", "write"])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(
    st.tuples(st.sampled_from(["moments", "reconstruct"]), _CHANGES, _CHANGES,
              st.integers(0, 15), st.sampled_from(_MEMO_ORDERS),
              st.sampled_from(range(len(_MEMO_GRIDS)))),
    min_size=1, max_size=12,
))
def test_memos_return_the_fresh_kernel_result(calls):
    # exact_moments, reconstruct and the x table each hold their last call
    # keyed on content: an equal copy hits, and a one-ulp change or an
    # input written in place and frozen again misses. Every result, held
    # or computed, is bitwise what the kernels compute afresh. A call
    # changes the spectrum, or the grid and the moment set, each alone
    start = random_spectrum(3, n=16, normalized=True)
    spectrum = DiscreteSpectrum(start.eigenfrequencies, start.weights)
    moments = exact_moments(spectrum, _MEMO_PERIOD.dt, max(_MEMO_ORDERS))
    grids = [g.copy() for g in _MEMO_GRIDS]
    for call, change, moment_change, k, n_terms, which in calls:
        if call == "moments":
            lines, weights = spectrum.eigenfrequencies, spectrum.weights
            if change == "copy":
                spectrum = DiscreteSpectrum(lines.copy(), weights.copy())
            elif change == "ulp":
                spectrum = DiscreteSpectrum(lines, _one_ulp(weights, k))
            elif change == "write":
                _written(weights, k)
            moments = exact_moments(spectrum, _MEMO_PERIOD.dt, n_terms)
            assert same_bits(moments.values, _backend.phase_moment_sums(
                spectrum.eigenfrequencies, spectrum.weights, _MEMO_PERIOD.dt,
                n_terms))
            continue
        grid = grids[which]
        if change == "copy":
            grid = grids[which] = grid.copy()
        elif change == "ulp":
            grid = grids[which] = _one_ulp(grid, k)
        elif change == "write":
            _written(grid, k)
        if moment_change != "same":
            # a set of its own, so that the held exact set stays unwritten
            values = moments.values
            if moment_change == "ulp":
                values = _one_ulp(values, k)
            moments = FourierMomentSet(moments.dt, values, "exact", moments.mu0)
            if moment_change == "write":
                _written(moments.values, k)
        n_terms = min(n_terms, moments.n_max)
        curve = reconstruct(moments, KERNEL, _MEMO_PERIOD, n_terms, grid)
        assert same_bits(curve.values, _cold_series(grid, moments, n_terms))
