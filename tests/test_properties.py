"""Property tests of the planners on generated moment summaries.

Hypothesis draws what the planners may be told about a spectrum: mu0 from
1e-3 to 1e4, a mean inside the window, a spread, central orders 3 to 8,
both window terms and every shots mode. The runs are derandomized, so
every run checks the same examples.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fouriergit import (
    ErrorBudget,
    FormulaValidityError,
    FrequencyWindow,
    KernelSpec,
    MomentSummary,
    make_plan,
    serialize,
)
from fouriergit.cli import main
from fouriergit.planner import _SHOTS_MODES, _WINDOW_TERM_MODES

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
    options = {
        "window_term": draw(st.sampled_from(_WINDOW_TERM_MODES)),
        "shots_mode": draw(st.sampled_from(_SHOTS_MODES)),
        "simplified": method != "general" and draw(st.booleans()),
    }
    return method, moments, order, window, options


def _flags(method, moments, order, window, options):
    argv = ["plan", "--method", method, f"--mu0={moments.mu0!r}",
            "--window", repr(window.nu_min), repr(window.nu_max),
            "--window-term", options["window_term"],
            "--shots-mode", options["shots_mode"]]
    if method != "general":
        argv.append(f"--mu1={moments.mu1!r}")
    if method == "variance":
        argv.append(f"--sigma={moments.sigma!r}")
    if method == "central":
        argv += ["--central-order", str(order),
                 f"--central-value={moments.central[order]!r}"]
    if options["simplified"]:
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
