"""Property tests of the planners on generated moment summaries.

Hypothesis draws what the planners may be told about a spectrum: mu0 from
1e-3 to 1e4, a mean inside the window, a spread, central orders 3 to 8,
every window term and shots mode. The runs are derandomized, so every run
checks the same examples.
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
@given(_windows(), _log_uniform(1e-3, 1e4), st.floats(0.0, 1.0),
       _log_uniform(1e-6, 1.0), st.sampled_from(_WINDOW_TERM_MODES),
       st.booleans())
def test_central_order_two_is_the_variance_plan(
    window, mu0, where, central_value, window_term, simplified
):
    # order 2 delegates with sigma = sqrt(mu~_2 / mu0)
    mu1 = window.nu_min + where * window.span
    central = MomentSummary(mu0=mu0, mu1=mu1, central={2: central_value})
    variance = MomentSummary(mu0=mu0, mu1=mu1,
                             sigma=math.sqrt(central_value / mu0))
    plans = []
    for method, moments in (("central", central), ("variance", variance)):
        try:
            plans.append(make_plan(
                method, KERNEL, BUDGET, window=window, moments=moments,
                central_order=2, window_term=window_term,
                simplified=simplified,
            ))
        except FormulaValidityError as exc:
            plans.append(str(exc))
    a, b = plans
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
    else:
        assert (a.period, a.chi, a.n_terms) == (b.period, b.chi, b.n_terms)
        assert (a.shots_per_moment, a.total_shots) == (
            b.shots_per_moment, b.total_shots)
