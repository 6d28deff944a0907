import math
import re

import numpy as np
import pytest

import fouriergit as fg
from fouriergit._domain import (
    FINITE,
    NONNEGATIVE,
    POSITIVE,
    UNIT,
    at_least,
    check,
)

DOMAINS = [FINITE, POSITIVE, NONNEGATIVE, UNIT, at_least(0), at_least(2)]


class TestCheck:
    @pytest.mark.parametrize(
        "value", [3, 3.0, np.int64(3), np.uint8(3), np.float32(3)]
    )
    def test_integral_values_pass_as_int(self, value):
        got = check("k", value, at_least(0))
        assert got == 3 and type(got) is int

    def test_big_integer_passes(self):
        assert check("k", 10**400, at_least(1)) == 10**400

    @pytest.mark.parametrize("value", [3.7, math.inf, -math.inf, math.nan])
    def test_non_integral_numbers_refused(self, value):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {value}$"):
            check("k", value, at_least(0))

    @pytest.mark.parametrize("value", [True, "10", None, 1j])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_non_numbers_refused(self, value, domain):
        what = "an integer" if domain.integer else "a number"
        with pytest.raises(ValueError, match=f"^k must be {what}, got "):
            check("k", value, domain)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_outside_values_refused(self, domain):
        for text in domain.outside:
            value = float(text)
            with pytest.raises(ValueError, match="^k must be "):
                check("k", value, domain)

    @pytest.mark.parametrize(
        "domain, inside, outside",
        [
            (FINITE, [-1e308, 0.0, 5e-324], [math.inf, -math.inf, math.nan]),
            (POSITIVE, [5e-324, 1e308], [0.0, -1.0, math.inf, math.nan]),
            (NONNEGATIVE, [0.0, 1e308], [-5e-324, math.inf, math.nan]),
            (UNIT, [5e-324, 0.5, 1 - 1e-16], [0.0, 1.0, -0.5, math.nan]),
            (at_least(2), [2, 10**20], [1, 0, -3]),
        ],
    )
    def test_boundaries(self, domain, inside, outside):
        for value in inside:
            assert check("k", value, domain) == value
        for value in outside:
            match = f"^k must be {re.escape(domain.text)}, got "
            with pytest.raises(ValueError, match=match):
                check("k", value, domain)

    def test_float_values_come_back_unchanged(self):
        value = np.float64(0.25)
        assert check("x", value, POSITIVE) is value


def _kernel():
    return fg.KernelSpec.from_resolution(0.02, 0.01)


def _budget():
    return fg.ErrorBudget(0.01, 0.01, 0.05, 2.0 / 512.0)


def _window():
    return fg.FrequencyWindow(-1.0, -0.8)


def _central(order):
    """A summary that knows the central moment of the given order."""
    return fg.MomentSummary(mu0=1.0, mu1=-0.9, central={order: 1e-4})


def _reconstruct(n_terms):
    model = fg.make_model("A")
    periodic = fg.PeriodicKernelParams.from_period(0.25, _kernel())
    moments = fg.exact_moments(model, periodic.dt, 4)
    return fg.reconstruct(moments, _kernel(), periodic, n_terms, [-0.9, -0.8])


def _error_report(n_grid):
    model = fg.make_model("A")
    plan = fg.make_plan("general", _kernel(), _budget())
    return fg.error_report(
        model, plan, _kernel(), _window(), _budget(), n_grid=n_grid
    )


# Integer inputs that used to be truncated (n_eigen=2.5 gave a 3-line
# model), accepted as floats, or ended in an OverflowError (inf) or a
# TypeError (n_grid=2.5); each is refused by name.
INTEGER_SITES = {
    "n_eigen": lambda v: fg.make_model("A", n_eigen=v),
    "midpoint_grid": lambda v: fg.midpoint_grid(v),
    "n_terms": _reconstruct,
    "shots_value": lambda v: fg.shots_value(v, 2.0, _kernel(), _budget()),
    "truncation_bound": lambda v: fg.truncation_bound(v, 1.0, 0.01),
    "wrap_count": lambda v: fg.PeriodicKernelParams(
        period=1.0, chi=1.0, dt=2 * math.pi, wrap_count=v
    ),
    "energy_moment": lambda v: fg.energy_moment(fg.make_model("A"), v),
    "central_moment": lambda v: fg.central_moment(fg.make_model("A"), v),
    "summarize": lambda v: fg.summarize(fg.make_model("A"), orders=(v,)),
    "chi_with_central_moment": lambda v: fg.chi_with_central_moment(
        v, _kernel(), _budget(), _central(v), _window()
    ),
    "make_plan": lambda v: fg.make_plan(
        "central", _kernel(), _budget(), window=_window(),
        moments=_central(v), central_order=v,
    ),
    "error_report": _error_report,
    "exact_moments": lambda v: fg.exact_moments(fg.make_model("A"), 1.0, v),
    "sampled_moments": lambda v: fg.sampled_moments(
        fg.make_model("A"), 1.0, 3, shots_per_part=v, seed=0
    ),
    "seed": lambda v: fg.sampled_moments(
        fg.make_model("A"), 1.0, 3, shots_per_part=10, seed=v
    ),
}

NAMES = {
    "midpoint_grid": "n_eigen", "shots_value": "n_terms",
    "truncation_bound": "n_terms", "energy_moment": "n",
    "central_moment": "n", "summarize": "order",
    "chi_with_central_moment": "order", "make_plan": "central_order",
    "error_report": "n_grid", "exact_moments": "n_max",
    "sampled_moments": "shots_per_part",
}


@pytest.mark.parametrize("value", [2.5, math.inf, math.nan, True])
@pytest.mark.parametrize("site", list(INTEGER_SITES))
def test_integer_inputs_refused_by_name(site, value):
    name = NAMES.get(site, site)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        INTEGER_SITES[site](value)


@pytest.mark.parametrize("site", ["n_eigen", "energy_moment", "exact_moments"])
def test_integral_floats_accepted(site):
    from_float, from_int = INTEGER_SITES[site](4.0), INTEGER_SITES[site](4)
    if isinstance(from_int, fg.DiscreteSpectrum):
        assert np.array_equal(from_float.weights, from_int.weights)
    elif isinstance(from_int, fg.FourierMomentSet):
        assert np.array_equal(from_float.values, from_int.values)
    else:
        assert from_float == from_int
