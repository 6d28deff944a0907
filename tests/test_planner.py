import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from fouriergit import (
    DiscreteSpectrum,
    ErrorBudget,
    ExtensionPlan,
    FormulaValidityError,
    FrequencyWindow,
    KernelSpec,
    MomentSummary,
    NoSavingWarning,
    PeriodChoice,
    chi_general,
    chi_with_central_moment,
    chi_with_variance,
    error_report,
    make_plan,
    n_terms,
    shots_value,
    summarize,
    tail_leakage_bound,
    truncation_bound,
)

from conftest import OMEGA_MODEL


def test_sqrt_log_is_floored_at_one():
    from fouriergit.planner import _sqrt_log

    assert _sqrt_log(0.5) == _sqrt_log(1.0) == 0.0
    assert _sqrt_log(1.2) == math.sqrt(math.log(1.2))


class TestBudgetAndWindow:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ErrorBudget(0.0, 0.01, 0.05, 0.01)
        with pytest.raises(ValueError):
            ErrorBudget(0.01, -1.0, 0.05, 0.01)
        with pytest.raises(ValueError):
            ErrorBudget(0.01, 0.01, 0.05, 0.01, confidence_delta=1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", range(4))
    def test_budget_refuses_non_finite(self, field, bad):
        values = [0.01, 0.01, 0.05, 0.01]
        values[field] = bad
        name = ("eps_p", "eps_n", "eps_s", "omega_scale")[field]
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            ErrorBudget(*values)

    def test_window(self):
        w = FrequencyWindow(-1.0, -0.8)
        assert w.span == pytest.approx(0.2)
        assert FrequencyWindow(0.5, 0.5).span == 0.0
        with pytest.raises(ValueError):
            FrequencyWindow(0.5, 0.4)

    @pytest.mark.parametrize(
        "bounds", [(-math.inf, math.inf), (math.nan, math.nan), (0.0, math.inf)]
    )
    def test_window_refuses_non_finite(self, bounds):
        # (-inf, inf) used to be accepted, and (nan, nan) was refused with
        # a message about ordering
        name = "nu_min" if not math.isfinite(bounds[0]) else "nu_max"
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            FrequencyWindow(*bounds)

    @pytest.mark.parametrize("field, value", [("period", math.inf),
                                              ("chi", -4.0), ("chi", math.nan)])
    def test_plan_refuses_period_and_chi_outside_domain(self, field, value):
        values = dict(period=0.25, chi=0.25, n_terms=25, shots_per_moment=10,
                      total_shots=500, method="variance")
        values[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            ExtensionPlan(**values)


class TestChiGeneral:
    def test_reference_value(self, kernel001, budget001):
        choice = chi_general(kernel001, budget001)
        assert choice.chi == pytest.approx(2.0203661379485744, rel=1e-14)
        assert choice.period == pytest.approx(2.0203661379485744, rel=1e-14)
        assert choice.method == "general"

    def test_against_high_precision(self, kernel001, budget001):
        with mp.workdps(50):
            lam = mp.mpf(0.02) / mp.sqrt(2 * mp.log(100))
            om = mp.mpf(2) / 512
            want = 2 + mp.sqrt(2) * lam * mp.sqrt(mp.log(2 * om / (mp.mpf("0.01") * lam)))
            assert chi_general(kernel001, budget001).chi == pytest.approx(
                float(want), rel=1e-14
            )

    def test_floor_at_two(self, kernel001):
        # once the aliasing budget is loose enough the log correction
        # vanishes and the bare twofold extension remains
        loose = ErrorBudget(1.5, 0.01, 0.05, OMEGA_MODEL)
        assert chi_general(kernel001, loose).chi == 2.0

    def test_nyquist_mode(self, kernel001, budget001):
        choice = chi_general(kernel001, budget001, mode="nyquist")
        assert choice.chi == 2.0
        assert choice.period == 2.0

    def test_full_mode_is_sharper_here(self, kernel001, budget001, window_model):
        full = chi_general(kernel001, budget001, mode="full", window=window_model)
        main = chi_general(kernel001, budget001, mode="main")
        assert full.period == pytest.approx(2.0183214641860063, rel=1e-13)
        assert full.period < main.period

    def test_full_mode_requires_window(self, kernel001, budget001):
        with pytest.raises(ValueError):
            chi_general(kernel001, budget001, mode="full")

    def test_full_mode_scale_relation(self):
        # delta, norm_scale, window and omega_scale times 8 keep chi and
        # multiply the period by 8, within 4 ulp
        def choice(s):
            return chi_general(
                KernelSpec.from_resolution(0.02 * s, 0.01, s),
                ErrorBudget(0.01, 0.01, 0.05, s * OMEGA_MODEL), mode="full",
                window=FrequencyWindow(-s, -0.8 * s),
            )

        base, scaled = choice(1.0), choice(8.0)
        tol = 4 * np.finfo(np.float64).eps
        assert scaled.chi == pytest.approx(base.chi, rel=tol, abs=0.0)
        assert scaled.period == pytest.approx(8.0 * base.period, rel=tol, abs=0.0)
        for key in ("eta_spread", "window_term"):
            assert scaled.details[key] == pytest.approx(
                8.0 * base.details[key], rel=tol, abs=0.0)

    @pytest.mark.parametrize("mode", ["main", "full"])
    def test_subnormal_eps_p_plans(self, kernel001, window_model, mode):
        # eps_p lam underflows and the log argument overflows below about
        # eps_p = 6.5e-306; there the period takes the log as a sum of
        # logs. Against 40 digits on both sides of that edge and down to
        # the least subnormal, where period and chi used to come out inf
        # and eps_p = 5e-324 divided by zero
        omega, lam, h = 2.0 / 512.0, kernel001.lam, kernel001.norm_scale
        edge = 1e-306
        while math.isfinite(2.0 * omega / (edge * lam)):
            edge /= 2.0
        for eps in (2.0 * edge, edge, 1e-320, 5e-324):
            budget = ErrorBudget(eps, 0.01, 0.05, omega)
            got = chi_general(kernel001, budget, mode=mode, window=window_model)
            with mp.workdps(40):
                e, w, r = mp.mpf(eps), mp.mpf(omega), mp.sqrt(2) * mp.mpf(lam) / h
                if mode == "main":
                    want = (2 + r * mp.sqrt(mp.log(2 * w / (e * lam)))) * h
                else:  # plus the window term max(|nu_min|, nu_max) = 1
                    arg = (mp.sqrt(2 / mp.pi) / e * w / lam
                           * (1 + mp.sqrt(mp.pi / 2) * lam / h))
                    want = (1 + r * mp.sqrt(mp.log(arg))) * h + 1
            assert got.period == pytest.approx(float(want), rel=1e-14)

    def test_scales_with_norm(self, budget001):
        big = KernelSpec.from_resolution(1.0, 0.01, 7987.5)
        nb = ErrorBudget(0.01, 0.01, 0.05, 1.0)
        main = chi_general(big, nb, mode="main")
        assert main.period == pytest.approx(15976.179654151792, rel=1e-13)
        assert chi_general(big, nb, mode="nyquist").period == 15975.0

    def test_validation(self, kernel001, budget001):
        with pytest.raises(ValueError):
            chi_general(kernel001, budget001, mode="bogus")
        with pytest.raises(ValueError):
            chi_general(kernel001, budget001, mu0=0.0)


class TestChiWithVariance:
    def test_model_a_reference(self, kernel001, budget001, stats_a, window_model):
        choice = chi_with_variance(kernel001, budget001, stats_a, window_model)
        assert choice.period == pytest.approx(0.2245524730455948, rel=1e-13)
        general = chi_general(kernel001, budget001)
        assert choice.period / general.period == pytest.approx(0.1111, abs=3e-3)
        assert choice.method == "variance"

    def test_model_b_reference(self, kernel001, budget001, stats_b, window_model):
        choice = chi_with_variance(kernel001, budget001, stats_b, window_model)
        assert choice.period == pytest.approx(0.2817499593207571, rel=1e-13)
        general = chi_general(kernel001, budget001)
        assert choice.period / general.period == pytest.approx(0.1395, abs=5e-3)

    def test_details_decompose_period(
        self, kernel001, budget001, stats_a, window_model
    ):
        choice = chi_with_variance(kernel001, budget001, stats_a, window_model)
        d = choice.details
        assert d["alpha_spread"] + d["eta_spread"] + d["window_term"] == pytest.approx(
            choice.period, rel=1e-14
        )
        assert d["alpha_spread"] == pytest.approx(0.09209115918366362, rel=1e-13)
        assert d["eta_spread"] == pytest.approx(0.021580823328423506, rel=1e-13)
        assert d["window_term"] == pytest.approx(
            window_model.nu_max - stats_a.mu1, rel=1e-13
        )
        assert d["alpha"] == d["alpha_spread"] / stats_a.sigma
        assert d["eta"] == d["eta_spread"] / d["alpha_spread"]

    def test_window_term_modes(self):
        # min budgets eps_p only on [mu1 - d, mu1 + d], d the shorter
        # distance from the mean to an edge: the quasi-elastic plan with
        # min on [0, 400] is the max plan on [0, 2 mu1] = [0, 170.39]
        kernel = KernelSpec.from_resolution(1.0, 0.01, 400.0)
        budget = ErrorBudget(0.01, 0.01, 0.05, 1.0)
        moments = MomentSummary(mu0=1.0, mu1=400.0**2 / (2.0 * 939.0),
                                sigma=250.0)
        narrow = FrequencyWindow(0.0, 2.0 * moments.mu1)
        assert narrow.nu_max == pytest.approx(170.39, abs=5e-3)
        plans = [
            make_plan("variance", kernel, budget, window=window,
                      moments=moments, window_term=mode)
            for window, mode in ((FrequencyWindow(0.0, 400.0), "min"),
                                 (narrow, "max"), (narrow, "min"))
        ]
        assert plans[0].period == pytest.approx(320.8798099436653, rel=1e-13)
        assert plans[0].n_terms == 852
        for plan in plans[1:]:
            assert (plan.period, plan.chi, plan.n_terms) == (
                plans[0].period, plans[0].chi, plans[0].n_terms)
            assert (plan.shots_per_moment, plan.total_shots) == (
                plans[0].shots_per_moment, plans[0].total_shots)
        wide = make_plan("variance", kernel, budget,
                         window=FrequencyWindow(0.0, 400.0), moments=moments)
        assert wide.n_terms == 1461

    def test_quasielastic_reference(self):
        kernel = KernelSpec.from_resolution(1.0, 0.01, 400.0)
        budget = ErrorBudget(0.01, 0.01, 0.05, 1.0)
        window = FrequencyWindow(0.0, 400.0)
        moments = MomentSummary(
            mu0=1.0, mu1=400.0**2 / (2.0 * 939.0), sigma=250.0,
            central={2: 250.0**2},
        )
        lo = chi_with_variance(kernel, budget, moments, window, window_term="min")
        hi = chi_with_variance(kernel, budget, moments, window, window_term="max")
        assert lo.period == pytest.approx(320.8798099436653, rel=1e-13)
        assert n_terms(lo.chi, kernel, budget) == 852
        assert n_terms(hi.chi, kernel, budget) == 1461

    def test_resonance_reference(self):
        kernel = KernelSpec.from_resolution(1.0, 0.01, 100.0)
        budget = ErrorBudget(0.01, 0.01, 0.05, 1.0)
        window = FrequencyWindow(0.0, 100.0)
        moments = MomentSummary(mu0=1.0, mu1=20.0, sigma=22.0, central={2: 484.0})
        choice = chi_with_variance(kernel, budget, moments, window)
        assert choice.period == pytest.approx(127.6169360276151, rel=1e-13)
        assert n_terms(choice.chi, kernel, budget) == 339

    def test_unknown_window_term_refused(
        self, kernel001, budget001, stats_a, window_model
    ):
        with pytest.raises(ValueError, match=(
            r"^window_term must be one of \('max', 'min'\), got 'bogus'$")):
            make_plan("variance", kernel001, budget001, window=window_model,
                      moments=stats_a, window_term="bogus")

    def test_rejects_pointlike_spectrum(self, kernel001, budget001, window_model):
        degenerate = MomentSummary(mu0=1.0, mu1=-0.9, sigma=0.0, central={2: 0.0})
        with pytest.raises(ValueError):
            chi_with_variance(kernel001, budget001, degenerate, window_model)

    def test_mean_must_be_inside_window(self, kernel001, budget001, stats_a):
        with pytest.raises(ValueError):
            chi_with_variance(
                kernel001, budget001, stats_a, FrequencyWindow(0.0, 0.5)
            )

    def test_warns_when_no_saving(self, kernel001):
        budget = ErrorBudget(0.001, 0.01, 0.05, OMEGA_MODEL)
        wide = MomentSummary(mu0=1.0, mu1=0.0, sigma=0.99, central={2: 0.9801})
        window = FrequencyWindow(-1.0, 1.0)
        with pytest.warns(NoSavingWarning) as record:
            line = sys._getframe().f_lineno + 1
            choice = chi_with_variance(kernel001, budget, wide, window)
        assert choice.period > chi_general(kernel001, budget).period
        # the warning names the line that asked for the period, whether it
        # called chi_with_variance or make_plan, not a line of the planner
        assert (record[0].filename, record[0].lineno) == (__file__, line)
        with pytest.warns(NoSavingWarning) as record:
            line = sys._getframe().f_lineno + 1
            plan = make_plan("variance", kernel001, budget, window, wide)
        assert plan.period == choice.period
        assert (record[0].filename, record[0].lineno) == (__file__, line)

    def test_narrow_spectrum_does_not_warn(
        self, kernel001, budget001, stats_a, window_model, recwarn
    ):
        chi_with_variance(kernel001, budget001, stats_a, window_model)
        assert not [w for w in recwarn if w.category is NoSavingWarning]

    def test_simplified_form(self, kernel001, budget001, stats_a, window_model):
        choice = chi_with_variance(
            kernel001, budget001, stats_a, window_model, simplified=True
        )
        want = (
            2.7
            * (OMEGA_MODEL * stats_a.sigma**2 / budget001.eps_p) ** (1.0 / 3.0)
            + window_model.span
        )
        assert choice.period == pytest.approx(want, rel=1e-14)
        assert choice.details["simplified"] is True

    def test_simplified_needs_wide_enough_spectrum(
        self, kernel001, budget001, window_model
    ):
        narrow = MomentSummary(
            mu0=1.0, mu1=-0.9, sigma=0.003, central={2: 9e-6}
        )
        with pytest.raises(FormulaValidityError):
            chi_with_variance(
                kernel001, budget001, narrow, window_model, simplified=True
            )
        # lam = 2 sigma exactly is still valid
        edge = MomentSummary(mu0=1.0, mu1=-0.9, sigma=kernel001.lam / 2)
        chi_with_variance(kernel001, budget001, edge, window_model, simplified=True)


class TestNonFiniteMomentInputs:
    """NaN or infinite moment inputs are refused by the planners instead of
    giving a wrong plan (NaN central value) or an OverflowError (infinite
    values) downstream."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["mu0", "mu1", "sigma"])
    def test_variance_refuses(
        self, kernel001, budget001, window_model, field, bad
    ):
        values = dict(mu0=1.0, mu1=-0.9, sigma=0.2)
        values[field] = bad
        moments = MomentSummary(**values, central={2: 0.04})
        with pytest.raises(ValueError, match=field):
            chi_with_variance(kernel001, budget001, moments, window_model)
        with pytest.raises(ValueError, match=field):
            make_plan(
                "variance", kernel001, budget001, window=window_model,
                moments=moments,
            )

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["central_value", "mu0", "mu1"])
    def test_central_refuses(
        self, kernel001, budget001, window_model, field, bad, order
    ):
        values = dict(central_value=1e-4, mu0=1.0, mu1=-0.9)
        values[field] = bad
        moments = MomentSummary(mu0=values["mu0"], mu1=values["mu1"],
                                central={order: values["central_value"]})
        with pytest.raises(ValueError, match=f"^{field} must be"):
            chi_with_central_moment(
                order, kernel001, budget001, moments, window_model
            )
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make_plan(
                "central", kernel001, budget001, window=window_model,
                moments=moments, central_order=order,
            )

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_general_refuses_mu0(self, kernel001, budget001, bad):
        with pytest.raises(ValueError, match="^mu0 must be positive and finite"):
            chi_general(kernel001, budget001, mu0=bad)
        with pytest.raises(ValueError, match="^mu0 must be positive and finite"):
            make_plan("general", kernel001, budget001,
                      moments=MomentSummary(mu0=bad))


class TestChiWithCentralMoment:
    def test_order_two_refused(self, kernel001, budget001, stats_a, window_model):
        # order 2 is the variance plan, with sigma = sqrt(mu~_2 / mu0)
        moments = MomentSummary(mu0=stats_a.mu0, mu1=stats_a.mu1,
                                central={2: stats_a.mu0 * stats_a.sigma**2})
        with pytest.raises(ValueError, match="^order must be >= 3, got 2$"):
            chi_with_central_moment(2, kernel001, budget001, moments,
                                    window_model)
        with pytest.raises(ValueError, match="^central_order must be >= 3, got 2$"):
            make_plan("central", kernel001, budget001, window=window_model,
                      moments=moments, central_order=2)

    def test_missing_order_refused_by_name(
        self, kernel001, budget001, stats_a, window_model
    ):
        with pytest.raises(ValueError,
                           match="^central_order must be an integer, got None$"):
            make_plan("central", kernel001, budget001, window=window_model,
                      moments=stats_a)

    def test_order_four_model_a(
        self, kernel001, budget001, model_a, stats_a, window_model
    ):
        from fouriergit import central_moment

        moments = MomentSummary(mu0=1.0, mu1=stats_a.mu1,
                                central={4: central_moment(model_a, 4)})
        choice = chi_with_central_moment(
            4, kernel001, budget001, moments, window_model
        )
        assert choice.period == pytest.approx(0.21787426997860904, rel=1e-13)
        assert choice.method == "central4"
        assert n_terms(choice.chi, kernel001, budget001) == 24

    def test_zero_central_value_stays_finite(
        self, kernel001, budget001, window_model
    ):
        moments = MomentSummary(mu0=1.0, mu1=-0.9, central={4: 0.0})
        choice = chi_with_central_moment(
            4, kernel001, budget001, moments, window_model
        )
        assert math.isfinite(choice.period)
        assert choice.period > 0
        assert choice.details["spread"] == 0.0
        plan = make_plan(
            "central", kernel001, budget001, window=window_model,
            moments=moments, central_order=4,
        )
        assert tail_leakage_bound(plan) == 0.0

    def test_zero_spread_gives_infinite_alpha_and_eta(self, kernel001, window_model):
        # mu~_4 = 0 and a budget loose enough that the Gaussian term is
        # floored at 0 leave alpha_spread 0: alpha and eta read inf
        budget = ErrorBudget(0.01, 0.01, 0.05, 1e-5)
        moments = MomentSummary(mu0=1.0, mu1=-0.9, central={4: 0.0})
        d = chi_with_central_moment(4, kernel001, budget, moments, window_model).details
        assert (d["spread"], d["alpha_spread"]) == (0.0, 0.0)
        assert d["alpha"] == d["eta"] == math.inf

    def test_higher_moment_on_peaked_spectrum_shrinks_period(
        self, kernel001, budget001, model_a, stats_a, window_model
    ):
        from fouriergit import central_moment

        p2 = chi_with_variance(
            kernel001, budget001, stats_a, window_model
        ).period
        p4 = chi_with_central_moment(
            4, kernel001, budget001,
            MomentSummary(mu0=1.0, mu1=stats_a.mu1,
                          central={4: central_moment(model_a, 4)}),
            window_model,
        ).period
        assert p4 < p2

    def test_simplified_form(self, kernel001, budget001, window_model):
        # P = 2.7 (Omega mu~_n / eps_p)^(1/(n+1)) + span, through order 15
        for order, value in ((4, 1e-6), (15, 1e-20)):
            moments = MomentSummary(mu0=1.0, mu1=-0.9, central={order: value})
            choice = chi_with_central_moment(
                order, kernel001, budget001, moments, window_model,
                simplified=True,
            )
            want = (2.7 * (OMEGA_MODEL * value / budget001.eps_p)
                    ** (1.0 / (order + 1)) + window_model.span)
            assert choice.period == pytest.approx(want, rel=1e-14)

    def test_simplified_form_holds_at_spread_equal_to_lam(self, budget001):
        # mu~_4 = 0.5^4 is exact, so spread = lam = 0.5 exactly
        kernel = KernelSpec(delta=2.0, sigma_leak=0.01, lam=0.5, norm_scale=10.0)
        moments = MomentSummary(mu0=1.0, mu1=0.0, central={4: 0.0625})
        choice = chi_with_central_moment(
            4, kernel, budget001, moments, FrequencyWindow(-1.0, 1.0),
            simplified=True,
        )
        assert choice.details["spread"] == kernel.lam

    def test_simplified_validity(self, kernel001, budget001, window_model):
        for order, value in ((16, 1e-4), (4, 1e-12)):
            moments = MomentSummary(mu0=1.0, mu1=-0.9, central={order: value})
            with pytest.raises(FormulaValidityError):
                chi_with_central_moment(
                    order, kernel001, budget001, moments, window_model,
                    simplified=True,
                )

    def test_validation(self, kernel001, budget001, window_model):
        for order, value in ((1, 0.1), (3, -0.1)):
            moments = MomentSummary(mu0=1.0, mu1=-0.9, central={order: value})
            with pytest.raises(ValueError):
                chi_with_central_moment(
                    order, kernel001, budget001, moments, window_model
                )

    def test_missing_order_named(self, kernel001, budget001, window_model):
        moments = MomentSummary(mu0=1.0, mu1=-0.9, central={2: 1e-3})
        with pytest.raises(
            ValueError, match="^moments carry no central moment of order 4$"
        ):
            chi_with_central_moment(4, kernel001, budget001, moments,
                                    window_model)


class TestSubnormalEpsPPowerForms:
    """The three power forms (X / eps_p) ** p of the period, the central
    Chebyshev term and the simplified central and variance periods, plan
    for every positive eps_p: where X / eps_p overflows, as (X / eps_p) **
    p = exp(p (log X - log eps_p)), against 40 digits; where it does not,
    bit for bit as before."""

    @staticmethod
    def _edge(x):
        # the largest power of two eps for which x / eps overflows
        eps = 1e-300
        while x / eps < math.inf:
            eps /= 2.0
        return eps

    @staticmethod
    def _choices(kernel, window, eps):
        budget = ErrorBudget(eps, 0.01, 0.05, OMEGA_MODEL)
        central = MomentSummary(mu0=1.0, mu1=-0.9, central={4: 1e-6})
        normal = MomentSummary(mu0=1.0, mu1=-0.9, sigma=0.03)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoSavingWarning)
            return (
                chi_with_central_moment(4, kernel, budget, central, window),
                chi_with_central_moment(4, kernel, budget, central, window,
                                        simplified=True),
                chi_with_variance(kernel, budget, normal, window, simplified=True),
            )

    def test_against_40_digits(self, kernel001, window_model):
        # at and below each form's overflow edge, down to the least
        # subnormal, where the periods used to come out inf
        omega, lam, span = OMEGA_MODEL, kernel001.lam, window_model.span
        for eps in (self._edge(omega * 0.03 * 0.03), self._edge(1e-6 * omega),
                    1e-320, 5e-324):
            cheb, simple, var = self._choices(kernel001, window_model, eps)
            with mp.workdps(40):
                e, w, lm = mp.mpf(eps), mp.mpf(omega), mp.mpf(lam)
                gauss = mp.sqrt(2) * lm * mp.sqrt(mp.log(4 * w / (e * lm)))
                power = (mp.mpf(1e-6) * w / e) ** (mp.mpf(1) / 5)
                eta = mp.sqrt(2) * lm * mp.sqrt(mp.log(
                    mp.sqrt(8 / mp.pi) / e * w / lm * (1 + mp.sqrt(mp.pi / 2))))
                wterm = mp.mpf(cheb.details["window_term"])
                want = (max(gauss, mp.sqrt(2) * mp.mpf(0.9) * power) + eta + wterm,
                        mp.mpf(2.7) * power + mp.mpf(span),
                        mp.mpf(2.7) * (w * mp.mpf(0.03) ** 2 / e) ** (mp.mpf(1) / 3)
                        + mp.mpf(span))
            for choice, period in zip((cheb, simple, var), want):
                assert 0.0 < choice.period < math.inf
                assert choice.period == pytest.approx(float(period), rel=1e-13)

    def test_bit_for_bit_where_the_ratio_is_finite(self, kernel001, window_model):
        # the least power of two above each edge, where the ratio is
        # finite: the variance ratio overflows at the first one
        omega, span = OMEGA_MODEL, window_model.span
        cheb_edge, var_edge = self._edge(1e-6 * omega), self._edge(omega * 0.03 * 0.03)
        for eps in (2 * cheb_edge, 2 * var_edge, 1e-300, 1e-3):
            cheb, simple, var = self._choices(kernel001, window_model, eps)
            power = (1e-6 * omega / eps) ** (1.0 / 5)
            assert cheb.details["alpha_spread"] == math.sqrt(2.0) * 0.9 * power
            assert simple.period == 2.7 * (omega * 1e-6 / eps) ** (1.0 / 5) + span
            if eps > var_edge:
                assert var.period == (2.7 * (omega * 0.03 * 0.03 / eps) ** (1.0 / 3.0)
                                      + span)


class TestNTerms:
    def test_reference_values(self, kernel001, budget001):
        chi = chi_general(kernel001, budget001).chi
        assert n_terms(chi, kernel001, budget001) == 218
        assert n_terms(chi, kernel001, budget001, mode="appendix") == 123

    def test_against_high_precision(self, kernel001, budget001):
        with mp.workdps(50):
            lam = mp.mpf(0.02) / mp.sqrt(2 * mp.log(100))
            om = mp.mpf(2) / 512
            chi = mp.mpf(repr(chi_general(kernel001, budget001).chi))
            want = mp.ceil(
                chi / (mp.sqrt(2 * mp.pi) * lam)
                * mp.sqrt(mp.log(mp.mpf("0.4") * om / (mp.mpf("0.01") * lam)))
            )
            assert n_terms(float(chi), kernel001, budget001) == int(want)

    def test_norm_bound_reference(self):
        big = KernelSpec.from_resolution(1.0, 0.01, 7987.5)
        budget = ErrorBudget(0.01, 0.01, 0.05, 1.0)
        nyq = chi_general(big, budget, mode="nyquist")
        assert n_terms(nyq.chi, big, budget) == 42371
        main = chi_general(big, budget, mode="main")
        assert n_terms(main.chi, big, budget) == 42374

    def test_linear_in_chi(self, kernel001, budget001):
        n1 = n_terms(1.0, kernel001, budget001)
        n3 = n_terms(3.0, kernel001, budget001)
        assert n3 == pytest.approx(3 * n1, abs=2)

    @pytest.mark.parametrize("mode", ["main", "appendix"])
    def test_count_that_is_not_a_finite_float_refused(self, kernel001, mode):
        # eps_n lam underflows to 0, so the log argument is infinite; this
        # used to end in an OverflowError from int(inf)
        budget = ErrorBudget(0.01, 1e-320, 0.05, OMEGA_MODEL)
        with pytest.raises(ValueError, match="^the harmonic count is not a finite"):
            n_terms(2.0, kernel001, budget, mode=mode)

    def test_loose_budget_raises(self, kernel001):
        loose = ErrorBudget(0.01, 0.5, 0.05, OMEGA_MODEL)
        with pytest.raises(FormulaValidityError):
            n_terms(2.0, kernel001, loose)
        # a log argument of exactly 1 is refused
        wide = KernelSpec(delta=10.0, sigma_leak=0.01, lam=1.0)
        with pytest.raises(FormulaValidityError, match="log argument 1.0 <= 1"):
            n_terms(2.0, wide, ErrorBudget(0.01, 1.0, 0.05, 2.5))
        # a log argument of 1.2, just above the floor, still gives a count
        eps_n = 0.4 * OMEGA_MODEL / (1.2 * kernel001.lam)
        near = ErrorBudget(0.01, eps_n, 0.05, OMEGA_MODEL)
        assert n_terms(2.0, kernel001, near) == math.ceil(
            2.0 / (math.sqrt(2 * math.pi) * kernel001.lam)
            * math.sqrt(math.log(1.2)))

    def test_validation(self, kernel001, budget001):
        with pytest.raises(ValueError):
            n_terms(2.0, kernel001, budget001, mode="bogus")
        with pytest.raises(ValueError):
            n_terms(0.0, kernel001, budget001)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_inputs_refused(self, kernel001, budget001, bad):
        # an infinite chi or appendix mu0 used to end in an OverflowError
        with pytest.raises(ValueError, match="^chi must be positive and finite"):
            n_terms(bad, kernel001, budget001)
        with pytest.raises(ValueError, match="^mu0 must be positive and finite"):
            n_terms(2.0, kernel001, budget001, mu0=bad, mode="appendix")


class TestTruncationBound:
    def test_reference_value(self, kernel001):
        assert truncation_bound(218, 2.0203661379485744, kernel001.lam) == \
            pytest.approx(0.00047830096713833597, rel=1e-12)

    def test_against_high_precision(self, kernel001):
        with mp.workdps(50):
            lam = mp.mpf(0.02) / mp.sqrt(2 * mp.log(100))
            p = mp.mpf("2.02")
            want = float(
                1 / (mp.sqrt(2 * mp.pi) * lam)
                * mp.erfc(mp.sqrt(2) * mp.pi * lam * 100 / p)
            )
            assert truncation_bound(100, 2.02, kernel001.lam) == pytest.approx(
                want, rel=1e-11
            )

    def test_zero_terms_gives_full_mass(self, kernel001):
        lam = kernel001.lam
        assert truncation_bound(0, 2.0, lam) == pytest.approx(
            1.0 / (math.sqrt(2 * math.pi) * lam), rel=1e-14
        )

    def test_monotone_decreasing(self, kernel001):
        vals = [truncation_bound(n, 2.0, kernel001.lam) for n in (0, 50, 100, 200)]
        assert vals == sorted(vals, reverse=True)

    def test_scales_with_mu0(self, kernel001):
        one = truncation_bound(100, 2.0, kernel001.lam, mu0=1.0)
        three = truncation_bound(100, 2.0, kernel001.lam, mu0=3.0)
        assert three == pytest.approx(3 * one, rel=1e-14)

    def test_planned_n_meets_eps_n(self, kernel001, budget001):
        # the harmonic count returned by the planner drives the bound
        # below the dimensionless truncation budget
        choice = chi_general(kernel001, budget001)
        n = n_terms(choice.chi, kernel001, budget001)
        bound = truncation_bound(n, choice.period, kernel001.lam)
        assert bound * budget001.omega_scale <= budget001.eps_n
        # one fewer decade of harmonics would not obviously do: the bound
        # at N/2 is far looser
        loose = truncation_bound(n // 2, choice.period, kernel001.lam)
        assert loose > bound


class TestShots:
    def test_reference_values(self, kernel001, budget001):
        plan = make_plan("general", kernel001, budget001)
        cons = shots_value(plan.n_terms, plan.chi, kernel001, budget001)
        assert cons == pytest.approx(113017.76289764755, rel=1e-12)
        assert plan.total_shots == 113018
        assert plan.shots_per_moment == 260

    def test_mode_ratios_exact(self, kernel001, budget001):
        plan = make_plan("general", kernel001, budget001)
        cons = shots_value(plan.n_terms, plan.chi, kernel001, budget001)
        cheb = shots_value(
            plan.n_terms, plan.chi, kernel001, budget001, mode="chebyshev"
        )
        unc = shots_value(
            plan.n_terms, plan.chi, kernel001, budget001, mode="uncorrelated"
        )
        assert cheb / cons == pytest.approx(2.0, rel=1e-12)
        assert unc / cons == pytest.approx(
            kernel001.lam / plan.chi, rel=1e-12
        )
        assert unc < cons

    def test_quadratic_in_targets(self, kernel001, budget001):
        plan = make_plan("general", kernel001, budget001)
        half = ErrorBudget(0.01, 0.01, 0.025, OMEGA_MODEL)
        s1 = shots_value(plan.n_terms, plan.chi, kernel001, budget001)
        s2 = shots_value(plan.n_terms, plan.chi, kernel001, half)
        assert s2 == pytest.approx(4 * s1, rel=1e-12)

    @pytest.mark.parametrize("mode", ["conservative", "uncorrelated"])
    def test_quadratic_in_weight(self, kernel001, budget001, mode):
        # the statistical error of Omega Phi grows with the total weight
        plan = make_plan("general", kernel001, budget001)
        s1, s3 = (shots_value(plan.n_terms, plan.chi, kernel001, budget001,
                              mu0=mu0, mode=mode) for mu0 in (1.0, 3.0))
        assert s3 == pytest.approx(9 * s1, rel=1e-12)

    def test_confidence_enters_logarithmically(self, kernel001, budget001):
        plan = make_plan("general", kernel001, budget001)
        tight = ErrorBudget(0.01, 0.01, 0.05, OMEGA_MODEL, confidence_delta=0.005)
        s1 = shots_value(plan.n_terms, plan.chi, kernel001, budget001)
        s2 = shots_value(plan.n_terms, plan.chi, kernel001, tight)
        assert s2 / s1 == pytest.approx(
            math.log(2 / 0.005) / math.log(2 / 0.05), rel=1e-12
        )

    def test_validation(self, kernel001, budget001):
        with pytest.raises(ValueError):
            shots_value(0, 2.0, kernel001, budget001)
        with pytest.raises(ValueError):
            shots_value(10, 2.0, kernel001, budget001, mode="bogus")

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_inputs_refused(self, kernel001, budget001, bad):
        # an infinite mu0 used to plan an infinite shot count
        with pytest.raises(ValueError, match="^mu0 must be positive and finite"):
            shots_value(218, 2.0, kernel001, budget001, mu0=bad)
        with pytest.raises(ValueError, match="^chi must be positive and finite"):
            shots_value(218, bad, kernel001, budget001, mode="uncorrelated")


    @pytest.mark.parametrize("lam_args, budget_args, mu0", [
        # lam^2 eps_s^2 underflows to 0
        ({}, {"eps_s": 1e-200}, 1.0),
        ({"delta": 1.0, "lam": 1e-200}, {}, 1.0),
        # a square overflows
        ({}, {"omega_scale": 1e160}, 1.0),
        ({}, {}, 1e200),
        # the total is infinite
        ({"delta": 1.0, "lam": 1e-160}, {}, 1.0),
        ({}, {"confidence_delta": 1e-320}, 1.0),
    ])
    @pytest.mark.parametrize("mode", ["conservative", "uncorrelated", "chebyshev"])
    def test_total_that_is_not_a_finite_float_refused(self, lam_args, budget_args,
                                                      mu0, mode):
        # extreme but in-domain budgets used to end in ZeroDivisionError or
        # OverflowError; shots_value and make_plan raise ValueError instead
        kernel = KernelSpec(**{"delta": 0.02, "sigma_leak": 0.01,
                               "lam": 0.006590102289822608, **lam_args})
        budget = ErrorBudget(**{"eps_p": 0.01, "eps_n": 0.01, "eps_s": 0.05,
                                "omega_scale": OMEGA_MODEL, **budget_args})
        if mode == "chebyshev" and mu0 != 1.0:
            return  # the chebyshev total does not read mu0
        match = "^the planned total shot count is not a finite float"
        if mode != "uncorrelated" or "lam" not in lam_args:  # lam, not lam^2
            with pytest.raises(ValueError, match=match):
                shots_value(218, 2.0, kernel, budget, mu0=mu0, mode=mode)
        # make_plan's term count grows as 1/lam, past the float range
        with pytest.raises(ValueError, match=match):
            make_plan("general", kernel, budget, moments=MomentSummary(mu0=mu0),
                      shots_mode=mode)

    def test_huge_term_count_refused(self, kernel001, budget001):
        # a term count past the float range cannot enter the product
        with pytest.raises(ValueError, match="^the planned total shot count"):
            shots_value(10**400, 2.0, kernel001, budget001)


class TestPeriodChoice:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_non_finite_or_nonpositive_refused(self, bad):
        with pytest.raises(ValueError, match="^period must be positive and finite"):
            PeriodChoice(bad, 2.0, "general")
        with pytest.raises(ValueError, match="^chi must be positive and finite"):
            PeriodChoice(2.0, bad, "general")


class TestTailLeakageBound:
    def test_variance_plan_reference(
        self, kernel001, budget001, stats_a, window_model
    ):
        plan = make_plan(
            "variance", kernel001, budget001, window=window_model, moments=stats_a
        )
        assert tail_leakage_bound(plan) == pytest.approx(
            0.0019889669900439748, rel=1e-12
        )

    def test_rejected_for_general_and_simplified(
        self, kernel001, budget001, stats_a, window_model
    ):
        with pytest.raises(ValueError):
            tail_leakage_bound(make_plan("general", kernel001, budget001))
        simp = make_plan(
            "variance", kernel001, budget001, window=window_model,
            moments=stats_a, simplified=True,
        )
        with pytest.raises(ValueError):
            tail_leakage_bound(simp)

    def test_below_budget_for_reference_models(
        self, kernel001, budget001, stats_a, stats_b, window_model
    ):
        for stats in (stats_a, stats_b):
            plan = make_plan(
                "variance", kernel001, budget001, window=window_model,
                moments=stats,
            )
            assert tail_leakage_bound(plan) <= budget001.eps_p

    # The eps_p budget assumes the weight beyond alpha spreads is spread
    # evenly over one period; one line carrying it breaks the budget, and
    # the smoothed estimate reads below the measurement.
    def test_resonance_two_point_counterexample(self):
        spectrum = DiscreteSpectrum([15.9, 127.6], [0.958, 0.042],
                                    norm_scale=7987.5)
        kernel = KernelSpec.from_resolution(1.0, 0.01, 7987.5)
        budget = ErrorBudget(0.01, 0.01, 0.05, 1.0)
        window = FrequencyWindow(0.0, 100.0)
        plan = make_plan("variance", kernel, budget, window=window,
                         moments=summarize(spectrum))
        assert plan.period == pytest.approx(127.594, abs=5e-4)
        assert plan.n_terms == 339
        measured = error_report(spectrum, plan, kernel, window, budget,
                                n_grid=4096).eps_p_measured
        assert measured == pytest.approx(0.0508, abs=5e-5)
        assert measured > budget.eps_p
        assert tail_leakage_bound(plan) == pytest.approx(0.00178, abs=5e-6)
        assert tail_leakage_bound(plan) < budget.eps_p

    def test_model_a_scale_two_point_counterexample(
        self, kernel001, budget001, stats_a, window_model
    ):
        spectrum = DiscreteSpectrum([-0.918, -0.776], [0.9493, 0.0507])
        plan = make_plan("variance", kernel001, budget001,
                         window=window_model, moments=stats_a)
        assert plan.n_terms == 25
        measured = error_report(spectrum, plan, kernel001, window_model,
                                budget001, n_grid=4096).eps_p_measured
        assert measured == pytest.approx(0.01195, abs=5e-6)
        assert measured > budget001.eps_p
        assert tail_leakage_bound(plan) == pytest.approx(0.00199, abs=5e-6)
        assert tail_leakage_bound(plan) < budget001.eps_p


class TestMakePlan:
    def test_general_plan_fields(self, kernel001, budget001):
        plan = make_plan("general", kernel001, budget001)
        assert plan.method == "general"
        assert plan.n_terms == 218
        assert plan.chi == pytest.approx(2.0203661379485744, rel=1e-14)
        assert plan.dt == pytest.approx(2 * math.pi / plan.period, rel=1e-15)

    def test_round_trips(self, kernel001, budget001, stats_a, window_model):
        plans = [
            make_plan("general", kernel001, budget001),
            make_plan("general", kernel001, budget001, window=window_model,
                      chi_mode="full"),
            make_plan("variance", kernel001, budget001, window=window_model,
                      moments=stats_a),
            make_plan("variance", kernel001, budget001, window=window_model,
                      moments=stats_a, simplified=True),
        ]
        for plan in plans:
            assert ExtensionPlan.from_dict(plan.to_dict()) == plan

    def test_central_plan_via_moments(
        self, kernel001, budget001, model_a, window_model
    ):
        stats4 = summarize(model_a, orders=(2, 3, 4))
        plan = make_plan(
            "central", kernel001, budget001, window=window_model,
            moments=stats4, central_order=4,
        )
        assert plan.method == "central4"
        assert plan.n_terms == 24
        assert ExtensionPlan.from_dict(plan.to_dict()) == plan

    @pytest.mark.parametrize("method, mode", [
        ("variance", {"chi_mode": "nyquist"}), ("central", {"chi_mode": "main"}),
        ("general", {"window_term": "min"}), ("general", {"simplified": True}),
        ("general", {"simplified": False})])
    def test_mode_the_method_does_not_read_refused(
        self, kernel001, budget001, stats_a, window_model, method, mode
    ):
        # each of these planned before, as if the mode were not given
        (key,) = mode
        order = {"central_order": 4} if method == "central" else {}
        with pytest.raises(ValueError, match=f"^{method} planning does not read {key}$"):
            make_plan(method, kernel001, budget001, window=window_model,
                      moments=stats_a, **order, **mode)

    @pytest.mark.parametrize("method", ["variance", "central"])
    def test_window_term_beside_simplified_refused(
        self, kernel001, budget001, stats_a, window_model, method
    ):
        order = {"central_order": 4} if method == "central" else {}
        args = (method, kernel001, budget001, window_model, stats_a)
        with pytest.raises(ValueError, match="^simplified planning does not read window_term$"):
            make_plan(*args, **order, window_term="max", simplified=True)
        assert (make_plan(*args, **order, window_term="min", simplified=False)
                == make_plan(*args, **order, window_term="min"))

    def test_unset_modes_take_their_defaults(
        self, kernel001, budget001, stats_a, window_model
    ):
        assert (make_plan("general", kernel001, budget001, chi_mode=None)
                == make_plan("general", kernel001, budget001, chi_mode="main"))
        for method, order in (("variance", {}), ("central", {"central_order": 4})):
            args = (method, kernel001, budget001, window_model, stats_a)
            plain = make_plan(*args, **order)
            assert plain == make_plan(*args, **order, window_term=None, simplified=None)
            assert plain == make_plan(*args, **order, window_term="max", simplified=False)

    def test_variance_beats_general_for_narrow_models(
        self, kernel001, budget001, stats_a, stats_b, window_model
    ):
        general = make_plan("general", kernel001, budget001)
        for stats in (stats_a, stats_b):
            plan = make_plan(
                "variance", kernel001, budget001, window=window_model,
                moments=stats,
            )
            assert plan.period < general.period
            assert plan.n_terms < general.n_terms
            assert plan.total_shots < general.total_shots

    def test_window_containment_enforced(self, kernel001, budget001):
        with pytest.raises(ValueError):
            make_plan(
                "general", kernel001, budget001,
                window=FrequencyWindow(-1.5, 0.0),
            )

    def test_missing_inputs_rejected(self, kernel001, budget001, window_model):
        with pytest.raises(ValueError):
            make_plan("variance", kernel001, budget001, window=window_model)
        with pytest.raises(ValueError):
            make_plan("central", kernel001, budget001, window=window_model)
        with pytest.raises(ValueError):
            make_plan("bogus", kernel001, budget001)

    def test_central_missing_order_in_summary(
        self, kernel001, budget001, model_a, window_model
    ):
        stats = summarize(model_a, orders=(2,))
        with pytest.raises(
            ValueError, match="^moments carry no central moment of order 6$"
        ):
            make_plan(
                "central", kernel001, budget001, window=window_model,
                moments=stats, central_order=6,
            )

    @pytest.mark.parametrize("method, extra", [
        ("variance", {"mu0": 50.0, "mu1": -0.85, "central_value": 1.0}),
        ("central", {"mu1": -0.85}),
        ("general", {"mu0": 3.0}),
    ])
    def test_separate_moment_arguments_refused(
        self, kernel001, budget001, model_a, window_model, method, extra
    ):
        # moment knowledge enters only through the summary; these calls
        # used to be ignored (variance), mix two spectra (central) or
        # override the summary (general)
        stats = summarize(model_a, orders=(2, 4))
        with pytest.raises(TypeError):
            make_plan(method, kernel001, budget001, window=window_model,
                      moments=stats, central_order=4, **extra)

    def test_each_method_reads_only_its_fields(
        self, kernel001, budget001, model_a, window_model
    ):
        stats = summarize(model_a, orders=(2, 4))
        known = {
            "general": MomentSummary(mu0=stats.mu0),
            "variance": MomentSummary(mu0=stats.mu0, mu1=stats.mu1,
                                      sigma=stats.sigma),
            "central": MomentSummary(mu0=stats.mu0, mu1=stats.mu1,
                                     central={4: stats.central[4]}),
        }
        for method, moments in known.items():
            full = make_plan(method, kernel001, budget001, window=window_model,
                             moments=stats, central_order=4)
            part = make_plan(method, kernel001, budget001, window=window_model,
                             moments=moments, central_order=4)
            assert part == full
        with pytest.raises(ValueError, match="^sigma must be a number, got None"):
            make_plan("variance", kernel001, budget001, window=window_model,
                      moments=known["central"])
        assert make_plan("general", kernel001, budget001) == make_plan(
            "general", kernel001, budget001, moments=MomentSummary(mu0=1.0)
        )

    @pytest.mark.parametrize("method, gauss", [("variance", 3.6), ("central", 4.0)])
    def test_scale_relation_with_gaussian_term_binding(self, method, gauss):
        # energies, window, delta, norm_scale and omega_scale times s = 8
        # keep n_terms and shots and multiply the period by s, in every
        # harmonic-count and shot mode. Two lines 1e-4 apart are far
        # narrower than lam, so the Gaussian term sqrt(2) lam sqrt(log(gauss
        # mu0 Omega / (eps_p lam))) sets alpha_spread; with omega_scale 1 at
        # s = 1, Omega entering that term in the wrong power breaks the
        # relation at s = 8 (29 variance terms become 28)
        def plan(s, weight=1.0, **modes):
            lines = DiscreteSpectrum(s * np.array([-0.9, -0.9 + 1e-4]),
                                     [0.5 * weight, 0.5 * weight], norm_scale=s)
            return make_plan(
                method, KernelSpec.from_resolution(0.02 * s, 0.01, s),
                ErrorBudget(0.01, 0.01, 0.05, s),
                window=FrequencyWindow(-s, -0.8 * s),
                moments=summarize(lines, orders=(2, 4)), central_order=4,
                **modes,
            )

        for n_mode in ("main", "appendix"):
            for shots_mode in ("conservative", "uncorrelated", "chebyshev"):
                modes = {"n_mode": n_mode, "shots_mode": shots_mode}
                base, scaled = plan(1.0, **modes), plan(8.0, **modes)
                lam = base.inputs_echo["lam"]
                b_gauss = math.sqrt(math.log(gauss / (0.01 * lam)))
                assert base.inputs_echo["alpha_spread"] == pytest.approx(
                    math.sqrt(2.0) * lam * b_gauss, rel=1e-15)
                assert base.n_terms == scaled.n_terms, modes
                assert (scaled.shots_per_moment, scaled.total_shots) == (
                    base.shots_per_moment, base.total_shots), modes
                # s is a power of two; 4 ulp cover the roundings of the cube
                # root and logarithm that do not scale exactly
                assert scaled.period == pytest.approx(
                    8.0 * base.period, rel=4 * np.finfo(np.float64).eps, abs=0.0)
        if method == "variance":
            assert plan(1.0).n_terms == 29
        # the Gaussian term grows with the total weight inside the log
        heavy = plan(1.0, weight=3.0).inputs_echo
        b_heavy = math.sqrt(math.log(gauss * 3.0 / (0.01 * heavy["lam"])))
        assert heavy["alpha_spread"] == pytest.approx(
            math.sqrt(2.0) * heavy["lam"] * b_heavy, rel=1e-15)

    @pytest.mark.parametrize("method", ["variance", "central"])
    def test_shift_relation(self, model_a, method):
        # every energy and the window plus c = 0.37, under a norm_scale of 2
        # that covers the shift: model A's variance and central(4) plans
        # keep n_terms and shots, and the period to within 16 eps relative,
        # the rounding of the shifted lines, mean and window edges (measured:
        # at most 4.2 eps over ten budgets)
        c = 0.37
        kernel = KernelSpec.from_resolution(0.02, 0.01, 2.0)

        def plan(shift, budget):
            lines = DiscreteSpectrum(model_a.eigenfrequencies + shift,
                                     model_a.weights, norm_scale=2.0)
            return make_plan(method, kernel, budget,
                             window=FrequencyWindow(-1.0 + shift, -0.8 + shift),
                             moments=summarize(lines, orders=(2, 4)), central_order=4)

        for eps in np.logspace(-4.0, -1.0, 10):
            budget = ErrorBudget(float(eps), float(eps), 0.05, OMEGA_MODEL)
            base, shifted = plan(0.0, budget), plan(c, budget)
            assert (shifted.n_terms, shifted.shots_per_moment, shifted.total_shots) == (
                base.n_terms, base.shots_per_moment, base.total_shots)
            assert shifted.period == pytest.approx(
                base.period, rel=16 * np.finfo(np.float64).eps, abs=0.0)

    def test_per_part_times_parts_covers_total(
        self, kernel001, budget001, stats_a, window_model
    ):
        for plan in (
            make_plan("general", kernel001, budget001),
            make_plan("variance", kernel001, budget001, window=window_model,
                      moments=stats_a),
        ):
            assert plan.shots_per_moment * 2 * plan.n_terms >= plan.total_shots
