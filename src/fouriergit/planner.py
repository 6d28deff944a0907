"""Error-budget planning for periodically extended Gaussian transforms.

Reconstructing a smoothed spectrum from Fourier-phase moments has three
error sources, budgeted separately (all in dimensionless units, i.e. after
multiplying the transform by the window scale Omega):

* eps_p, from the finite extension period (aliasing of spectral weight and
  kernel replicas into the evaluation window),
* eps_n, from truncating the Fourier series at a finite harmonic count,
* eps_s, from estimating each moment with finitely many shots.

The planners here pick the period (equivalently chi = period / norm_scale),
the harmonic count, and the shot counts so each target is met. The general
planner uses only the spectral norm bound. When the spectrum's mean and
variance (or a higher absolute central moment) are known, the period can be
anchored to the spread of the spectrum instead of the full norm interval,
which shrinks every downstream cost; these are the "variance" and "central"
planners.

Formulas flagged with validity conditions raise FormulaValidityError when
used outside them rather than returning silently wrong numbers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields

from ._domain import FINITE, NONNEGATIVE, POSITIVE, UNIT, at_least, check, check_fields
from .kernel import KernelSpec
from .spectrum import MomentSummary

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# The vocabulary of each planning option, in the order the CLI lists it.
_METHODS = ("general", "variance", "central")
_CHI_MODES = ("main", "nyquist", "full")
_N_MODES = ("main", "appendix")
_SHOTS_MODES = ("conservative", "uncorrelated", "chebyshev")
_WINDOW_TERM_MODES = ("max", "min")


class FormulaValidityError(ValueError):
    """A planning formula was evaluated outside its validity range."""


class NoSavingWarning(UserWarning):
    """A moment-anchored period came out no smaller than the general one."""


def _sqrt_log(arg: float) -> float:
    """sqrt(log(arg)) with the log floored at zero for arg <= 1."""
    return math.sqrt(math.log(arg)) if arg > 1.0 else 0.0


@dataclass(frozen=True)
class ErrorBudget:
    """Dimensionless error targets for one reconstruction.

    eps_p, eps_n, eps_s bound the period, truncation, and statistical
    errors of Omega * Phi, where Omega = omega_scale is the reference
    window width used to make transform errors dimensionless.
    confidence_delta is the allowed failure probability of the shot
    estimate.
    """

    eps_p: float
    eps_n: float
    eps_s: float
    omega_scale: float
    confidence_delta: float = 0.05

    def __post_init__(self):
        check_fields(self, eps_p=POSITIVE, eps_n=POSITIVE, eps_s=POSITIVE,
                     omega_scale=POSITIVE, confidence_delta=UNIT)


@dataclass(frozen=True)
class FrequencyWindow:
    """Closed frequency interval [nu_min, nu_max] where the transform is
    reconstructed."""

    nu_min: float
    nu_max: float

    def __post_init__(self):
        check_fields(self, nu_min=FINITE, nu_max=FINITE)
        if not self.nu_min <= self.nu_max:
            raise ValueError(
                f"nu_min={self.nu_min} must not exceed nu_max={self.nu_max}"
            )

    @property
    def span(self) -> float:
        return self.nu_max - self.nu_min


@dataclass(frozen=True)
class PeriodChoice:
    """Planned extension period before harmonic/shot counts are attached.

    details carries the intermediate quantities of the chosen formula
    (spread, alpha_spread = alpha * spread, eta_spread = eta * alpha *
    spread, window term, ...) so downstream bounds can be evaluated.
    """

    period: float
    chi: float
    method: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self, period=POSITIVE, chi=POSITIVE)


@dataclass(frozen=True)
class ExtensionPlan:
    """Complete plan: period, harmonic count and shot counts.

    shots_per_moment counts shots for each real or imaginary part of one
    moment (2 * n_terms parts in total); total_shots is the ceiling of the
    planned total before that per-part split. inputs_echo records every
    input and intermediate so plans serialize reproducibly.
    """

    period: float
    chi: float
    n_terms: int
    shots_per_moment: int | None
    total_shots: int | None
    method: str
    inputs_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self, period=POSITIVE, chi=POSITIVE, n_terms=at_least(1))
        for name in ("shots_per_moment", "total_shots"):
            if getattr(self, name) is not None:
                check_fields(self, **{name: at_least(1)})

    @property
    def dt(self) -> float:
        """Conjugate time step 2 pi / period."""
        return 2.0 * math.pi / self.period

    def to_dict(self) -> dict:
        d = {
            "method": self.method,
            "period": self.period,
            "chi": self.chi,
            "n_terms": self.n_terms,
            "shots_per_moment": self.shots_per_moment,
            "total_shots": self.total_shots,
        }
        for k in sorted(self.inputs_echo):
            d[k] = self.inputs_echo[k]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExtensionPlan":
        """Inverse of to_dict; a missing core key raises ValueError naming it."""
        d = dict(d)
        core = [f.name for f in fields(cls) if f.name != "inputs_echo"]
        missing = [name for name in core if name not in d]
        if missing:
            raise ValueError(f"plan lacks key {missing[0]!r}")
        return cls(**{name: d.pop(name) for name in core}, inputs_echo=d)


def _window_term(omega_lo: float, omega_hi: float, mode: str) -> float:
    """Window contribution to the period from the distances of the window
    edges to the anchor point (the mean for moment-anchored planners)."""
    if mode == "max":
        return max(omega_lo, omega_hi)
    if mode == "min":
        return min(omega_lo, omega_hi)
    raise ValueError(
        f"window_term must be one of {_WINDOW_TERM_MODES}, got {mode!r}"
    )


def chi_general(
    kernel: KernelSpec,
    budget: ErrorBudget,
    mu0: float = 1.0,
    mode: str = "main",
    window: FrequencyWindow | None = None,
) -> PeriodChoice:
    """Extension period from the spectral norm bound alone.

    Parameters
    ----------
    kernel : KernelSpec
    budget : ErrorBudget
    mu0 : float
        Total spectral weight.
    mode : {'main', 'nyquist', 'full'}
        'main' uses chi = 2 + (sqrt(2) lam / H) sqrt(log(2 Omega /
        (eps_p lam))), falling back to chi = 2 when the log argument is
        <= 1. 'nyquist' returns the bare no-aliasing period chi = 2.
        'full' evaluates the sharper window-aware expression
        P = (1 + eta) H + max(|nu_min|, nu_max) and requires a window.
    window : FrequencyWindow, only used (and required) by mode='full'.
    """
    if mode not in _CHI_MODES:
        raise ValueError(f"unknown chi_general mode {mode!r}")
    mu0 = check("mu0", mu0, POSITIVE)
    h = kernel.norm_scale
    lam = kernel.lam
    omega = budget.omega_scale
    if mode == "nyquist":
        return PeriodChoice(2.0 * h, 2.0, "general", {"mode": "nyquist"})
    if mode == "main":
        corr = (math.sqrt(2.0) * lam / h) * _sqrt_log(
            2.0 * omega / (budget.eps_p * lam)
        )
        chi = 2.0 + corr
        return PeriodChoice(chi * h, chi, "general", {"mode": "main"})
    if window is None:
        raise ValueError("chi_general mode='full' requires a window")
    arg = (
        math.sqrt(2.0 / math.pi)
        * (mu0 / budget.eps_p)
        * (omega / lam)
        * (1.0 + math.sqrt(math.pi / 2.0) * lam / h)
    )
    eta = (math.sqrt(2.0) * lam / h) * _sqrt_log(arg)
    wterm = max(abs(window.nu_min), window.nu_max)
    period = (1.0 + eta) * h + wterm
    return PeriodChoice(
        period,
        period / h,
        "general",
        {"mode": "full", "eta": eta, "eta_spread": eta * h, "window_term": wterm},
    )


def _eta_spread(kernel: KernelSpec, budget: ErrorBudget, mu0: float) -> float:
    """eta * alpha * spread for the moment-anchored planners; bounds the
    kernel-replica aliasing at the window edge."""
    lam = kernel.lam
    arg = (
        math.sqrt(8.0 / math.pi)
        * (mu0 / budget.eps_p)
        * (budget.omega_scale / lam)
        * (1.0 + math.sqrt(math.pi / 2.0))
    )
    return math.sqrt(2.0) * lam * _sqrt_log(arg)


def _edge_distances(mu1: float, window: FrequencyWindow) -> tuple[float, float]:
    omega_lo = mu1 - window.nu_min
    omega_hi = window.nu_max - mu1
    if omega_lo < 0 or omega_hi < 0:
        raise ValueError(
            f"window [{window.nu_min}, {window.nu_max}] must contain the "
            f"mean energy {mu1}"
        )
    return omega_lo, omega_hi


def _warn_if_no_saving(period: float, kernel, budget, mu0, method: str):
    general = chi_general(kernel, budget, mu0=mu0, mode="main")
    if period > general.period:
        warnings.warn(
            f"{method} period {period:.6g} exceeds the general bound "
            f"{general.period:.6g}; the moment information brings no saving here",
            NoSavingWarning,
            stacklevel=4,
        )


def _anchored_choice(method, period, kernel, budget, window_term, wterm,
                     spreads, **moments) -> PeriodChoice:
    """A moment-anchored period choice, after the no-saving check. Its
    details are the moment values read, the window term and, unless the
    period is the simplified form (no spreads), alpha_spread and
    eta_spread with the alpha and eta they give."""
    details = {"simplified": not spreads, **moments, **spreads,
               "window_term_mode": window_term, "window_term": wterm}
    if spreads:
        a, e, s = spreads["alpha_spread"], spreads["eta_spread"], moments["spread"]
        details["alpha"] = a / s if s > 0 else math.inf
        details["eta"] = e / a if a > 0 else math.inf
    _warn_if_no_saving(period, kernel, budget, moments["mu0"], method)
    return PeriodChoice(period, period / kernel.norm_scale, method, details)


def chi_with_variance(
    kernel: KernelSpec,
    budget: ErrorBudget,
    moments: MomentSummary,
    window: FrequencyWindow,
    window_term: str = "max",
    simplified: bool = False,
) -> PeriodChoice:
    """Extension period anchored to the spectrum's mean and width.

    The period covers an interval of alpha standard deviations around the
    mean plus the window term, with alpha and the safety factor eta chosen
    so the weight aliased into the window stays below eps_p:

        alpha * sigma = sqrt(2) lam * max[sqrt(log(3.6 mu0 Omega /
                         (eps_p lam))), (sigma^(2/3) Omega^(1/3) / lam) *
                         0.9 / eps_p^(1/3)]
        P = (1 + eta) alpha sigma + window_term.

    With simplified=True the short form P = 2.7 (Omega sigma^2 /
    eps_p)^(1/3) + span is used instead; it is only valid while
    lam <= 2 sigma and raises FormulaValidityError otherwise.

    window_term picks how the window enters. 'max' (default) takes the
    longer distance from the mean to a window edge and budgets eps_p on
    the whole window. 'min' takes the shorter one, d, and so budgets eps_p
    only on [mu1 - d, mu1 + d]: it is the 'max' plan of that narrower
    window. Warns with NoSavingWarning when the result exceeds the
    general-bound period. Reads moments.sigma, moments.mu0 and moments.mu1.

    The eps_p guarantee assumes that the weight beyond alpha spreads is
    spread evenly over one period, aliasing at most Omega * mass / P into
    any point of the window. One line carrying that weight can alias up to
    Omega * mass / (sqrt(2 pi) lam) into a single point instead, so spectra
    with the same moments can exceed eps_p. Measured with error_report at
    budget 0.01/0.01 on 4 096 grid points: a two-point spectrum with a
    giant resonance's mean and spread (20.6, 22.4 MeV) measures eps_p =
    0.051 under its variance plan and 0.030 under its central(4) plan, and
    one with model A's mean and spread measures 0.0119 under model A's
    pinned plan. The bundled models A and B stay within the budget.
    """
    sigma = check("sigma", moments.sigma, POSITIVE)
    mu0 = check("mu0", moments.mu0, POSITIVE)
    mu1 = check("mu1", moments.mu1, FINITE)
    lam = kernel.lam
    omega = budget.omega_scale
    omega_lo, omega_hi = _edge_distances(mu1, window)
    wterm = _window_term(omega_lo, omega_hi, window_term)

    if simplified:
        if lam > 2.0 * sigma:
            raise FormulaValidityError(
                f"simplified variance period needs lam <= 2 sigma "
                f"(lam={lam}, sigma={sigma}); use simplified=False"
            )
        period = (
            2.7 * (omega * sigma * sigma / budget.eps_p) ** (1.0 / 3.0)
            + window.span
        )
        window_term, wterm, spreads = "span", window.span, {}
    else:
        b_gauss = _sqrt_log(3.6 * mu0 * omega / (budget.eps_p * lam))
        b_cheb = (
            sigma ** (2.0 / 3.0) * omega ** (1.0 / 3.0) / lam
        ) * 0.9 / budget.eps_p ** (1.0 / 3.0)
        alpha_spread = math.sqrt(2.0) * lam * max(b_gauss, b_cheb)
        eta_spread = _eta_spread(kernel, budget, mu0)
        period = alpha_spread + eta_spread + wterm
        spreads = {"alpha_spread": alpha_spread, "eta_spread": eta_spread}
    return _anchored_choice(
        "variance", period, kernel, budget, window_term, wterm, spreads,
        spread=sigma, mu0=mu0, mu1=mu1, central_order=2,
        central_value=mu0 * sigma * sigma,
    )


def chi_with_central_moment(
    order: int,
    kernel: KernelSpec,
    budget: ErrorBudget,
    moments: MomentSummary,
    window: FrequencyWindow,
    window_term: str = "max",
    simplified: bool = False,
) -> PeriodChoice:
    """Extension period anchored to an absolute central moment of order n.

    Reads moments.central[order], the raw weighted sum mu~_n = sum_k w_k
    |omega_k - mu1|^n, and moments.mu1 and moments.mu0. The order is at
    least 3: order 2 is the variance plan, chi_with_variance with sigma =
    sqrt(mu~_2 / mu0). The period covers alpha spreads around the mean,
    with spread = mu~_n^(1/n):

        alpha * spread = max[sqrt(2) lam sqrt(log(4 mu0 Omega /
                          (eps_p lam))), sqrt(2) * 0.9 * (mu~_n Omega /
                          eps_p)^(1/(n+1))]
        P = (1 + eta) alpha spread + window_term.

    The product form above stays finite for mu~_n = 0. window_term is as
    in chi_with_variance. With simplified=True the short form P = 2.7
    (Omega mu~_n / eps_p)^(1/(n+1)) + span is used; it requires
    mu~_n^(1/n) >= lam and order <= 15 and raises FormulaValidityError
    outside that range. The eps_p guarantee holds under the assumption
    stated in chi_with_variance.
    """
    order = check("order", order, at_least(3))
    central_value = (moments.central or {}).get(order)
    if central_value is None:
        raise ValueError(f"moments carry no central moment of order {order}")
    central_value = check("central_value", central_value, NONNEGATIVE)
    mu0 = check("mu0", moments.mu0, POSITIVE)
    mu1 = check("mu1", moments.mu1, FINITE)
    lam = kernel.lam
    omega = budget.omega_scale
    spread = central_value ** (1.0 / order) if central_value > 0 else 0.0
    omega_lo, omega_hi = _edge_distances(mu1, window)
    wterm = _window_term(omega_lo, omega_hi, window_term)

    if simplified:
        if order > 15:
            raise FormulaValidityError(
                f"simplified central-moment period is only calibrated for "
                f"order <= 15, got {order}"
            )
        if spread < lam:
            raise FormulaValidityError(
                f"simplified central-moment period needs mu~^(1/n) >= lam "
                f"(spread={spread}, lam={lam}); use simplified=False"
            )
        period = (
            2.7 * (omega * central_value / budget.eps_p) ** (1.0 / (order + 1))
            + window.span
        )
        window_term, wterm, spreads = "span", window.span, {}
    else:
        b_gauss = math.sqrt(2.0) * lam * _sqrt_log(
            4.0 * mu0 * omega / (budget.eps_p * lam)
        )
        b_cheb = (
            math.sqrt(2.0)
            * 0.9
            * (central_value * omega / budget.eps_p) ** (1.0 / (order + 1))
        )
        alpha_spread = max(b_gauss, b_cheb)
        eta_spread = _eta_spread(kernel, budget, mu0)
        period = alpha_spread + eta_spread + wterm
        spreads = {"alpha_spread": alpha_spread, "eta_spread": eta_spread}
    return _anchored_choice(
        f"central{order}", period, kernel, budget, window_term, wterm, spreads,
        spread=spread, mu0=mu0, mu1=mu1, central_order=order,
        central_value=central_value,
    )


def n_terms(
    chi: float,
    kernel: KernelSpec,
    budget: ErrorBudget,
    mu0: float = 1.0,
    mode: str = "main",
) -> int:
    """Harmonic count keeping the series-truncation error below eps_n.

    mode='main' (default) uses

        N = ceil((chi H / (sqrt(2 pi) lam)) sqrt(log(0.4 Omega /
             (eps_n lam))))

    and mode='appendix' the slightly tighter

        N = ceil((chi H / (sqrt(2) pi lam)) sqrt(log(mu0 Omega /
             (sqrt(2 pi) lam eps_n)))).

    Raises FormulaValidityError when the log argument is <= 1 (the budget
    is loose enough that the bound formula degenerates).
    """
    if mode not in _N_MODES:
        raise ValueError(f"unknown n_terms mode {mode!r}")
    chi = check("chi", chi, POSITIVE)
    mu0 = check("mu0", mu0, POSITIVE)
    lam = kernel.lam
    h = kernel.norm_scale
    omega = budget.omega_scale
    if mode == "main":
        arg = 0.4 * omega / (budget.eps_n * lam)
        pref = chi * h / (_SQRT_2PI * lam)
    else:
        arg = mu0 * omega / (_SQRT_2PI * lam * budget.eps_n)
        pref = chi * h / (math.sqrt(2.0) * math.pi * lam)
    if arg <= 1.0:
        raise FormulaValidityError(
            f"truncation budget eps_n={budget.eps_n} is too loose for the "
            f"{mode} harmonic-count formula (log argument {arg} <= 1)"
        )
    return int(math.ceil(pref * math.sqrt(math.log(arg))))


def truncation_bound(
    n_terms: int, period: float, lam: float, mu0: float = 1.0
) -> float:
    """Upper bound (1/energy units) on the series tail beyond n_terms:
    (mu0 / (sqrt(2 pi) lam)) erfc(sqrt(2) pi lam n_terms / period)."""
    n_terms = check("n_terms", n_terms, at_least(0))
    period = check("period", period, POSITIVE)
    lam = check("lam", lam, POSITIVE)
    mu0 = check("mu0", mu0, POSITIVE)
    x = math.sqrt(2.0) * math.pi * lam * n_terms / period
    return mu0 / (_SQRT_2PI * lam) * math.erfc(x)


def shots_value(
    n_terms: int,
    chi: float,
    kernel: KernelSpec,
    budget: ErrorBudget,
    mu0: float = 1.0,
    mode: str = "conservative",
) -> float:
    """Planned total shot count (before rounding) across all 2 N moment
    parts so the statistical error stays below eps_s with probability
    1 - confidence_delta.

    mode='conservative' bounds every moment's variance by its worst case;
    'uncorrelated' assumes independent per-moment errors accumulate in
    quadrature; 'chebyshev' replaces the Hoeffding tail with a Chebyshev
    one (no exponential concentration, different delta scaling).
    """
    if mode not in _SHOTS_MODES:
        raise ValueError(f"unknown shots mode {mode!r}")
    n_terms = check("n_terms", n_terms, at_least(1))
    chi = check("chi", chi, POSITIVE)
    mu0 = check("mu0", mu0, POSITIVE)
    lam = kernel.lam
    omega = budget.omega_scale
    eps = budget.eps_s
    log_conf = math.log(2.0 / budget.confidence_delta)
    if mode == "conservative":
        return n_terms * omega**2 * mu0**2 / (lam**2 * eps**2) * log_conf
    if mode == "uncorrelated":
        return (
            n_terms * omega**2 * mu0**2
            / (chi * kernel.norm_scale * lam * eps**2) * log_conf
        )
    return 2.0 * n_terms * omega**2 / (lam**2 * eps**2) * log_conf


def _plan_inputs(
    plan: ExtensionPlan,
) -> tuple[KernelSpec, ErrorBudget, FrequencyWindow | None]:
    """The kernel, budget and window a plan was made with, rebuilt from the
    fields its inputs echo holds under their names. The window is None for
    a plan made without one; any other missing field raises naming its
    key, and each class checks the values against their domains."""
    echo = plan.inputs_echo
    out = []
    for cls, what in ((KernelSpec, "kernel"), (ErrorBudget, "budget"),
                      (FrequencyWindow, "window")):
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in echo]
        if cls is FrequencyWindow and len(missing) == len(names):
            out.append(None)
        elif missing:
            raise ValueError(f"plan lacks {what} field {missing[0]!r}")
        else:
            out.append(cls(*(echo[name] for name in names)))
    return tuple(out)


def tail_leakage_bound(plan: ExtensionPlan) -> float:
    """Dimensionless a-priori bound on the weight-aliasing part of the
    period error for moment-anchored plans:

        Omega * mu~_n / (period * (alpha * spread)^n),

    the mass outside alpha spreads of the mean (generalized Chebyshev)
    spread over one period. Raises for general-method or simplified plans,
    which do not carry an alpha.

    It is an estimate under the planners' assumption (see
    chi_with_variance), not a bound on the measured eps_p of every
    spectrum with the plan's moments: it reads 1.33 times below the
    measured eps_p on a 512-line quantile grid of a normal density with
    mean 20.6 and spread 22.4. On the bundled models it dominates the
    measurement (fouriergit sweep).
    """
    info = plan.inputs_echo
    if info.get("alpha_spread") is None:
        raise ValueError(
            "tail leakage bound requires a non-simplified moment-anchored plan"
        )
    n, omega = info["central_order"], _plan_inputs(plan)[1].omega_scale
    return omega * info["central_value"] / (plan.period * info["alpha_spread"] ** n)


def make_plan(
    method: str,
    kernel: KernelSpec,
    budget: ErrorBudget,
    window: FrequencyWindow | None = None,
    moments: MomentSummary | None = None,
    central_order: int | None = None,
    chi_mode: str = "main",
    n_mode: str = "main",
    shots_mode: str = "conservative",
    window_term: str = "max",
    simplified: bool = False,
) -> ExtensionPlan:
    """Build a complete extension plan for one reconstruction.

    method is 'general', 'variance' or 'central'. The moment knowledge
    enters only through moments, a MomentSummary: 'general' reads its mu0
    (1 without a summary), 'variance' its mu0, mu1 and sigma, and
    'central' its mu0, mu1 and central[central_order], an order of at
    least 3. 'variance' and 'central' require moments and a window, and
    'central' a central_order. The window, when given, must lie within
    [-norm_scale, norm_scale].
    """
    if method not in _METHODS:
        raise ValueError(f"unknown planning method {method!r}")
    if window is not None:
        h = kernel.norm_scale
        if window.nu_min < -h or window.nu_max > h:
            raise ValueError(
                f"window [{window.nu_min}, {window.nu_max}] exceeds the "
                f"spectral range [-{h}, {h}]"
            )
    mu0 = 1.0 if moments is None else moments.mu0
    if method == "general":
        choice = chi_general(kernel, budget, mu0=mu0, mode=chi_mode, window=window)
    elif moments is None or window is None:
        raise ValueError(f"{method} planning requires moments and a window")
    elif method == "variance":
        choice = chi_with_variance(
            kernel, budget, moments, window,
            window_term=window_term, simplified=simplified,
        )
    else:
        if central_order is None:
            raise ValueError("central planning requires central_order")
        choice = chi_with_central_moment(
            check("central_order", central_order, at_least(3)), kernel,
            budget, moments, window, window_term=window_term,
            simplified=simplified,
        )

    n = n_terms(choice.chi, kernel, budget, mu0=mu0, mode=n_mode)
    total_value = shots_value(n, choice.chi, kernel, budget, mu0, shots_mode)
    total = int(math.ceil(total_value))
    per_part = int(math.ceil(total_value / (2.0 * n)))

    echo = {
        **asdict(kernel),
        **asdict(budget),
        "mu0": mu0,
        "n_mode": n_mode,
        "shots_mode": shots_mode,
    }
    if method == "general":
        echo["chi_mode"] = chi_mode
    if window is not None:
        echo.update(asdict(window))
    echo.update(choice.details)
    return ExtensionPlan(
        period=choice.period,
        chi=choice.chi,
        n_terms=n,
        shots_per_moment=per_part,
        total_shots=total,
        method=choice.method,
        inputs_echo=echo,
    )
