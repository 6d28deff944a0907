"""Smoothed transforms of discrete spectra and their reconstruction.

exact_transform convolves a spectrum with the plain or periodically
extended Gaussian kernel on a frequency grid, through one kernel: the
periodic transform is the plain one summed over images of each line.
reconstruct resums a truncated Fourier series from phase moments; with
exact moments and enough harmonics it converges to the periodic transform,
whose distance to the plain transform is the period (aliasing) error.
error_report measures both gaps against a plan's budget.

Transform values carry units 1/energy; error_report multiplies their
differences by the budget's window scale (for example the eigenfrequency
spacing) to make them dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._backend import (_frozen, _recall, alias_free, gaussian_transform,
                       image_count, reconstruct_series)
from ._domain import POSITIVE, at_least, check
from .kernel import KernelSpec, PeriodicKernelParams
from .moments import FourierMomentSet, exact_moments
from .planner import ErrorBudget, ExtensionPlan, FrequencyWindow
from .spectrum import DiscreteSpectrum

_KINDS = ("exact_gaussian", "exact_periodic", "reconstructed", "sampled_reconstructed")


@dataclass(frozen=True)
class TransformCurve:
    """A transform evaluated on a frequency grid.

    kind records how the values were produced. Exact kinds must be
    nonnegative.
    """

    grid: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        g = np.array(self.grid, dtype=np.float64)
        v = np.array(self.values, dtype=np.float64)
        if g.ndim != 1 or v.ndim != 1 or g.shape != v.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind.startswith("exact") and (v < -1e-15 * max(1.0, v.max(initial=0.0))).any():
            raise ValueError(f"{self.kind} values must be nonnegative")
        object.__setattr__(self, "grid", _frozen(g))
        object.__setattr__(self, "values", _frozen(v))


def exact_transform(
    spectrum: DiscreteSpectrum,
    lam: float,
    grid,
    periodic: PeriodicKernelParams | None = None,
) -> TransformCurve:
    """Gaussian transform of a spectrum on a grid, optionally periodized.

    Parameters
    ----------
    spectrum : DiscreteSpectrum
    lam : float
        Kernel width (energy units).
    grid : array_like
        Evaluation frequencies.
    periodic : PeriodicKernelParams, optional
        When given, every eigenfrequency contributes through all its
        period-P images (kind 'exact_periodic'); otherwise the plain
        kernel is used (kind 'exact_gaussian'). Its wrap_count must be at
        least image_count(lam, period), the images with a term that is
        not exactly 0.0 at this lam; a count made for a narrower kernel
        raises ValueError. More images are accepted: their terms are 0.0.

    A plain call with lines, weights and a grid of the same bytes as the
    plain call before, and an equal lam, returns that call's curve instead
    of evaluating again (_recall); its arrays cannot be made writable. The
    periodic transform, which changes with every plan, is not held, but it
    is the plain curve from the plain memo, relabelled, where the extents
    of the grid [lo, hi] and of the lines [a, b] prove it bitwise equal
    (_backend.alias_free): with m the kernel's reach plus a rounding
    allowance, hi - lo + m < P/2 keeps every line's nearest image its own
    over the grid, and a + P - hi > m and lo - (b - P) > m put every other
    image beyond reach. The norm-bound plan's period 2 norm_scale does so
    for a window inside the spectrum.
    """
    lam = float(check("lam", lam, POSITIVE))
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    om, w = spectrum.eigenfrequencies, spectrum.weights
    if periodic is not None:
        need = image_count(lam, periodic.period)
        if periodic.wrap_count < need:
            raise ValueError(
                f"the extension sums {periodic.wrap_count} images on each side; "
                f"lam={lam} at period {periodic.period} needs {need}")
    if periodic is not None and not alias_free(grid, om, lam, periodic.period):
        vals = gaussian_transform(grid, om, w, lam, periodic.period,
                                  periodic.wrap_count)
        return TransformCurve(grid, vals, "exact_periodic")
    key = (om.tobytes(), w.tobytes(), lam, grid.shape, grid.tobytes())
    plain = _recall("plain_transform", key, lambda: TransformCurve(
        grid, gaussian_transform(grid, om, w, lam), "exact_gaussian"))
    if periodic is None:
        return plain
    return TransformCurve(plain.grid, plain.values, "exact_periodic")


def reconstruct(
    moments: FourierMomentSet,
    kernel: KernelSpec,
    periodic: PeriodicKernelParams,
    n_terms: int,
    grid,
    full_series: bool = False,
) -> TransformCurve:
    """Resum the truncated Fourier series of the periodic transform.

    Phi_N(nu) = (1/P) [m_0 + 2 sum_{n=1}^{N} Re(exp(+i n dt nu)
                 exp(-(dt lam n)^2/2) m_n)].

    full_series=True evaluates the equivalent two-sided complex sum over
    n = -N..N instead (for cross-checking the conjugate-symmetric fast
    path) and verifies the imaginary residue is negligible.

    The moment set must carry at least n_terms orders and match the
    extension's time step. A fast-path call with moment values and a grid
    of the same bytes as the fast-path call before, and equal provenance,
    lam, dt, period and n_terms, returns that call's curve instead of
    resumming again (_recall); its arrays cannot be made writable.
    """
    n_terms = check("n_terms", n_terms, at_least(1))
    if n_terms > moments.n_max:
        raise ValueError(
            f"n_terms={n_terms} exceeds the stored moment range "
            f"0..{moments.n_max}"
        )
    if abs(moments.dt - periodic.dt) > 1e-12 * periodic.dt:
        raise ValueError(
            f"moment time step {moments.dt} does not match the extension "
            f"time step {periodic.dt}"
        )
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    kind = "reconstructed" if moments.provenance == "exact" else "sampled_reconstructed"
    if not full_series:
        key = (moments.values.tobytes(), kind, kernel.lam, periodic.dt,
               periodic.period, n_terms, grid.shape, grid.tobytes())
        return _recall("reconstruct", key, lambda: TransformCurve(
            grid, reconstruct_series(grid, moments.values, periodic.dt,
                                     kernel.lam, periodic.period, n_terms),
            kind))
    n = np.arange(-n_terms, n_terms + 1)
    m = np.array([moments.moment(int(k)) for k in n])
    env = np.exp(-0.5 * (periodic.dt * kernel.lam) ** 2 * n * n)
    phase = np.exp(1j * periodic.dt * np.asarray(grid)[:, None] * n[None, :])
    cvals = (phase * (env * m)[None, :]).sum(axis=1) / periodic.period
    resid = float(np.abs(cvals.imag).max())
    scale = float(np.abs(cvals.real).max())
    if resid > 1e-10 * max(scale, 1e-300):
        raise ValueError(
            f"two-sided series has imaginary residue {resid} (scale {scale}); "
            "moment set violates conjugate symmetry"
        )
    return TransformCurve(grid, cvals.real, kind)


@dataclass(frozen=True)
class ErrorReport:
    """Measured reconstruction errors for one plan, all dimensionless
    (multiplied by the budget's omega_scale).

    eps_p_measured: max |periodic - plain| over the window.
    eps_n_measured: max |reconstructed - periodic|.
    eps_total_measured: max |reconstructed - plain|.
    """

    eps_p_measured: float
    eps_n_measured: float
    eps_total_measured: float
    eps_p_target: float
    eps_n_target: float
    n_grid: int
    within_period_budget: bool
    within_truncation_budget: bool


def error_report(
    spectrum: DiscreteSpectrum,
    plan: ExtensionPlan,
    kernel: KernelSpec,
    window: FrequencyWindow,
    budget: ErrorBudget,
    n_grid: int = 1024,
    moments: FourierMomentSet | None = None,
) -> ErrorReport:
    """Measure a plan's period and truncation errors on a window grid.

    Uses exact moments unless a (possibly sampled) moment set is passed,
    in which case eps_n_measured includes its statistical error too.
    """
    n_grid = check("n_grid", n_grid, at_least(2))
    grid = np.linspace(window.nu_min, window.nu_max, n_grid)
    return _measure(*_curves(spectrum, plan, kernel, grid, moments), budget)


def _curves(
    spectrum: DiscreteSpectrum,
    plan: ExtensionPlan,
    kernel: KernelSpec,
    grid,
    moments: FourierMomentSet | None = None,
) -> tuple[TransformCurve, TransformCurve, TransformCurve]:
    """Plain, periodic and reconstructed transforms of a plan on a grid.

    The reconstruction resums exact moments unless a moment set is passed.
    """
    periodic = PeriodicKernelParams.from_period(plan.period, kernel)
    plain = exact_transform(spectrum, kernel.lam, grid)
    wrapped = exact_transform(spectrum, kernel.lam, grid, periodic=periodic)
    if moments is None:
        moments = exact_moments(spectrum, periodic.dt, plan.n_terms)
    rec = reconstruct(moments, kernel, periodic, plan.n_terms, grid)
    return plain, wrapped, rec


def _deviation(a: TransformCurve, b: TransformCurve, omega_scale: float) -> float:
    """Dimensionless distance omega_scale * max |a - b| of two curves."""
    return omega_scale * float(np.abs(a.values - b.values).max())


def _measure(
    plain: TransformCurve,
    wrapped: TransformCurve,
    rec: TransformCurve,
    budget: ErrorBudget,
) -> ErrorReport:
    """Error report of already-evaluated plain, periodic and reconstructed
    curves on one grid."""
    omega = budget.omega_scale
    eps_p = _deviation(wrapped, plain, omega)
    eps_n = _deviation(rec, wrapped, omega)
    eps_tot = _deviation(rec, plain, omega)
    return ErrorReport(
        eps_p_measured=eps_p,
        eps_n_measured=eps_n,
        eps_total_measured=eps_tot,
        eps_p_target=budget.eps_p,
        eps_n_target=budget.eps_n,
        n_grid=plain.grid.size,
        within_period_budget=bool(eps_p <= budget.eps_p),
        within_truncation_budget=bool(eps_n <= budget.eps_n),
    )
