"""Discrete spectra and their energy moments.

A response function is represented here as a finite list of eigenfrequencies
``omega_k`` with nonnegative weights ``w_k``; all structure functions in this
package are weighted sums of delta peaks. Two analytic weight profiles are
provided for benchmarks: a skewed Gaussian peak and a power-law threshold
tail. Both are discretized on a midpoint grid and normalized to unit total
weight by :func:`make_model`.

Energy moments mu_n = sum_k w_k omega_k^n and absolute central moments
mu~_n = sum_k w_k |omega_k - mean|^n drive the period planners in
:mod:`fouriergit.planner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import _frozen
from ._domain import FINITE, NONNEGATIVE, POSITIVE, at_least, check, check_fields

_WEIGHT_FLOOR = 1e-300  # weights below this underflow to 0 in the models
_MODEL_KINDS = ("A", "B")  # the model families, in the order the CLI lists them
_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class PeakParams:
    """Skewed Gaussian profile: location xi, width beta, skewness alpha."""

    xi: float = -0.95
    beta: float = 0.05
    alpha: float = 5.0

    def __post_init__(self):
        check_fields(self, xi=FINITE, beta=POSITIVE, alpha=FINITE)


@dataclass(frozen=True)
class TailParams:
    """Threshold tail lam*rho / (|omega - omega_thr|^gamma + rho) above
    omega_thr, zero below."""

    omega_thr: float = -0.95
    lam: float = 1.0
    rho: float = 0.002
    gamma: float = 1.0

    def __post_init__(self):
        check_fields(self, omega_thr=FINITE, lam=NONNEGATIVE, rho=POSITIVE,
                     gamma=POSITIVE)


def eval_peak(omega, params: PeakParams = PeakParams()):
    """Skewed Gaussian weight profile.

    Parameters
    ----------
    omega : float or array_like
        Frequency (units of energy).
    params : PeakParams

    Returns
    -------
    float or ndarray, same shape as omega.
    """
    omega = np.asarray(omega, dtype=np.float64)
    z = (omega - params.xi) / params.beta
    pref = 1.0 / (params.beta * math.sqrt(2.0 * math.pi))
    # erfc(-x) = 1 + erf(x) without the cancellation where erf(x) is near -1
    val = pref * np.exp(-0.5 * z * z) * _erfc(-params.alpha * z / math.sqrt(2.0))
    return val if val.ndim else float(val)


def eval_tail(omega, params: TailParams = TailParams()):
    """Power-law threshold tail, vanishing below omega_thr."""
    omega = np.asarray(omega, dtype=np.float64)
    d = np.abs(omega - params.omega_thr)
    val = np.where(
        omega >= params.omega_thr,
        params.lam * params.rho / (d**params.gamma + params.rho),
        0.0,
    )
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Weighted point spectrum on [-norm_scale, norm_scale].

    eigenfrequencies must be strictly increasing, weights nonnegative.
    Arrays are copied and frozen read-only. Weights below 1e-300 are
    clamped to exactly zero.
    """

    eigenfrequencies: np.ndarray
    weights: np.ndarray
    norm_scale: float = 1.0

    def __post_init__(self):
        om = np.array(self.eigenfrequencies, dtype=np.float64)
        w = np.array(self.weights, dtype=np.float64)
        if om.ndim != 1 or w.ndim != 1:
            raise ValueError("eigenfrequencies and weights must be 1-d")
        if om.shape != w.shape:
            raise ValueError(
                f"length mismatch: {om.shape[0]} eigenfrequencies, "
                f"{w.shape[0]} weights"
            )
        if om.size == 0:
            raise ValueError("spectrum must contain at least one eigenfrequency")
        if not (np.isfinite(om).all() and np.isfinite(w).all()):
            raise ValueError("eigenfrequencies and weights must be finite")
        check_fields(self, norm_scale=POSITIVE)
        if not (np.diff(om) > 0).all():
            raise ValueError("eigenfrequencies must be strictly increasing")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if (np.abs(om) > self.norm_scale).any():
            raise ValueError(
                f"all |eigenfrequencies| must be <= norm_scale={self.norm_scale}"
            )
        w[w < _WEIGHT_FLOOR] = 0.0
        object.__setattr__(self, "eigenfrequencies", _frozen(om))
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n_eigen(self) -> int:
        return self.eigenfrequencies.size

    @property
    def mu0(self) -> float:
        """Total weight."""
        return float(self.weights.sum())


@dataclass(frozen=True)
class MomentSummary:
    """What is known of a spectrum's energy moments: the one way moment
    knowledge enters a plan (planner.make_plan).

    mu0 is the total weight, mu1 the weighted mean energy, sigma the
    weighted standard deviation. central maps order n to the raw sum
    sum_k w_k |omega_k - mu1|^n, so central[2] equals sigma**2 when
    mu0 = 1. A field that is not known is None (an order that is not
    known is absent from central). The record is not validated: each
    planner checks the fields it reads, by name.
    """

    mu0: float | None = None
    mu1: float | None = None
    sigma: float | None = None
    central: dict = field(default_factory=dict)


def energy_moment(spectrum: DiscreteSpectrum, n: int) -> float:
    """Raw energy moment sum_k w_k omega_k^n.

    n = 0 gives the total weight, n = 1 the unnormalized mean.
    """
    n = check("n", n, at_least(0))
    if n == 0:
        return spectrum.mu0
    return float(np.dot(spectrum.weights, spectrum.eigenfrequencies ** n))


def central_moment(spectrum: DiscreteSpectrum, n: int) -> float:
    """Raw absolute central moment sum_k w_k |omega_k - mean|^n, n >= 1."""
    n = check("n", n, at_least(1))
    mu0 = spectrum.mu0
    if mu0 <= 0:
        raise ValueError("central moments need positive total weight")
    mean = energy_moment(spectrum, 1) / mu0
    d = np.abs(spectrum.eigenfrequencies - mean)
    return float(np.dot(spectrum.weights, d ** n))


def summarize(spectrum: DiscreteSpectrum, orders=(2,)) -> MomentSummary:
    """Mean, width and the requested absolute central moments."""
    mu0 = spectrum.mu0
    if mu0 <= 0:
        raise ValueError("summary needs positive total weight")
    orders = [check("order", n, at_least(1)) for n in orders]
    mean = energy_moment(spectrum, 1) / mu0
    var = central_moment(spectrum, 2) / mu0
    sigma = math.sqrt(max(var, 0.0))
    central = {n: central_moment(spectrum, n) for n in orders}
    return MomentSummary(mu0=mu0, mu1=mean, sigma=sigma, central=central)


def midpoint_grid(n_eigen: int, norm_scale: float = 1.0) -> np.ndarray:
    """n_eigen midpoints of a uniform partition of [-norm_scale, norm_scale]."""
    n_eigen = check("n_eigen", n_eigen, at_least(1))
    norm_scale = check("norm_scale", norm_scale, POSITIVE)
    step = 2.0 * norm_scale / n_eigen
    return -norm_scale + (np.arange(n_eigen) + 0.5) * step


def make_model(
    kind: str,
    n_eigen: int = 512,
    peak: PeakParams = PeakParams(),
    tail: TailParams = TailParams(),
    norm_scale: float = 1.0,
) -> DiscreteSpectrum:
    """Benchmark spectrum of the given family, normalized to mu0 = 1.

    Parameters
    ----------
    kind : {'A', 'B'}
        'A' is the skewed Gaussian peak alone, 'B' the peak plus the
        power-law threshold tail (case-insensitive).
    n_eigen : int
        Number of eigenfrequencies, placed at the midpoints of n_eigen
        equal bins spanning [-norm_scale, norm_scale].
    peak, tail : profile parameters for the respective family.
    norm_scale : float
        Half-width of the eigenfrequency interval (the spectral norm bound).

    Returns
    -------
    DiscreteSpectrum with weights summing to 1.
    """
    key = str(kind).strip().upper()
    if key not in _MODEL_KINDS:
        expected = " or ".join(map(repr, _MODEL_KINDS))
        raise ValueError(f"unknown model kind {kind!r}; expected {expected}")
    grid = midpoint_grid(n_eigen, norm_scale)
    w = np.asarray(eval_peak(grid, peak), dtype=np.float64)
    if key == "B":
        w = w + np.asarray(eval_tail(grid, tail), dtype=np.float64)
    w = w.copy()
    w[w < _WEIGHT_FLOOR] = 0.0
    total = w.sum()
    if not (np.isfinite(total) and total > 0):
        raise ValueError(
            f"model {key} weights sum to {total}; profile parameters leave "
            "no weight on the eigenfrequency grid"
        )
    return DiscreteSpectrum(grid, w / total, norm_scale=norm_scale)
