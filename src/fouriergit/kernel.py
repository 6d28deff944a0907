"""Gaussian resolution kernels, their periodic extension, and Fourier data.

The smoothing kernel is a unit-area Gaussian of width lam. A kernel is
"(delta, sigma_leak)-admissible" when at most a fraction sigma_leak of its
mass lies outside [-delta, delta]; the widest admissible Gaussian has

    lam = delta / sqrt(2 log(1 / sigma_leak)),

computed by :func:`lambda_from_resolution`. Periodizing the kernel with
period P makes it an exact Fourier series in n/P with Gaussian-damped
coefficients; :func:`fourier_coefficient` evaluates them, and
:class:`PeriodicKernelParams` holds the period and the image count with
which transform.exact_transform sums the periodic kernel directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._backend import image_count
from ._domain import POSITIVE, UNIT, at_least, check, check_fields

_TWO_PI = 2.0 * math.pi


def lambda_from_resolution(delta: float, sigma_leak: float) -> float:
    """Width of the widest Gaussian leaking at most sigma_leak outside
    [-delta, delta].

    Parameters
    ----------
    delta : float
        Target resolution half-width (energy units), > 0.
    sigma_leak : float
        Allowed out-of-window mass fraction, in (0, 1).
    """
    delta = check("delta", delta, POSITIVE)
    sigma_leak = check("sigma_leak", sigma_leak, UNIT)
    inverse = 1.0 / sigma_leak  # inf below 5.6e-309, where -log(sigma_leak) holds
    log_inverse = math.log(inverse) if inverse < math.inf else -math.log(sigma_leak)
    return delta / math.sqrt(2.0 * log_inverse)


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian smoothing kernel tied to a resolution target.

    delta is the resolution half-width, sigma_leak the admissible leaked
    mass fraction, lam the actual Gaussian width, and norm_scale the
    spectral half-range the kernel will act on. lam may not exceed the
    admissible maximum for (delta, sigma_leak).
    """

    delta: float
    sigma_leak: float
    lam: float
    norm_scale: float = 1.0

    def __post_init__(self):
        check_fields(self, delta=POSITIVE, lam=POSITIVE, norm_scale=POSITIVE,
                     sigma_leak=UNIT)
        lam_max = lambda_from_resolution(self.delta, self.sigma_leak)
        if self.lam > lam_max * (1.0 + 1e-12):
            raise ValueError(
                f"lam={self.lam} leaks more than sigma_leak={self.sigma_leak} "
                f"outside [-delta, delta]; maximum admissible width is {lam_max}"
            )

    @classmethod
    def from_resolution(
        cls, delta: float, sigma_leak: float, norm_scale: float = 1.0
    ) -> "KernelSpec":
        """Kernel at the widest admissible width for (delta, sigma_leak)."""
        return cls(
            delta=delta,
            sigma_leak=sigma_leak,
            lam=lambda_from_resolution(delta, sigma_leak),
            norm_scale=norm_scale,
        )


def gaussian_kernel(nu, omega, lam: float):
    """Unit-area Gaussian kernel exp(-(nu-omega)^2/(2 lam^2))/(sqrt(2 pi) lam).

    nu and omega may be scalars or broadcastable arrays.
    """
    lam = check("lam", lam, POSITIVE)
    d = np.asarray(nu, dtype=np.float64) - np.asarray(omega, dtype=np.float64)
    val = np.exp(-0.5 * (d / lam) ** 2) / (math.sqrt(_TWO_PI) * lam)
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class PeriodicKernelParams:
    """Periodic extension of a Gaussian kernel: the period P (energy units)
    and wrap_count, the Gaussian images summed on each side of the nearest
    replica when the periodic kernel is evaluated directly."""

    period: float
    wrap_count: int

    def __post_init__(self):
        check_fields(self, period=POSITIVE, wrap_count=at_least(0))

    @property
    def dt(self) -> float:
        """Conjugate time step 2 pi / period."""
        return _TWO_PI / self.period

    @classmethod
    def from_period(cls, period: float, kernel: KernelSpec) -> "PeriodicKernelParams":
        """The extension of kernel with the given period, summing every image
        with a term that is not exactly 0.0 (_backend.image_count)."""
        period = check("period", period, POSITIVE)
        return cls(period, image_count(kernel.lam, period))


def fourier_coefficient(n, nu, lam: float, params: PeriodicKernelParams):
    """Fourier-series coefficient of the periodic kernel at harmonic n.

    Equals exp(+i n dt nu) exp(-(dt lam n)^2 / 2): a pure phase in the
    evaluation point nu times a Gaussian damping of the harmonic index.
    The period-normalized resummation (1/P) sum_n coeff_n(nu) exp(-i n dt
    omega) over all integers n reproduces the periodic kernel
    sum_j G(nu - omega - j P).
    n and nu may be scalars or broadcastable arrays.
    """
    lam = check("lam", lam, POSITIVE)
    n_arr = np.asarray(n, dtype=np.float64)
    nu_arr = np.asarray(nu, dtype=np.float64)
    phase = np.exp(1j * params.dt * n_arr * nu_arr)
    damp = np.exp(-0.5 * (params.dt * lam) ** 2 * n_arr * n_arr)
    val = phase * damp
    return complex(val) if val.ndim == 0 else val
