"""Gaussian resolution kernels, their periodic extension, and Fourier data.

The smoothing kernel is a unit-area Gaussian of width lam. A kernel is
"(delta, sigma_leak)-admissible" when at most a fraction sigma_leak of its
mass lies outside [-delta, delta]; the widest admissible Gaussian has

    lam = delta / sqrt(2 log(1 / sigma_leak)),

computed by :func:`lambda_from_resolution`. Periodizing the kernel with
period P makes it an exact Fourier series in n/P with Gaussian-damped
coefficients; :func:`fourier_coefficient` evaluates them, and
:class:`PeriodicKernelParams` holds the period, the conjugate time step and
the image count with which transform.exact_transform sums the periodic
kernel directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0.0 < sigma_leak < 1.0:
        raise ValueError(f"sigma_leak must be in (0, 1), got {sigma_leak}")
    return delta / math.sqrt(2.0 * math.log(1.0 / sigma_leak))


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
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not 0.0 < self.sigma_leak < 1.0:
            raise ValueError(f"sigma_leak must be in (0, 1), got {self.sigma_leak}")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.norm_scale > 0:
            raise ValueError(f"norm_scale must be positive, got {self.norm_scale}")
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
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    d = np.asarray(nu, dtype=np.float64) - np.asarray(omega, dtype=np.float64)
    val = np.exp(-0.5 * (d / lam) ** 2) / (math.sqrt(_TWO_PI) * lam)
    return val if val.ndim else float(val)


def replica_wrap_count(lam: float, period: float) -> int:
    """Images needed on each side of the nearest replica so the omitted
    periodic-sum tail is below 1e-16 of the retained part.

    Solves k(k+1) >= 2 lam^2 log(4e16) / period^2 for the smallest k >= 1;
    the bound comes from comparing the first omitted Gaussian image against
    the central one at worst-case offset period/2.
    """
    if not (lam > 0 and period > 0):
        raise ValueError("lam and period must be positive")
    c = 2.0 * (lam / period) ** 2 * math.log(4e16)
    k = (-1.0 + math.sqrt(1.0 + 4.0 * c)) / 2.0
    return max(1, int(math.ceil(k)))


@dataclass(frozen=True)
class PeriodicKernelParams:
    """Periodic extension of a Gaussian kernel.

    period is the extension period P (energy units), chi the dimensionless
    ratio P / norm_scale, dt = 2 pi / P the conjugate time step, and
    wrap_count the number of Gaussian images summed on each side of the
    nearest replica when the periodic kernel is evaluated directly.
    """

    period: float
    chi: float
    dt: float
    wrap_count: int

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not self.chi > 0:
            raise ValueError(f"chi must be positive, got {self.chi}")
        if self.wrap_count < 1:
            raise ValueError(f"wrap_count must be >= 1, got {self.wrap_count}")
        if abs(self.dt * self.period - _TWO_PI) > 1e-9 * _TWO_PI:
            raise ValueError(
                f"dt * period = {self.dt * self.period} must equal 2 pi"
            )

    @classmethod
    def from_period(cls, period: float, kernel: KernelSpec) -> "PeriodicKernelParams":
        """Extension parameters for a given period and kernel."""
        if not period > 0:
            raise ValueError(f"period must be positive, got {period}")
        return cls(
            period=period,
            chi=period / kernel.norm_scale,
            dt=_TWO_PI / period,
            wrap_count=replica_wrap_count(kernel.lam, period),
        )


def fourier_coefficient(n, nu, lam: float, params: PeriodicKernelParams):
    """Fourier-series coefficient of the periodic kernel at harmonic n.

    Equals exp(+i n dt nu) exp(-(dt lam n)^2 / 2): a pure phase in the
    evaluation point nu times a Gaussian damping of the harmonic index.
    The period-normalized resummation (1/P) sum_n coeff_n(nu) exp(-i n dt
    omega) over all integers n reproduces the periodic kernel
    sum_j G(nu - omega - j P).
    n and nu may be scalars or broadcastable arrays.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    n_arr = np.asarray(n, dtype=np.float64)
    nu_arr = np.asarray(nu, dtype=np.float64)
    phase = np.exp(1j * params.dt * n_arr * nu_arr)
    damp = np.exp(-0.5 * (params.dt * lam) ** 2 * n_arr * n_arr)
    val = phase * damp
    return complex(val) if val.ndim == 0 else val
