"""Fourier-phase moments of a discrete spectrum: exact and shot-sampled.

The moment of order n at time step dt is

    m_n = sum_k w_k exp(-i n dt omega_k),

with m_0 equal to the total weight and m_{-n} = conj(m_n). A hardware run
estimates Re m_n and Im m_n separately from two-outcome measurements whose
success probability is (1 + x)/2 for the true part value x; the sampler
here reproduces that Bernoulli statistics exactly. Each part (real,
imaginary) has one reproducible random stream per seed, from which the
orders n = 1, 2, ... draw their shot counts in sequence, so the estimate
of order n depends only on the seed and orders 1..n, never on how many
moments are requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._backend import phase_moment_sums
from ._domain import POSITIVE, at_least, check, check_fields
from .spectrum import DiscreteSpectrum

_PROVENANCES = ("exact", "sampled")
# The largest count numpy's binomial sampler takes.
_MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class FourierMomentSet:
    """Moments m_0 .. m_{n_max} at a fixed time step.

    values[n] holds m_n; negative orders follow by conjugation through
    :meth:`moment`. provenance is 'exact' or 'sampled'; sampled sets carry
    the per-part shot count and the seed they were drawn from. mu0 is the
    total spectral weight (m_0 for exact sets, the exactly known value for
    sampled ones).
    """

    dt: float
    values: np.ndarray
    provenance: str
    mu0: float
    shots_per_part: int | None = None
    seed: int | None = None

    def __post_init__(self):
        check_fields(self, dt=POSITIVE, mu0=POSITIVE)
        vals = np.array(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if self.provenance not in _PROVENANCES:
            raise ValueError(
                f"provenance must be one of {_PROVENANCES}, got {self.provenance!r}"
            )
        if self.provenance == "sampled":
            if self.shots_per_part is None or self.seed is None:
                raise ValueError("sampled moments need shots_per_part and seed")
            check_fields(self, shots_per_part=at_least(1), seed=at_least(0))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_max(self) -> int:
        return self.values.size - 1

    def moment(self, n: int) -> complex:
        """m_n for any integer order, using m_{-n} = conj(m_n)."""
        if abs(n) > self.n_max:
            raise ValueError(f"order {n} outside the stored range 0..{self.n_max}")
        return complex(self.values[n]) if n >= 0 else complex(np.conj(self.values[-n]))


# The last exact_moments call as one (spectrum, (dt, n_max), result) tuple
# under "call", replaced whole so that no reader sees a mixed entry.
_last_exact: dict = {}


def _frozen(*arrays: np.ndarray) -> bool:
    """Whether every array is still read-only, as a memo's inputs and
    results must be for a memo hit."""
    return not any(a.flags.writeable for a in arrays)


def exact_moments(
    spectrum: DiscreteSpectrum, dt: float, n_max: int
) -> FourierMomentSet:
    """Exact phase moments m_0 .. m_{n_max} of a discrete spectrum.

    A call on the same spectrum object as the call before, with equal dt
    and n_max, returns that call's moment set instead of computing it
    again, while the arrays of both are still read-only.
    """
    dt = float(check("dt", dt, POSITIVE))
    n_max = check("n_max", n_max, at_least(0))
    last = _last_exact.get("call")
    if (
        last is not None
        and last[0] is spectrum
        and last[1] == (dt, n_max)
        and _frozen(spectrum.eigenfrequencies, spectrum.weights, last[2].values)
    ):
        return last[2]
    vals = phase_moment_sums(spectrum.eigenfrequencies, spectrum.weights, dt, n_max)
    result = FourierMomentSet(
        dt=dt, values=vals, provenance="exact", mu0=spectrum.mu0
    )
    _last_exact["call"] = (spectrum, (dt, n_max), result)
    return result


def sampled_moments(
    spectrum: DiscreteSpectrum,
    dt: float,
    n_max: int,
    shots_per_part: int,
    seed: int,
    clamp: bool = False,
) -> FourierMomentSet:
    """Shot-noise estimates of the phase moments of a normalized spectrum.

    For each order n >= 1, Re m_n and Im m_n are estimated from
    shots_per_part two-outcome measurements with success probability
    (1 + x)/2, where x is the exact part value; the estimate is
    2 * successes / shots - 1, which is unbiased. m_0 is stored exactly
    (the normalization is assumed known). Each part p (0 real, 1
    imaginary) has one generator seeded from (seed, spawn_key=(p,)); the
    orders 1..n_max draw their binomial counts from it in sequence. The
    draws of orders 1..n consume the same stream whatever follows, so an
    order's estimate does not depend on n_max and a longer run extends a
    shorter one.

    clamp=True clips each part to [-1, 1] and then rescales any estimate
    with |m_n| > mu0 back to that modulus; the default leaves raw
    (unbiased) estimates untouched.

    Requires mu0 = 1: the two-outcome encoding bounds each part by the
    total weight, and the success-probability map assumes unit scale.
    """
    shots = check("shots_per_part", shots_per_part, at_least(1))
    seed = check("seed", seed, at_least(0))
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots_per_part must be <= {_MAX_SHOTS}, got {shots}")
    mu0 = spectrum.mu0
    if abs(mu0 - 1.0) > 1e-9:
        raise ValueError(
            f"sampled_moments requires a normalized spectrum (mu0 = 1), "
            f"got mu0 = {mu0}"
        )
    exact = exact_moments(spectrum, dt, n_max)
    parts = np.stack((exact.values[1:].real, exact.values[1:].imag))
    largest = float(np.abs(parts).max(initial=0.0))
    if largest > 1.0 + 1e-12:
        raise ValueError(
            f"|moment part| = {largest} exceeds 1; spectrum is not normalized"
        )
    p = np.clip(0.5 * (1.0 + parts), 0.0, 1.0)
    est = np.empty_like(p)
    for part in (0, 1):
        # one stream per (seed, part); orders draw from it in sequence
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(part,))
        )
        est[part] = 2.0 * rng.binomial(shots, p[part]) / shots - 1.0
    if clamp:
        np.clip(est, -1.0, 1.0, out=est)
    vals = np.empty(exact.values.size, dtype=np.complex128)
    vals[0] = mu0
    vals.real[1:] = est[0]
    vals.imag[1:] = est[1]
    if clamp:
        mod = np.abs(vals)
        over = mod > mu0
        vals[over] *= mu0 / mod[over]
    return FourierMomentSet(
        dt=exact.dt,
        values=vals,
        provenance="sampled",
        mu0=mu0,
        shots_per_part=shots,
        seed=seed,
    )


@dataclass(frozen=True)
class MomentErrorSummary:
    """Per-order and aggregate deviations between two moment sets.

    abs_err[n] = |m_n^a - m_n^b|. weighted_aggregate, when a kernel width
    was supplied, is the reconstruction-relevant quadrature combination

        (1/P) sqrt(sum_{n>=1} 2 (env_n |dm_n|)^2 + (env_0 |dm_0|)^2),

    env_n = exp(-(dt lam n)^2 / 2). By Fourier orthogonality this equals
    the root-mean-square over one period of the pointwise shift the
    deviations cause in the reconstructed transform (1/energy units);
    zeroth moments of valid sets are real, so dm_0 contributes exactly.
    """

    orders: np.ndarray
    abs_err: np.ndarray
    max_abs_err: float
    rms: float
    weighted_aggregate: float | None = None


def moment_error_summary(
    a: FourierMomentSet, b: FourierMomentSet, lam: float | None = None
) -> MomentErrorSummary:
    """Compare two moment sets sharing the same dt (e.g. exact vs sampled)."""
    if abs(a.dt - b.dt) > 1e-12 * max(a.dt, b.dt):
        raise ValueError(f"dt mismatch: {a.dt} vs {b.dt}")
    n_common = min(a.n_max, b.n_max)
    da = a.values[: n_common + 1] - b.values[: n_common + 1]
    abs_err = np.abs(da)
    aggregate = None
    if lam is not None:
        lam = check("lam", lam, POSITIVE)
        n = np.arange(n_common + 1)
        env = np.exp(-0.5 * (a.dt * lam) ** 2 * n * n)
        weights = np.where(n == 0, 1.0, 2.0)
        period = 2.0 * math.pi / a.dt
        aggregate = float(
            math.sqrt(float(np.sum(weights * (env * abs_err) ** 2))) / period
        )
    return MomentErrorSummary(
        orders=np.arange(n_common + 1),
        abs_err=abs_err,
        max_abs_err=float(abs_err.max()),
        rms=float(np.sqrt(np.mean(abs_err**2))),
        weighted_aggregate=aggregate,
    )
