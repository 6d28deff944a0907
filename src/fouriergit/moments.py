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

from dataclasses import dataclass

import numpy as np

from ._backend import _frozen, _recall, phase_moment_sums
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
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def n_max(self) -> int:
        return self.values.size - 1

    def moment(self, n: int) -> complex:
        """m_n for any integer order, using m_{-n} = conj(m_n)."""
        if abs(n) > self.n_max:
            raise ValueError(f"order {n} outside the stored range 0..{self.n_max}")
        return complex(self.values[n]) if n >= 0 else complex(np.conj(self.values[-n]))


def exact_moments(
    spectrum: DiscreteSpectrum, dt: float, n_max: int
) -> FourierMomentSet:
    """Exact phase moments m_0 .. m_{n_max} of a discrete spectrum.

    A call on lines and weights of the same bytes as the call before, with
    equal dt and n_max, returns that call's moment set instead of
    computing it again (_recall); its values cannot be made writable.
    """
    dt = float(check("dt", dt, POSITIVE))
    n_max = check("n_max", n_max, at_least(0))
    om, w = spectrum.eigenfrequencies, spectrum.weights
    return _recall(
        "exact_moments", (om.tobytes(), w.tobytes(), dt, n_max),
        lambda: FourierMomentSet(dt=dt, values=phase_moment_sums(om, w, dt, n_max),
                                 provenance="exact", mu0=spectrum.mu0),
    )


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

    Each part estimate lies in [-1, 1]. clamp=True rescales any estimate
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
    p = np.clip(0.5 * (1.0 + parts), 0.0, 1.0)
    est = np.empty_like(p)
    for part in (0, 1):
        # one stream per (seed, part); orders draw from it in sequence
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(part,))
        )
        est[part] = 2.0 * rng.binomial(shots, p[part]) / shots - 1.0
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
