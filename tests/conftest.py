import math
import os
from pathlib import Path

import numpy as np
import pytest

import fouriergit
from fouriergit import (
    ErrorBudget,
    FrequencyWindow,
    KernelSpec,
    make_model,
    summarize,
)
from fouriergit._backend import gaussian_transform

OMEGA_MODEL = 2.0 / 512.0  # level spacing of the 512-point benchmark models


@pytest.fixture(scope="session")
def model_a():
    return make_model("A")


@pytest.fixture(scope="session")
def model_b():
    return make_model("B")


@pytest.fixture(scope="session")
def stats_a(model_a):
    return summarize(model_a, orders=(2, 3, 4))


@pytest.fixture(scope="session")
def stats_b(model_b):
    return summarize(model_b, orders=(2, 3, 4))


@pytest.fixture(scope="session")
def kernel001():
    return KernelSpec.from_resolution(0.02, 0.01, 1.0)


@pytest.fixture(scope="session")
def budget001():
    return ErrorBudget(0.01, 0.01, 0.05, OMEGA_MODEL)


@pytest.fixture(scope="session")
def window_model():
    return FrequencyWindow(-1.0, -0.8)


def random_spectrum(seed, n=24, norm_scale=1.0, normalized=False):
    """Generic strictly-increasing random spectrum for property tests."""
    rng = np.random.default_rng(seed)
    om = np.sort(rng.uniform(-norm_scale, norm_scale, n))
    om += np.arange(n) * 1e-9  # break accidental ties
    om = np.clip(om, -norm_scale, norm_scale)
    w = rng.uniform(0.0, 1.0, n)
    if normalized:
        w /= w.sum()
    from fouriergit import DiscreteSpectrum

    return DiscreteSpectrum(om, w, norm_scale=norm_scale)


def package_env():
    """Environment for a child interpreter that imports the same fouriergit
    as this session, also when pytest's pythonpath setting found it."""
    src = str(Path(fouriergit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def periodic_line(nu, omega, lam, params):
    """Periodic kernel sum_j G(nu - omega - j P) of one unit line at omega,
    from gaussian_transform, on a 1-d array of nu (a scalar gives one
    element)."""
    return gaussian_transform(
        np.atleast_1d(nu), [omega], [1.0], lam, params.period, params.wrap_count
    )


def pytest_generate_tests(metafunc):
    """Parametrize a MemoContract test's `part` over its class's PARTS."""
    if "part" in metafunc.fixturenames:
        metafunc.parametrize("part", metafunc.cls.PARTS)


@pytest.fixture(autouse=True)
def fresh_memos():
    """Empty the one-entry memos of exact_moments, reconstruct, the plain
    transform and the resummation's x table before each test, so that a
    count of computations does not depend on which test ran before on the
    same session-scoped spectrum or grid."""
    from fouriergit import _backend

    _backend._memos.clear()


@pytest.fixture()
def moment_sums(monkeypatch):
    """Counts the moment computations behind exact_moments, which a
    repeated call on the same inputs skips."""
    from fouriergit import moments

    calls = []
    original = moments.phase_moment_sums

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(moments, "phase_moment_sums", counting)
    return calls


def same_bits(a, b) -> bool:
    """Whether two arrays hold the same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class MemoContract:
    """The one memo rule (_backend._recall), checked on one memo.

    A call whose key, the bytes of its input arrays and its other
    arguments, equals the held call's returns the held result, whose
    arrays cannot be made writable. Any other call computes afresh, and its
    result replaces the held one. A subclass gives the fixtures `args`
    (one call's arguments) and `computed` (the list of kernel computations
    behind the memo), names its key parts in PARTS, and defines call,
    fresh (the kernel's own result, computed outside the memo), copies
    (the same key in other objects or types), change (one key part
    changed alone) and array (the result's values)."""

    PARTS: tuple = ()

    def test_hit_is_bitwise_a_cold_call(self, args, computed):
        first = self.call(*args)
        assert same_bits(self.array(first), self.fresh(*args))
        for other in (args, *self.copies(*args)):
            assert self.call(*other) is first
        assert len(computed) == 1

    def test_each_key_part_misses_alone(self, args, computed, part):
        first = self.call(*args)
        other = self.change(part, *args)
        again = self.call(*other)
        assert again is not first
        assert len(computed) == 2
        assert same_bits(self.array(again), self.fresh(*other))

    def test_only_the_last_call_is_kept(self, args, computed):
        first = self.call(*args)
        self.call(*self.change(self.PARTS[0], *args))
        again = self.call(*args)
        assert again is not first
        assert len(computed) == 3
        assert same_bits(self.array(again), self.array(first))

    def test_result_cannot_be_made_writable(self, args, computed):
        first = self.call(*args)
        with pytest.raises(ValueError, match="WRITEABLE"):
            self.array(first).setflags(write=True)
        assert self.call(*args) is first
        assert len(computed) == 1
        assert same_bits(self.array(first), self.fresh(*args))


def normal_mixture_moments(components, dt, n_max):
    """Closed-form phase moments of a mixture of normal densities given as
    (mu0, mu, s) per component: m_n = sum mu0 exp(-i n dt mu - (n dt s)^2 / 2),
    n = 0..n_max, each phase n dt mu reduced mod 2 pi from the exact product
    dt mu in float64 pairs."""
    from fouriergit._backend import _times, _turns, _two_prod

    n = np.arange(n_max + 1)
    total = np.zeros(n_max + 1, dtype=np.complex128)
    for mu0, mu, s in components:
        turn = _turns(*_times(n.astype(float), *_two_prod(dt, mu)))[0]
        phase = np.cos(turn) - 1j * np.sin(turn)
        total += mu0 * np.exp(-0.5 * (n * (dt * s)) ** 2) * phase
    return total


def wrapped_normal(components, lam, period, nus):
    """The periodic transform of that mixture on nus: per component mu0
    times the normal density of spread sqrt(s^2 + lam^2) around mu, summed
    over every period image within 40 spreads of a grid point."""
    nus = np.asarray(nus, dtype=np.float64)
    out = np.zeros(nus.shape)
    for mu0, mu, s in components:
        spread = math.hypot(s, lam)
        nearest = np.round((nus - mu) / period)
        reach = math.ceil(40 * spread / period) + 1
        for j in range(-reach, reach + 1):
            z = (nus - mu - (nearest + j) * period) / spread
            out += mu0 * np.exp(-0.5 * z * z) / (spread * math.sqrt(2 * math.pi))
    return out
