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
from fouriergit._backend import periodic_transform

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
    from periodic_transform, on a 1-d array of nu (a scalar gives one
    element)."""
    return periodic_transform(
        np.atleast_1d(nu), [omega], [1.0], lam, params.period, params.wrap_count
    )
