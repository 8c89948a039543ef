import numpy as np
import pytest
from hypothesis import settings

import entroflow as ef
from entroflow.measures import _random_tilts

# hypothesis settings of the property tests: the same examples on every run, a bounded count
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="session")
def gaussian_ref():
    return ef.discretize_reference(ef.quadratic(1.0), 400, (-8.0, 8.0))


@pytest.fixture(scope="session")
def gaussian_ref_coarse():
    return ef.discretize_reference(ef.quadratic(1.0), 200, (-8.0, 8.0))


@pytest.fixture(scope="session")
def uniform_ref():
    return ef.discretize_reference(ef.box(0.0, 1.0), 200, (0.0, 1.0))


@pytest.fixture(scope="session")
def quartic_ref():
    return ef.discretize_reference(ef.quartic(1.0, 1.0), 400, (-4.5, 4.5))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_grid_measure(gamma, rng, roughness=1.5):
    """Random finite-entropy measure on gamma's grid (bounded density tilt)."""
    return next(_random_tilts(gamma, 1, rng, (0.2, roughness), (0.5, 4.0), (0.0, 6.29), 6.0))


def random_atomic(rng, n=None, scale=1.0, shift=0.0):
    n = int(rng.integers(5, 50)) if n is None else n
    return ef.DiscreteMeasure.from_atoms(
        shift + scale * rng.normal(size=n), rng.dirichlet(np.ones(n))
    )
