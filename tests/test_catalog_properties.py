"""Property tests of the quantile lattice over the whole potential catalog.

Each test runs once per catalog kind, so every kind gets its own examples.
An example draws the kind's parameters, the grid size n, a window of grid
bounds around the kind's ``suggested_bounds`` and a law on the grid, and
checks an invariant that must hold for every reference, not only the
Gaussian.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entroflow as ef
from conftest import PROPERTY

KINDS = sorted(ef.measures.POTENTIAL_KINDS)
POSITIVE = st.floats(0.25, 4.0)
SHIFT = st.floats(-1.0, 1.0)


@st.composite
def potentials(draw, kind):
    """A potential of the catalog kind, with its parameters drawn; box draws its inner potential too."""
    if kind == "quadratic":
        return ef.quadratic(draw(POSITIVE), draw(SHIFT))
    if kind == "quartic":
        return ef.quartic(draw(POSITIVE), draw(st.floats(0.0, 2.0)))
    if kind == "abs":
        return ef.abs_potential(draw(POSITIVE), draw(SHIFT))
    if kind == "box":
        lo = draw(SHIFT)
        inner = draw(st.sampled_from([None, "quadratic", "abs"]))
        if inner is not None:
            inner = (ef.quadratic if inner == "quadratic" else ef.abs_potential)(draw(POSITIVE), draw(SHIFT))
        return ef.box(lo, lo + draw(st.floats(0.5, 4.0)), inner)
    if kind == "affine_max":
        # one falling and one rising line make exp(-V) integrable; the others may sit under the envelope
        lines = [(-draw(POSITIVE), draw(SHIFT)), (draw(POSITIVE), draw(SHIFT))]
        lines += draw(st.lists(st.tuples(st.floats(-4.0, 4.0), SHIFT), max_size=3))
        return ef.affine_max(lines)
    # tabulated: increasing slopes on increasing knots make a convex table
    k = draw(st.integers(3, 20))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=k - 1, max_size=k - 1))
    xs = draw(SHIFT) + np.concatenate([[0.0], np.cumsum(gaps)])
    slopes = np.sort(draw(st.lists(st.floats(-4.0, 4.0), min_size=k - 1, max_size=k - 1)))
    return ef.tabulated(xs, np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))]))


@st.composite
def references(draw, kind):
    """A discretized reference: a drawn potential on n cells over its suggested bounds, widened by a drawn margin."""
    pot = draw(potentials(kind))
    lo, hi = ef.suggested_bounds(pot)
    pad = draw(st.floats(0.0, 0.5)) * (hi - lo)
    return ef.discretize_reference(pot, draw(st.integers(20, 400)), (lo - pad, hi + pad))


@st.composite
def grid_laws(draw, gamma):
    """Cell weights on gamma's grid: gamma itself, one cell, or sparse random weights that may charge cells gamma does not."""
    law = draw(st.sampled_from(["reference", "cell", "random"]))
    if law == "reference":
        return np.array(gamma.weights)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.zeros(gamma.n)
    if law == "cell":
        w[rng.integers(gamma.n)] = 1.0
        return w
    w = rng.dirichlet(np.full(gamma.n, draw(st.floats(0.05, 5.0))))
    w[rng.random(gamma.n) < draw(st.floats(0.0, 0.9))] = 0.0
    w[rng.integers(gamma.n)] += 1.0  # keeps some mass
    return w / w.sum()


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_grid_round_trip_keeps_mass(kind, data):
    gamma = data.draw(references(kind))
    lat = ef.QuantileLattice(gamma)
    w = data.draw(grid_laws(gamma))
    assert abs(lat.to_grid_weights(lat.from_weights(w)).sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_reference_edges_give_back_reference_weights(kind, data):
    gamma = data.draw(references(kind))
    # the lattice drops the cells below MASS_FLOOR and renormalizes, so gamma moves by at most n MASS_FLOOR
    lat = ef.QuantileLattice(gamma)
    gap = np.abs(lat.to_grid_weights(lat.gamma_edges) - gamma.weights).sum()
    assert gap <= gamma.n * ef.QuantileLattice.MASS_FLOOR
