"""Self-tests of the benchmark's correctness checks.

Each check must accept the closed form it compares against and reject a
deliberately wrong input. Run with ``python3 -m pytest benchmarks``.
"""
import math

import numpy as np
import pytest

import checks as C

CENTERS = C.grid_centers(-8.0, 8.0, 400)


def ou_matrix(centers, t, a=1.0, m=0.0):
    return np.array([C.gaussian_cell_masses(centers, *C.ou_law(x, 0.0, t, a, m)) for x in centers])


def test_w2_atomic_matches_closed_forms():
    x = np.array([0.0, 1.0, 2.0])
    w = np.array([0.2, 0.5, 0.3])
    assert C.w2_atomic_1d(x, w, x + 0.7, w) == pytest.approx(0.7, abs=1e-14)
    assert C.w2_atomic_1d([0.0], [1.0], [3.0], [1.0]) == pytest.approx(3.0)
    # half the mass moves by 2: W2^2 = 0.5 * 4
    assert C.w2_atomic_1d([0.0, 1.0], [0.5, 0.5], [0.0, 3.0], [0.5, 0.5]) == pytest.approx(math.sqrt(2.0))


def test_w2_to_gaussian_accepts_projection_and_rejects_shift():
    mean, std = C.ou_law(1.0, 0.25, 1.0)
    exact = C.gaussian_cell_masses(CENTERS, mean, std)
    assert C.check_w2_to_gaussian(CENTERS, exact, CENTERS, mean, std, C.FLOW_W2_TOL) is None
    shifted = np.roll(exact, 1)  # one cell = 0.04
    assert C.check_w2_to_gaussian(CENTERS, shifted, CENTERS, mean, std, C.FLOW_W2_TOL) is not None
    assert C.check_w2_to_gaussian(CENTERS + 0.01, exact, CENTERS, mean, std, 1.0) is not None


def test_nonincreasing():
    assert C.check_nonincreasing([3.0, 2.0, 2.0, 1.0]) is None
    assert C.check_nonincreasing([3.0, 2.0, 2.0 + 1e-8, 1.0]) is not None
    assert C.check_nonincreasing([1.0, math.inf]) is not None


def test_semigroup_checks_accept_ou_and_reject_perturbed_row():
    centers = C.grid_centers(-8.0, 8.0, 60)
    p = ou_matrix(centers, 0.25)
    rows = np.arange(5, 55)
    assert C.check_row_stochastic(p) is None
    assert C.check_semigroup_rows(p, centers, 0.25, 1.0, 0.0, rows) is None
    ref = np.exp(-0.5 * centers**2)
    assert C.check_transition_entropy(p, centers, ref, 0.25) is None

    moved = p.copy()
    moved[30] = np.roll(moved[30], 1)
    assert C.check_semigroup_rows(moved, centers, 0.25, 1.0, 0.0, rows) is not None
    heavy = p.copy()
    heavy[30, 30] += 1e-3
    assert C.check_row_stochastic(heavy) is not None
    # a row piled on a far cell carries more entropy than the estimate allows
    far = p.copy()
    far[30] = 0.0
    far[30, 44] = 1.0
    assert C.check_transition_entropy(far, centers, ref, 0.25) is not None


def test_sde_moments_accept_em_chain_and_reject_shift():
    x, a, dt, steps = 1.0, 1.0, 0.01, 50
    rng = np.random.default_rng(5)
    xs = np.full(100_000, x)
    for _ in range(steps):
        xs = xs - a * xs * dt + math.sqrt(2.0 * dt) * rng.standard_normal(len(xs))
    assert C.check_sde_moments(xs, x, a, dt, steps) is None
    assert C.check_sde_moments(xs + 0.05, x, a, dt, steps) is not None
    assert C.check_sde_moments(1.1 * xs, x, a, dt, steps) is not None


def test_em_moments_match_recursion():
    x, a, dt, steps = 0.7, 1.3, 0.02, 40
    mean, var = x, 0.0
    for _ in range(steps):
        mean, var = (1 - a * dt) * mean, (1 - a * dt) ** 2 * var + 2 * dt
    assert C.em_ou_moments(x, a, dt, steps) == pytest.approx((mean, var), rel=1e-12)


def _clouds():
    rng = np.random.default_rng(3)
    xa, wa = np.sort(rng.normal(size=30)), rng.dirichlet(np.ones(30))
    xb, wb = np.sort(0.5 + rng.normal(size=25)), rng.dirichlet(np.ones(25))
    return xa, wa, xb, wb


def test_lp_check():
    xa, wa, xb, wb = _clouds()
    exact = C.w2_atomic_1d(xa, wa, xb, wb)
    assert C.check_lp(exact, xa, wa, xb, wb) is None
    assert C.check_lp(exact + 1e-6, xa, wa, xb, wb) is not None


def monotone_plan(wa, wb):
    qa, qb = np.cumsum(wa), np.cumsum(wb)
    levels = np.union1d(qa, qb)
    mass = np.diff(np.concatenate([[0.0], levels]))
    mid = levels - 0.5 * mass
    return np.searchsorted(qa, mid), np.searchsorted(qb, mid), mass


def test_sinkhorn_check_accepts_optimal_plan_and_rejects_product_plan():
    xa, wa, xb, wb = _clouds()
    rows, cols, mass = monotone_plan(wa, wb)
    rows, cols = np.minimum(rows, len(wa) - 1), np.minimum(cols, len(wb) - 1)
    assert C.check_sinkhorn(rows, cols, mass, 0.05, xa, wa, xb, wb) is None
    r, c = np.meshgrid(np.arange(len(wa)), np.arange(len(wb)), indexing="ij")
    product = np.outer(wa, wb)
    assert C.check_sinkhorn(r.ravel(), c.ravel(), product.ravel(), 0.05, xa, wa, xb, wb) is not None
    assert C.check_sinkhorn(rows, cols, 1.01 * mass, 0.05, xa, wa, xb, wb) is not None


def test_ladder_checks():
    closed = C.gaussian_ladder_gaps(2.5, 1.0, (4, 16, 64), 0.01, 0.25)
    assert np.all(np.diff(closed) < 0)
    assert C.check_ladder(closed, closed) is None
    assert C.check_ladder(1.2 * closed, closed) is not None
    # start offsets of a few hundredths swamp the late gaps
    assert C.check_ladder(closed + np.array([0.0, 0.0125, 0.034]), closed) is not None
    assert C.check_final_gap(closed, 0.05) is None
    assert C.check_final_gap(closed + 0.05, 0.05) is not None


def test_ladder_closed_form_matches_gaussian_w2():
    x, a, n, t = 1.0, 1.0, 4, 0.25
    a_n = a / (1 + 1 / n)
    dm = x * (math.exp(-a_n * t) - math.exp(-a * t))
    ds = math.sqrt((1 - math.exp(-2 * a_n * t)) / a_n) - math.sqrt(1 - math.exp(-2 * a * t))
    # the gap grows with t, so the sup over step times sits at the horizon
    assert C.gaussian_ladder_gaps(x, a, (n,), 0.01, t)[0] == pytest.approx(math.hypot(dm, ds))


def test_manifest_items():
    ok = {"checks": {"items": [{"check_id": "a", "passed": True, "value": 1.0, "bound": 1.0, "tolerance": 0.0}]}}
    assert C.check_manifest_items(ok, "m") is None
    bad = {"checks": {"items": [{"check_id": "a", "passed": True, "value": 2.0, "bound": 1.0, "tolerance": 0.5}]}}
    assert C.check_manifest_items(bad, "m") is not None
    assert C.check_manifest_items({"checks": {"items": []}}, "m") is not None
