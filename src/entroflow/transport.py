"""Quadratic-cost optimal transport between discrete measures on the line.

On the line the monotone quantile coupling is optimal, so ``w2`` is the exact
L2 distance of the quantile functions. ``optimality_certificate`` proves a plan
optimal by Kantorovich duality, without solving anything. Two solvers that do
not use the monotone structure serve as cross-checks: an exact linear program
for small instances and stabilized Sinkhorn scaling for large ones.
Displacement interpolation is built on top.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtr, ndtri

from .measures import DiscreteMeasure, _quantile_knots, _quantile_ladder

__all__ = [
    "Coupling",
    "atomic_quantile_knots",
    "histogram_quantile_knots",
    "w2_quantile_knots",
    "w2_knots_to_gaussian",
    "TransportResult",
    "SinkhornResult",
    "w2_exact_1d",
    "w2_lp",
    "w2_sinkhorn",
    "w2",
    "displacement_interpolate",
    "interpolate_from_base",
    "optimality_certificate",
]

MARGINAL_TOL = 1e-9
LP_SIZE_GUARD = 10_000_000
SINKHORN_MAX_ITERS = 3000  # per regularization level
SINKHORN_TOL = 1e-7  # marginal violation that ends a level
SINKHORN_ABSORB = 1e3  # scaling beyond which it moves into the potentials


# ---------------------------------------------------------------------------
# Couplings
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Coupling:
    """Sparse transport plan between two discrete measures.

    ``rows``/``cols`` index atoms of the source and target supports;
    ``masses`` are the plan entries.
    """

    rows: np.ndarray
    cols: np.ndarray
    masses: np.ndarray
    source: np.ndarray  # (n,) support of the first marginal
    target: np.ndarray  # (m,)

    def marginal_violation(self, mu_w: np.ndarray, nu_w: np.ndarray) -> float:
        row_sums = np.zeros(len(mu_w))
        col_sums = np.zeros(len(nu_w))
        np.add.at(row_sums, self.rows, self.masses)
        np.add.at(col_sums, self.cols, self.masses)
        return float(
            max(np.abs(row_sums - mu_w).max(), np.abs(col_sums - nu_w).max())
        )

    @classmethod
    def from_dense(cls, plan: np.ndarray, floor: float, source, target) -> "Coupling":
        """The entries of a dense (n, m) plan above ``floor``."""
        rows, cols = np.nonzero(plan > floor)
        return cls(rows=rows, cols=cols, masses=plan[rows, cols], source=source, target=target)

    def dense(self, n: int, m: int) -> np.ndarray:
        plan = np.zeros((n, m))
        np.add.at(plan, (self.rows, self.cols), self.masses)
        return plan


@dataclass(frozen=True)
class TransportResult:
    distance: float
    coupling: Coupling


@dataclass(frozen=True)
class SinkhornResult:
    distance_estimate: float
    coupling: Coupling
    marginal_violation: float
    iterations: int
    converged: bool


def _cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = x[:, None] - y[None, :]
    return d * d


# ---------------------------------------------------------------------------
# 1-D quantile machinery
# ---------------------------------------------------------------------------
def _quantile_segments(*weights):
    """Common refinement of the cumulative ladders of several weight vectors.

    Returns (indices, mass): for each merged quantile segment, the atom
    index in each weight vector and the segment mass. Atoms with weight
    below cumulative float resolution may not appear.
    """
    ladders = [_quantile_ladder(w) for w in weights]
    levels = np.unique(np.concatenate(ladders))
    prev = np.concatenate([[0.0], levels[:-1]])
    mass = levels - prev
    keep = mass > 0.0
    # no midpoint exceeds 1, each ladder's last level, so every index is an atom's
    mid = 0.5 * (levels + prev)[keep]
    return [np.searchsorted(q, mid, side="left") for q in ladders], mass[keep]


def w2_exact_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    """Exact 1-D quadratic Wasserstein distance via the quantile coupling.

    The monotone coupling is optimal for convex costs; the squared distance
    is the exact integral of the squared quantile gap over [0, 1].
    """
    # the factory already sorts and merges atoms and keeps positive weights
    (ia, ib), mass = _quantile_segments(mu.weights, nu.weights)
    d = mu.x[ia] - nu.x[ib]
    cost = float(np.dot(mass, d * d))
    coupling = Coupling(rows=ia, cols=ib, masses=mass, source=mu.x, target=nu.x)
    return TransportResult(distance=math.sqrt(max(cost, 0.0)), coupling=coupling)


# ---------------------------------------------------------------------------
# Exact LP
# ---------------------------------------------------------------------------
def w2_lp(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    """Exact transportation linear program (HiGHS) on the dense cost matrix.

    Guarded to n*m <= 1e7 variables. Presolve is off: it would remove only
    the one dependent marginal row, which the dual simplex handles as it is.
    HiGHS meets the marginal rows only to its feasibility tolerances, so
    they are tightened to 1e-10 and the plan is rounded onto its marginals
    before its cost is read: an atom of mass 1e-12 keeps its mass.
    """
    n, m = mu.n, nu.n
    if n * m > LP_SIZE_GUARD:
        raise ValueError(f"instance too large for the exact LP ({n}x{m})")
    # the package's one deferred import: the LP stack (about 15 MB) loads only for an LP
    from scipy import sparse
    from scipy.optimize import linprog

    c = _cost_matrix(mu.x, nu.x)
    # every plan entry (i, j) sits in two rows: its source row i and its target row n + j
    i, j = np.divmod(np.arange(n * m), m)
    rows = np.stack([i, n + j], axis=1).ravel()
    a_eq = sparse.csc_matrix((np.ones(len(rows)), rows, np.arange(0, len(rows) + 1, 2)), shape=(n + m, n * m))
    res = linprog(
        c.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]), bounds=(0, None),
        method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = _round_to_marginals(np.maximum(res.x.reshape(n, m), 0.0), mu.weights, nu.weights)
    cost = float(np.vdot(c, plan))
    coupling = Coupling.from_dense(plan, 1e-15, mu.x, nu.x)
    return TransportResult(distance=math.sqrt(max(cost, 0.0)), coupling=coupling)


# ---------------------------------------------------------------------------
# Sinkhorn scaling
# ---------------------------------------------------------------------------
def _gibbs_kernel(log_a, log_b, cost, eps, f, g):
    """K_ij = a_i b_j exp((f_i + g_j - C_ij) / eps), built in one buffer."""
    k = f[:, None] + g[None, :] - cost
    k /= eps
    k += log_a[:, None]
    k += log_b[None, :]
    np.exp(k, out=k)
    # subnormal entries slow every product with K and carry no mass
    k[k < np.finfo(float).tiny] = 0.0
    return k


def _c_transform(g, cost, log_b, eps):
    """f_i = -eps log sum_j b_j exp((g_j - C_ij) / eps), in the log domain.

    The f that puts row marginal a on the plan of (f, g): every row of the
    Gibbs kernel gets an entry of at least a_i / m, so none underflows.
    """
    return -eps * logsumexp((g[None, :] - cost) / eps + log_b[None, :], axis=1)


def _in_range(s) -> bool:
    """True when every scaling lies in [1/SINKHORN_ABSORB, SINKHORN_ABSORB] (NaN does not)."""
    return bool(s.max() <= SINKHORN_ABSORB and s.min() >= 1.0 / SINKHORN_ABSORB)


def _sinkhorn_level(a, b, cost, eps, g):
    """One regularization level of stabilized scaling (Schmitzer 2019).

    The plan is u_i K_ij v_j with K the Gibbs kernel of potentials (f, g).
    The level opens with f the c-transform of the warm-start g. The
    scalings then follow v = b / (K^T u), u = a / (K v), matrix-vector
    products only. A scaling that leaves [1/A, A] for A = SINKHORN_ABSORB
    (or that a kernel row or column underflowed to make infinite) is
    replaced by the log-domain c-transform it stands for, the other
    scaling is absorbed into its potential, and K is rebuilt. Iteration k
    ends with the k-th v; every 5th tests the row marginals. Returns (g,
    plan, iterations, converged).
    """
    log_a, log_b = np.log(a), np.log(b)
    f = _c_transform(g, cost, log_b, eps)
    kernel = _gibbs_kernel(log_a, log_b, cost, eps, f, g)
    u, v = np.ones(len(a)), np.ones(len(b))
    it = 0
    # an underflowed kernel row or column makes a scaling infinite; it is then replaced
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            np.divide(b, u @ kernel, out=v)
            it += 1
            if not _in_range(v):
                f = f + eps * np.log(u)
                g = _c_transform(f, cost.T, log_a, eps)
                kernel = _gibbs_kernel(log_a, log_b, cost, eps, f, g)
                u[:] = v[:] = 1.0
            kv = kernel @ v
            if it % 5 == 0 or it == SINKHORN_MAX_ITERS:
                ok = bool(np.abs(u * kv - a).max() < SINKHORN_TOL)
                if ok or it == SINKHORN_MAX_ITERS:
                    break
            np.divide(a, kv, out=u)
            if not _in_range(u):
                g = g + eps * np.log(v)
                f = _c_transform(g, cost, log_b, eps)
                kernel = _gibbs_kernel(log_a, log_b, cost, eps, f, g)
                u[:] = v[:] = 1.0
    g = g + eps * np.log(v)
    kernel *= u[:, None]
    kernel *= v[None, :]
    return g, kernel, it, ok


def _round_to_marginals(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project a nonnegative plan onto the transport polytope.

    Scaling rows and columns down where they overshoot and adding the
    rank-one correction restores the marginals exactly while keeping the
    plan nonnegative and moving it by at most the original violation.
    """
    row = p.sum(axis=1)
    p = p * np.minimum(a / np.maximum(row, 1e-300), 1.0)[:, None]
    col = p.sum(axis=0)
    p = p * np.minimum(b / np.maximum(col, 1e-300), 1.0)[None, :]
    err_a = a - p.sum(axis=1)
    err_b = b - p.sum(axis=0)
    total = err_a.sum()
    if total > 1e-300:
        p = p + np.outer(err_a, err_b) / total
    return p


def w2_sinkhorn(mu: DiscreteMeasure, nu: DiscreteMeasure, epsilon: float) -> SinkhornResult:
    """Entropically regularized transport by stabilized kernel-domain scaling.

    The regularization is continued geometrically (factor 2) from a coarse
    level down to ``epsilon``, warm-starting the potentials; the converged
    plan is then projected onto the transport polytope, so the reported
    marginal violation is at rounding level. The distance estimate is the
    square root of the plan cost (entropy excluded), which decreases to the
    exact LP value as epsilon -> 0.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    a, b = mu.weights, nu.weights
    cost = _cost_matrix(mu.x, nu.x)
    scale = max(float(np.mean(cost)), epsilon)
    ladder = [epsilon]
    while ladder[-1] * 2.0 < 0.2 * scale:
        ladder.append(ladder[-1] * 2.0)
    g = np.zeros(len(b))
    iters = 0
    for eps in reversed(ladder):
        g, plan, it, converged = _sinkhorn_level(a, b, cost, eps, g)
        iters += it
    plan = _round_to_marginals(plan, a, b)
    viol = max(np.abs(plan.sum(axis=1) - a).max(), np.abs(plan.sum(axis=0) - b).max())
    plan_cost = float(np.sum(plan * cost))
    return SinkhornResult(
        distance_estimate=math.sqrt(max(plan_cost, 0.0)),
        coupling=Coupling.from_dense(plan, 1e-300, mu.x, nu.x),
        marginal_violation=viol,
        iterations=iters,
        converged=converged,
    )


def w2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Quadratic Wasserstein distance: the quantile distance of ``w2_exact_1d``."""
    return w2_exact_1d(mu, nu).distance


# ---------------------------------------------------------------------------
# Displacement interpolation
# ---------------------------------------------------------------------------
def displacement_interpolate(
    mu0: DiscreteMeasure, mu1: DiscreteMeasure, t: float
) -> DiscreteMeasure:
    """Geodesic interpolation ((1-t) x + t y) pushed through the monotone plan."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return interpolate_from_base(mu0, mu0, mu1, t)


def interpolate_from_base(
    base: DiscreteMeasure, nu0: DiscreteMeasure, nu1: DiscreteMeasure, t: float
) -> DiscreteMeasure:
    """Interpolation ((1-t) r0 + t r1)_# base along the two monotone maps.

    The base measure is refined at the merged quantile levels of its
    couplings with nu0 and nu1, so both transport maps are single-valued on
    every refined piece; this realizes the curve used in the quadrilateral
    convexity inequality exactly.
    """
    (_, j0, j1), mass = _quantile_segments(base.weights, nu0.weights, nu1.weights)
    return DiscreteMeasure.from_atoms((1.0 - t) * nu0.x[j0] + t * nu1.x[j1], mass)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------
def optimality_certificate(coupling: Coupling, a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """Weak-duality proof that a plan between weights a and b is optimal.

    Kantorovich potentials are read off the monotone staircase of the
    marginals, not off the plan: phi_i + psi_j = c_ij on each staircase
    cell, and where both indices advance, the zero-mass corner cell
    (i_next, j_prev) links the two cells. An atom that the staircase skips
    (weight below cumulative float resolution) takes its c-transform.
    Returns (the plan's marginal violation, the largest phi_i + psi_j - c_ij
    over every (i, j), |plan cost - (sum phi a + sum psi b)|), the last two
    relative to the largest cost. When all three are small the plan's cost
    is the LP optimum to within them. The dual check runs over every cell,
    so the proof assumes nothing about the plan or the supports' order.
    """
    c = _cost_matrix(coupling.source, coupling.target)
    (ia, ib), _ = _quantile_segments(a, b)
    # phi moves only on the steps that advance i, by the cost change along column j_prev
    phi_k = np.concatenate([[0.0], np.cumsum(c[ia[1:], ib[:-1]] - c[ia[:-1], ib[:-1]])])
    # -inf marks an atom that the staircase skips until it takes its c-transform
    phi = np.full(len(a), -np.inf)
    psi = np.full(len(b), -np.inf)
    phi[ia] = phi_k
    psi[ib] = c[ia, ib] - phi_k
    phi = np.where(phi == -np.inf, (c - psi).min(axis=1), phi)
    psi = np.where(psi == -np.inf, (c - phi[:, None]).min(axis=0), psi)
    scale = float(c.max()) or 1.0  # every cost is 0 when all atoms sit at one point
    dual = float((phi[:, None] + psi - c).max()) / scale
    cost = float(np.dot(coupling.masses, c[coupling.rows, coupling.cols]))
    gap = abs(cost - float(np.dot(phi, a) + np.dot(psi, b))) / scale
    return coupling.marginal_violation(a, b), dual, gap


# ---------------------------------------------------------------------------
# Piecewise-linear quantile metric
# ---------------------------------------------------------------------------
def atomic_quantile_knots(points, weights):
    """Knot representation (levels, positions) of an atomic quantile.

    The staircase quantile of an atomic measure is encoded as a degenerate
    piecewise-linear function with doubled knots at every jump.
    """
    x = np.ravel(np.asarray(points, dtype=float))
    w = np.ravel(np.asarray(weights, dtype=float))
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    keep = w > 0
    return _quantile_knots(w[keep], x[keep], x[keep])


def histogram_quantile_knots(edges, weights):
    """Knots of the quantile of a histogram (uniform density per cell)."""
    edges = np.asarray(edges, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("histogram must carry mass")
    w = w / total
    keep = w > 0
    return _quantile_knots(w[keep], edges[:-1][keep], edges[1:][keep])


_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)


def w2_quantile_knots(knots_a, knots_b) -> float:
    """W2 of two measures given piecewise-linear quantile knots.

    On the merged level partition both quantiles are affine, so the squared
    gap is quadratic; the two-point Gauss rule integrates it exactly while
    evaluating only strictly inside each interval, which keeps staircase
    jumps (duplicated knot levels) unambiguous.
    """
    ua, xa = knots_a
    ub, xb = knots_b
    levels = np.union1d(ua, ub)
    if levels[0] != 0.0:
        raise ValueError("quantile knots must start at level 0")
    seg = np.diff(levels)
    mid = 0.5 * (levels[:-1] + levels[1:])
    lo_node = mid - _GAUSS_OFFSET * seg
    hi_node = mid + _GAUSS_OFFSET * seg
    d_lo = np.interp(lo_node, ua, xa) - np.interp(lo_node, ub, xb)
    d_hi = np.interp(hi_node, ua, xa) - np.interp(hi_node, ub, xb)
    total = float(np.sum(0.5 * seg * (d_lo**2 + d_hi**2)))
    return math.sqrt(max(total, 0.0))


def w2_knots_to_gaussian(knots, mean: float, std: float) -> float:
    """Exact W2 between a piecewise-linear-quantile measure and N(mean, std^2).

    The polynomial part is integrated in local interval coordinates and the
    cross term by parts in the Gaussian variable, which keeps steep or
    degenerate quantile segments numerically harmless.
    """
    if std <= 0:
        raise ValueError("std must be positive")
    u = np.asarray(knots[0], dtype=float)
    x = np.asarray(knots[1], dtype=float)
    if u[0] != 0.0 or u[-1] != 1.0:
        raise ValueError("quantile knots must span the levels [0, 1]")
    du = np.diff(u)
    dx = np.diff(x)
    c = x[:-1] - mean
    # int (c + (dx/du) t)^2 dt over [0, du], slope-free form
    p0 = du * (c * c + c * dx + dx * dx / 3.0)

    inner = (u > 0.0) & (u < 1.0)
    z = np.where(inner, ndtri(np.where(inner, u, 0.5)), 0.0)
    phi = np.where(inner, np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi), 0.0)
    zphi = z * phi
    a4 = np.where(
        inner,
        ndtr(math.sqrt(2.0) * z),
        np.where(u <= 0.0, 0.0, 1.0),
    ) / (2.0 * math.sqrt(math.pi))
    # cross term int Q z du = sum slopes int phi + jump terms (by parts)
    d4 = np.diff(a4)
    pieces = du > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        slope_term = np.where(pieces & (d4 > 0.0), (dx / np.where(pieces, du, 1.0)) * d4, 0.0)
    jump_term = np.where(~pieces, phi[:-1] * dx, 0.0)
    cross = float(np.sum(slope_term) + np.sum(jump_term))
    # int z^2 du totals 1; per piece it is u - z phi
    a2 = u - zphi
    total = float(np.sum(p0)) - 2.0 * std * cross + std * std * float(a2[-1] - a2[0])
    return math.sqrt(max(total, 0.0))
