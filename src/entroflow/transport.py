"""Quadratic-cost optimal transport between discrete measures.

Three solver tiers: the exact monotone quantile coupling in one dimension,
an exact linear program for small instances in any supported dimension, and
stabilized Sinkhorn scaling for large grids. Displacement interpolation and
cyclical-monotonicity diagnostics are built on top.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import logsumexp, ndtr, ndtri

from .measures import DiscreteMeasure, NormSpec

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
    "cyclical_monotonicity_check",
    "MonotonicityResult",
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
    cost: float
    source: np.ndarray  # (n, k) support of the first marginal
    target: np.ndarray  # (m, k)

    def marginal_violation(self, mu_w: np.ndarray, nu_w: np.ndarray) -> float:
        row_sums = np.zeros(len(mu_w))
        col_sums = np.zeros(len(nu_w))
        np.add.at(row_sums, self.rows, self.masses)
        np.add.at(col_sums, self.cols, self.masses)
        return float(
            max(np.abs(row_sums - mu_w).max(), np.abs(col_sums - nu_w).max())
        )

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
    epsilon: float


def _cost_matrix(x: np.ndarray, y: np.ndarray, norm: NormSpec | None) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    if norm is None:
        return np.einsum("ijk,ijk->ij", diff, diff)
    return np.einsum("ijk,kl,ijl->ij", diff, norm.matrix, diff)


# ---------------------------------------------------------------------------
# 1-D quantile machinery
# ---------------------------------------------------------------------------
def _quantile_segments(wa: np.ndarray, wb: np.ndarray):
    """Common refinement of two cumulative weight ladders.

    Returns (ia, ib, mass): for each merged quantile segment, the atom index
    on each side and the segment mass. Atoms with weight below cumulative
    float resolution may not appear.
    """
    qa = np.minimum(np.cumsum(wa), 1.0)
    qb = np.minimum(np.cumsum(wb), 1.0)
    qa[-1] = qb[-1] = 1.0
    levels = np.union1d(qa, qb)
    prev = np.concatenate([[0.0], levels[:-1]])
    mass = levels - prev
    mid = 0.5 * (levels + prev)
    ia = np.minimum(np.searchsorted(qa, mid, side="left"), len(wa) - 1)
    ib = np.minimum(np.searchsorted(qb, mid, side="left"), len(wb) - 1)
    keep = mass > 0.0
    return ia[keep], ib[keep], mass[keep]


def _monotone_plan(xa, wa, xb, wb):
    """Monotone (north-west) coupling of sorted 1-D atoms with its cost."""
    ia, ib, mass = _quantile_segments(wa, wb)
    d = xa[ia] - xb[ib]
    cost = float(np.dot(mass, d * d))
    return ia, ib, mass, cost


def w2_exact_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    """Exact 1-D quadratic Wasserstein distance via the quantile coupling.

    The monotone coupling is optimal for convex costs; the squared distance
    is the exact integral of the squared quantile gap over [0, 1].
    """
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("w2_exact_1d needs one-dimensional measures")
    # the factory already sorts and merges atoms and keeps positive weights
    xa, wa = mu.x, mu.weights
    xb, wb = nu.x, nu.weights
    ia, ib, mass, cost = _monotone_plan(xa, wa, xb, wb)
    coupling = Coupling(
        rows=ia,
        cols=ib,
        masses=mass,
        cost=cost,
        source=mu.support,
        target=nu.support,
    )
    return TransportResult(distance=math.sqrt(max(cost, 0.0)), coupling=coupling)


# ---------------------------------------------------------------------------
# Exact LP
# ---------------------------------------------------------------------------
def w2_lp(
    mu: DiscreteMeasure, nu: DiscreteMeasure, norm: NormSpec | None = None
) -> TransportResult:
    """Exact transportation linear program (HiGHS) on the dense cost matrix.

    Supplying ``norm`` prices displacements in the associated quadratic
    form. Guarded to n*m <= 1e7 variables.
    """
    n, m = mu.n, nu.n
    if n * m > LP_SIZE_GUARD:
        raise ValueError(f"instance too large for the exact LP ({n}x{m})")
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    cost = _cost_matrix(mu.support, nu.support, norm)

    row_idx = np.repeat(np.arange(n), m)
    col_idx = np.tile(np.arange(m), n)
    var_idx = np.arange(n * m)
    a_eq = sparse.csr_matrix(
        (
            np.ones(2 * n * m),
            (
                np.concatenate([row_idx, n + col_idx]),
                np.concatenate([var_idx, var_idx]),
            ),
        ),
        shape=(n + m, n * m),
    )
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    rows, cols = np.nonzero(plan > 1e-15)
    coupling = Coupling(
        rows=rows,
        cols=cols,
        masses=plan[rows, cols],
        cost=float(res.fun),
        source=mu.support,
        target=nu.support,
    )
    return TransportResult(distance=math.sqrt(max(res.fun, 0.0)), coupling=coupling)


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


def w2_sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    epsilon: float,
    debias: bool = False,
) -> SinkhornResult:
    """Entropically regularized transport by stabilized kernel-domain scaling.

    The regularization is continued geometrically (factor 2) from a coarse
    level down to ``epsilon``, warm-starting the potentials; the converged
    plan is then projected onto the transport polytope, so the reported
    marginal violation is at rounding level. The distance estimate is the
    square root of the plan cost (entropy excluded), which decreases to the
    exact LP value as epsilon -> 0; ``debias`` subtracts the two
    self-transport plan costs.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cost = _cost_matrix(mu.support, nu.support, None)

    def solve(c, wa, wb):
        scale = max(float(np.mean(c)), epsilon)
        ladder = [epsilon]
        while ladder[-1] * 2.0 < 0.2 * scale:
            ladder.append(ladder[-1] * 2.0)
        g = np.zeros(len(wb))
        total_it = 0
        for eps in reversed(ladder):
            g, p, it, ok = _sinkhorn_level(wa, wb, c, eps, g)
            total_it += it
        p = _round_to_marginals(p, wa, wb)
        viol = max(
            np.abs(p.sum(axis=1) - wa).max(), np.abs(p.sum(axis=0) - wb).max()
        )
        return p, viol, total_it, ok

    plan, viol, iters, converged = solve(cost, mu.weights, nu.weights)
    plan_cost = float(np.sum(plan * cost))
    estimate_sq = plan_cost
    if debias:
        c_aa = _cost_matrix(mu.support, mu.support, None)
        c_bb = _cost_matrix(nu.support, nu.support, None)
        p_aa, _, _, _ = solve(c_aa, mu.weights, mu.weights)
        p_bb, _, _, _ = solve(c_bb, nu.weights, nu.weights)
        estimate_sq = plan_cost - 0.5 * float(np.sum(p_aa * c_aa)) - 0.5 * float(
            np.sum(p_bb * c_bb)
        )
    rows, cols = np.nonzero(plan > 1e-300)
    coupling = Coupling(
        rows=rows,
        cols=cols,
        masses=plan[rows, cols],
        cost=plan_cost,
        source=mu.support,
        target=nu.support,
    )
    return SinkhornResult(
        distance_estimate=math.sqrt(max(estimate_sq, 0.0)),
        coupling=coupling,
        marginal_violation=viol,
        iterations=iters,
        converged=converged,
        epsilon=epsilon,
    )


def w2(mu: DiscreteMeasure, nu: DiscreteMeasure, norm: NormSpec | None = None) -> float:
    """Quadratic Wasserstein distance, dispatching to the exact solvers.

    One-dimensional inputs use the quantile coupling (a scalar norm only
    rescales it); anything else goes through the LP.
    """
    if mu.dim == 1 and nu.dim == 1:
        base = w2_exact_1d(mu, nu).distance
        if norm is None:
            return base
        return math.sqrt(float(norm.matrix[0, 0])) * base
    return w2_lp(mu, nu, norm).distance


# ---------------------------------------------------------------------------
# Displacement interpolation
# ---------------------------------------------------------------------------
def displacement_interpolate(
    mu0: DiscreteMeasure, mu1: DiscreteMeasure, t: float
) -> DiscreteMeasure:
    """Geodesic interpolation ((1-t) x + t y) pushed through an optimal plan."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if mu0.dim == 1 and mu1.dim == 1:
        coupling = w2_exact_1d(mu0, mu1).coupling
    else:
        coupling = w2_lp(mu0, mu1).coupling
    pts = (1.0 - t) * coupling.source[coupling.rows] + t * coupling.target[coupling.cols]
    return DiscreteMeasure.from_atoms(pts, coupling.masses)


def interpolate_from_base(
    base: DiscreteMeasure, nu0: DiscreteMeasure, nu1: DiscreteMeasure, t: float
) -> DiscreteMeasure:
    """Interpolation ((1-t) r0 + t r1)_# base along the two monotone maps.

    The base measure is refined at the merged quantile levels of its
    couplings with nu0 and nu1, so both transport maps are single-valued on
    every refined piece; this realizes the curve used in the quadrilateral
    convexity inequality exactly.
    """
    for m in (base, nu0, nu1):
        if m.dim != 1:
            raise ValueError("base-point interpolation is one-dimensional")
    q_base = np.cumsum(base.weights)
    q0 = np.cumsum(nu0.weights)
    q1 = np.cumsum(nu1.weights)
    q_base[-1] = q0[-1] = q1[-1] = 1.0
    levels = np.union1d(np.union1d(q_base, q0), q1)
    prev = np.concatenate([[0.0], levels[:-1]])
    mass = levels - prev
    mid = 0.5 * (levels + prev)
    j0 = np.searchsorted(q0, mid, side="left")
    j1 = np.searchsorted(q1, mid, side="left")
    keep = mass > 0.0
    pts = (1.0 - t) * nu0.x[j0[keep]] + t * nu1.x[j1[keep]]
    return DiscreteMeasure.from_atoms(pts, mass[keep])


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MonotonicityResult:
    violations: int
    trials: int
    worst_gap: float


def cyclical_monotonicity_check(
    coupling: Coupling,
    trials: int,
    rng: np.random.Generator | None = None,
) -> MonotonicityResult:
    """Sample support tuples and permutations; count optimality violations.

    Optimal plans satisfy sum_i c(x_i, y_perm(i)) >= sum_i c(x_i, y_i) for
    every finite support family and permutation; a permutation counts as a
    violation when it lowers the cost by more than 1e-10.
    """
    if len(coupling.masses) < 2:
        raise ValueError("coupling needs at least two support pairs")
    rng = rng if rng is not None else np.random.default_rng(0)
    xs = coupling.source[coupling.rows]
    ys = coupling.target[coupling.cols]
    n_pairs = len(coupling.masses)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        ell = int(rng.integers(2, min(5, n_pairs) + 1))
        pick = rng.choice(n_pairs, size=ell, replace=False)
        perm = rng.permutation(ell)
        dx = xs[pick]
        dy = ys[pick]
        base = float(np.sum((dx - dy) ** 2))
        shuffled = float(np.sum((dx - dy[perm]) ** 2))
        gap = base - shuffled
        if gap > 1e-10:
            violations += 1
            worst = max(worst, gap)
    return MonotonicityResult(violations=violations, trials=trials, worst_gap=worst)


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
    x, w = x[keep], w[keep]
    cum = np.minimum(np.cumsum(w), 1.0)
    cum[-1] = 1.0
    levels = np.empty(2 * len(x))
    levels[0::2] = np.concatenate([[0.0], cum[:-1]])
    levels[1::2] = cum
    pos = np.repeat(x, 2)
    return levels, pos


def histogram_quantile_knots(edges, weights):
    """Knots of the quantile of a histogram (uniform density per cell)."""
    edges = np.asarray(edges, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("histogram must carry mass")
    w = w / total
    keep = w > 0
    cum = np.minimum(np.cumsum(w[keep]), 1.0)
    cum[-1] = 1.0
    levels = np.empty(2 * int(keep.sum()))
    levels[0::2] = np.concatenate([[0.0], cum[:-1]])
    levels[1::2] = cum
    pos = np.empty_like(levels)
    pos[0::2] = edges[:-1][keep]
    pos[1::2] = edges[1:][keep]
    return levels, pos


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
    if levels[0] > 0.0:
        levels = np.concatenate([[0.0], levels])
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
    if u[0] > 0.0:
        u = np.concatenate([[0.0], u])
        x = np.concatenate([[x[0]], x])
    if u[-1] < 1.0:
        u = np.concatenate([u, [1.0]])
        x = np.concatenate([x, [x[-1]]])
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
