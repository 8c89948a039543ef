"""Correctness checks the benchmark applies to the program's outputs.

Every reference value here is computed apart from the program: closed-form
Ornstein-Uhlenbeck laws projected onto grid cells, a sorted-quantile 1-D
Wasserstein distance, Euler-Maruyama moment recursions and Gaussian
gap ladders. Nothing in this module imports ``entroflow``.

Each check returns ``None`` when the output passes and a one-line reason
when it does not.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

# Tolerances. Each is several times the discretization error observed on
# correct outputs (see README) and well below the error a one-cell shift
# of the measure produces.
FLOW_W2_TOL = 0.004
SEMIGROUP_W2_TOL = 0.06
FP_W2_TOL = 0.006
ENTROPY_SLACK = 1e-10
LP_TOL = 1e-8
SDE_Z_MAX = 6.0
LADDER_REL_TOL = 0.05
LADDER_ABS_TOL = 5e-4


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------
def grid_centers(lo: float, hi: float, n: int) -> np.ndarray:
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h


def gaussian_cell_masses(centers: np.ndarray, mean: float, std: float) -> np.ndarray:
    """Exact N(mean, std^2) mass of each grid cell; tails join the end cells."""
    h = centers[1] - centers[0]
    cuts = np.concatenate([[-np.inf], centers[:-1] + 0.5 * h, [np.inf]])
    return np.diff(ndtr((cuts - mean) / std))


def ou_law(x0_mean: float, x0_var: float, t: float, a: float = 1.0, m: float = 0.0):
    """Mean and std at time t of dX = -a (X - m) dt + sqrt(2) dW from N(x0_mean, x0_var)."""
    decay = math.exp(-a * t)
    mean = m + (x0_mean - m) * decay
    var = x0_var * decay * decay + (1.0 - decay * decay) / a
    return mean, math.sqrt(var)


def w2_atomic_1d(xa, wa, xb, wb) -> float:
    """W2 between two 1-D atomic measures from their sorted quantile functions."""
    xa, wa = _sorted(xa, wa)
    xb, wb = _sorted(xb, wb)
    qa = np.cumsum(wa) / wa.sum()
    qb = np.cumsum(wb) / wb.sum()
    levels = np.union1d(qa, qb)
    levels = levels[levels > 0.0]
    levels[-1] = 1.0
    mass = np.diff(np.concatenate([[0.0], levels]))
    mid = levels - 0.5 * mass
    ia = np.minimum(np.searchsorted(qa, mid), len(xa) - 1)
    ib = np.minimum(np.searchsorted(qb, mid), len(xb) - 1)
    d = xa[ia] - xb[ib]
    return math.sqrt(max(float(np.dot(mass, d * d)), 0.0))


def _sorted(x, w):
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    order = np.argsort(x, kind="stable")
    return x[order], w[order]


def on_grid(x: np.ndarray, w: np.ndarray, centers: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Dense weight vector on ``centers`` of atoms that must sit on them."""
    h = centers[1] - centers[0]
    idx = np.rint((np.asarray(x) - centers[0]) / h).astype(int)
    if np.any(idx < 0) or np.any(idx >= len(centers)):
        raise ValueError("atom outside the grid")
    if np.abs(centers[idx] - x).max() > tol * max(1.0, np.abs(centers).max()):
        raise ValueError("atom off the grid centers")
    out = np.zeros(len(centers))
    np.add.at(out, idx, w)
    return out


def gaussian_ladder_gaps(x: float, a: float, ns, tau: float, horizon: float) -> np.ndarray:
    """Sup over step times of W2 between the OU law under a/(1+1/n) and under a.

    Both flows start at the point x; W2 between Gaussians is the root of the
    squared mean gap plus the squared std gap.
    """
    steps = int(math.ceil(horizon / tau - 1e-9))
    times = tau * np.arange(1, steps + 1)
    out = []
    for n in ns:
        a_n = a / (1.0 + 1.0 / n)
        dm = x * (np.exp(-a_n * times) - np.exp(-a * times))
        s_n = np.sqrt(-np.expm1(-2.0 * a_n * times) / a_n)
        s = np.sqrt(-np.expm1(-2.0 * a * times) / a)
        out.append(float(np.sqrt(dm * dm + (s_n - s) ** 2).max()))
    return np.asarray(out)


def em_ou_moments(x: float, a: float, dt: float, steps: int):
    """Exact mean and variance of Euler-Maruyama for dX = -a X dt + sqrt(2) dW."""
    r = 1.0 - a * dt
    return x * r**steps, 2.0 * dt * (1.0 - r ** (2 * steps)) / (1.0 - r * r)


def shannon(w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    w = w[w > 0]
    return float(-np.dot(w, np.log(w)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def check_w2_to_gaussian(x, w, centers, mean, std, tol, label="measure"):
    """The grid measure is within ``tol`` in W2 of N(mean, std^2) on the same cells."""
    try:
        dense = on_grid(x, w, centers)
    except ValueError as exc:
        return f"{label}: {exc}"
    if abs(dense.sum() - 1.0) > 1e-9 or dense.min() < 0.0:
        return f"{label}: not a probability vector"
    ref = gaussian_cell_masses(centers, mean, std)
    gap = w2_atomic_1d(centers, dense, centers, ref)
    if not gap <= tol:
        return f"{label}: W2 to the closed-form law {gap:.3e} > {tol:.1e}"
    return None


def check_nonincreasing(values, slack=ENTROPY_SLACK):
    v = np.asarray(values, dtype=float)
    if len(v) < 2 or not np.all(np.isfinite(v)):
        return "entropy: fewer than two finite values"
    worst = float(np.max(np.diff(v)))
    if worst > slack:
        return f"entropy: increases by {worst:.3e}"
    return None


def check_row_stochastic(p, tol=1e-12):
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return "semigroup: matrix is not square"
    if p.min() < 0.0:
        return f"semigroup: negative entry {p.min():.3e}"
    worst = float(np.abs(p.sum(axis=1) - 1.0).max())
    if worst > tol * p.shape[1]:
        return f"semigroup: row sum off by {worst:.3e}"
    return None


def check_semigroup_rows(p, centers, t, a, m, rows, tol=SEMIGROUP_W2_TOL):
    """Rows ``rows`` against the OU transition from their start cell, projected on the cells."""
    worst, worst_j = 0.0, -1
    for j in rows:
        mean, std = ou_law(centers[j], 0.0, t, a, m)
        gap = w2_atomic_1d(centers, p[j], centers, gaussian_cell_masses(centers, mean, std))
        if not gap <= worst:
            worst, worst_j = gap, j
    if not worst <= tol:
        return f"semigroup: row {worst_j} W2 to the OU transition {worst:.3e} > {tol:.1e}"
    return None


def check_transition_entropy(p, centers, ref_weights, t, slack=1e-9):
    """H(row_j | gamma) <= W2^2(delta_{x_j}, gamma) / (2 t) for every row."""
    g = np.asarray(ref_weights, dtype=float)
    g = g / g.sum()
    for j, x in enumerate(centers):
        row = p[j]
        pos = row > 0
        if np.any(g[pos] <= 0):
            return f"semigroup: row {j} charges a cell outside the reference"
        h = float(np.dot(row[pos], np.log(row[pos] / g[pos])))
        bound = float(np.dot(g, (centers - x) ** 2)) / (2.0 * t)
        if h > bound + slack:
            return f"semigroup: row {j} entropy {h:.4e} above W2^2/(2t) = {bound:.4e}"
    return None


def check_sde_moments(samples, x, a, dt, steps, z_max=SDE_Z_MAX):
    """Sample mean and variance within z_max standard errors of the EM chain's."""
    s = np.asarray(samples, dtype=float)
    k = len(s)
    mean, var = em_ou_moments(x, a, dt, steps)
    z_mean = abs(s.mean() - mean) / math.sqrt(var / k)
    z_var = abs(s.var(ddof=1) - var) / (var * math.sqrt(2.0 / (k - 1)))
    if not (z_mean <= z_max and z_var <= z_max):
        return f"sde: moment z-scores mean {z_mean:.2f}, variance {z_var:.2f} > {z_max}"
    return None


def check_lp(lp_distance, xa, wa, xb, wb, tol=LP_TOL):
    ref = w2_atomic_1d(xa, wa, xb, wb)
    if not abs(lp_distance - ref) <= tol:
        return f"lp: {lp_distance:.12g} vs sorted-quantile {ref:.12g}"
    return None


def check_sinkhorn(rows, cols, masses, epsilon, xa, wa, xb, wb, slack=1e-6):
    """The plan has the input marginals and 0 <= cost - W2^2 <= epsilon min(H(a), H(b)).

    A plan with the right marginals is feasible, so its cost is at least the
    exact one; the entropic optimality of the plan bounds the excess by
    epsilon times the smaller marginal entropy. ``slack`` is relative to the
    largest cost entry and covers the stopping tolerance.
    """
    rows, cols, masses = (np.asarray(v) for v in (rows, cols, masses))
    if masses.min() < 0.0:
        return "sinkhorn: negative plan entry"
    viol = max(
        np.abs(np.bincount(rows, masses, len(wa)) - wa).max(),
        np.abs(np.bincount(cols, masses, len(wb)) - wb).max(),
    )
    if not viol <= 1e-9:
        return f"sinkhorn: marginal violation {viol:.3e}"
    cost = float(np.dot(masses, (xa[rows] - xb[cols]) ** 2))
    w2sq = w2_atomic_1d(xa, wa, xb, wb) ** 2
    cmax = float((max(xa.max(), xb.max()) - min(xa.min(), xb.min())) ** 2)
    excess = cost - w2sq
    gap = epsilon * min(shannon(wa), shannon(wb))
    if not -slack * cmax <= excess <= gap + slack * cmax:
        return f"sinkhorn: cost excess {excess:.3e} outside [0, {gap:.3e}]"
    return None


def check_ladder(gaps, closed_form, rel=LADDER_REL_TOL, abs_tol=LADDER_ABS_TOL):
    gaps = np.asarray(gaps, dtype=float)
    ref = np.asarray(closed_form, dtype=float)
    if gaps.shape != ref.shape:
        return "stability: ladder length differs"
    err = np.abs(gaps - ref)
    if np.any(~(err <= rel * ref + abs_tol)):
        i = int(np.argmax(err - rel * ref))
        return f"stability: gap {gaps[i]:.4e} vs closed form {ref[i]:.4e}"
    return None


def check_final_gap(gaps, bound):
    g = np.asarray(gaps, dtype=float)
    if not (np.all(np.isfinite(g)) and np.all(g >= 0)):
        return "stability: gaps not finite and nonnegative"
    if not g[-1] <= bound:
        return f"stability: final gap {g[-1]:.4e} > {bound}"
    return None


def check_manifest_items(manifest: dict, label: str):
    """Every recorded check item is marked passed and has value <= bound + tolerance."""
    items = manifest.get("checks", {}).get("items", [])
    if not items:
        return f"{label}: manifest holds no checks"
    for it in items:
        if not (it["passed"] and it["value"] <= it["bound"] + it["tolerance"]):
            return f"{label}: check {it['check_id']} value {it['value']:.4e} fails its bound"
    return None
