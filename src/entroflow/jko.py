"""Implicit Euler steps for the entropy gradient flow in Wasserstein space.

One step from mu with time step tau minimizes

    nu  ->  H(nu | gamma) + W2^2(nu, mu) / (2 tau).

The minimization runs over the reference's quantile lattice: measures are
parametrized by piecewise-linear quantile functions whose level partition
carries gamma's own cell masses. On that family the squared Wasserstein
distance is an exact tridiagonal quadratic form (the L2 norm of quantile
differences), relative entropy is an explicit smooth convex function of the
quantile edges, and one step is a safeguarded Newton solve. Because the
family is a convex set in quantile space and the entropy is convex along
its line segments, the scheme's structural inequalities (entropy decrease,
square-root step bounds, the per-step variational inequality) hold exactly,
and no spurious grid pinning occurs at small time steps.

Measures enter and leave as weights on gamma's grid; the conversion in each
direction is the exact histogram/quantile correspondence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv
from scipy.special import ndtr, ndtri

from .measures import (
    DiscreteMeasure,
    ReferenceMeasure,
    dirac_on_grid,
    grid_measure,
    rebin_measure,
)
from .report import CheckReport

__all__ = [
    "JkoConfig",
    "JkoSolverError",
    "StepInfo",
    "QuantileLattice",
    "FlowTrajectory",
    "transition_trajectory",
    "jko_step_detailed",
    "jko_trajectory",
    "RefineResult",
    "refine_trajectory",
    "evi_residual_profile",
    "estimate_checks",
    "invariance_check",
    "UNIFORM_APPROX_CONSTANT",
    "dirac_transport_cost",
]

# constant of the uniform approximation estimate sup_t W2(flow, scheme)
# <= C sqrt(tau * H(start)); C = 2 (2 sqrt(2) + 1)
UNIFORM_APPROX_CONSTANT = 2.0 * (2.0 * math.sqrt(2.0) + 1.0)


@dataclass(frozen=True)
class JkoConfig:
    """Parameters of one implicit Euler step.

    ``inner_tol`` bounds the accepted Newton decrement of the inner solve
    relative to the objective scale; ``max_inner_iters`` caps its Newton
    iterations.
    """

    tau: float
    inner_tol: float = 1e-12
    max_inner_iters: int = 80

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive")


class JkoSolverError(RuntimeError):
    """Inner solver failed to converge; carries the best iterate."""

    def __init__(self, message: str, best_measure: DiscreteMeasure, residual: float):
        super().__init__(message)
        self.best_measure = best_measure
        self.residual = residual


@dataclass(frozen=True)
class StepInfo:
    objective: float
    entropy: float
    w2_sq: float
    residual: float
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# Quantile lattice
# ---------------------------------------------------------------------------
class QuantileLattice:
    """Quantile-function family attached to a discretized reference.

    Levels are the cumulative masses of gamma's support cells. A member is
    a vector of n+1 monotone edge positions; it represents the measure
    whose quantile function interpolates (level_i, edge_i) linearly, i.e. a
    density that is constant on each quantile cell. gamma itself is the
    member whose edges are its spatial cell boundaries.
    """

    MASS_FLOOR = 1e-12  # cells below cumulative float resolution are merged away

    def __init__(self, gamma: ReferenceMeasure):
        self.gamma = gamma
        sup = gamma.support_indices()
        if len(sup) < 2 or np.any(np.diff(sup) != 1):
            raise ValueError("reference support must be a contiguous block of >= 2 cells")
        # drop cells whose mass cannot be resolved by cumulative sums; the
        # removed mass (at most n * MASS_FLOOR) is renormalized away
        heavy = np.flatnonzero(gamma.weights[sup] >= self.MASS_FLOOR)
        sup = sup[heavy[0] : heavy[-1] + 1]
        self._support = sup
        w = np.maximum(gamma.weights[sup], self.MASS_FLOOR)
        self.cell_mass = w / w.sum()
        self.levels = np.concatenate([[0.0], np.cumsum(self.cell_mass)])
        self.levels[-1] = 1.0
        h = gamma.cell_width
        self.gamma_edges = np.concatenate(
            [gamma.grid[sup] - 0.5 * h, [gamma.grid[sup][-1] + 0.5 * h]]
        )
        self.domain = gamma.potential.finite_interval()
        self.n = len(self.cell_mass)
        # P1 mass matrix of quantile differences: exact W2^2 on the family.
        # The kernels' constants are (1, k) rows, the shape of a one-row
        # stack, which numpy combines faster than a row with a vector.
        m = self.cell_mass
        self._mass = m[None]
        self._m_diag = np.concatenate([[m[0] / 3.0], (m[:-1] + m[1:]) / 3.0, [m[-1] / 3.0]])[None]
        self._m_off = (m / 6.0)[None]
        self._log_cell_mass = np.log(m)[None]
        # edges i, j near the quartiles, and c with variance >= c (e_j - e_i)^2
        # for every member: mass levels[i] lies left of edge i and
        # 1 - levels[j] right of edge j, wherever the mean is
        i = int(np.searchsorted(self.levels, 0.25, side="right")) - 1
        j = int(np.searchsorted(self.levels, 0.75, side="left"))
        a, b = self.levels[i], 1.0 - self.levels[j]
        self._spread = (i, j, a * b / (a + b) if a + b > 0.0 else 0.0)

    # -- metric ------------------------------------------------------------
    # The kernels take a stack of edge vectors (..., n+1) and give one value
    # per row, computed as that row alone would be; a single vector (n+1,)
    # gives a float.
    def w2_sq(self, e1: np.ndarray, e2: np.ndarray):
        d = e1 - e2
        quad = np.vecdot(d, self._m_diag * d) + 2.0 * np.vecdot(d[..., :-1] * d[..., 1:], self._m_off)
        return _rows(np.maximum(quad, 0.0), d)

    def w2(self, e1: np.ndarray, e2: np.ndarray):
        w2s = self.w2_sq(e1, e2)
        return math.sqrt(w2s) if isinstance(w2s, float) else np.sqrt(w2s)

    def metric_grad(self, d: np.ndarray) -> np.ndarray:
        out = self._m_diag * d
        out[..., :-1] += self._m_off * d[..., 1:]
        out[..., 1:] += self._m_off * d[..., :-1]
        return out

    # -- entropy -----------------------------------------------------------
    def entropy(self, edges: np.ndarray, iv: np.ndarray | None = None):
        """Exact relative entropy of the represented measure against gamma.

        Rows with a collapsed or reversed cell, or a cell outside the
        potential's domain, have entropy +inf. ``iv`` may pass in the
        potential's cell integrals over ``edges`` when they are at hand.
        """
        de = edges[..., 1:] - edges[..., :-1]
        increasing = (de > 0.0).all(axis=-1)
        if not increasing.all():
            de = np.where(increasing[..., None], de, 1.0)  # keeps those rows out of the logarithm
        if iv is None:
            iv = self.gamma.potential.cell_integrals(edges)
        m = self._mass
        val = (
            np.sum(m * (self._log_cell_mass - np.log(de)), axis=-1) + np.sum(m * iv / de, axis=-1)
        ) + self.gamma.log_partition
        return _rows(np.where(increasing & np.isfinite(iv).all(axis=-1), val, np.inf), de)

    def _entropy_grad_hess(self, edges: np.ndarray, iv: np.ndarray):
        """Entropy gradient and tridiagonal Hessian; ``iv`` are the cell integrals over ``edges``."""
        pot = self.gamma.potential
        de = edges[..., 1:] - edges[..., :-1]
        m = self._mass
        v = pot.value(edges)
        vp = pot.drift(edges)
        vl, vr = v[..., :-1], v[..., 1:]
        # per-cell pieces: d/d(left), d/d(right) of m [ -ln de + iv/de ]
        avg = iv / de
        inv = 1.0 / de
        g_left = m * (inv + (avg - vl) / de)
        g_right = m * (-inv + (vr - avg) / de)
        # Hessian blocks (symmetric per cell)
        de2 = de * de
        inv2 = 1.0 / de2
        h_ll = m * (inv2 + (-vp[..., :-1] * de + 2.0 * (avg - vl)) / de2)
        h_rr = m * (inv2 + (vp[..., 1:] * de - 2.0 * (vr - avg)) / de2)
        h_lr = m * (-inv2 + (vr + vl - 2.0 * avg) / de2)
        return _edge_sums(g_left, g_right), _edge_sums(h_ll, h_rr), h_lr

    # -- conversions ---------------------------------------------------------
    def from_grid(self, mu: DiscreteMeasure) -> np.ndarray:
        """Edges of the family member matching a histogram on gamma's grid.

        Off-grid measures are re-binned first; see ``from_weights``.
        """
        if mu.dim != 1:
            raise ValueError("the flow is one-dimensional")
        if np.any(self.gamma.locate(mu.x) < 0):
            mu = rebin_measure(mu, self.gamma)
        w = np.zeros(self.gamma.n)
        w[self.gamma.locate(mu.x)] = mu.weights
        return self.from_weights(w)

    def from_weights(self, weights: np.ndarray) -> np.ndarray:
        """Edges of the family member matching cell weights on gamma's grid.

        The histogram's quantile function (cells read as uniform blocks) is
        evaluated at the lattice levels.
        """
        h = self.gamma.cell_width
        # mass on cells trimmed from the lattice block collapses onto its ends
        lo_cell, hi_cell = self._support[0], self._support[-1]
        w = weights[self._support]
        w[0] += weights[:lo_cell].sum()
        w[-1] += weights[hi_cell + 1 :].sum()
        total = w.sum()
        if total <= 0:
            raise ValueError("measure has no mass on the lattice support")
        w = w / total
        keep = w > 0.0
        cum = np.concatenate([[0.0], np.cumsum(w[keep])])
        cum[-1] = 1.0
        lefts = self.gamma_edges[:-1][keep]
        knots_u = np.repeat(cum, 2)[1:-1]
        knots_x = np.empty(2 * int(keep.sum()))
        knots_x[0::2] = lefts
        knots_x[1::2] = lefts + h
        u = np.clip(self.levels, 0.0, 1.0)
        edges = np.interp(u, knots_u, knots_x)
        return np.maximum.accumulate(edges)

    def heat_kernel_start(self, e: np.ndarray, tau: float) -> np.ndarray:
        """Newton start of a proximal step of length tau from each row of a stack (B, n+1).

        One proximal step of the entropy alone takes the Gaussian of
        standard deviation s to the Gaussian of deviation
        (s + sqrt(s^2 + 4 tau')) / 2, where tau' is tau over the metric's
        weight on a unit translation (1 on an unweighted lattice). A row
        whose variance is below 2 tau' starts at that image of the Gaussian
        with the row's mean and variance, truncated to the domain and read
        at the lattice levels. The outer edge of each end cell is the
        reflection of the cell's half-mass quantile about its inner edge,
        so it is finite. Other rows stay as they are, and a stack with no
        narrow row is returned itself. A quartile spread rules out a wide
        row before any of its moments is computed.
        """
        t = tau / (self._m_diag.sum() + 2.0 * self._m_off.sum())
        i, j, c = self._spread
        rows = np.flatnonzero(c * (e[:, j] - e[:, i]) ** 2 < 2.0 * t)
        if not len(rows):
            return e
        d = e[rows] - e[rows, i : i + 1]  # centred, so the variance keeps its digits
        a, b = d[:, :-1], d[:, 1:]
        mean = 0.5 * np.sum(self._mass * (a + b), axis=-1)
        var = np.maximum(np.sum(self._mass * (a * a + a * b + b * b), axis=-1) / 3.0 - mean * mean, 0.0)
        narrow = var < 2.0 * t
        if not narrow.any():
            return e
        rows, mean, var = rows[narrow], mean[narrow], var[narrow]
        mu = (e[rows, i] + mean)[:, None]
        sd = 0.5 * (np.sqrt(var) + np.sqrt(var + 4.0 * t))[:, None]
        lo, hi = self.domain
        p_lo, q_hi = ndtr((lo - mu) / sd), ndtr((mu - hi) / sd)
        mass = 1.0 - q_hi - p_lo
        u = self.levels.copy()
        u[0], u[-1] = 0.5 * u[1], 0.5 * (1.0 + u[-2])
        k = int(np.searchsorted(u, 0.5))
        x = np.empty((len(rows), len(u)))
        # lower and upper halves from their own tail, so neither loses the far tail's digits
        x[:, :k] = mu + sd * ndtri(p_lo + u[:k] * mass)
        x[:, k:] = mu - sd * ndtri(q_hi + (1.0 - u[k:]) * mass)
        x[:, 0] = 2.0 * x[:, 0] - x[:, 1]
        x[:, -1] = 2.0 * x[:, -1] - x[:, -2]
        out = e.copy()
        out[rows] = x
        return out

    def to_grid_weights(self, edges: np.ndarray) -> np.ndarray:
        """Exact cell masses of the represented measure on gamma's grid.

        Mass falling outside the truncation window is accumulated on the
        first/last cell (it is tail-sized by construction).
        """
        bounds = self.gamma_edges
        cuts = np.clip(np.searchsorted(edges, bounds[1:-1], side="left"), 1, self.n)
        lev_at_cut = np.empty(len(bounds))
        lev_at_cut[0] = 0.0
        lev_at_cut[-1] = 1.0
        de = np.diff(edges)
        j = cuts - 1
        frac = np.where(de[j] > 0, (bounds[1:-1] - edges[j]) / np.where(de[j] > 0, de[j], 1.0), 0.0)
        lev_at_cut[1:-1] = self.levels[j] + self.cell_mass[j] * np.clip(frac, 0.0, 1.0)
        lev_at_cut = np.maximum.accumulate(lev_at_cut)
        w = np.diff(lev_at_cut)
        out = np.zeros(self.gamma.n)
        out[self._support] = w
        return out

    def to_measure(self, edges: np.ndarray) -> DiscreteMeasure:
        return grid_measure(self.gamma, self.to_grid_weights(edges))

    def mean(self, edges: np.ndarray) -> float:
        return float(np.sum(self.cell_mass * 0.5 * (edges[:-1] + edges[1:])))

    def second_moment(self, edges: np.ndarray) -> float:
        a, b = edges[:-1], edges[1:]
        return float(np.sum(self.cell_mass * (a * a + a * b + b * b) / 3.0))


# ---------------------------------------------------------------------------
# The proximal step
# ---------------------------------------------------------------------------
def _rows(values: np.ndarray, operand: np.ndarray):
    """A kernel's values, one per row of a stack, or a float for a single vector."""
    return values if operand.ndim > 1 else float(values[0])


def _edge_sums(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-edge sums of per-cell terms: edge i takes left[i] + right[i-1]."""
    out = np.empty(left.shape[:-1] + (left.shape[-1] + 1,))
    out[..., 0] = left[..., 0]
    np.add(left[..., 1:], right[..., :-1], out=out[..., 1:-1])
    out[..., -1] = right[..., -1]
    return out


def _clamp(e: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if math.isfinite(lo):
        e = np.maximum(e, lo)
    if math.isfinite(hi):
        e = np.minimum(e, hi)
    return e


def _native_step(
    lat: QuantileLattice,
    e_prev: np.ndarray,
    tau: float,
    inner_tol: float,
    max_iters: int,
    start: np.ndarray | None = None,
    state: tuple | None = None,
):
    """Newton solve of min_e H(e) + W2^2(e, e_prev) / (2 tau) for each row of a stack.

    ``e_prev`` is a stack (B, n+1) of independent problems, solved together:
    one banded solve per Newton iteration for the whole stack, while each
    row keeps its own backtracking line search, convergence test and
    iteration count. A row's result is therefore the one it gets alone. The
    iterates start at ``start``, by default the lattice's heat-kernel start,
    which reads ``e_prev`` alone and is ``e_prev`` itself for wide laws.

    Returns (edges, objective, entropy, w2_sq, residual, iterations,
    converged), each with one entry per row, and the entropy state at the
    returned edges: (entropy, cell integrals, gradient, Hessian diagonal,
    Hessian off-diagonal). The state is None unless the solve ended on its
    convergence test, which has just evaluated it there. Passing it back as
    ``state`` with the returned edges as ``e_prev`` starts the next step from
    it instead of evaluating it again; the result is the same bit for bit.
    """
    inv_tau = 1.0 / tau
    lo, hi = lat.domain
    pot = lat.gamma.potential
    e = lat.heat_kernel_start(e_prev, tau) if start is None else start
    e = _strictly_increasing(_clamp(e, lo, hi))
    if math.isfinite(hi):
        spill = e[:, -1] > hi  # the tie-repair ramp may spill over a wall
        if spill.any():
            e = np.where(spill[:, None], e - (e[:, -1:] - hi), e)
            if np.any(e[spill, 0] < lo - 1e-12 * max(1.0, abs(lo))):
                raise RuntimeError("degenerate edges exceed the domain span")

    def objective(edges):
        iv = pot.cell_integrals(edges)
        ent = lat.entropy(edges, iv)
        w2s = lat.w2_sq(edges, e_prev)
        return ent + 0.5 * inv_tau * w2s, ent, w2s, iv

    if state is not None and np.array_equal(e, e_prev):
        # the state holds if the start repair left e_prev as it was; the metric term is 0 there
        ent, iv, *hess = state
        w2s = np.zeros(len(e))
        value = ent + 0.5 * inv_tau * w2s
    else:
        value, ent, w2s, iv = objective(e)
        hess = None
        if not np.isfinite(value).all():
            raise RuntimeError("infeasible starting edges for the proximal step")

    scale = 1.0 + np.abs(value)
    tol = inner_tol * scale
    # the Newton decrement halved estimates the remaining objective gap; a
    # stopped row keeps its edges, so its recomputed decrement stays the same
    gap_est = np.full(len(e), np.inf)
    iters = np.zeros(len(e), dtype=int)
    active = np.ones(len(e), dtype=bool)
    state = None
    for _ in range(max_iters):
        g_ent, d_ent, off_ent = hess if hess is not None else lat._entropy_grad_hess(e, iv)
        hess = None
        grad = g_ent + inv_tau * lat.metric_grad(e - e_prev)
        diag = d_ent + inv_tau * lat._m_diag
        off = off_ent + inv_tau * lat._m_off

        # domain walls: freeze edges pressed outward against a bound
        if math.isfinite(lo) or math.isfinite(hi):
            pinned = np.zeros(e.shape, dtype=bool)
            if math.isfinite(lo):
                pinned |= (e <= lo + 1e-14) & (grad >= 0.0)
            if math.isfinite(hi):
                pinned |= (e >= hi - 1e-14) & (grad <= 0.0)
            if pinned.any():
                grad = np.where(pinned, 0.0, grad)
                diag = np.where(pinned, 1.0, diag)
                off = np.where(pinned[:, :-1] | pinned[:, 1:], 0.0, off)

        step = _newton_direction(diag, off, grad)
        gap_est = np.maximum(-0.5 * np.vecdot(grad, step), 0.0)
        active &= ~(gap_est <= tol)
        if not active.any():
            state = (ent, iv, g_ent, d_ent, off_ent)
            break
        iters += active
        # backtracking, each row on its own step length
        alpha = np.ones((len(e), 1))
        searching = active.copy()
        for _ in range(60):
            cand = _clamp(e + alpha * step, lo, hi)
            ok = (cand[:, 1:] > cand[:, :-1]).all(axis=1)
            ok &= searching
            if ok.any():
                cval, cent, cw2, civ = objective(cand)
                accept = cval < value
                accept &= ok
                if accept.all():
                    e, value, ent, w2s, iv = cand, cval, cent, cw2, civ
                    break
                if accept.any():
                    e = np.where(accept[:, None], cand, e)
                    value = np.where(accept, cval, value)
                    ent = np.where(accept, cent, ent)
                    w2s = np.where(accept, cw2, w2s)
                    iv = np.where(accept[:, None], civ, iv)
                    searching &= ~accept
                    if not searching.any():
                        break
            alpha *= 0.5
        else:  # a row whose line search found no decrease stops
            active &= ~searching
            if not active.any():
                break
    converged = gap_est <= max(inner_tol, 1e-10) * scale
    return e, value, ent, w2s, gap_est, iters, converged, state


def _newton_direction(diag: np.ndarray, off: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve the rows' tridiagonal Newton systems (diag, off) x = -grad.

    The (B, n+1) stack is one symmetric tridiagonal system whose couplings
    between blocks are zero, solved by LAPACK ``dptsv`` (the routine scipy's
    ``solveh_banded`` calls for a two-row band), so each block's factor and
    solution are the ones it has alone. When a block is not positive
    definite the rows are solved one at a time, and a row that fails takes
    the diagonal step.
    """
    rows, size = diag.shape
    # (diagonal, coupling, right-hand side) in one buffer, checked in one pass
    buf = np.zeros((3, rows, size))
    np.maximum(diag, 1e-300, out=buf[0])
    buf[1, :, :-1] = off
    np.negative(grad, out=buf[2])
    if not np.isfinite(buf).all():
        raise ValueError("array must not contain infs or NaNs")
    d, e, b = buf[0].ravel(), buf[1].ravel()[:-1], buf[2].ravel()
    *_, x, info = dptsv(d, e, b, overwrite_d=True, overwrite_e=True, overwrite_b=True)
    if info == 0:
        return x.reshape(rows, size)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dptsv")
    if rows == 1:
        return -grad / np.maximum(diag, 1e-12)
    return np.concatenate(
        [_newton_direction(diag[i : i + 1], off[i : i + 1], grad[i : i + 1]) for i in range(rows)]
    )


def _strictly_increasing(e: np.ndarray) -> np.ndarray:
    """Enforce a minimal relative edge gap of 1e-12 with a tiny increasing ramp.

    Degenerate or float-collapsed quantile edges (e.g. a point mass spread
    over one cell) would otherwise produce entropy Hessians beyond float
    range. Rows of a (B, n+1) stack are repaired one by one.
    """
    gap = 1e-12 * np.maximum(1.0, np.abs(e).max(axis=-1, keepdims=True))
    out = np.maximum.accumulate(e, axis=-1)
    tight = out[..., 1:] - out[..., :-1] < gap
    if not tight.any():
        return out
    out = np.where(tight.any(axis=-1, keepdims=True), out + gap * np.arange(out.shape[-1]), out)
    if np.any(out[..., 1:] <= out[..., :-1]):
        raise RuntimeError("could not separate degenerate quantile edges")
    return out


def jko_step_detailed(
    gamma: ReferenceMeasure,
    mu: DiscreteMeasure,
    cfg: JkoConfig,
    lattice: QuantileLattice | None = None,
) -> tuple[DiscreteMeasure, StepInfo]:
    """One proximal step with solver diagnostics: the one-step trajectory."""
    traj = jko_trajectory(gamma, mu, cfg, cfg.tau, lattice=lattice)
    return traj.final, traj.step_infos[0]


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------
@dataclass
class FlowTrajectory:
    """Time-stamped flow with per-step diagnostics.

    ``edges[k]`` is the flow's native quantile state at ``times[k]``, with
    ``times[0] = 0`` the initial state; it is the only state stored. Grid
    views (``measure_at``, ``initial``, ``final``) are derived from the
    edges on demand. Increments, entropies and residuals are computed in
    the native metric, where the per-step inequalities are exact.
    ``evi_residuals[k]`` tests the step's variational inequality against
    gamma itself.
    """

    times: np.ndarray
    edges: list[np.ndarray]
    entropies: np.ndarray
    w2_increments: np.ndarray
    evi_residuals: np.ndarray
    config: JkoConfig
    lattice: QuantileLattice
    step_infos: list[StepInfo]

    @property
    def gamma(self) -> ReferenceMeasure:
        return self.lattice.gamma

    def index_at(self, t: float) -> int:
        """Scheme value at time t: steps cover (k tau, (k+1) tau]."""
        if t <= 0:
            return 0
        k = int(math.ceil(t / self.config.tau - 1e-9))
        return min(k, len(self.edges) - 1)

    def measure_at(self, t: float) -> DiscreteMeasure:
        return self.lattice.to_measure(self.edges_at(t))

    def edges_at(self, t: float) -> np.ndarray:
        return self.edges[self.index_at(t)]

    @property
    def initial(self) -> DiscreteMeasure:
        return self.lattice.to_measure(self.edges[0])

    @property
    def final(self) -> DiscreteMeasure:
        return self.lattice.to_measure(self.edges[-1])


def _flow_steps(
    lat: QuantileLattice,
    e0: np.ndarray,
    cfg: JkoConfig,
    T: float,
    labels: list[str] | None = None,
):
    """Chain ceil(T/tau) proximal steps from each row of ``e0`` (B, n+1) as one batch.

    This is the one trajectory loop; a single flow is the batch B=1. It
    yields each step's Newton outputs (edges, objective, entropy, w2_sq,
    residual, iterations, converged), each with one entry per row, and
    keeps only the entropy state each step hands to the next: a caller
    holds on to the states it reads. A row that fails to converge raises
    JkoSolverError with that row's best iterate, naming the step and, when
    ``labels`` are given, the row.
    """
    if T < cfg.tau:
        raise ValueError("horizon T must be at least one step")
    e, state = e0, None
    for k in range(int(math.ceil(T / cfg.tau - 1e-9))):
        *out, state = _native_step(lat, e, cfg.tau, cfg.inner_tol, cfg.max_inner_iters, state=state)
        e, residual, converged = out[0], out[4], out[6]
        if not converged.all():
            i = int(np.argmin(converged))
            where = f"step {k}" if labels is None else f"step {k}, {labels[i]}"
            raise JkoSolverError(
                f"{where}: inner Newton residual {residual[i]:.3e} above tolerance",
                best_measure=lat.to_measure(e[i]),
                residual=float(residual[i]),
            )
        yield tuple(out)


def _flow_end(lat: QuantileLattice, e0: np.ndarray, cfg: JkoConfig, T: float, labels: list[str]):
    """The stack the flows of ``e0`` reach at horizon T, holding no other state."""
    for e, *_ in _flow_steps(lat, e0, cfg, T, labels):
        pass
    return e


def _evi_residuals(lat: QuantileLattice, edges, entropies: np.ndarray, tau: float, e_nu, h_nu: float):
    """Residuals of the discrete variational inequality of each step against nu.

    residual_k = [W2^2(e_{k+1}, nu) - W2^2(e_k, nu)] / (2 tau) + H(e_{k+1}) - H(nu)
    for the states ``edges`` with entropies ``entropies`` (the start first);
    nonpositive for exact steps.
    """
    d = np.array([lat.w2_sq(e, e_nu) for e in edges])
    return (d[1:] - d[:-1]) / (2.0 * tau) + entropies[1:] - h_nu


def jko_trajectory(
    gamma: ReferenceMeasure,
    mu0: DiscreteMeasure,
    cfg: JkoConfig,
    T: float,
    lattice: QuantileLattice | None = None,
    initial_edges: np.ndarray | None = None,
) -> FlowTrajectory:
    """Chain ceil(T/tau) proximal steps starting from mu0.

    Off-grid starts are re-projected onto gamma's grid by mass splitting.
    Entropy decreases along the chain because each step's objective at its
    output is no worse than at its input. Passing ``initial_edges`` starts
    from that native state (mu0 is then unused): it resumes a flow exactly,
    since grid views are lossy, or starts from a law no grid measure holds.
    """
    lat = lattice if lattice is not None else QuantileLattice(gamma)
    e = np.asarray(initial_edges, dtype=float) if initial_edges is not None else lat.from_grid(mu0)
    steps = list(_flow_steps(lat, e[None], cfg, T))
    edges = [e] + [step[0][0] for step in steps]
    entropies = np.array([lat.entropy(e)] + [step[2][0] for step in steps])
    return FlowTrajectory(
        times=np.arange(len(edges)) * cfg.tau,
        edges=edges,
        entropies=entropies,
        w2_increments=np.sqrt(np.maximum([step[3][0] for step in steps], 0.0)),
        evi_residuals=_evi_residuals(lat, edges, entropies, cfg.tau, lat.gamma_edges, 0.0),
        config=cfg,
        lattice=lat,
        step_infos=[StepInfo(*(x[0].item() for x in step[1:])) for step in steps],
    )


@dataclass(frozen=True)
class RefineResult:
    trajectories: list[FlowTrajectory]
    cauchy_gaps: np.ndarray
    envelope: np.ndarray
    taus: np.ndarray


def refine_trajectory(
    gamma: ReferenceMeasure,
    mu0: DiscreteMeasure,
    tau0: float,
    levels: int,
    T: float,
) -> RefineResult:
    """Dyadic refinement tau0 / 2^m for m < levels with a Cauchy gap table.

    ``cauchy_gaps[m]`` is the sup over multiples of tau0 of the distance
    between consecutive levels; the analytic envelope is
    2^{-m/2} sqrt(2 tau0 H(mu0 | gamma)).
    """
    if levels < 2:
        raise ValueError("need at least two refinement levels")
    lat = QuantileLattice(gamma)
    taus = np.array([tau0 / 2**m for m in range(levels)])
    trajectories = [jko_trajectory(gamma, mu0, JkoConfig(tau=t), T, lattice=lat) for t in taus]
    check_times = np.arange(1, int(round(T / tau0)) + 1) * tau0
    gaps = [_sup_w2(lat, trajectories[m], trajectories[m + 1], check_times) for m in range(levels - 1)]
    h0 = trajectories[0].entropies[0]
    envelope = np.array(
        [2.0 ** (-m / 2.0) * math.sqrt(2.0 * tau0 * h0) for m in range(levels - 1)]
    )
    return RefineResult(
        trajectories=trajectories,
        cauchy_gaps=np.asarray(gaps),
        envelope=envelope,
        taus=taus,
    )


def transition_trajectory(
    gamma: ReferenceMeasure, x: float, t: float, cfg: JkoConfig
) -> FlowTrajectory:
    """Flow to time t started from the cell closest to x.

    Points outside the support snap to the nearest support cell; the flow
    is absolutely continuous with respect to gamma from the first step on.
    """
    return jko_trajectory(gamma, dirac_on_grid(gamma, x), cfg, t)


def _sup_w2(lat: QuantileLattice, a: FlowTrajectory, b: FlowTrajectory, times) -> float:
    """Largest W2 between the states of two flows at the given times, at least 0."""
    return max([0.0] + [lat.w2(a.edges_at(t), b.edges_at(t)) for t in times])


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------
def dirac_transport_cost(gamma: ReferenceMeasure, x: float) -> float:
    """W2^2(delta_x, gamma) = x^2 - 2 x E[gamma] + second moment."""
    return float(x * x - 2.0 * x * gamma.mean() + gamma.second_moment())


def evi_residual_profile(traj: FlowTrajectory, nu: DiscreteMeasure) -> np.ndarray:
    """Per-step residuals of the discrete variational inequality against nu.

    residual_k = [W2^2(mu_{k+1}, nu) - W2^2(mu_k, nu)] / (2 tau)
                 + H(mu_{k+1}) - H(nu); nonpositive for exact steps. The
    flow's own ``evi_residuals`` are the same formula taken against gamma.
    """
    lat = traj.lattice
    e_nu = lat.from_grid(nu)
    h_nu = lat.entropy(e_nu)
    if not math.isfinite(h_nu):
        raise ValueError("test measure must have finite entropy")
    return _evi_residuals(lat, traj.edges, traj.entropies, traj.config.tau, e_nu, h_nu)


def _random_smooth_members(lat: QuantileLattice, count, rng):
    """Random finite-entropy lattice members built from bounded tilts."""
    out = []
    sup = lat.gamma.support_indices()
    xs = lat.gamma.grid[sup]
    span = xs[-1] - xs[0] if len(xs) > 1 else 1.0
    for _ in range(count):
        a = rng.uniform(0.2, 1.5)
        b = rng.uniform(0.5, 4.0)
        c = rng.uniform(-1.0, 1.0)
        bump = a * np.sin(b * 2 * math.pi * (xs - xs[0]) / span + c)
        w = np.zeros(lat.gamma.n)
        w[sup] = lat.gamma.weights[sup] * np.exp(np.clip(bump, -6, 6))
        out.append(lat.from_grid(grid_measure(lat.gamma, w)))
    return out


def estimate_checks(
    traj: FlowTrajectory,
    reference_traj: FlowTrajectory | None = None,
    companion_traj: FlowTrajectory | None = None,
    rng: np.random.Generator | None = None,
) -> CheckReport:
    """Structural estimates of the scheme, as one report.

    (a) Hoelder-1/2 continuity in time with constant sqrt(2 H(start));
    (b) uniform approximation against a finer reference trajectory with the
        scheme constant 2(2 sqrt 2 + 1);
    (c) contraction against a companion trajectory;
    (d) the regularizing bound H(flow_t) <= W2^2(start, nu)/(2t) + H(nu)
        over gamma and 20 sampled test measures;
    (e) for single-cell starts, the transition-entropy bound
        H(flow_t) <= W2^2(delta_x, gamma) / (2t).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    lat = traj.lattice
    report = CheckReport()
    h0 = traj.entropies[0]

    if math.isfinite(h0):
        const = math.sqrt(2.0 * max(h0, 0.0))
        ks = list(range(len(traj.times)))
        if len(ks) > 24:
            ks = sorted(set([0, len(ks) - 1] + list(rng.choice(len(traj.times), 22, replace=False))))
        worst = -math.inf
        for ai in ks:
            for bi in ks:
                if bi <= ai:
                    continue
                dt = traj.times[bi] - traj.times[ai]
                gap = lat.w2(traj.edges[ai], traj.edges[bi]) - const * math.sqrt(dt)
                worst = max(worst, gap)
        report.add("holder_half", worst, 0.0, 1e-10, "W2 gap minus sqrt-time bound")

    if reference_traj is not None and math.isfinite(h0):
        bound = UNIFORM_APPROX_CONSTANT * math.sqrt(traj.config.tau * max(h0, 0.0))
        worst = _sup_w2(lat, traj, reference_traj, traj.times[1:])
        report.add(
            "uniform_approximation", worst, bound, 0.0,
            f"C={UNIFORM_APPROX_CONSTANT:.6f}",
        )

    if companion_traj is not None:
        d0 = lat.w2(traj.edges[0], companion_traj.edges[0])
        report.add("contractivity", _sup_w2(lat, traj, companion_traj, traj.times[1:]), d0, 1e-6)

    # each candidate's terms are computed once, one row at a time: a stack of
    # all 21 would hold (21, n+1) temporaries for no measurable gain
    candidates = [lat.gamma_edges] + _random_smooth_members(lat, 20, rng)
    cand_w2_sq = np.array([lat.w2_sq(traj.edges[0], e_nu) for e_nu in candidates])
    cand_entropy = np.array([lat.entropy(e_nu) for e_nu in candidates])
    idxs = range(1, len(traj.times))
    if len(traj.times) > 7:
        idxs = np.unique(np.linspace(1, len(traj.times) - 1, 6).astype(int))
    worst_reg = -math.inf
    for i in idxs:
        best = np.min(cand_w2_sq / (2.0 * traj.times[i]) + cand_entropy)
        worst_reg = max(worst_reg, traj.entropies[i] - best)
    report.add("regularizing_effect", worst_reg, 0.0, 1e-9)

    start = traj.initial
    if start.n == 1:
        x = float(start.x[0])
        cost = dirac_transport_cost(traj.gamma, x)
        worst = -math.inf
        for i in idxs:
            t = traj.times[i]
            worst = max(worst, traj.entropies[i] - cost / (2.0 * t))
        report.add("transition_entropy", worst, 0.0, 1e-9, f"start x={x:g}")

    return report


def invariance_check(
    gamma: ReferenceMeasure,
    candidates: list[DiscreteMeasure],
    t: float,
    cfg: JkoConfig,
) -> CheckReport:
    """Flag candidates left in place by the flow over horizon t.

    Exactly the reference measure should be invariant; the report holds one
    item per candidate (gamma-like candidates must stay within 5e-3 in W2,
    the rest must move by more).
    """
    gm = gamma.as_measure()
    lat = QuantileLattice(gamma)
    e0 = np.stack([lat.from_grid(mu) for mu in candidates])
    labels = [f"candidate {i}" for i in range(len(candidates))]
    final = _flow_end(lat, e0, cfg, t, labels)
    report = CheckReport()
    for i, (mu, moved) in enumerate(zip(candidates, lat.w2(final, e0).tolist())):
        is_gamma = mu.n == gm.n and np.allclose(mu.x, gm.x) and np.allclose(
            mu.weights, gm.weights, atol=1e-12
        )
        if is_gamma:
            report.add(f"invariance_gamma_{i}", moved, 0.0, 5e-3, "reference must stay")
        else:
            report.add(f"invariance_moves_{i}", 5e-3, moved, 0.0, f"moved {moved:.3e}")
    return report
