"""Independent solvers the proximal flow is validated against.

A conservative finite-difference Fokker-Planck scheme, closed-form
transition laws (Ornstein-Uhlenbeck and the reflected heat kernel on an
interval), and Euler-Maruyama path simulation. All three are independent
of the variational flow and of each other, which is what makes the
cross-checks meaningful. The semigroup checks at the end take either the
Fokker-Planck scheme or, with ``semigroup_matrix(method="jko")``, the
proximal flow itself.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs

from .dirichlet import discrete_lipschitz
from .measures import ConvexPotential, DiscreteMeasure, ReferenceMeasure
from .jko import JkoConfig, QuantileLattice, _ceil_steps, _flow_end, whole_steps

__all__ = [
    "FpSolution",
    "SdeSample",
    "fp_solve",
    "ou_transition_exact",
    "gaussian_kl",
    "neumann_uniform_kernel",
    "neumann_tail_bound",
    "neumann_density_on_grid",
    "sde_simulate",
    "semigroup_matrix",
    "reversibility_check",
    "lip_contraction_check",
]


# ---------------------------------------------------------------------------
# Fokker-Planck finite differences
# ---------------------------------------------------------------------------
@dataclass
class FpSolution:
    """Grid-weight snapshots of a Fokker-Planck solve on the reference's grid.

    Each row of ``densities`` is a probability vector over the grid at the
    matching entry of ``times``; the scheme conserves mass exactly.
    ``min_density`` is taken over every step, stored or not, and
    ``mass_error`` is ``|sum(p) - 1|`` at the last step.
    """

    times: np.ndarray
    densities: np.ndarray  # (len(times), n)
    dt: float
    min_density: float
    mass_error: float

    def density_at(self, t: float) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 0.51 * self.dt + 1e-12:
            raise ValueError(f"time {t} not stored (nearest {self.times[idx]})")
        return self.densities[idx]


def _fp_generator(gamma: ReferenceMeasure):
    """Tridiagonal divergence-form generator with harmonic face weights on gamma's grid.

    Fluxes are written as g * d(u/g) with g = exp(-V) evaluated through the
    harmonic mean at cell faces, so the discrete stationary state is exactly
    the discretized reference and column sums vanish (mass conservation).
    No-flux conditions close the two boundary faces and every face next to
    a cell where V = +inf (g = 0), which cuts such cells off from the
    support block. V is read only at the grid points, so kinks need no care.
    """
    v = gamma.potential.value(gamma.grid)
    v = v - v.min()
    g = np.exp(-v)
    closed = (g[:-1] == 0.0) | (g[1:] == 0.0)
    gl, gr = np.where(closed, 1.0, g[:-1]), np.where(closed, 1.0, g[1:])
    w_face = np.where(closed, 0.0, 2.0 * gl * gr / (gl + gr)) / gamma.cell_width**2
    # action on weights p: (L p)_j = w_{j+1/2} (p_{j+1}/g_{j+1} - p_j/g_j) + ...
    lower = w_face / gl
    upper = w_face / gr
    diag = np.zeros(gamma.n)
    diag[:-1] -= lower
    diag[1:] -= upper
    return lower, diag, upper


FP_THETA = 0.5  # Crank-Nicolson, after the two damped (theta = 1) start steps of fp_solve


def _theta_stepper(lower, diag, upper, dt: float, theta: float):
    """Stepper of the theta scheme (I - theta dt L) u' = (I + (1 - theta) dt L) u.

    L is the tridiagonal generator given by its three bands. The implicit
    matrix is factored once, by LAPACK ``dgttrf``; the returned function
    takes one step of a right-hand side of shape (n,) or (n, B) through
    ``dgttrs``. The two are the halves of the ``dgtsv`` that scipy's
    ``solve_banded`` calls for a (1, 1) band, and give its bits.
    """
    imp = theta * dt
    *factor, info = dgttrf(-imp * lower, 1.0 - imp * diag, -imp * upper)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgttrf")
    ex = (1.0 - theta) * dt
    ex_upper = ex * upper
    ex_lower = ex * lower

    def step(q):
        col = (slice(None),) + (None,) * (q.ndim - 1)
        out = q + ex * (diag[col] * q)
        out[:-1] += ex_upper[col] * q[1:]
        out[1:] += ex_lower[col] * q[:-1]
        if not np.isfinite(out).all():
            raise ValueError("array must not contain infs or NaNs")
        if info > 0:
            raise LinAlgError("singular matrix")
        x, solved = dgttrs(*factor, out, overwrite_b=True)
        if solved < 0:
            raise ValueError(f"illegal value in argument {-solved} of LAPACK dgttrs")
        return x

    return step


def fp_solve(
    gamma: ReferenceMeasure,
    mu0: DiscreteMeasure,
    T: float,
    dt: float,
    times: list[float] | None = None,
) -> FpSolution:
    """Crank-Nicolson solve of d/dt u = (u' + V' u)' on gamma's grid.

    mu0 is placed on the grid as the flow places its start
    (``ReferenceMeasure.grid_weights``). The first two steps are damped
    (fully implicit), which removes the ringing a rough initial condition
    would otherwise excite. Box potentials get the correct no-flux
    behavior from the closed boundary faces.

    ``times`` selects the stored steps: each entry must be a whole number
    of steps of dt (within 1e-9 of one) between 0 and the last step, and
    each step is stored once, in time order. Without it, only the last
    step, ceil(T / dt), is stored.
    """
    if gamma.n < 3:
        raise ValueError("grid too small")
    n_steps = _ceil_steps(T, dt)
    if times is None:
        store = {n_steps}
    else:
        store = {whole_steps(t, dt) for t in times}
        if not all(k is not None and 0 <= k <= n_steps for k in store):
            raise ValueError(f"times must be whole steps of dt in [0, {n_steps * dt:g}]")

    lower, diag, upper = _fp_generator(gamma)
    damped = _theta_stepper(lower, diag, upper, dt, 1.0)
    stepper = _theta_stepper(lower, diag, upper, dt, FP_THETA)

    p = gamma.grid_weights(mu0)
    stored_times, dens = [], []
    min_density = 0.0
    for k in range(n_steps + 1):
        if k > 0:
            p = (damped if k <= 2 else stepper)(p)
            min_density = min(min_density, float(p.min()))
            if p.min() < -1e-10:
                p = np.maximum(p, 0.0)
                p /= p.sum()
        if k in store:
            stored_times.append(k * dt)
            dens.append(p.copy())

    return FpSolution(
        times=np.asarray(stored_times),
        densities=np.reshape(dens, (-1, gamma.n)),
        dt=dt,
        min_density=min_density,
        mass_error=abs(float(p.sum()) - 1.0),
    )


# ---------------------------------------------------------------------------
# Closed-form laws
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OuMoments:
    mean: float
    variance: float

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))


def ou_transition_exact(x: float, t: float) -> OuMoments:
    """Transition law of dX = -X dt + sqrt(2) dW from a point.

    mean = x e^{-t}, variance = 1 - e^{-2t}; the invariant law is N(0, 1).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    return OuMoments(mean=x * math.exp(-t), variance=1.0 - math.exp(-2.0 * t))


def gaussian_kl(mean: float, var: float) -> float:
    """Relative entropy of N(mean, var) against N(0, 1)."""
    return 0.5 * (var + mean**2 - 1.0 - math.log(var))


def neumann_tail_bound(t: float, terms: int) -> float:
    """Bound on the dropped series tail of the reflected heat kernel."""
    lam = math.pi**2 * t
    head = math.exp(-lam * (terms + 1) ** 2)
    return 2.0 * head / max(1.0 - math.exp(-lam * (2 * terms + 3)), 1e-300)


def neumann_uniform_kernel(x, y, t: float, terms: int | None = None):
    """Transition density of reflected Brownian motion (gen. d^2/dx^2) on [0,1].

    p_t(x, y) = 1 + 2 sum_k e^{-k^2 pi^2 t} cos(k pi x) cos(k pi y). Unless
    ``terms`` is given, the series is truncated once the tail bound drops
    below 1e-12; the number of retained terms grows like 1/sqrt(t).
    """
    if t <= 0:
        raise ValueError("time must be positive")
    if terms is None:
        terms = 1
        while neumann_tail_bound(t, terms) > 1e-12 and terms < 100000:
            terms += max(1, terms // 4)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = np.arange(1, terms + 1)
    decay = np.exp(-(k**2) * math.pi**2 * t)
    cx = np.cos(np.multiply.outer(x, k * math.pi))
    cy = np.cos(np.multiply.outer(y, k * math.pi))
    return 1.0 + 2.0 * np.tensordot(cx * decay, cy, axes=([-1], [-1]))


def neumann_density_on_grid(grid: np.ndarray, x: float, t: float) -> np.ndarray:
    """Normalized cell weights of the reflected kernel row started at x."""
    vals = np.asarray(neumann_uniform_kernel(float(x), grid, t), dtype=float).ravel()
    vals = np.maximum(vals, 0.0)
    return vals / vals.sum()


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------
PATH_BLOCK = 50_000  # paths per Philox stream (block); samples depend on it

@dataclass
class SdeSample:
    terminal_points: np.ndarray
    dt: float
    n_paths: int

    def empirical(self) -> DiscreteMeasure:
        pts = self.terminal_points
        return DiscreteMeasure.from_atoms(pts, np.full(len(pts), 1.0 / len(pts)))


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = hi - lo
    y = x - lo
    # np.mod(y, 2 span) is y itself on [0, 2 span): only paths outside take it
    outside = ~((y >= 0.0) & (y < 2.0 * span))
    if outside.any():
        y[outside] = np.mod(y[outside], 2.0 * span)
    y = np.where(y > span, 2.0 * span - y, y)
    return lo + y


def _path_workers(n_blocks: int) -> int:
    """Threads for ``n_blocks`` path blocks: one per CPU this process may run on, at most one per block."""
    return max(1, min(len(os.sched_getaffinity(0)), n_blocks))


def sde_simulate(
    potential: ConvexPotential,
    x: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> SdeSample:
    """Euler-Maruyama for dX = -V'(X) dt + sqrt(2) dW from a point.

    Box potentials reflect by folding into the interval after each step,
    and the drift uses the zero-at-kink subgradient selection. Randomness
    is counter-based: path block b (paths b * PATH_BLOCK onwards) draws
    from Philox(key=(seed, b)) and writes only its own paths, so the blocks
    run on a thread pool and the samples do not depend on the number of
    workers or their scheduling.
    """
    lo, hi = potential.finite_interval()
    reflecting = math.isfinite(lo) and math.isfinite(hi)
    n_steps = _ceil_steps(T, dt)

    # drift explosion guard: convex potentials have extreme slopes at the ends
    span_probe = 10.0 * max(1.0, abs(x))
    probe_lo = lo if reflecting else -span_probe
    probe_hi = hi if reflecting else span_probe
    worst_drift = float(
        np.max(np.abs(potential.drift(np.array([probe_lo, probe_hi, x]))))
    )
    if worst_drift * dt > 10.0 * (probe_hi - probe_lo):
        raise ValueError("drift step exceeds the domain scale; reduce dt")

    sigma = math.sqrt(2.0 * dt)
    out = np.empty(n_paths)
    stop = threading.Event()  # set once any block fails or the caller is interrupted

    def run_block(b: int) -> None:
        start = b * PATH_BLOCK
        m = min(PATH_BLOCK, n_paths - start)
        rng = np.random.Generator(np.random.Philox(key=[seed, b]))
        xs = np.full(m, float(x))
        for _ in range(n_steps):
            if stop.is_set():
                return
            xs = xs - potential.drift(xs) * dt + sigma * rng.standard_normal(m)
            if reflecting:
                xs = _reflect(xs, lo, hi)
        out[start : start + m] = xs

    n_blocks = -(-n_paths // PATH_BLOCK)
    with ThreadPoolExecutor(_path_workers(n_blocks)) as pool:
        blocks = [pool.submit(run_block, b) for b in range(n_blocks)]
        try:
            # reading each result as it completes re-raises the first exception a block raised
            for block in as_completed(blocks):
                block.result()
        except BaseException:
            # running blocks end at their next time step, and queued ones never start
            stop.set()
            pool.shutdown(cancel_futures=True)
            raise
    return SdeSample(terminal_points=out, dt=dt, n_paths=n_paths)


# ---------------------------------------------------------------------------
# Semigroup-level checks
# ---------------------------------------------------------------------------
def semigroup_matrix(
    gamma: ReferenceMeasure,
    t: float,
    cfg: JkoConfig | None = None,
    method: str = "fp",
    dt: float | None = None,
) -> np.ndarray:
    """Row-stochastic matrix of transition weights between grid cells.

    Row j holds the law at time t started from cell j. ``method="fp"``
    takes the k-step Crank-Nicolson semigroup of the conservative
    finite-difference scheme as the k-th power of its one-step matrix,
    computed by repeated squaring; ``method="jko"`` runs the proximal flows
    of all rows as one batch on one quantile lattice.
    """
    n = gamma.n
    if n > 400:
        raise ValueError("semigroup matrices are limited to 400 cells")
    if method == "fp":
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        dt = dt if dt is not None else max(t / 400.0, 1e-4)
        lower, diag, upper = _fp_generator(gamma)
        # column j of the one-step matrix is the step of cell j
        m = _theta_stepper(lower, diag, upper, dt, FP_THETA)(np.eye(n))
        u = np.linalg.matrix_power(m, _ceil_steps(t, dt))
        return np.clip(u.T, 0.0, None) / np.clip(u.T, 0.0, None).sum(axis=1, keepdims=True)
    if method == "jko":
        if cfg is None:
            raise ValueError("jko method needs a JkoConfig")
        # one batch of Dirac flows on one lattice; cells gamma does not charge stay put
        rows = np.eye(n)
        live = np.flatnonzero(gamma.weights > 0)
        lat = QuantileLattice(gamma)
        starts = np.stack([lat.from_weights(rows[j]) for j in live])
        final = _flow_end(lat, starts, cfg, t, [f"start cell {j}" for j in live])
        for j, e in zip(live, final):
            # normalized twice, as a grid measure's weights are
            w = lat.to_grid_weights(e)
            w = np.maximum(w / w.sum(), 0.0)
            rows[j] = w / w.sum()
        return rows
    raise ValueError(f"unknown method {method!r}")


def reversibility_check(gamma: ReferenceMeasure, t: float) -> float:
    """Relative detailed-balance defect max |D P - P' D| / max |D P| of the fp semigroup."""
    p = semigroup_matrix(gamma, t)
    d = gamma.weights[:, None] * p
    num = float(np.abs(d - d.T).max())
    den = float(np.abs(d).max())
    return num / max(den, 1e-300)


@dataclass(frozen=True)
class LipContractionResult:
    lip_before: float
    lip_after: float

    @property
    def contracts(self) -> bool:
        return self.lip_after <= self.lip_before + 1e-9 * max(1.0, self.lip_before)


def lip_contraction_check(
    gamma: ReferenceMeasure,
    t: float,
    f_values: np.ndarray,
) -> LipContractionResult:
    """Discrete Lipschitz constants of f and of its image under the fp semigroup."""
    f = np.asarray(f_values, dtype=float)
    if len(f) != gamma.n:
        raise ValueError("grid function must match gamma's grid")
    pf = semigroup_matrix(gamma, t) @ f
    return LipContractionResult(lip_before=discrete_lipschitz(f, gamma), lip_after=discrete_lipschitz(pf, gamma))
