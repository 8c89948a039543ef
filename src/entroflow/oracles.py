"""Independent solvers the proximal flow is validated against.

A conservative finite-difference Fokker-Planck scheme, closed-form
transition laws (Ornstein-Uhlenbeck and the reflected heat kernel on an
interval), and Euler-Maruyama path simulation. All three are independent
of the variational flow and of each other, which is what makes the
cross-checks meaningful.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .measures import ConvexPotential, DiscreteMeasure, ReferenceMeasure
from .jko import JkoConfig, QuantileLattice, _flow_end

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
    """Grid-weight snapshots of a Fokker-Planck solve.

    Each row of ``densities`` is a probability vector over the grid at the
    matching entry of ``times``; the scheme conserves mass exactly.
    """

    grid: np.ndarray
    times: np.ndarray
    densities: np.ndarray  # (len(times), n)
    dt: float
    theta: float
    min_density: float

    def density_at(self, t: float) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 0.51 * self.dt + 1e-12:
            raise ValueError(f"time {t} not stored (nearest {self.times[idx]})")
        return self.densities[idx]

    def measure_at(self, t: float) -> DiscreteMeasure:
        w = np.maximum(self.density_at(t), 0.0)
        return DiscreteMeasure.from_atoms(self.grid, w / w.sum())


def _fp_generator(potential: ConvexPotential, grid: np.ndarray, h: float):
    """Tridiagonal divergence-form generator with harmonic face weights.

    Fluxes are written as g * d(u/g) with g = exp(-V) evaluated through the
    harmonic mean at cell faces, so the discrete stationary state is exactly
    the discretized reference and column sums vanish (mass conservation).
    No-flux conditions close the two boundary faces and every face next to
    a cell where V = +inf (g = 0), which cuts such cells off from the
    support block. V is read only at the grid points, so kinks need no care.
    """
    v = potential.value(grid)
    v = v - v.min()
    g = np.exp(-v)
    closed = (g[:-1] == 0.0) | (g[1:] == 0.0)
    gl, gr = np.where(closed, 1.0, g[:-1]), np.where(closed, 1.0, g[1:])
    w_face = np.where(closed, 0.0, 2.0 * gl * gr / (gl + gr)) / h**2
    # action on weights p: (L p)_j = w_{j+1/2} (p_{j+1}/g_{j+1} - p_j/g_j) + ...
    lower = w_face / gl
    upper = w_face / gr
    diag = np.zeros(len(grid))
    diag[:-1] -= lower
    diag[1:] -= upper
    return lower, diag, upper


def _theta_stepper(lower, diag, upper, dt: float, theta: float):
    """Stepper of the theta scheme (I - theta dt L) u' = (I + (1 - theta) dt L) u.

    L is the tridiagonal generator given by its three bands. The implicit
    bands are built once; the returned function takes one step of a
    right-hand side of shape (n,) or (n, B) through LAPACK ``dgtsv``, the
    routine scipy's ``solve_banded`` calls for a (1, 1) band.
    """
    imp = theta * dt
    dl = -imp * lower
    d = 1.0 - imp * diag
    du = -imp * upper
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
        # dgtsv factors copies of the bands, so they serve every step
        *_, x, info = dgtsv(dl, d, du, out, overwrite_b=True)
        if info > 0:
            raise LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dgtsv")
        return x

    return step


def fp_solve(
    potential: ConvexPotential,
    mu0: DiscreteMeasure,
    T: float,
    dt: float,
    grid: np.ndarray | None = None,
    theta: float = 0.5,
) -> FpSolution:
    """Theta-scheme solve of d/dt u = (u' + V' u)' on a uniform grid.

    The grid defaults to mu0's support; sparse starts (near-Dirac cells)
    should pass the full grid explicitly. The default time discretization
    is Crank-Nicolson with two damped (fully implicit) startup steps, which
    removes the ringing a rough initial condition would otherwise excite.
    Box potentials get the correct no-flux behavior from the closed
    boundary faces.
    """
    if mu0.dim != 1:
        raise ValueError("the solver is one-dimensional")
    if grid is None:
        grid = mu0.x
        weights0 = mu0.weights.copy()
    else:
        grid = np.asarray(grid, dtype=float)
        weights0 = np.zeros(len(grid))
        h_loc = grid[1] - grid[0]
        idx = np.rint((mu0.x - grid[0]) / h_loc).astype(int)
        if np.any(idx < 0) or np.any(idx >= len(grid)):
            raise ValueError("mu0 does not live on the supplied grid")
        np.add.at(weights0, idx, mu0.weights)
    if len(grid) < 3:
        raise ValueError("grid too small")
    steps_h = np.diff(grid)
    h = float(steps_h[0])
    if not np.allclose(steps_h, h, rtol=1e-8):
        raise ValueError("fp_solve needs a uniform grid")
    n_steps = int(math.ceil(T / dt - 1e-9))
    store_every = max(1, n_steps // 512)

    lower, diag, upper = _fp_generator(potential, grid, h)
    if theta < 0.5:
        # explicit-dominated schemes are only conditionally stable
        rate = float(np.abs(diag).max())
        if (1.0 - theta) * dt * rate > 1.0:
            raise ValueError(
                f"stability violation: (1-theta) dt max|L| = {(1 - theta) * dt * rate:.2f} > 1"
            )
    damped = _theta_stepper(lower, diag, upper, dt, 1.0)
    stepper = _theta_stepper(lower, diag, upper, dt, theta)

    p = weights0
    times = [0.0]
    dens = [p.copy()]
    min_density = 0.0
    for k in range(n_steps):
        p = (damped if k < 2 else stepper)(p)
        min_density = min(min_density, float(p.min()))
        if p.min() < -1e-10:
            p = np.maximum(p, 0.0)
            p /= p.sum()
        if (k + 1) % store_every == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            dens.append(p.copy())

    return FpSolution(
        grid=grid,
        times=np.asarray(times),
        densities=np.asarray(dens),
        dt=dt,
        theta=theta,
        min_density=min_density,
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
    seed: int

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
    is counter-based: path block b draws from Philox(key=(seed, b)), so
    results are reproducible regardless of scheduling.
    """
    lo, hi = potential.finite_interval()
    reflecting = math.isfinite(lo) and math.isfinite(hi)
    n_steps = int(math.ceil(T / dt - 1e-9))

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
    done = 0
    b = 0
    while done < n_paths:
        m = min(PATH_BLOCK, n_paths - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, b]))
        xs = np.full(m, float(x))
        for _ in range(n_steps):
            xs = xs - potential.drift(xs) * dt + sigma * rng.standard_normal(m)
            if reflecting:
                xs = _reflect(xs, lo, hi)
        out[done : done + m] = xs
        done += m
        b += 1
    return SdeSample(terminal_points=out, dt=dt, n_paths=n_paths, seed=seed)


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
        lower, diag, upper = _fp_generator(gamma.potential, gamma.grid, gamma.cell_width)
        # column j of the one-step matrix is the step of cell j
        m = _theta_stepper(lower, diag, upper, dt, 0.5)(np.eye(n))
        u = np.linalg.matrix_power(m, int(math.ceil(t / dt - 1e-9)))
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


@dataclass(frozen=True)
class ReversibilityResult:
    asymmetry: float


def reversibility_check(gamma: ReferenceMeasure, t: float) -> ReversibilityResult:
    """Relative detailed-balance defect max |D P - P' D| / max |D P| of the fp semigroup."""
    p = semigroup_matrix(gamma, t)
    d = gamma.weights[:, None] * p
    num = float(np.abs(d - d.T).max())
    den = float(np.abs(d).max())
    return ReversibilityResult(asymmetry=num / max(den, 1e-300))


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
    # imported here: the dirichlet module loads the transport layer (scipy.optimize),
    # which the rest of the oracles never needs
    from .dirichlet import discrete_lipschitz

    pf = semigroup_matrix(gamma, t) @ f
    return LipContractionResult(lip_before=discrete_lipschitz(f, gamma), lip_after=discrete_lipschitz(pf, gamma))
