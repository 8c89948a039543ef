"""Discrete Dirichlet energy, its entropy-slope characterization, and the
boundary measures of log-concave densities.

The quadratic form E(u) = int |u'|^2 dgamma is evaluated with central
differences on the reference grid. Its square root is the best constant in
the entropy-distance inequality

    H(mu | gamma) >= H(u^2 gamma | gamma) - 2 sqrt(E(u)) W2(mu, u^2 gamma),

which is checked from both sides: random probes for the inequality, and
pushforwards along -grad(ln u) for near-attainment. The boundary measure
of a convex potential U is the distributional derivative -(e^{-U})', with
explicit atoms at domain walls and total variation 2 exp(-min U).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    ConvexPotential,
    ReferenceMeasure,
    _random_tilts,
    grid_measure,
    relative_entropy,
    suggested_bounds,
)
from .report import CheckReport
from .stability import bounded_lipschitz_dictionary
from .transport import w2

__all__ = [
    "dirichlet_energy",
    "discrete_lipschitz",
    "SlopeCheckResult",
    "slope_variational_check",
    "SignedMeasure1D",
    "boundary_measure_1d",
    "integration_by_parts_check",
    "IbpResult",
    "boundary_convergence_check",
]


def _grid_values(u, gamma: ReferenceMeasure) -> np.ndarray:
    vals = np.asarray(u(gamma.grid) if callable(u) else u, dtype=float)
    if vals.shape != gamma.grid.shape:
        raise ValueError("grid function must match gamma's grid")
    return vals


def _support_gradient(vals: np.ndarray, gamma: ReferenceMeasure) -> tuple[np.ndarray, np.ndarray]:
    sup = gamma.support_indices()
    return np.gradient(vals[sup], gamma.cell_width), sup


def dirichlet_energy(u, gamma: ReferenceMeasure) -> float:
    """int |u'|^2 dgamma with central differences on the support block."""
    vals = _grid_values(u, gamma)
    grad, sup = _support_gradient(vals, gamma)
    return float(np.dot(gamma.weights[sup], grad * grad))


def discrete_lipschitz(u, gamma: ReferenceMeasure) -> float:
    """Largest slope between neighboring support cells."""
    vals = _grid_values(u, gamma)
    sup = gamma.support_indices()
    return float(np.abs(np.diff(vals[sup])).max() / gamma.cell_width)


# ---------------------------------------------------------------------------
# Slope characterization
# ---------------------------------------------------------------------------
def _slope_witness(gamma: ReferenceMeasure) -> np.ndarray:
    """The CLI's witness u = e^{x/4} on gamma's grid: grad ln u = 1/4, so E(u) = 1/16 after normalizing."""
    return np.exp(gamma.grid / 4.0)


@dataclass
class SlopeCheckResult:
    energy: float
    inequality_violations: int
    sharpness_ratio: float
    report: CheckReport


def slope_variational_check(
    u,
    gamma: ReferenceMeasure,
    probe_count: int = 200,
    *,
    rng: np.random.Generator,
) -> SlopeCheckResult:
    """Both sides of the variational characterization of sqrt(E(u)).

    The function is renormalized to int u^2 dgamma = 1 and must be positive
    and bounded. The inequality side draws random finite-entropy probes;
    the sharpness side pushes u^2 gamma forward along eps times -grad ln u
    and evaluates the entropy decrease by the change-of-variables formula,
    certifying the achieved slope ratio against 0.9 sqrt(E(u)).
    """
    eps = 1e-2
    vals = _grid_values(u, gamma)
    sup = gamma.support_indices()
    if np.min(vals[sup]) <= 0:
        raise ValueError("u must be strictly positive on the support")
    norm = math.sqrt(float(np.dot(gamma.weights[sup], vals[sup] ** 2)))
    vals = vals / norm

    energy = dirichlet_energy(vals, gamma)
    root_e = math.sqrt(max(energy, 0.0))

    w_target = np.zeros(gamma.n)
    w_target[sup] = gamma.weights[sup] * vals[sup] ** 2
    target = grid_measure(gamma, w_target)
    h_target = relative_entropy(target, gamma)

    report = CheckReport()
    violations = 0
    worst = -math.inf
    for probe in _random_tilts(gamma, probe_count, rng, (0.2, 2.0), (0.5, 5.0), (0, 2 * math.pi), 8.0):
        lhs = relative_entropy(probe, gamma)
        rhs = h_target - 2.0 * root_e * w2(probe, target)
        margin = rhs - lhs
        worst = max(worst, margin)
        if margin > 1e-8:
            violations += 1
    report.add("slope_inequality_violations", float(violations), 0.0, 0.0, f"worst margin {worst:.3e}")

    # sharpness: pushforward along s = -grad(ln u)
    grad, _ = _support_gradient(vals, gamma)
    s = -grad / vals[sup]
    ds = np.gradient(s, gamma.cell_width)
    mass = w_target[sup] / w_target[sup].sum()
    xs = gamma.grid[sup]
    shifted = xs + eps * s
    pot = gamma.potential
    log_jac = np.log1p(eps * ds)
    h_pushed = float(
        np.dot(mass, np.log(mass / gamma.weights[sup]) - log_jac)
        + np.dot(mass, pot.value(shifted) - pot.value(xs))
    )
    w2_bound = eps * math.sqrt(float(np.dot(mass, s * s)))
    ratio = (h_target - h_pushed) / (2.0 * w2_bound) if w2_bound > 0 else 0.0
    report.add(
        "slope_sharpness",
        0.9 * root_e,
        ratio,
        0.0,
        f"achieved ratio {ratio:.6f} vs sqrt(E) {root_e:.6f}",
    )
    return SlopeCheckResult(
        energy=energy,
        inequality_violations=violations,
        sharpness_ratio=ratio / root_e if root_e > 0 else math.nan,
        report=report,
    )


# ---------------------------------------------------------------------------
# Boundary measures
# ---------------------------------------------------------------------------
@dataclass
class SignedMeasure1D:
    """Signed measure with a cellwise density part and finitely many atoms.

    The density values are exact cell averages of the measure, so the total
    variation identity sum |density| * width + sum |atoms| holds to
    rounding.
    """

    centers: np.ndarray
    widths: np.ndarray
    density: np.ndarray
    atoms: list[tuple[float, float]]
    total_variation: float

    def integrate(self, f) -> float:
        vals = np.asarray(f(self.centers), dtype=float)
        out = float(np.dot(vals * self.widths, self.density))
        for loc, mass in self.atoms:
            out += mass * float(np.ravel(f(np.asarray([loc])))[0])
        return out

    def tv_outside(self, radius: float) -> float:
        mask = np.abs(self.centers) > radius
        out = float(np.dot(np.abs(self.density[mask]), self.widths[mask]))
        for loc, mass in self.atoms:
            if abs(loc) > radius:
                out += abs(mass)
        return out


def _segment_boundaries(potential: ConvexPotential) -> np.ndarray:
    lo, hi = suggested_bounds(potential, 45.0)
    pts = [lo, hi, potential.argmin()]
    pts.extend(float(k) for k in potential.kinks())
    pts = sorted(p for p in set(pts) if lo <= p <= hi)
    return np.asarray(pts)


def boundary_measure_1d(potential: ConvexPotential) -> SignedMeasure1D:
    """The distributional derivative -(e^{-U})' of a convex potential.

    On monotonicity segments of e^{-U} the exact cell averages are signed
    differences of e^{-U}; jumps of e^{-U} at finite domain walls become
    atoms. Cell boundaries are aligned with kinks and the minimum so every
    cell has a single sign, making the grid total variation exact:
    |Sigma|(R) = 2 exp(-min U).
    """
    potential.check_integrable()
    bounds = _segment_boundaries(potential)
    spans = np.diff(bounds)
    cells_per = np.maximum((spans / spans.sum() * 2000).astype(int), 8)
    edges = np.concatenate(
        [np.linspace(bounds[i], bounds[i + 1], cells_per[i] + 1)[: -1] for i in range(len(spans))]
        + [[bounds[-1]]]
    )
    dens_vals = np.exp(-potential.value(edges))
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    density = -(dens_vals[1:] - dens_vals[:-1]) / widths

    atoms: list[tuple[float, float]] = []
    dom_lo, dom_hi = potential.finite_interval()
    if math.isfinite(dom_lo):
        atoms.append((dom_lo, -float(np.exp(-potential.value(np.array([dom_lo]))[0]))))
    if math.isfinite(dom_hi):
        atoms.append((dom_hi, float(np.exp(-potential.value(np.array([dom_hi]))[0]))))

    tv = float(np.dot(np.abs(density), widths) + sum(abs(m) for _, m in atoms))
    return SignedMeasure1D(
        centers=centers, widths=widths, density=density, atoms=atoms, total_variation=tv
    )


@dataclass(frozen=True)
class IbpResult:
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def _simpson(f, a: float, b: float, n: int) -> float:
    n = max(2, n + (n % 2))
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


def integration_by_parts_check(
    potential: ConvexPotential,
    u,
    du,
) -> IbpResult:
    """Compare int u' e^{-U} dx with int u dSigma for the boundary measure.

    ``u`` and its derivative ``du`` are callables on coordinates. Both sides
    are integrated by composite Simpson on segments aligned with the
    potential's kinks. The density part of the measure uses the analytic
    U' e^{-U}, with each segment's own one-sided U' at its end nodes.
    """
    if not callable(u):
        raise ValueError("u must be callable on coordinates")
    bounds = _segment_boundaries(potential)
    spans = np.diff(bounds)
    per = np.maximum((spans / spans.sum() * 4000).astype(int), 16)

    def slope(x, b):
        # the segment's own one-sided slope: its end nodes sit on kinks
        return np.where(x < b, potential.derivative(x, "right"), potential.derivative(x, "left"))

    lhs = 0.0
    rhs = 0.0
    for i in range(len(spans)):
        a, b = float(bounds[i]), float(bounds[i + 1])
        lhs += _simpson(lambda x: du(x) * np.exp(-potential.value(x)), a, b, int(per[i]))
        rhs += _simpson(
            lambda x: u(x) * slope(x, b) * np.exp(-potential.value(x)), a, b, int(per[i])
        )
    dom_lo, dom_hi = potential.finite_interval()
    if math.isfinite(dom_lo):
        rhs -= float(u(np.asarray([dom_lo]))[0]) * math.exp(-float(potential.value(np.array([dom_lo]))[0]))
    if math.isfinite(dom_hi):
        rhs += float(u(np.asarray([dom_hi]))[0]) * math.exp(-float(potential.value(np.array([dom_hi]))[0]))
    return IbpResult(lhs=lhs, rhs=rhs)


def boundary_convergence_check(
    potentials: list[ConvexPotential],
    limit: ConvexPotential,
) -> CheckReport:
    """Tightness and convergence of boundary measures along a sequence.

    Checks a uniform total-variation bound, the decay of mass outside
    growing compact windows, convergence of integrals against a bounded
    dictionary, and convergence of the total variations themselves.
    """
    tol = 1e-2
    report = CheckReport()
    sigmas = [boundary_measure_1d(p) for p in potentials]
    sigma_lim = boundary_measure_1d(limit)

    tvs = np.array([s.total_variation for s in sigmas])
    report.add("tv_uniformly_bounded", float(tvs.max()), 10.0 * sigma_lim.total_variation + 10.0, 0.0)

    outside = np.array([max(s.tv_outside(r) for s in sigmas) for r in (1.0, 2.0, 4.0, 8.0)])
    worst_increase = float(np.max(np.diff(outside))) if len(outside) > 1 else 0.0
    report.add("tail_mass_decreasing", worst_increase, 0.0, 1e-12)
    report.add("tail_mass_vanishes", float(outside[-1]), 0.0, tol)

    dictionary = bounded_lipschitz_dictionary(16)
    worst = 0.0
    for f in dictionary:
        worst = max(worst, abs(sigmas[-1].integrate(f) - sigma_lim.integrate(f)))
    report.add("weak_convergence", worst, 0.0, tol)

    report.add(
        "tv_convergence",
        abs(float(tvs[-1]) - sigma_lim.total_variation),
        0.0,
        tol,
    )
    return report
