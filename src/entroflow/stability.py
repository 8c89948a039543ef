"""Converging families of log-concave references and flow stability checks.

Three constructions produce sequences gamma_n -> gamma: growing envelopes
of tangent lines (increasing to the potential), smoothing at scale 1/n,
and variance perturbations of Gaussian references. Checkers compare
entropies along the sequence against duality witnesses and recovery
measures, run the proximal flow under every member, and verify the
metric-convergence equivalences used throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import log_ndtr, logsumexp

from .measures import (
    AffineMaxPotential,
    BoxPotential,
    ConvexPotential,
    DiscreteMeasure,
    NormSpec,
    QuadraticPotential,
    ReferenceMeasure,
    affine_max,
    discretize_reference,
    entropy_duality_bound,
    grid_measure,
    quadratic,
    rebin_measure,
    relative_entropy,
    second_moment,
    suggested_bounds,
    tabulated,
)
from .jko import JkoConfig, QuantileLattice, jko_trajectory
from .report import CheckReport
from .transport import w2, w2_quantile_knots

__all__ = [
    "ReferenceSequence",
    "build_sequence",
    "affine_envelope_potential",
    "mollified_potential",
    "bounded_lipschitz_dictionary",
    "gamma_convergence_check",
    "flow_stability_run",
    "FlowStabilityResult",
    "moments_convergence_check",
    "MomentsConvergenceResult",
    "w2_lsc_check",
]


@dataclass
class ReferenceSequence:
    """Members gamma_n converging to a limit reference."""

    members: list[ReferenceMeasure]
    limit: ReferenceMeasure
    ns: tuple[int, ...]
    norms: list[NormSpec] | None = None

    def weak_convergence_gaps(self) -> np.ndarray:
        """Sup over a bounded-Lipschitz dictionary of integral gaps per member."""
        members = [(m.grid, m.weights) for m in self.members]
        return _weak_gaps(members, (self.limit.grid, self.limit.weights))


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------
def _van_der_corput(count: int) -> np.ndarray:
    out = []
    i = 1
    while len(out) < count:
        u, denom, k = 0.0, 1.0, i
        while k:
            denom *= 2.0
            k, rem = divmod(k, 2)
            u += rem / denom
        out.append(u)
        i += 1
    return np.asarray(out)


def affine_envelope_potential(base: ConvexPotential, points) -> AffineMaxPotential:
    """Envelope of tangent lines of the base potential at given points."""
    pts = np.asarray(points, dtype=float)
    vals = base.value(pts)
    slopes = base.drift(pts)
    return affine_max([(float(s), float(v - s * p)) for p, v, s in zip(pts, vals, slopes)])


def _envelope_tangency_points(base: ConvexPotential, n: int) -> np.ndarray:
    """First n points of a nested low-discrepancy spread over the base.

    Nesting (each set contains the previous) makes the envelopes increase
    monotonically toward the base potential. The leading pair straddles the
    minimum so every envelope is integrable.
    """
    lo, hi = suggested_bounds(base, 12.0)
    u = np.concatenate([[0.25, 0.75], _van_der_corput(max(n, 2))])
    seen: list[float] = []
    for v in u:
        if len(seen) >= n:
            break
        if all(abs(v - s) > 1e-12 for s in seen):
            seen.append(float(v))
    return lo + (hi - lo) * np.asarray(seen)


def mollified_potential(base: ConvexPotential, sigma: float) -> ConvexPotential:
    """Smoothing of the base at scale sigma, as a tabulated potential.

    Finite potentials are convolved with a Gaussian kernel directly (the
    standard increasing-regularity approximation); box potentials convolve
    the density instead, which keeps the result log-concave and covers the
    +inf walls. The box density 1_box e^{-V_inner} is convolved in closed
    form, with V_inner linear between knots (one piece for the bare box).
    """
    samples = 2001
    if isinstance(base, BoxPotential):
        lo, hi = base.finite_interval()
        span = 8.0 * sigma
        xs = np.linspace(lo - span, hi + span, samples)
        if base.inner is None:
            knots, vals = np.array([lo, hi]), np.zeros(2)
        else:
            kinks = base.inner.kinks()
            knots = np.union1d(np.linspace(lo, hi, 513), kinks[(kinks > lo) & (kinks < hi)])
            vals = base.inner.value(knots)
        # in blocks of samples: each block holds (samples/8, pieces) temporaries
        log_dens = np.concatenate(
            [_smoothed_log_density(block, knots, vals, sigma) for block in np.array_split(xs, 8)]
        )
        return tabulated(xs, -log_dens)
    lo, hi = suggested_bounds(base, 50.0)
    xs = np.linspace(lo - 8.0 * sigma, hi + 8.0 * sigma, samples)
    k = np.arange(-6.0, 6.0 + 1e-9, 0.05)
    kernel = np.exp(-0.5 * k * k)
    kernel /= kernel.sum()
    vals = np.array(
        [float(np.dot(kernel, base.value(xx + sigma * k))) for xx in xs]
    )
    return tabulated(xs, vals)


def _smoothed_log_density(xs: np.ndarray, knots: np.ndarray, vals: np.ndarray, sigma: float) -> np.ndarray:
    """log of the density e^{-V}, V linear between knots and +inf outside, convolved with N(0, sigma^2).

    On a piece [y0, y1] with V = v0 + s (y - y0) the convolution at x is
    exp(-v0 - s (x - y0) + (s sigma)^2 / 2) [Phi((y1 - m)/sigma) - Phi((y0 - m)/sigma)]
    with m = x - s sigma^2; the pieces are summed in log space.
    """
    s = np.diff(vals) / np.diff(knots)
    x = xs[:, None]
    m = x - s * sigma * sigma
    # log(Phi(top) - Phi(bot)) evaluated stably
    log_top = log_ndtr((knots[1:] - m) / sigma)
    log_bot = log_ndtr((knots[:-1] - m) / sigma)
    diff = np.minimum(log_bot - log_top, -1e-300)
    terms = log_top + np.log(-np.expm1(diff)) - vals[:-1] - s * (x - knots[:-1]) + 0.5 * (s * sigma) ** 2
    return logsumexp(terms, axis=1)


_SEQUENCE_MEMBERS = {  # sequence kind -> the potential of its member n
    "affine_envelope": lambda base, n: affine_envelope_potential(base, _envelope_tangency_points(base, n)),
    "mollified": lambda base, n: mollified_potential(base, 0.5 / n),  # standard deviation 1/(2n): scale 1/n
    "variance_perturbed": lambda base, n: quadratic(base.a / (1.0 + 1.0 / n), base.m),
}


def build_sequence(
    kind: str,
    base: ConvexPotential,
    ns: tuple[int, ...] = (4, 16, 64),
    grid_n: int = 400,
) -> ReferenceSequence:
    """Sequence of discretized references converging to the base's law.

    ``affine_envelope`` grows nested tangent envelopes (potentials increase
    to the base), ``mollified`` smooths at scale 1/n, and
    ``variance_perturbed`` scales a Gaussian's variance by 1 + 1/n. Each
    member and the limit are discretized on their domain when it is finite,
    else on their ``suggested_bounds``.
    """
    if kind not in _SEQUENCE_MEMBERS:
        raise ValueError(f"unknown sequence kind {kind!r}")
    if kind == "variance_perturbed" and not isinstance(base, QuadraticPotential):
        raise ValueError("variance_perturbed needs a quadratic base")

    def reference(pot):
        dom = pot.finite_interval()
        return discretize_reference(pot, grid_n, dom if all(map(math.isfinite, dom)) else suggested_bounds(pot))

    members = [reference(_SEQUENCE_MEMBERS[kind](base, n)) for n in ns]
    return ReferenceSequence(members=members, limit=reference(base), ns=tuple(ns))


# ---------------------------------------------------------------------------
# Weak-convergence dictionary
# ---------------------------------------------------------------------------
def bounded_lipschitz_dictionary(size: int = 64):
    """Fixed dictionary of bounded-Lipschitz test functions on the line.

    Half are sines of varying frequency and phase, half clipped cubics; all
    take values in [-2, 2].
    """
    rng = np.random.default_rng(12345)
    fns = []
    n_sines = size // 2
    for j in range(n_sines):
        freq = 0.15 + 0.1 * j
        phase = float(rng.uniform(0, 2 * math.pi))

        def f(x, freq=freq, phase=phase):
            return np.sin(freq * np.asarray(x, dtype=float) + phase)

        fns.append(f)
    for _ in range(size - n_sines):
        c = rng.uniform(-0.5, 0.5, size=4)

        def g(x, c=c):
            x = np.asarray(x, dtype=float)
            return np.clip(c[0] + c[1] * x + c[2] * x**2 / 4 + c[3] * x**3 / 16, -2.0, 2.0)

        fns.append(g)
    return fns


def _weak_gaps(measures, limit) -> np.ndarray:
    """Per measure, the sup over the bounded-Lipschitz dictionary of |int f dmu - int f dlimit|.

    Measures and the limit are (points, weights) pairs.
    """
    dictionary = bounded_lipschitz_dictionary()
    ref = [float(np.dot(limit[1], f(limit[0]))) for f in dictionary]
    return np.asarray(
        [max([0.0] + [abs(float(np.dot(w, f(x))) - b) for f, b in zip(dictionary, ref)]) for x, w in measures]
    )


# ---------------------------------------------------------------------------
# Entropy convergence
# ---------------------------------------------------------------------------
def _density_vs_limit(probe: DiscreteMeasure, limit: ReferenceMeasure, clip: float):
    """Clipped log-density of the probe against the limit, as a callable."""
    placed = limit.place(probe)
    if placed is None:
        raise ValueError("probes must live on the limit's grid")
    w = np.zeros(limit.n)
    w[placed[0]] = placed[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rho = np.where(
            (w > 0) & (limit.weights > 0),
            np.log(np.maximum(w, 1e-300)) - np.log(np.maximum(limit.weights, 1e-300)),
            -clip,
        )
    log_rho = np.clip(log_rho, -clip, clip)
    grid, span = limit.grid, limit.cell_width

    def s(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= grid[0] - span) & (x <= grid[-1] + span)
        vals = np.interp(x, grid, log_rho)
        return np.where(inside, vals, -clip)

    return s, log_rho


def gamma_convergence_check(
    seq: ReferenceSequence,
    probes: list[DiscreteMeasure],
    tol: float = 0.01,
) -> CheckReport:
    """Two-sided entropy convergence along the sequence.

    For each probe, the log-density against the limit, clipped to [-30, 30],
    is a bounded duality witness, so its duality value under every member
    lower-bounds H(probe | gamma_n) and converges to H(probe | limit); the
    recovery measures Z^-1 exp(-eps x^2) rho gamma_n for eps = 0.1, 0.01
    certify the matching upper bound. Probes with infinite limit entropy
    are reported as a divergence trend instead.
    """
    clip = 30.0
    report = CheckReport()
    member = seq.members[-1]
    for p_idx, probe in enumerate(probes):
        h_limit = relative_entropy(probe, seq.limit)
        probe_n = rebin_measure(probe, member)
        if not math.isfinite(h_limit):
            h_last = relative_entropy(probe_n, member)
            h_first = relative_entropy(rebin_measure(probe, seq.members[0]), seq.members[0])
            report.add(
                f"probe{p_idx}_divergence_trend",
                h_first,
                h_last,
                0.0,
                "limit entropy infinite; member entropies must grow",
            )
            continue

        s_fn, log_rho = _density_vs_limit(probe, seq.limit, clip)
        witness_limit = entropy_duality_bound(probe, seq.limit, log_rho)
        # witness value under the last member certifies the liminf side
        value_n = entropy_duality_bound(probe_n, member, s_fn)
        h_n = relative_entropy(probe_n, member)
        report.add(
            f"probe{p_idx}_liminf_witness_certifies",
            value_n,
            h_n,
            1e-12,
            "duality bound below member entropy",
        )
        report.add(
            f"probe{p_idx}_liminf_witness_converges",
            abs(value_n - witness_limit),
            0.0,
            tol,
            f"witness drift; H(limit)={h_limit:.6f}",
        )

        # recovery (limsup) side
        best_gap = math.inf
        rho_member = np.exp(s_fn(member.grid))
        for eps in (0.1, 0.01):
            g = np.exp(-eps * member.grid**2) * rho_member
            w = member.weights * g
            if w.sum() <= 0:
                continue
            rec = grid_measure(member, w)
            h_rec = relative_entropy(rec, member)
            best_gap = min(best_gap, h_rec - h_limit)
        report.add(
            f"probe{p_idx}_limsup_recovery",
            best_gap,
            0.0,
            tol,
            "recovery entropy minus limit entropy",
        )
    return report


# ---------------------------------------------------------------------------
# Flow stability
# ---------------------------------------------------------------------------
@dataclass
class FlowStabilityResult:
    gaps: np.ndarray  # (len(ns),) sup over steps of W2(member flow, limit flow)
    report: CheckReport


def flow_stability_run(
    seq: ReferenceSequence,
    x_n,
    x: float,
    T: float,
    cfg: JkoConfig,
    final_gap_tol: float = 0.05,
) -> FlowStabilityResult:
    """Transition flows under every member against the limit flow.

    Every flow starts from the uniform law of width h, the limit's cell
    width, whatever its member's grid: centred at x_n under gamma_n and at
    x under the limit, shifted into the domain. A member norm s, when norms
    are supplied, weights the metric; that proximal problem is the
    unweighted one with step tau/s, so the member runs with step tau/s over
    T/s and is compared with the limit step by step. The report holds the
    sup over steps of the cross-lattice distance; the gap ladder must
    shrink to ``final_gap_tol`` and be monotone within 1e-3.
    """
    x_n = list(x_n)
    if len(x_n) != len(seq.members):
        raise ValueError("one start point per member required")
    h = seq.limit.cell_width

    def flow(gamma, centre, s=1.0):
        lat = QuantileLattice(gamma)
        lo, hi = lat.domain
        a = min(max(centre - 0.5 * h, lo), hi - h)  # left edge of the law
        edges = a + h * lat.levels
        traj = jko_trajectory(gamma, None, replace(cfg, tau=cfg.tau / s), T / s, lattice=lat, initial_edges=edges)
        return lat, traj

    lat_limit, traj_limit = flow(seq.limit, x)
    gaps = []
    for i, member in enumerate(seq.members):
        s = 1.0 if seq.norms is None else float(seq.norms[i].matrix[0, 0])
        lat, traj = flow(member, x_n[i], s)
        worst = 0.0
        for e, e_limit in zip(traj.edges[1:], traj_limit.edges[1:], strict=True):
            worst = max(worst, w2_quantile_knots((lat.levels, e), (lat_limit.levels, e_limit)))
        gaps.append(worst)
    gaps = np.asarray(gaps)
    report = CheckReport()
    report.add("flow_gap_final", float(gaps[-1]), final_gap_tol, 0.0, f"n={seq.ns[-1]}")
    worst_increase = float(np.max(np.diff(gaps))) if len(gaps) > 1 else 0.0
    report.add("flow_gap_monotone", worst_increase, 0.0, 1e-3)
    return FlowStabilityResult(gaps=gaps, report=report)


# ---------------------------------------------------------------------------
# Metric convergence equivalences
# ---------------------------------------------------------------------------
@dataclass
class MomentsConvergenceResult:
    weak_gaps: np.ndarray
    moment_gaps: np.ndarray
    w2_gaps: np.ndarray
    converges_weakly: bool
    moments_converge: bool
    w2_converges: bool

    @property
    def equivalence_holds(self) -> bool:
        return (self.converges_weakly and self.moments_converge) == self.w2_converges


def moments_convergence_check(
    mu_seq: list[DiscreteMeasure],
    mu: DiscreteMeasure,
    norms: list[NormSpec] | None = None,
    tol: float = 1e-2,
) -> MomentsConvergenceResult:
    """Weak + second-moment convergence against Wasserstein convergence.

    All three gap ladders are computed numerically; convergence of the
    first two is equivalent to convergence of the third.
    """
    weak = _weak_gaps([(m.x, m.weights) for m in mu_seq], (mu.x, mu.weights))
    mom, wass = [], []
    m_ref = second_moment(mu)
    for i, m in enumerate(mu_seq):
        norm = norms[i] if norms is not None else None
        mom.append(abs(second_moment(m, norm) - m_ref))
        wass.append(w2(m, mu))
    mom, wass = map(np.asarray, (mom, wass))
    return MomentsConvergenceResult(
        weak_gaps=weak,
        moment_gaps=mom,
        w2_gaps=wass,
        converges_weakly=bool(weak[-1] <= tol),
        moments_converge=bool(mom[-1] <= tol),
        w2_converges=bool(wass[-1] <= math.sqrt(tol)),
    )


def w2_lsc_check(
    mu_seq: list[DiscreteMeasure],
    nu_seq: list[DiscreteMeasure],
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    norms: list[NormSpec] | None = None,
) -> CheckReport:
    """Lower semicontinuity and convergence of weighted distances.

    (i) the liminf of the member distances dominates the limit distance;
    (ii) when both sequences converge with second moments, the weighted
    distances converge to the limit distance. Both allow 1e-2.
    """
    tol = 1e-2
    report = CheckReport()
    dists = []
    for i in range(len(mu_seq)):
        norm = norms[i] if norms is not None else None
        dists.append(w2(mu_seq[i], nu_seq[i], norm))
    dists = np.asarray(dists)
    target = w2(mu, nu)
    tail = dists[len(dists) // 2 :]
    report.add("w2_liminf", target, float(tail.min()), tol, "limit <= liminf of members")

    mom_mu = moments_convergence_check(mu_seq, mu, norms, tol)
    mom_nu = moments_convergence_check(nu_seq, nu, norms, tol)
    if (
        mom_mu.converges_weakly
        and mom_mu.moments_converge
        and mom_nu.converges_weakly
        and mom_nu.moments_converge
    ):
        report.add("w2_convergence", abs(float(dists[-1]) - target), 0.0, tol)
    return report
