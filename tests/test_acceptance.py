"""Acceptance battery: every quantitative claim at its stated tolerance.

Each test prints one verdict line (visible with ``pytest -s``); the heavy
flows are shared through session fixtures. Run via

    pytest tests/test_acceptance.py -v -s
"""
import math

import numpy as np
import pytest
from scipy.stats import norm

import entroflow as ef
import entroflow.dirichlet as dr
import entroflow.oracles as orc
import entroflow.stability as st
from entroflow.jko import QuantileLattice
from entroflow.transport import (
    histogram_quantile_knots,
    w2_knots_to_gaussian,
    w2_quantile_knots,
)
from conftest import random_atomic, random_grid_measure


def _ou_law(t, mean0=1.0, var0=0.25):
    return mean0 * math.exp(-t), math.sqrt(1.0 + (var0 - 1.0) * math.exp(-2.0 * t))


def _full_edges(gamma):
    return np.concatenate(
        [gamma.grid - gamma.cell_width / 2, [gamma.grid[-1] + gamma.cell_width / 2]]
    )


def _passline(num, text):
    print(f"[ACCEPTANCE {num:>2}] PASS — {text}")


@pytest.fixture(scope="session")
def ou_gamma():
    return ef.discretize_reference(ef.quadratic(1.0), 400, (-8.0, 8.0))


@pytest.fixture(scope="session")
def ou_lattice(ou_gamma):
    return QuantileLattice(ou_gamma)


@pytest.fixture(scope="session")
def ou_traj(ou_gamma, ou_lattice):
    mu0 = ef.gaussian_on_grid(ou_gamma, 1.0, 0.5)
    return ef.jko_trajectory(ou_gamma, mu0, ef.JkoConfig(tau=1e-3), 1.0, lattice=ou_lattice)


@pytest.fixture(scope="session")
def ou_traj_mirror(ou_gamma, ou_lattice):
    mu0 = ef.gaussian_on_grid(ou_gamma, -1.0, 0.5)
    return ef.jko_trajectory(ou_gamma, mu0, ef.JkoConfig(tau=1e-3), 1.0, lattice=ou_lattice)


@pytest.fixture(scope="session")
def quartic_gamma():
    return ef.discretize_reference(ef.quartic(1.0, 1.0), 400, (-4.5, 4.5))


@pytest.fixture(scope="session")
def reflected_gamma():
    return ef.discretize_reference(ef.box(0.0, 1.0), 200, (0.0, 1.0))


@pytest.fixture(scope="session")
def reflected_traj(reflected_gamma):
    start = ef.dirac_on_grid(reflected_gamma, 0.3)
    return ef.jko_trajectory(reflected_gamma, start, ef.JkoConfig(tau=1e-3), 1.0)


@pytest.fixture(scope="session")
def ou_transition_half(ou_gamma):
    return ef.transition_trajectory(ou_gamma, 1.0, 0.5, ef.JkoConfig(tau=2e-3))


def test_criterion_01_ou_equivalence(ou_traj, ou_lattice):
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        mean, std = _ou_law(t)
        d = w2_knots_to_gaussian((ou_lattice.levels, ou_traj.edges_at(t)), mean, std)
        worst = max(worst, d)
        assert d <= 0.02, f"t={t}: W2={d}"
    _passline(1, f"W2(flow, analytic OU law) <= 0.02 (worst {worst:.2e})")


def test_criterion_02_fokker_planck_cross_check(ou_gamma, ou_traj, ou_lattice, quartic_gamma):
    mu0 = ef.gaussian_on_grid(ou_gamma, 1.0, 0.5)
    sol = orc.fp_solve(ou_gamma, mu0, 1.0, 1e-3, times=[0.1, 0.5, 1.0])
    edges = _full_edges(ou_gamma)
    worst_ou = 0.0
    for t in (0.1, 0.5, 1.0):
        d = w2_quantile_knots(
            (ou_lattice.levels, ou_traj.edges_at(t)),
            histogram_quantile_knots(edges, sol.density_at(t)),
        )
        worst_ou = max(worst_ou, d)
        assert d <= 0.02, f"OU t={t}: {d}"

    muq = ef.gaussian_on_grid(quartic_gamma, 1.0, 0.5)
    latq = QuantileLattice(quartic_gamma)
    trajq = ef.jko_trajectory(quartic_gamma, muq, ef.JkoConfig(tau=1e-3), 1.0, lattice=latq)
    solq = orc.fp_solve(quartic_gamma, muq, 1.0, 1e-3, times=[0.1, 0.5, 1.0])
    edgesq = _full_edges(quartic_gamma)
    worst_q = 0.0
    for t in (0.1, 0.5, 1.0):
        d = w2_quantile_knots(
            (latq.levels, trajq.edges_at(t)),
            histogram_quantile_knots(edgesq, solq.density_at(t)),
        )
        worst_q = max(worst_q, d)
        assert d <= 0.03, f"quartic t={t}: {d}"
    _passline(2, f"W2(flow, Fokker-Planck) OU {worst_ou:.2e} <= 0.02, quartic {worst_q:.2e} <= 0.03")


def test_criterion_03_reflected_case(reflected_gamma, reflected_traj):
    lat = reflected_traj.lattice
    x0 = float(reflected_traj.initial.x[0])
    worst = 0.0
    for t in (0.05, 0.2, 1.0):
        w_flow = lat.to_grid_weights(reflected_traj.edges_at(t))
        w_kernel = orc.neumann_density_on_grid(reflected_gamma.grid, x0, t)
        l1 = float(np.abs(w_flow - w_kernel).sum())
        worst = max(worst, l1)
        assert l1 <= 0.02, f"t={t}: L1={l1}"
    _passline(3, f"reflected flow within L1 <= 0.02 of the cosine kernel (worst {worst:.2e})")


def test_criterion_04_sde_cross_check(ou_gamma, ou_transition_half, reflected_gamma, reflected_traj):
    # Ornstein-Uhlenbeck side
    lat = ou_transition_half.lattice
    x = float(ou_transition_half.initial.x[0])
    sample = orc.sde_simulate(ou_gamma.potential, x, 0.5, 1e-4, 100_000, seed=42)
    emp = sample.empirical()
    d_ou = w2_quantile_knots(
        (lat.levels, ou_transition_half.edges[-1]), (np.cumsum(emp.weights), emp.x)
    )
    assert d_ou <= 0.03

    # reflected side
    latr = reflected_traj.lattice
    xr = float(reflected_traj.initial.x[0])
    sample_r = orc.sde_simulate(reflected_gamma.potential, xr, 0.5, 1e-4, 100_000, seed=43)
    emp_r = sample_r.empirical()
    d_ref = w2_quantile_knots(
        (latr.levels, reflected_traj.edges_at(0.5)), (np.cumsum(emp_r.weights), emp_r.x)
    )
    assert d_ref <= 0.03
    _passline(4, f"W2(empirical SDE, flow transition): OU {d_ou:.3e}, reflected {d_ref:.3e} <= 0.03")


def test_criterion_05_uniform_approximation_constant(ou_gamma, quartic_gamma):
    const = ef.UNIFORM_APPROX_CONSTANT
    assert const == pytest.approx(2.0 * (2.0 * math.sqrt(2.0) + 1.0))
    violations = 0
    margins = []
    for gamma, horizon in ((ou_gamma, 1.0), (quartic_gamma, 0.5)):
        lat = QuantileLattice(gamma)
        mu0 = ef.gaussian_on_grid(gamma, 1.0, 0.5)
        fine = ef.refine_trajectory(gamma, mu0, 0.01, 4, horizon).trajectories[-1]
        h0 = fine.entropies[0]
        for tau in (0.1, 0.05, 0.01):
            traj = ef.jko_trajectory(gamma, mu0, ef.JkoConfig(tau=tau), horizon, lattice=lat)
            bound = const * math.sqrt(tau * h0)
            worst = max(
                lat.w2(traj.edges_at(t), fine.edges_at(t)) for t in traj.times[1:]
            )
            margins.append(bound - worst)
            if worst > bound:
                violations += 1
    assert violations == 0
    _passline(5, f"sup_t W2(scheme, fine flow) <= 2(2*sqrt2+1) sqrt(tau H); min margin {min(margins):.3f}")


def test_criterion_06_per_step_inequalities(ou_traj, ou_gamma, rng):
    # entropy decrease
    assert np.all(np.diff(ou_traj.entropies) <= 1e-12)
    # square-root step bound
    drops = ou_traj.entropies[:-1] - ou_traj.entropies[1:]
    bound = np.sqrt(2.0 * ou_traj.config.tau * np.maximum(drops, 0.0))
    eeee_viol = int(np.sum(ou_traj.w2_increments > bound + 1e-8))
    assert eeee_viol == 0
    # per-step variational inequality against 20 random finite-entropy measures
    evi_worst = ou_traj.evi_residuals.max()
    for _ in range(20):
        nu = random_grid_measure(ou_gamma, rng)
        res = ef.evi_residual_profile(ou_traj, nu)
        evi_worst = max(evi_worst, float(res.max()))
        assert np.all(res <= 1e-8)
    # Hoelder-1/2 bound: consecutive pairs, a coarse all-pairs grid, random pairs
    lat = ou_traj.lattice
    h0 = ou_traj.entropies[0]
    const = math.sqrt(2.0 * h0)
    n_times = len(ou_traj.times)
    idx = set(range(0, n_times, max(1, n_times // 25))) | {n_times - 1}
    pairs = [(k, k + 1) for k in range(n_times - 1)]
    pairs += [(a, b) for a in idx for b in idx if a < b]
    pairs += [tuple(sorted(rng.choice(n_times, 2, replace=False))) for _ in range(500)]
    holder_worst = -math.inf
    for a, b in pairs:
        if a == b:
            continue
        dt = ou_traj.times[b] - ou_traj.times[a]
        gap = lat.w2(ou_traj.edges[a], ou_traj.edges[b]) - const * math.sqrt(dt)
        holder_worst = max(holder_worst, gap)
        assert gap <= 1e-8
    _passline(
        6,
        f"entropy monotone, step bound, EVI (worst {evi_worst:.2e}), "
        f"Hoelder (worst gap {holder_worst:.2e}): zero violations",
    )


def test_criterion_07_contractivity(ou_traj, ou_traj_mirror):
    lat = ou_traj.lattice
    dists = [
        lat.w2(a, b) for a, b in zip(ou_traj.edges, ou_traj_mirror.edges)
    ]
    dists = np.asarray(dists)
    worst_increase = float(np.diff(dists).max())
    assert worst_increase <= 1e-4
    analytic = 2.0 * np.exp(-ou_traj.times)
    worst_gap = float(np.abs(dists - analytic).max())
    assert worst_gap <= 0.02
    _passline(
        7,
        f"two-flow distance non-increasing (max step {worst_increase:.2e}) and "
        f"within {worst_gap:.2e} of 2 e^-t",
    )


def test_criterion_08_regularizing_and_transition_entropy(ou_gamma, ou_transition_half):
    cfg = ef.JkoConfig(tau=2e-3)
    violations = 0
    for x in (0.5, 1.0, 2.0):
        traj = ef.transition_trajectory(ou_gamma, x, 1.0, cfg)
        xs = float(traj.initial.x[0])
        cost = ef.dirac_transport_cost(ou_gamma, xs)
        for t in (0.1, 0.5, 1.0):
            h = traj.entropies[traj.index_at(t)]
            if h > cost / (2.0 * t):
                violations += 1
    assert violations == 0

    # the worked case: x = 1, t = 1/2
    h_half = ou_transition_half.entropies[-1]
    xs = float(ou_transition_half.initial.x[0])
    m = orc.ou_transition_exact(xs, 0.5)
    closed_form = orc.gaussian_kl(m.mean, m.variance)
    bound = ef.dirac_transport_cost(ou_gamma, xs) / (2.0 * 0.5)
    assert h_half <= bound
    assert abs(h_half - closed_form) <= 0.02
    assert bound == pytest.approx(2.0, abs=0.05)
    _passline(
        8,
        f"H(transition_t) <= W2^2(start, gamma)/(2t); x=1, t=0.5: "
        f"{h_half:.4f} ~ {closed_form:.4f} <= {bound:.3f}",
    )


def test_criterion_09_displacement_convexity_suite(ou_gamma, quartic_gamma, reflected_gamma, rng):
    refs = [ou_gamma, quartic_gamma, reflected_gamma]
    entropy_violations = 0
    t_vals = np.linspace(0.0, 1.0, 11)
    for trial in range(500):
        gamma = refs[trial % 3]
        mu0 = random_grid_measure(gamma, rng)
        mu1 = random_grid_measure(gamma, rng)
        h0 = ef.relative_entropy(mu0, gamma)
        h1 = ef.relative_entropy(mu1, gamma)
        for t in t_vals:
            interp = ef.displacement_interpolate(mu0, mu1, float(t))
            ht = ef.relative_entropy(ef.rebin_measure(interp, gamma), gamma)
            if ht > (1 - t) * h0 + t * h1 + 1e-6:
                entropy_violations += 1
    assert entropy_violations == 0

    quad_violations = 0
    for _ in range(500):
        base = random_atomic(rng, n=20)
        nu0 = random_atomic(rng, n=15)
        nu1 = random_atomic(rng, n=25, shift=0.5)
        d0 = ef.w2(nu0, base) ** 2
        d1 = ef.w2(nu1, base) ** 2
        d01 = ef.w2(nu0, nu1) ** 2
        for t in t_vals:
            nut = ef.interpolate_from_base(base, nu0, nu1, float(t))
            if ef.w2(nut, base) ** 2 > (1 - t) * d0 + t * d1 - t * (1 - t) * d01 + 1e-8:
                quad_violations += 1
    assert quad_violations == 0
    _passline(9, "500x11 entropy convexity and quadrilateral inequalities: zero violations")


def test_criterion_10_transport_layer(rng):
    worst = 0.0
    for _ in range(200):
        a = random_atomic(rng)
        b = random_atomic(rng, scale=float(rng.uniform(0.5, 2.0)), shift=float(rng.normal()))
        worst = max(worst, abs(ef.w2_exact_1d(a, b).distance - ef.w2_lp(a, b).distance))
    assert worst <= 1e-8

    a = random_atomic(rng, n=200)
    b = random_atomic(rng, n=200, shift=1.0)
    scale = float(np.mean((a.x[:, None] - b.x[None, :]) ** 2))
    exact = ef.w2_exact_1d(a, b).distance
    sk = ef.w2_sinkhorn(a, b, epsilon=1e-3 * scale)
    assert sk.marginal_violation < 1e-9
    sk_gap = abs(sk.distance_estimate - exact)
    assert sk_gap <= 1e-3 * max(1.0, math.sqrt(scale))

    for _ in range(30):
        x, y, z = (random_atomic(rng, n=int(rng.integers(5, 50))) for _ in range(3))
        assert abs(ef.w2(x, y) - ef.w2(y, x)) <= 1e-9
        assert ef.w2(x, y) <= ef.w2(x, z) + ef.w2(z, y) + 1e-9
        assert ef.w2(x, x) <= 1e-12
    _passline(
        10,
        f"quantile==LP to {worst:.1e}; Sinkhorn-exact gap {sk_gap:.1e}; metric axioms to 1e-9",
    )


def test_criterion_11_stability(rng):
    gaps_report = []
    for kind, base in (
        ("variance_perturbed", ef.quadratic(1.0)),
        ("mollified", ef.box(0.0, 1.0)),
    ):
        seq = st.build_sequence(kind, base, ns=(4, 16, 64), grid_n=400)
        x = 1.0 if kind == "variance_perturbed" else 0.3
        res = st.flow_stability_run(
            seq, [x] * 3, x, 1.0, ef.JkoConfig(tau=5e-3), final_gap_tol=0.05
        )
        assert res.report.passed, f"{kind}: {res.report}"
        gaps_report.append((kind, res.gaps))

        if kind == "variance_perturbed":
            probe = ef.gaussian_on_grid(seq.limit, 0.5, 0.5)
        else:
            w = np.exp(-0.5 * (seq.limit.grid - 0.4) ** 2 / 0.04) + 0.2
            probe = ef.grid_measure(seq.limit, w * seq.limit.weights)
        gamma_report = st.gamma_convergence_check(seq, [probe], tol=0.01)
        assert gamma_report.passed, f"{kind}: {gamma_report}"
    lines = "; ".join(f"{k} gaps {np.array2string(g, precision=3)}" for k, g in gaps_report)
    _passline(11, f"flow gaps <= 0.05 at n=64, monotone, entropy gaps <= 0.01 ({lines})")


def test_criterion_12_reversibility_and_semigroup(ou_gamma, reflected_gamma):
    asym = orc.reversibility_check(ou_gamma, 0.5)
    assert asym <= 1e-3
    asym_ref = orc.reversibility_check(reflected_gamma, 0.2)
    assert asym_ref <= 1e-3

    g = ef.discretize_reference(ef.quadratic(1.0), 60, (-8.0, 8.0))
    cfg = ef.JkoConfig(tau=5e-3)
    p1 = orc.semigroup_matrix(g, 0.25, cfg, method="jko")
    p2 = orc.semigroup_matrix(g, 0.5, cfg, method="jko")
    ck_err = float(np.abs(p1 @ p1 - p2).sum(axis=1).max())
    assert ck_err <= 0.02

    gamma_inv = ef.discretize_reference(ef.quadratic(1.0), 200, (-8.0, 8.0))
    candidates = [
        gamma_inv.as_measure(),
        ef.gaussian_on_grid(gamma_inv, 0.5, 1.0),
        ef.gaussian_on_grid(gamma_inv, 0.0, 0.5),
        ef.gaussian_on_grid(gamma_inv, -0.4, 1.2),
        ef.grid_measure(gamma_inv, gamma_inv.weights * np.exp(0.4 * np.tanh(gamma_inv.grid))),
    ]
    report = ef.invariance_check(gamma_inv, candidates, 0.2, ef.JkoConfig(tau=5e-3))
    assert report.passed, str(report)

    # reflected variant: the tilted density 2x moves, the uniform one stays
    tilted = ef.grid_measure(reflected_gamma, reflected_gamma.grid)
    report_r = ef.invariance_check(
        reflected_gamma, [reflected_gamma.as_measure(), tilted], 0.2, ef.JkoConfig(tau=5e-3)
    )
    assert report_r.passed, str(report_r)
    _passline(
        12,
        f"detailed balance {asym:.1e}/{asym_ref:.1e} <= 1e-3; Chapman-Kolmogorov "
        f"{ck_err:.3f} <= 0.02; only the reference is invariant (5 candidates)",
    )


def test_criterion_13_appendix_identities():
    catalog = [
        ef.quadratic(1.0),
        ef.quadratic(2.5, 0.7),
        ef.quartic(1.0, 1.0),
        ef.abs_potential(1.0, 1.0),
        ef.box(0.0, 1.0),
        ef.box(-1.0, 2.0, ef.quadratic(1.0)),
        ef.affine_max([(-1.0, 0.0), (1.0, 0.0), (2.0, -3.0)]),
    ]
    worst_tv = 0.0
    for pot in catalog:
        sigma = dr.boundary_measure_1d(pot)
        gap = abs(sigma.total_variation - 2.0 * math.exp(-pot.min_value()))
        worst_tv = max(worst_tv, gap)
        assert gap <= 1e-6, pot.kind

    cases = [
        (ef.quadratic(1.0), np.sin, np.cos),
        (ef.box(0.0, 1.0), lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x)),
        (ef.abs_potential(1.0), np.sin, np.cos),
    ]
    worst_ibp = 0.0
    for pot, u, du in cases:
        res = dr.integration_by_parts_check(pot, u, du)
        scale = max(1.0, abs(res.lhs), abs(res.rhs))
        worst_ibp = max(worst_ibp, res.gap / scale)
        assert res.gap <= 1e-6 * scale

    base = ef.quadratic(1.0)
    pots = [
        st.affine_envelope_potential(base, st._envelope_tangency_points(base, n))
        for n in (4, 16, 64)
    ]
    report = dr.boundary_convergence_check(pots, base)
    assert report.passed, str(report)
    _passline(
        13,
        f"TV identity (worst {worst_tv:.1e} <= 1e-6), integration by parts "
        f"(worst {worst_ibp:.1e}), envelope boundary convergence",
    )


def test_criterion_14_slope_characterization(ou_gamma, rng):
    catalog = [
        np.exp(ou_gamma.grid / 4.0),
        1.0 + 0.2 * np.sin(ou_gamma.grid),
        1.0 + 0.3 * np.tanh(ou_gamma.grid),
        np.exp(-0.1 * ou_gamma.grid**2) + 0.5,
        2.0 + 0.4 * np.clip(ou_gamma.grid, -1.0, 1.0),
    ]
    ratios = []
    for u in catalog:
        res = dr.slope_variational_check(u, ou_gamma, probe_count=200, rng=rng)
        assert res.inequality_violations == 0
        assert res.sharpness_ratio >= 0.9
        ratios.append(res.sharpness_ratio)
    _passline(
        14,
        f"slope inequality: zero violations over 200 probes x 5 functions; "
        f"sharpness ratios {np.array2string(np.asarray(ratios), precision=3)} >= 0.9",
    )
