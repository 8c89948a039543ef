import copy
import json
import math

import numpy as np
import pytest
from scipy.stats import norm

import entroflow as ef
import entroflow.stability as st
from entroflow.jko import QuantileLattice
from entroflow.transport import w2_quantile_knots
from conftest import random_grid_measure


@pytest.fixture(scope="module")
def variance_seq():
    return st.build_sequence("variance_perturbed", ef.quadratic(1.0), ns=(4, 16, 64), grid_n=400)


@pytest.fixture(scope="module")
def box_seq():
    return st.build_sequence("mollified", ef.box(0.0, 1.0), ns=(4, 16, 64), grid_n=400)


class TestConstructions:
    def test_envelope_matches_tangent_construction(self):
        # tangents of x^2/2 at +-1 have slopes +-1, envelope |x| - 1/2
        env = st.affine_envelope_potential(ef.quadratic(1.0), [-1.0, 1.0])
        xs = np.linspace(-3.0, 3.0, 13)
        assert np.abs(env.value(xs) - (np.abs(xs) - 0.5)).max() < 1e-12

    def test_envelope_sequence_increases(self):
        pots = [
            st.affine_envelope_potential(
                ef.quadratic(1.0), st._envelope_tangency_points(ef.quadratic(1.0), n)
            )
            for n in (2, 4, 8, 16)
        ]
        xs = np.linspace(-4.0, 4.0, 41)
        base = ef.quadratic(1.0)
        prev = None
        for pot in pots:
            vals = pot.value(xs)
            assert np.all(vals <= base.value(xs) + 1e-12)
            if prev is not None:
                assert np.all(vals >= prev - 1e-12)
            prev = vals

    def test_variance_perturbed_members(self, variance_seq):
        member = variance_seq.members[-1]
        # gamma_64 = N(0, 1 + 1/64)
        var = member.second_moment() - member.mean() ** 2
        assert var == pytest.approx(1.0 + 1.0 / 64.0, abs=1e-3)

    def test_mollified_box_tv_to_uniform(self, box_seq):
        # discretize the last member's potential on the limit window and
        # compare cell weights with the uniform reference
        limit = box_seq.limit
        pot = box_seq.members[-1].potential
        vals = np.exp(-pot.value(limit.grid))
        w = vals / vals.sum()
        assert 0.5 * np.abs(w - limit.weights).sum() < 1e-2

    @pytest.mark.parametrize("inner", [ef.abs_potential(2.0), ef.quadratic(2.0, 0.3)], ids=["abs", "quadratic"])
    def test_mollified_box_with_inner_is_smoothed_density(self, inner):
        # -log of the box density e^{-V_inner} convolved with N(0, sigma^2), by direct quadrature
        base, sigma = ef.box(-1.0, 1.5, inner), 0.05
        pot = st.mollified_potential(base, sigma)
        assert pot.finite_interval() == pytest.approx((-1.0 - 8 * sigma, 1.5 + 8 * sigma))
        xs = pot.xs[::50]
        ys = np.linspace(-1.0, 1.5, 100_001)
        dens = np.exp(-inner.value(ys))
        direct = np.array([np.trapezoid(dens * norm.pdf(x, ys, sigma), ys) for x in xs])
        shift = pot.value(xs) + np.log(direct)  # a constant: the normalization is free
        assert np.ptp(shift) < 1e-5

    def test_mollified_box_with_inner_ladder_runs(self, tmp_path):
        # the member supports now cover the box, so a start inside it is feasible
        from entroflow.cli import main as cli_main

        cfg = {
            "potential": {"kind": "box", "lo": -1, "hi": 1.5, "inner": {"kind": "abs", "a": 2}},
            "sequence": {"kind": "mollified"},
            "x": -0.5,
            "jko": {"tau": 0.01},
            "horizon": 0.25,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["stability", str(path), "--out", str(tmp_path / "o")]) in (0, 1)

    def test_members_log_concave(self, variance_seq, box_seq):
        for seq in (variance_seq, box_seq):
            for member in seq.members:
                assert ef.discrete_log_concavity_ok(member)

    def test_weak_convergence_gap_decreases(self, variance_seq):
        gaps = variance_seq.weak_convergence_gaps()
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 1e-2

    def test_monotone_envelope_entropy_ingredients(self):
        # along increasing potentials, the potential means increase and the
        # log partitions decrease for any fixed probe
        base = ef.quadratic(1.0)
        pots = [
            st.affine_envelope_potential(base, st._envelope_tangency_points(base, n))
            for n in (2, 4, 8, 16, 32)
        ]
        refs = [ef.discretize_reference(p, 400, ef.suggested_bounds(pots[0])) for p in pots]
        probe_x = np.linspace(-1.5, 1.5, 31)
        probe_w = np.exp(-probe_x**2)
        probe_w /= probe_w.sum()
        means = [float(np.dot(probe_w, p.value(probe_x))) for p in pots]
        lzs = [r.log_partition for r in refs]
        assert np.all(np.diff(means) >= -1e-12)
        assert np.all(np.diff(lzs) <= 1e-12)


class TestGammaConvergence:
    def test_limit_probe_trivial(self, variance_seq):
        probe = variance_seq.limit.as_measure()
        report = st.gamma_convergence_check(variance_seq, [probe])
        assert report.passed, str(report)

    def test_gaussian_probe_closed_form(self, variance_seq):
        probe = ef.gaussian_on_grid(variance_seq.limit, 0.5, 0.5)
        # closed-form check of the entropy gap at n = 64
        member = variance_seq.members[-1]
        h_n = ef.relative_entropy(ef.rebin_measure(probe, member), member)
        v = 1.0 + 1.0 / 64.0
        expected = 0.5 * (math.log(v / 0.25) + (0.25 + 0.25) / v - 1.0)
        assert h_n == pytest.approx(expected, abs=2e-3)
        report = st.gamma_convergence_check(variance_seq, [probe])
        assert report.passed, str(report)

    def test_far_from_the_origin(self):
        # at m = 100 the recovery tilt exp(-0.1 x^2) underflows to 0 on every cell, and only eps = 0.01 recovers
        seq = st.build_sequence("variance_perturbed", ef.quadratic(1.0, 100.0), ns=(4, 16, 64), grid_n=400)
        report = st.gamma_convergence_check(seq, [ef.gaussian_on_grid(seq.limit, 100.5, 0.5)])
        assert report.passed, str(report)

    def test_support_violation_reported(self, box_seq):
        # probe with mass outside [0,1]: limit entropy infinite
        pts = np.concatenate([np.linspace(0.1, 0.9, 9), [1.6]])
        w = np.full(10, 0.1)
        probe = ef.DiscreteMeasure.from_atoms(pts, w)
        report = st.gamma_convergence_check(box_seq, [probe])
        ids = [item.check_id for item in report.items]
        assert any("divergence_trend" in s for s in ids)
        assert report.passed, str(report)


class TestFlowStability:
    def test_constant_sequence_gap_is_solver_noise(self):
        seq = st.build_sequence("variance_perturbed", ef.quadratic(1.0), ns=(10**9,), grid_n=300)
        res = st.flow_stability_run(seq, [1.0], 1.0, 0.3, ef.JkoConfig(tau=5e-3))
        assert res.gaps[0] < 1e-3

    def test_variance_ladder(self, variance_seq):
        res = st.flow_stability_run(
            variance_seq, [1.0, 1.0, 1.0], 1.0, 1.0, ef.JkoConfig(tau=5e-3)
        )
        assert res.report.passed, str(res.report)
        assert res.gaps[-1] < 0.05
        # analytic oracle for the member flows: mean x e^{-t/(1+1/n)}
        member = variance_seq.members[-1]
        lat = QuantileLattice(member)
        traj = ef.jko_trajectory(
            member, ef.dirac_on_grid(member, 1.0), ef.JkoConfig(tau=5e-3), 1.0, lattice=lat
        )
        a = 1.0 / (1.0 + 1.0 / 64.0)
        x0 = float(traj.initial.x[0])
        mean_expected = x0 * math.exp(-a * 1.0)
        assert lat.mean(traj.edges[-1]) == pytest.approx(mean_expected, abs=5e-3)

    def test_mollified_box_against_kernel(self, box_seq):
        from entroflow.oracles import neumann_density_on_grid
        from entroflow.transport import histogram_quantile_knots

        member = box_seq.members[-1]
        lat = QuantileLattice(member)
        traj = ef.jko_trajectory(
            member, ef.dirac_on_grid(member, 0.3), ef.JkoConfig(tau=2.5e-3), 0.2, lattice=lat
        )
        x0 = float(traj.initial.x[0])
        limit = box_seq.limit
        edges = np.concatenate(
            [limit.grid - limit.cell_width / 2, [limit.grid[-1] + limit.cell_width / 2]]
        )
        ker = neumann_density_on_grid(limit.grid, x0, 0.2)
        gap = w2_quantile_knots(
            (lat.levels, traj.edges_at(0.2)), histogram_quantile_knots(edges, ker)
        )
        assert gap < 0.05

    def test_weighted_norms_scale_flow(self, monkeypatch):
        # a scalar metric weight s makes the step min H + s W2^2 / (2 tau): each member
        # flow the run compares equals that weighted flow, solved here with s on the
        # lattice metric itself, step by step
        seq = st.build_sequence("variance_perturbed", ef.quadratic(1.0), ns=(8, 64), grid_n=300)
        seq.norms = [ef.NormSpec.scaled_identity(1.0 + 1.0 / n, 1) for n in (8, 64)]
        cfg = ef.JkoConfig(tau=5e-3)
        flows, run_flow = [], st.jko_trajectory

        def recorded(*args, **kwargs):
            flows.append(run_flow(*args, **kwargs))
            return flows[-1]

        monkeypatch.setattr(st, "jko_trajectory", recorded)
        res = st.flow_stability_run(seq, [1.0, 1.0], 1.0, 0.5, cfg)
        limit, members = flows[0], flows[1:]
        assert len(members) == 2
        for norm, traj in zip(seq.norms, members):
            s = float(norm.matrix[0, 0])
            weighted = copy.copy(traj.lattice)
            weighted._m_diag, weighted._m_off = s * weighted._m_diag, s * weighted._m_off
            ref = run_flow(traj.gamma, None, cfg, 0.5, lattice=weighted, initial_edges=traj.edges[0])
            assert len(ref.edges) == len(traj.edges) == len(limit.edges)
            assert max(traj.lattice.w2(a, b) for a, b in zip(ref.edges, traj.edges)) <= 1e-12
        assert res.gaps[-1] < 0.05


class TestMomentEquivalences:
    def test_shrinking_gaussians(self, rng):
        gam = ef.discretize_reference(ef.quadratic(1.0), 300, (-8, 8))
        mus = [ef.gaussian_on_grid(gam, 0.0, math.sqrt(1.0 + 1.0 / n)) for n in (2, 8, 32, 128)]
        mu = ef.gaussian_on_grid(gam, 0.0, 1.0)
        res = st.moments_convergence_check(mus, mu)
        assert res.converges_weakly and res.moments_converge and res.w2_converges
        assert res.equivalence_holds

    def test_escaping_mass(self):
        # (1 - 1/n) delta_0 + (1/n) delta_sqrt(n): weak limit delta_0 while
        # the second moment stays 1, so W2 cannot converge
        mus = []
        for n in (4, 16, 64, 256):
            mus.append(
                ef.DiscreteMeasure.from_atoms([0.0, math.sqrt(n)], [1 - 1 / n, 1 / n])
            )
        mu = ef.DiscreteMeasure.from_atoms([0.0], [1.0])
        res = st.moments_convergence_check(mus, mu)
        assert res.converges_weakly
        assert not res.moments_converge
        assert not res.w2_converges
        assert res.equivalence_holds
        assert res.moment_gaps[-1] == pytest.approx(1.0, abs=1e-9)

    def test_constant_sequence(self, rng):
        gam = ef.discretize_reference(ef.quadratic(1.0), 300, (-8, 8))
        mu = random_grid_measure(gam, rng)
        res = st.moments_convergence_check([mu, mu, mu], mu)
        assert res.weak_gaps.max() == 0.0
        assert res.w2_gaps.max() == 0.0


class TestW2Lsc:
    def test_constant_sequences_identity_norms(self, rng):
        gam = ef.discretize_reference(ef.quadratic(1.0), 300, (-8, 8))
        mu, nu = random_grid_measure(gam, rng), random_grid_measure(gam, rng)
        norms = [ef.NormSpec.scaled_identity(1.0, 1)] * 3
        report = st.w2_lsc_check([mu] * 3, [nu] * 3, mu, nu, norms)
        assert report.passed, str(report)

    def test_scalar_norm_convergence(self, rng):
        gam = ef.discretize_reference(ef.quadratic(1.0), 300, (-8, 8))
        ns = (4, 16, 64, 256)
        mus = [ef.gaussian_on_grid(gam, 0.0, math.sqrt(1 + 1 / n)) for n in ns]
        nus = [ef.gaussian_on_grid(gam, 1.0, 1.0) for _ in ns]
        norms = [ef.NormSpec.scaled_identity(1.0 + 1.0 / n, 1) for n in ns]
        mu = ef.gaussian_on_grid(gam, 0.0, 1.0)
        nu = ef.gaussian_on_grid(gam, 1.0, 1.0)
        # weighted distance for scalar matrices is sqrt(a) times the base one
        got = ef.w2(mus[-1], nus[-1], norms[-1])
        assert got == pytest.approx(math.sqrt(1 + 1 / 256) * ef.w2(mus[-1], nus[-1]), abs=1e-9)
        report = st.w2_lsc_check(mus, nus, mu, nu, norms)
        assert report.passed, str(report)

    def test_escaping_mass_strict_liminf(self):
        ns = (4, 16, 64)
        mus = [
            ef.DiscreteMeasure.from_atoms([0.0, float(n)], [1 - 1 / n, 1 / n])
            for n in ns
        ]
        nu = ef.DiscreteMeasure.from_atoms([0.5], [1.0])
        mu = ef.DiscreteMeasure.from_atoms([0.0], [1.0])
        dists = [ef.w2(m, nu) for m in mus]
        assert min(dists) > ef.w2(mu, nu) + 0.4  # strict inequality observed
        report = st.w2_lsc_check(mus, [nu] * 3, mu, nu, None)
        assert report.items[0].passed
