import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.optimize import minimize

import entroflow as ef
import entroflow.jko as jko
from entroflow import oracles
from entroflow.cli import main as cli_main
from entroflow.jko import (
    QuantileLattice,
    StepInfo,
    _clamp,
    _flow_steps,
    _native_step,
    _newton_direction,
    _strictly_increasing,
)
from entroflow.measures import _quantile_knots
from entroflow.transport import w2_knots_to_gaussian
from conftest import random_grid_measure


@pytest.fixture(scope="module")
def lattice(gaussian_ref):
    return QuantileLattice(gaussian_ref)


class TestLattice:
    def test_gamma_member_round_trip(self, gaussian_ref, lattice):
        e = lattice.gamma_edges
        w = lattice.to_grid_weights(e)
        assert np.abs(w - gaussian_ref.weights).max() < 1e-12

    def test_entropy_matches_grid_formula(self, gaussian_ref, lattice, rng):
        for _ in range(10):
            mu = random_grid_measure(gaussian_ref, rng)
            native = lattice.entropy(lattice.from_grid(mu))
            grid = ef.relative_entropy(mu, gaussian_ref)
            # the native value integrates the potential exactly within cells
            assert abs(native - grid) < 5e-4 * (1.0 + abs(grid))

    def test_w2_matches_gaussian_closed_form(self, gaussian_ref, lattice):
        e1 = lattice.from_grid(ef.gaussian_on_grid(gaussian_ref, 1.0, 0.5))
        e2 = lattice.from_grid(ef.gaussian_on_grid(gaussian_ref, 0.0, 1.0))
        expected = math.sqrt(1.0 + (0.5 - 1.0) ** 2)
        assert lattice.w2(e1, e2) == pytest.approx(expected, abs=1e-4)

    def test_metric_is_quantile_l2(self, gaussian_ref, lattice, rng):
        # independent oracle: dense numerical integration of the quantile gap
        mu1 = random_grid_measure(gaussian_ref, rng)
        mu2 = random_grid_measure(gaussian_ref, rng)
        e1, e2 = lattice.from_grid(mu1), lattice.from_grid(mu2)
        us = np.linspace(1e-9, 1 - 1e-9, 400001)
        q1 = np.interp(us, lattice.levels, e1)
        q2 = np.interp(us, lattice.levels, e2)
        ref = math.sqrt(np.trapezoid((q1 - q2) ** 2, us))
        assert lattice.w2(e1, e2) == pytest.approx(ref, abs=1e-5)


class TestStep:
    def test_reference_is_fixed_point(self, gaussian_ref, lattice):
        out, info = ef.jko_step_detailed(
            gaussian_ref, gaussian_ref.as_measure(), ef.JkoConfig(tau=0.05)
        )
        assert lattice.w2(lattice.from_grid(out), lattice.gamma_edges) < 1e-4
        assert info.converged

    def test_small_step_matches_analytic_contraction(self, gaussian_ref, lattice):
        mu = ef.gaussian_on_grid(gaussian_ref, 1.0, 1.0)
        out, _ = ef.jko_step_detailed(gaussian_ref, mu, ef.JkoConfig(tau=0.01))
        e = lattice.from_grid(out)
        # implicit Euler of the mean ODE m' = -m: m_1 = m_0/(1+tau)
        assert lattice.mean(e) == pytest.approx(1.0 / 1.01, abs=5e-4)
        assert w2_knots_to_gaussian((lattice.levels, e), math.exp(-0.01), 1.0) < 0.01

    def test_objective_not_above_start(self, gaussian_ref, rng):
        # minimality against the two canonical candidates
        cfg = ef.JkoConfig(tau=0.02)
        lat = QuantileLattice(gaussian_ref)
        for _ in range(5):
            mu = random_grid_measure(gaussian_ref, rng)
            out, info = ef.jko_step_detailed(gaussian_ref, mu, cfg)
            e_mu = lat.from_grid(mu)
            e_g = lat.gamma_edges
            obj_mu = lat.entropy(e_mu)
            obj_gamma = lat.entropy(e_g) + lat.w2_sq(e_g, e_mu) / (2 * cfg.tau)
            assert info.objective <= obj_mu + 1e-10
            assert info.objective <= obj_gamma + 1e-10

    def test_matches_generic_solver_small(self):
        # independent oracle: Nelder-Mead on the same objective, small lattice
        gam = ef.discretize_reference(ef.quadratic(1.0), 25, (-8, 8))
        lat = QuantileLattice(gam)
        mu = ef.gaussian_on_grid(gam, 0.8, 0.9)
        e_prev = lat.from_grid(mu)
        tau = 0.05
        e, value, *_ = (x[0] for x in _native_step(lat, e_prev[None], tau, 1e-13, 120)[:7])

        def objective(z):
            edges = np.cumsum(np.abs(z)) + lat.gamma_edges[0] - abs(z[0])
            ent = lat.entropy(edges)
            if not math.isfinite(ent):
                return 1e9
            return ent + lat.w2_sq(edges, e_prev) / (2 * tau)

        res = minimize(
            objective,
            np.concatenate([[0.0], np.diff(e_prev)]) + 1e-6,
            method="Nelder-Mead",
            options={"maxiter": 40000, "xatol": 1e-10, "fatol": 1e-12},
        )
        # the Newton solution must not be beatable
        assert value <= res.fun + 1e-8

    def test_brute_force_two_cells(self):
        # exhaustive oracle on the smallest lattice: scan the two free edges
        gam = ef.discretize_reference(ef.box(0.0, 1.0, ef.quadratic(2.0, 0.3)), 2, (0.0, 1.0))
        lat = QuantileLattice(gam)
        w = np.array([0.8, 0.2])
        mu = ef.grid_measure(gam, w)
        e_prev = lat.from_grid(mu)
        tau = 0.1
        e, value, *_ = (x[0] for x in _native_step(lat, e_prev[None], tau, 1e-13, 200)[:7])

        best = (np.inf, None)
        grid_e = np.linspace(1e-4, 1 - 1e-4, 900)
        e2, mid = np.meshgrid(np.linspace(0.7, 1.0, 40), grid_e, indexing="ij")
        for e0 in np.linspace(0.0, 0.3, 40):
            # every (e2, mid) pair with e0 < mid < e2, as one stack of edge vectors
            inside = (mid > e0) & (mid < e2)
            edges = np.stack([np.full(inside.sum(), e0), mid[inside], e2[inside]], axis=1)
            vals = lat.entropy(edges) + lat.w2_sq(edges, e_prev) / (2 * tau)
            j = int(np.argmin(vals))
            if vals[j] < best[0]:
                best = (vals[j], edges[j])
        assert value <= best[0] + 1e-6
        assert np.abs(e - best[1]).max() < 5e-3

    def test_restart_uniqueness(self, gaussian_ref, rng):
        # strict convexity: perturbed warm starts land on the same minimizer
        lat = QuantileLattice(gaussian_ref)
        mu = random_grid_measure(gaussian_ref, rng)
        e_prev = lat.from_grid(mu)
        outs = []
        for _ in range(10):
            jitter = rng.uniform(0.2, 2.0) * np.sort(rng.normal(0, 0.02, len(e_prev)))
            start = np.sort(e_prev + jitter)
            out = _native_step(lat, e_prev[None], 0.02, 1e-13, 200, start=start[None])[:7]
            e, *_, converged = (x[0] for x in out)
            assert converged
            outs.append(e)
        base, *_, converged = (x[0] for x in _native_step(lat, e_prev[None], 0.02, 1e-13, 200)[:7])
        assert converged
        for e in outs:
            assert lat.w2(base, e) < 1e-6

    def test_dirac_start_smooths(self, gaussian_ref, lattice):
        cfg = ef.JkoConfig(tau=0.05)
        start = ef.dirac_on_grid(gaussian_ref, 1.0)
        out, info = ef.jko_step_detailed(gaussian_ref, start, cfg)
        x0 = float(start.x[0])
        bound = ef.dirac_transport_cost(gaussian_ref, x0) / (2.0 * cfg.tau)
        assert info.entropy <= bound
        assert math.isfinite(info.entropy)
        assert out.n > 10  # spread over many cells immediately

    @pytest.mark.parametrize("ref_name", ["gaussian_ref", "uniform_ref", "quartic_ref"])
    def test_step_is_one_step_trajectory(self, ref_name, request):
        gamma = request.getfixturevalue(ref_name)
        cfg = ef.JkoConfig(tau=0.02)
        lat = QuantileLattice(gamma)
        x = float(gamma.grid[gamma.n // 3])
        for mu in (gamma.as_measure(), ef.dirac_on_grid(gamma, x)):
            out, info = ef.jko_step_detailed(gamma, mu, cfg)
            # the one-step flow, run directly through the Newton kernel
            e_prev = lat.from_grid(mu)
            e, value, ent, w2s, residual, iters, converged = (
                x[0] for x in _native_step(lat, e_prev[None], cfg.tau, cfg.inner_tol, cfg.max_inner_iters)[:7]
            )
            expected = lat.to_measure(e)
            assert np.array_equal(out.x, expected.x)
            assert np.array_equal(out.weights, expected.weights)
            assert info == StepInfo(value, ent, w2s, residual, iters, converged)
            traj = ef.jko_trajectory(gamma, mu, cfg, cfg.tau, lattice=lat)
            assert len(traj.step_infos) == 1 and traj.step_infos[0] == info
            assert np.array_equal(traj.final.weights, out.weights)

    def test_solver_error_carries_best(self, gaussian_ref):
        cfg = ef.JkoConfig(tau=1e-3, max_inner_iters=1, inner_tol=1e-16)
        mu = ef.gaussian_on_grid(gaussian_ref, 2.0, 0.3)
        with pytest.raises(ef.JkoSolverError) as err:
            ef.jko_step_detailed(gaussian_ref, mu, cfg)
        assert err.value.best_measure.n > 0
        assert err.value.residual > 0


BATCH_REFS = {
    "quadratic": lambda: ef.discretize_reference(ef.quadratic(1.0, 0.2), 60, (-8.0, 8.0)),
    "box_quadratic": lambda: ef.discretize_reference(
        ef.box(-1.0, 1.5, ef.quadratic(2.0, 0.3)), 60, (-1.0, 1.5)
    ),
    "quartic": lambda: ef.discretize_reference(ef.quartic(1.0, 0.5), 60, (-4.0, 4.0)),
    "tabulated": lambda: ef.discretize_reference(
        ef.tabulated(np.linspace(-3, 3, 13), 0.5 * np.linspace(-3, 3, 13) ** 2), 60, (-3.0, 3.0)
    ),
}


class TestBatch:
    @pytest.mark.parametrize("name", BATCH_REFS)
    def test_rows_equal_single_flows(self, name, rng):
        # the rows of one batch are the flows each start gives alone, bit for bit
        gamma = BATCH_REFS[name]()
        lat = QuantileLattice(gamma)
        cfg = ef.JkoConfig(tau=0.01)
        sup = gamma.support_indices()
        starts = [lat.from_grid(random_grid_measure(gamma, rng)) for _ in range(3)]
        starts += [lat.from_grid(ef.dirac_on_grid(gamma, float(gamma.grid[j]))) for j in sup[[0, len(sup) // 3, -1]]]
        starts.append(lat.gamma_edges)
        steps = list(_flow_steps(lat, np.stack(starts), cfg, 0.05))
        for i, e0 in enumerate(starts):
            traj = ef.jko_trajectory(gamma, None, cfg, 0.05, lattice=lat, initial_edges=e0)
            assert len(steps) + 1 == len(traj.edges)
            assert all(np.array_equal(step[0][i], e) for step, e in zip(steps, traj.edges[1:]))
            assert np.array_equal([step[2][i] for step in steps], traj.entropies[1:])
            assert [StepInfo(*(x[i].item() for x in step[1:])) for step in steps] == traj.step_infos
            # and one Newton step on the stack is the step of each row alone
            e, value, _, _, residual, iters, converged = (
                x[0] for x in _native_step(lat, e0[None], cfg.tau, 1e-12, 80)[:7]
            )
            assert np.array_equal(e, steps[0][0][i])
            assert (value, residual, iters, converged) == (
                steps[0][1][i], steps[0][4][i], steps[0][5][i], steps[0][6][i]
            )

    def test_failing_row_raises_with_its_own_iterate(self, gaussian_ref_coarse):
        # two rows converge within two Newton iterations, the last one does not
        gamma = gaussian_ref_coarse
        cfg = ef.JkoConfig(tau=5e-3, max_inner_iters=2)
        candidates = [
            gamma.as_measure(),
            ef.gaussian_on_grid(gamma, 0.5, 1.0),
            ef.gaussian_on_grid(gamma, 2.0, 0.3),
        ]
        with pytest.raises(ef.JkoSolverError) as err:
            ef.invariance_check(gamma, candidates, 0.05, cfg)
        lat = QuantileLattice(gamma)
        e, _, _, _, residual, _, converged = (
            x[0] for x in _native_step(
                lat, lat.from_grid(candidates[2])[None], cfg.tau, cfg.inner_tol, cfg.max_inner_iters
            )[:7]
        )
        assert not converged
        assert str(err.value) == f"step 0, candidate 2: inner Newton residual {residual:.3e} above tolerance"
        assert err.value.residual == residual
        best = lat.to_measure(e)
        assert np.array_equal(err.value.best_measure.x, best.x)
        assert np.array_equal(err.value.best_measure.weights, best.weights)

    def test_kernels_take_stacks(self, gaussian_ref, rng):
        lat = QuantileLattice(gaussian_ref)
        stack = np.stack([lat.from_grid(random_grid_measure(gaussian_ref, rng)) for _ in range(4)])
        ent, w2s = lat.entropy(stack), lat.w2_sq(stack, stack[::-1])
        assert ent.shape == w2s.shape == (4,)
        for i in range(4):
            assert ent[i] == lat.entropy(stack[i])
            assert w2s[i] == lat.w2_sq(stack[i], stack[3 - i])
        # a row with a reversed cell has infinite entropy, the others keep theirs
        bad = stack.copy()
        bad[1, [5, 6]] = bad[1, [6, 5]]
        assert np.array_equal(lat.entropy(bad) == np.inf, [False, True, False, False])



CARRY_REFS = {
    "quadratic": lambda: ef.discretize_reference(ef.quadratic(1.0, 0.2), 60, (-8.0, 8.0)),
    "quartic": lambda: ef.discretize_reference(ef.quartic(1.0, 0.5), 60, (-4.0, 4.0)),
    "abs": lambda: ef.discretize_reference(ef.abs_potential(1.0, 0.3), 60, (-40.0, 40.0)),
    "affine_max": lambda: ef.discretize_reference(
        ef.affine_max([(-1.0, 0.0), (0.5, 0.2), (2.0, -1.0)]), 60, (-45.0, 25.0)
    ),
    "tabulated": BATCH_REFS["tabulated"],
    "box_abs": lambda: ef.discretize_reference(ef.box(-1.0, 1.5, ef.abs_potential(2.0)), 60, (-1.0, 1.5)),
}


def _entropy_state(lat, e):
    """The state _native_step hands on, evaluated afresh at the stack e."""
    iv = lat.gamma.potential.cell_integrals(e)
    return (lat.entropy(e), iv, *lat._entropy_grad_hess(e, iv), None)


class TestCarriedState:
    @pytest.mark.parametrize("name", CARRY_REFS)
    def test_flow_equals_chained_steps(self, name):
        # the flow hands each step's converged entropy state to the next; steps
        # chained one at a time carry nothing and must give the same bits
        gamma = CARRY_REFS[name]()
        lat = QuantileLattice(gamma)
        cfg = ef.JkoConfig(tau=0.01)
        sup = gamma.support_indices()
        xs = gamma.grid[sup]
        starts = [
            lat.gamma_edges,
            lat.from_grid(ef.dirac_on_grid(gamma, float(xs[1]))),
            lat.from_grid(ef.gaussian_on_grid(gamma, float(xs[len(xs) // 3]), 0.1 * float(xs[-1] - xs[0]))),
        ]
        offered = 0
        for stack in [e[None] for e in starts] + [np.stack(starts)]:
            e = stack
            for out in _flow_steps(lat, stack, cfg, 0.1):
                *alone, state = _native_step(lat, e, cfg.tau, cfg.inner_tol, cfg.max_inner_iters)
                assert len(out) == 7
                assert all(np.array_equal(a, b) for a, b in zip(out, alone))
                offered += state is not None
                e = alone[0]
        assert offered > 0  # the flows did start steps from a carried state

    def test_state_is_the_fresh_evaluation(self, gaussian_ref_coarse):
        lat = QuantileLattice(gaussian_ref_coarse)
        e = lat.from_grid(ef.gaussian_on_grid(gaussian_ref_coarse, 1.0, 0.5))[None]
        *out, state = _native_step(lat, e, 0.01, 1e-12, 80)
        assert state is not None
        *fresh, _ = _entropy_state(lat, out[0])
        *evaluated, factor = state
        assert all(np.array_equal(a, b) for a, b in zip(evaluated, fresh, strict=True))
        # the factor is that of the Newton system at the returned edges
        inv_tau = 1.0 / 0.01
        g, d, o = fresh[2:]
        _, refactored = _newton_direction(d + inv_tau * lat._m_diag, o + inv_tau * lat._m_off, g)
        assert all(np.array_equal(a, b) for a, b in zip(factor, refactored, strict=True))
        # a solve cut short by its iteration cap hands on nothing
        assert _native_step(lat, e, 0.01, 1e-16, 1)[-1] is None

    def test_state_off_the_start_is_not_used(self, gaussian_ref_coarse):
        lat = QuantileLattice(gaussian_ref_coarse)
        e_prev = lat.from_grid(ef.gaussian_on_grid(gaussian_ref_coarse, 1.0, 0.5))[None]
        # the tie repair moves a start with a collapsed cell
        tight = e_prev.copy()
        tight[0, 60] = tight[0, 59] + 1e-13
        start = e_prev + 1e-3 * np.sin(np.arange(e_prev.shape[1]))
        for e, kwargs in ((tight, {}), (e_prev, {"start": start})):
            fresh = _native_step(lat, e, 0.01, 1e-12, 80, **kwargs)
            given = _native_step(lat, e, 0.01, 1e-12, 80, state=_entropy_state(lat, e), **kwargs)
            assert all(np.array_equal(a, b) for a, b in zip(fresh[:7], given[:7]))

    @pytest.mark.parametrize("name", ["box", "box_abs"])
    def test_pinned_factor_is_not_handed_on(self, name):
        # a Dirac on an end cell spreads against the wall: its converged
        # systems pin the wall edge, and their factor must not start a step
        gamma = (
            ef.discretize_reference(ef.box(0.0, 1.0), 200, (0.0, 1.0)) if name == "box" else CARRY_REFS[name]()
        )
        lat = QuantileLattice(gamma)
        lo, hi = lat.domain
        cfg = ef.JkoConfig(tau=0.01)
        e = lat.from_weights(np.eye(gamma.n)[gamma.support_indices()[0]])[None]
        state, pinned_steps = None, 0
        for out in _flow_steps(lat, e, cfg, 0.1):
            *carried, state = _native_step(lat, e, cfg.tau, cfg.inner_tol, cfg.max_inner_iters, state=state)
            *alone, _ = _native_step(lat, e, cfg.tau, cfg.inner_tol, cfg.max_inner_iters)
            assert all(np.array_equal(a, b) for a, b in zip(out, carried, strict=True))
            assert all(np.array_equal(a, b) for a, b in zip(out, alone, strict=True))
            # the converged system: edges at a wall pressed outward are pinned
            edges, grad = out[0], state[2] + (1.0 / cfg.tau) * lat.metric_grad(out[0] - e)
            pinned = ((edges <= lo + 1e-14) & (grad >= 0.0)) | ((edges >= hi - 1e-14) & (grad <= 0.0))
            assert (state[-1] is None) == pinned.any()
            pinned_steps += pinned.any()
            e = out[0]
        assert pinned_steps > 0


class TestCountedWork:
    """Counted LAPACK work of the Newton steps, with the iterations it must leave as they are."""

    @staticmethod
    def _count(monkeypatch, run):
        calls = {"dpttrf": 0, "dpttrs": 0}
        for name in calls:
            def counted(*args, _fn=getattr(jko, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(jko, name, counted)
        iterations, reused, step = [], [], jko._native_step

        def watched(lat, e_prev, tau, *args, state=None, **kwargs):
            # on a wall-free reference a step reuses a carried factor exactly
            # when it starts at e_prev itself, which wide laws do
            carried = state is not None and state[-1] is not None
            reused.append(carried and lat.heat_kernel_start(e_prev, tau) is e_prev)
            out = step(lat, e_prev, tau, *args, state=state, **kwargs)
            iterations.append(out[5])
            return out

        monkeypatch.setattr(jko, "_native_step", watched)
        run()
        return calls["dpttrf"], calls["dpttrs"], sum(reused), np.array(iterations)

    def test_semigroup_reference(self, monkeypatch):
        # the jko semigroup benchmark's reference: 60 one-cell starts, 50 steps
        gamma = ef.discretize_reference(ef.quadratic(1.0), 60, (-8.0, 8.0))
        run = lambda: oracles.semigroup_matrix(gamma, 0.25, ef.JkoConfig(tau=5e-3), method="jko")  # noqa: E731
        factorizations, solves, reused, iterations = self._count(monkeypatch, run)
        assert (factorizations, solves, reused) == (106, 155, 49)
        # one solve per Newton iteration of the stack and one for its convergence test
        assert solves == (iterations.max(axis=1) + 1).sum()
        assert factorizations == solves - reused
        # each row's iterations at each step, as they were before the factor was carried
        expected = np.full((50, 60), 2)
        expected[0], expected[1:3], expected[3, 22:38] = 4, 3, 3
        assert np.array_equal(iterations, expected)

    def test_flow(self, monkeypatch, gaussian_ref):
        run = lambda: ef.jko_trajectory(  # noqa: E731
            gaussian_ref, ef.gaussian_on_grid(gaussian_ref, 1.0, 0.5), ef.JkoConfig(tau=0.01), 0.2
        )
        factorizations, solves, reused, iterations = self._count(monkeypatch, run)
        assert (factorizations, solves, reused) == (41, 60, 19)
        assert factorizations == solves - reused
        assert np.array_equal(iterations, np.full((20, 1), 2))


def _one_cell_starts(gamma, lat, cells):
    return np.stack([lat.from_weights(np.eye(gamma.n)[j]) for j in cells])


class TestHeatKernelStart:
    def test_semigroup_first_step_is_short(self):
        # the reference of the jko semigroup benchmark: 60 one-cell starts
        gamma = ef.discretize_reference(ef.quadratic(1.0), 60, (-8.0, 8.0))
        lat = QuantileLattice(gamma)
        starts = _one_cell_starts(gamma, lat, range(gamma.n))
        first = next(_flow_steps(lat, starts, ef.JkoConfig(tau=5e-3), 5e-3))
        assert first[6].all()
        assert first[5].max() <= 8  # 32 from the one-cell law itself

    @pytest.mark.parametrize("name", [*CARRY_REFS, "box"])
    @pytest.mark.parametrize("tau", [0.01, 0.1])
    def test_warm_and_cold_agree_within_the_tolerance_radius(self, name, tau):
        # the objective is (1/tau)-convex in W2, so a solve stopped within
        # inner_tol * (1 + |F|) of its minimum lies within
        # sqrt(2 tau inner_tol (1 + |F|)) of the minimizer, whatever its start
        gamma = (
            ef.discretize_reference(ef.box(0.0, 1.0), 200, (0.0, 1.0)) if name == "box" else CARRY_REFS[name]()
        )
        lat = QuantileLattice(gamma)
        sup = gamma.support_indices()
        # the box's end cells touch its walls
        starts = _one_cell_starts(gamma, lat, sup[[0, 1, len(sup) // 2, -1]])
        warm = lat.heat_kernel_start(starts, tau)
        narrow = np.any(warm != starts, axis=1)
        # at tau = 0.01 the one-cell laws of the wide abs and affine_max grids are wide
        assert narrow.all() or (tau == 0.01 and name in ("abs", "affine_max") and not narrow.any())
        tol = 1e-12
        hot = _native_step(lat, starts, tau, tol, 80)
        cold = _native_step(lat, starts, tau, tol, 80, start=starts)
        assert hot[6].all() and cold[6].all()
        lo, hi = lat.domain
        assert np.all(warm >= lo) and np.all(warm <= hi) and np.all(np.diff(warm) >= 0.0)
        radius = np.sqrt(2.0 * tau * tol * (1.0 + np.abs(hot[1])))
        assert np.all(lat.w2(hot[0], cold[0]) <= 2.0 * radius)
        assert np.all(hot[5][narrow] < cold[5][narrow])
        assert np.array_equal(hot[0][~narrow], cold[0][~narrow])

    def test_wide_start_is_left_as_it_is(self, gaussian_ref):
        lat = QuantileLattice(gaussian_ref)
        cfg = ef.JkoConfig(tau=4e-3)
        e = lat.from_grid(ef.gaussian_on_grid(gaussian_ref, 0.7, 0.5))[None]
        for out in _flow_steps(lat, e, cfg, 5 * cfg.tau):
            assert lat.heat_kernel_start(e, cfg.tau) is e
            cold = _native_step(lat, e, cfg.tau, cfg.inner_tol, cfg.max_inner_iters, start=e)
            assert all(np.array_equal(a, b) for a, b in zip(out, cold[:7]))
            e = out[0]

    def test_quartile_spread_bounds_the_variance(self, rng):
        # the O(1) pre-test may rule a row wide only if its variance is at least 2 tau'
        for gamma in (BATCH_REFS["quadratic"](), BATCH_REFS["box_quadratic"](), CARRY_REFS["abs"]()):
            lat = QuantileLattice(gamma)
            i, j, c = lat._spread
            members = [lat.from_grid(random_grid_measure(gamma, rng)) for _ in range(20)]
            members += list(_one_cell_starts(gamma, lat, gamma.support_indices()))
            for e in members:
                var = lat.second_moment(e) - lat.mean(e) ** 2
                assert c * (e[j] - e[i]) ** 2 <= var * (1.0 + 1e-9) + 1e-15


def _banded_reference(diag, off, grad):
    """The stack's Newton systems solved as one banded system by solveh_banded."""
    rows, size = diag.shape
    ab = np.zeros((2, rows, size))
    ab[0, :, 1:] = off
    ab[1] = np.maximum(diag, 1e-300)
    return solveh_banded(ab.reshape(2, -1), -grad.ravel()).reshape(rows, size)


class TestRarePaths:
    def test_start_spilling_over_the_top_wall_is_shifted_back(self, tmp_path):
        # a Dirac on the top cell of a box whose inner potential is steep there
        pot = ef.box(-1.0, 1.5, ef.quadratic(20.0, 1.5))
        gamma = ef.discretize_reference(pot, 60, (-1.0, 1.5))
        lat = QuantileLattice(gamma)
        lo, hi = lat.domain
        tau = 1e-6
        e0 = lat.from_grid(ef.dirac_on_grid(gamma, hi))[None]
        repaired = _strictly_increasing(_clamp(lat.heat_kernel_start(e0, tau), lo, hi))
        assert repaired[0, -1] > hi  # the tie-repair ramp spills over the wall
        e, *_, iters, converged, _ = _native_step(lat, e0, tau, 1e-12, 80)
        assert converged.all() and iters[0] > 0
        assert lo <= e.min() and e.max() <= hi
        assert np.all(np.diff(e) > 0.0)
        cfg = {
            "potential": pot.descriptor(),
            "grid": {"n": 60},
            "jko": {"tau": tau},
            "x": hi,
            "t": tau,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["transition", str(path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("tau", [0.5, 0.01])
    def test_start_held_at_both_walls_is_squeezed(self, tau):
        # half the mass in each end cell of a box: the repaired start spills over the top
        # wall, and shifting it back would push its first edge below the bottom one
        gamma = ef.discretize_reference(ef.box(0.0, 3.0), 20, (-0.75, 3.75))
        lat = QuantileLattice(gamma)
        lo, hi = lat.domain
        sup = gamma.support_indices()
        w = np.zeros(gamma.n)
        w[[sup[0], sup[-1]]] = 0.5
        e0 = lat.from_weights(w)
        repaired = _strictly_increasing(_clamp(lat.heat_kernel_start(e0[None], tau), lo, hi))
        assert repaired[0, -1] > hi and repaired[0, 0] - (repaired[0, -1] - hi) < lo
        traj = ef.jko_trajectory(gamma, ef.grid_measure(gamma, w), ef.JkoConfig(tau=tau), tau)
        e = traj.edges[-1]
        assert lo <= e[0] and e[-1] <= hi and np.all(np.diff(e) > 0.0)
        assert np.isfinite(traj.entropies[-1])
        # a row that needs no squeeze gives the same bits in a stack with one that does
        other = lat.from_grid(ef.dirac_on_grid(gamma, 1.5))
        stacked = _native_step(lat, np.stack([e0, other]), tau, 1e-12, 80)[0]
        assert np.array_equal(stacked[1], _native_step(lat, other[None], tau, 1e-12, 80)[0][0])

    def test_line_search_stall_ends_the_solve(self):
        # a tolerance no float decrement reaches: the line search stalls first
        gamma = ef.discretize_reference(ef.quadratic(1.0), 60, (-8.0, 8.0))
        lat = QuantileLattice(gamma)
        e0 = lat.from_grid(ef.gaussian_on_grid(gamma, 1.0, 0.5))[None]
        *_, gap, iters, converged, state = _native_step(lat, e0, 0.01, 1e-40, 50)
        assert 0 < iters[0] < 50
        assert gap[0] > 1e-40  # not stopped by its own test
        assert converged.all()  # but within the 1e-10 floor
        assert state is None

    def test_from_grid_rebins_off_grid_atoms(self, rng):
        gamma = ef.discretize_reference(ef.quadratic(1.0), 100, (-8.0, 8.0))
        lat = QuantileLattice(gamma)
        mu = ef.DiscreteMeasure.from_atoms(rng.normal(size=30), rng.dirichlet(np.ones(30)))
        assert np.all(gamma.locate(mu.x) < 0)
        assert np.array_equal(lat.from_grid(mu), lat.from_grid(ef.rebin_measure(mu, gamma)))

    def test_atoms_sharing_a_cell_keep_their_mass(self):
        # two distinct atoms within locate's tolerance of cell 30 both land on it
        gamma = ef.discretize_reference(ef.quadratic(1.0), 60, (-8.0, 8.0))
        x, y = float(gamma.grid[30]), float(gamma.grid[40])
        mu = ef.DiscreteMeasure.from_atoms([x, x + 1e-12, y], [0.25, 0.25, 0.5])
        assert len(mu.x) == 3 and np.array_equal(gamma.locate(mu.x), [30, 30, 40])
        expected = np.zeros(gamma.n)
        expected[[30, 40]] = 0.5
        assert np.array_equal(gamma.grid_weights(mu), expected)
        lat = QuantileLattice(gamma)
        assert np.array_equal(lat.from_grid(mu), lat.from_weights(expected))

    def test_last_edge_is_the_last_charged_cell(self):
        # this start's cumulative weights pass 1 before its last charged cell
        gamma = ef.discretize_reference(ef.quadratic(1.0), 200, (-8.0, 8.0))
        lat = QuantileLattice(gamma)
        e = lat.from_grid(ef.gaussian_on_grid(gamma, -1.0, 0.25))
        assert e[-1] == pytest.approx(6.96, abs=1e-12)

    def test_gaussian_starts_span_their_charged_cells(self, rng):
        gamma = ef.discretize_reference(ef.quadratic(1.0), 200, (-8.0, 8.0))
        lat = QuantileLattice(gamma)
        h = gamma.cell_width
        for _ in range(200):
            w = gamma.grid_weights(ef.gaussian_on_grid(gamma, rng.uniform(-4.0, 4.0), rng.uniform(0.05, 2.0)))
            charged = w > 0.0
            levels, _ = _quantile_knots(w[charged] / w.sum(), gamma.grid[charged], gamma.grid[charged])
            assert np.all(np.diff(levels) >= 0.0) and levels[-1] == 1.0
            # mass outside the lattice block sits on its end cells
            centers = np.clip(gamma.grid[charged], lat.gamma_edges[0] + 0.5 * h, lat.gamma_edges[-1] - 0.5 * h)
            e = lat.from_weights(w)
            assert e[0] == pytest.approx(centers[0] - 0.5 * h, abs=1e-9)
            assert e[-1] == pytest.approx(centers[-1] + 0.5 * h, abs=1e-9)


class TestNewtonDirection:
    @pytest.mark.parametrize("rows,size", [(1, 61), (1, 401), (7, 61), (60, 61)])
    def test_matches_solveh_banded(self, rng, rows, size):
        diag = rng.uniform(1.0, 4.0, (rows, size)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        off = rng.uniform(-0.45, 0.45, (rows, size - 1)) * np.sqrt(diag[:, 1:] * diag[:, :-1])
        grad = rng.normal(size=(rows, size))
        x, factor = _newton_direction(diag, off, grad)
        assert np.array_equal(x, _banded_reference(diag, off, grad))
        # each block is the system it is alone
        for i in range(rows):
            assert np.array_equal(x[i], _banded_reference(diag[i : i + 1], off[i : i + 1], grad[i : i + 1])[0])
        # the factor solves a new right-hand side as a fresh solve does
        grad2 = rng.normal(size=(rows, size))
        x2, again = _newton_direction(None, None, grad2, factor)
        assert again is factor
        assert np.array_equal(x2, _newton_direction(diag, off, grad2)[0])

    def test_non_positive_definite_block_falls_back_by_rows(self, rng):
        diag = rng.uniform(2.0, 3.0, (3, 40))
        off = rng.uniform(-0.5, 0.5, (3, 39))
        grad = rng.normal(size=(3, 40))
        diag[1, 7] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            _banded_reference(diag, off, grad)
        x, factor = _newton_direction(diag, off, grad)
        assert factor is None
        for i in (0, 2):
            assert np.array_equal(x[i], _banded_reference(diag[i : i + 1], off[i : i + 1], grad[i : i + 1])[0])
        # the failing row takes the diagonal step
        assert np.array_equal(x[1], -grad[1] / np.maximum(diag[1], 1e-12))

    @pytest.mark.parametrize("where", ["grad", "diag", "off"])
    def test_non_finite_input_raises(self, rng, where):
        arrays = {"diag": rng.uniform(2.0, 3.0, (2, 20)), "off": rng.uniform(-0.5, 0.5, (2, 19)),
                  "grad": rng.normal(size=(2, 20))}
        _, factor = _newton_direction(arrays["diag"], arrays["off"], arrays["grad"])
        arrays[where][1, 3] = np.nan
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            _newton_direction(arrays["diag"], arrays["off"], arrays["grad"])
        if where == "grad":  # the same on the path that reuses a factor
            with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                _newton_direction(None, None, arrays["grad"], factor)


class TestTrajectory:
    def test_constant_from_reference(self, gaussian_ref):
        traj = ef.jko_trajectory(
            gaussian_ref, gaussian_ref.as_measure(), ef.JkoConfig(tau=0.01), 0.1
        )
        assert max(traj.w2_increments) < 1e-3
        assert traj.lattice.w2(traj.edges[-1], traj.edges[0]) < 1e-3

    def test_grid_views_derive_from_edges(self, gaussian_ref_coarse):
        mu0 = ef.gaussian_on_grid(gaussian_ref_coarse, 1.0, 0.5)
        traj = ef.jko_trajectory(gaussian_ref_coarse, mu0, ef.JkoConfig(tau=0.02), 0.1)
        lat = traj.lattice

        def same(a, b):
            return np.array_equal(a.x, b.x) and np.array_equal(a.weights, b.weights)

        assert same(traj.initial, lat.to_measure(traj.edges[0]))
        assert same(traj.final, lat.to_measure(traj.edges[-1]))
        # steps cover (k tau, (k+1) tau]; times past the horizon read the last state
        for t, k in ((-1.0, 0), (0.0, 0), (0.01, 1), (0.02, 1), (0.05, 3), (0.1, 5), (3.0, 5)):
            assert traj.index_at(t) == k
            assert same(traj.measure_at(t), lat.to_measure(traj.edges[k]))

    def test_ou_flow_tracks_analytic(self, gaussian_ref):
        # mean e^{-t}, variance 1 + (0.25 - 1) e^{-2t}
        mu0 = ef.gaussian_on_grid(gaussian_ref, 1.0, 0.5)
        traj = ef.jko_trajectory(gaussian_ref, mu0, ef.JkoConfig(tau=5e-3), 0.5)
        lat = traj.lattice
        for t in (0.1, 0.25, 0.5):
            mean = math.exp(-t)
            std = math.sqrt(1.0 + (0.25 - 1.0) * math.exp(-2.0 * t))
            d = w2_knots_to_gaussian((lat.levels, traj.edges_at(t)), mean, std)
            assert d < 0.02

    def test_entropy_monotone(self, gaussian_ref, rng):
        mu0 = random_grid_measure(gaussian_ref, rng)
        traj = ef.jko_trajectory(gaussian_ref, mu0, ef.JkoConfig(tau=0.01), 0.2)
        assert np.all(np.diff(traj.entropies) <= 1e-12)

    def test_step_increment_bound(self, gaussian_ref, rng):
        # per-step square-root bound from the step's own minimality
        mu0 = random_grid_measure(gaussian_ref, rng)
        cfg = ef.JkoConfig(tau=0.01)
        traj = ef.jko_trajectory(gaussian_ref, mu0, cfg, 0.2)
        drops = traj.entropies[:-1] - traj.entropies[1:]
        bound = np.sqrt(2.0 * cfg.tau * np.maximum(drops, 0.0))
        assert np.all(traj.w2_increments <= bound + 1e-8)

    def test_evi_residuals_nonpositive(self, gaussian_ref, rng):
        mu0 = random_grid_measure(gaussian_ref, rng)
        traj = ef.jko_trajectory(gaussian_ref, mu0, ef.JkoConfig(tau=0.01), 0.2)
        assert np.all(traj.evi_residuals <= 1e-8)
        for _ in range(20):
            nu = random_grid_measure(gaussian_ref, rng)
            res = ef.evi_residual_profile(traj, nu)
            assert np.all(res <= 1e-8)

    def test_semigroup_composition_bitwise(self, gaussian_ref, rng):
        mu0 = random_grid_measure(gaussian_ref, rng)
        cfg = ef.JkoConfig(tau=0.01)
        lat = QuantileLattice(gaussian_ref)
        long = ef.jko_trajectory(gaussian_ref, mu0, cfg, 0.1, lattice=lat)
        first = ef.jko_trajectory(gaussian_ref, mu0, cfg, 0.06, lattice=lat)
        second = ef.jko_trajectory(
            gaussian_ref, first.final, cfg, 0.04, lattice=lat, initial_edges=first.edges[-1]
        )
        assert np.array_equal(second.edges[-1], long.edges[-1])

    def test_superposition(self, gaussian_ref):
        # flow of a two-cell mixture vs mixture of single-cell flows
        x1, x2 = -0.5, 0.7
        w = np.zeros(gaussian_ref.n)
        w[gaussian_ref.locate([x1])] = 0.5
        w[gaussian_ref.locate([x2])] = 0.5
        cfg = ef.JkoConfig(tau=2e-3)
        lat = QuantileLattice(gaussian_ref)
        tr_mix = ef.jko_trajectory(gaussian_ref, ef.grid_measure(gaussian_ref, w), cfg, 0.5, lattice=lat)
        w_sup = 0.5 * lat.to_grid_weights(
            ef.transition_trajectory(gaussian_ref, x1, 0.5, cfg).edges[-1]
        ) + 0.5 * lat.to_grid_weights(
            ef.transition_trajectory(gaussian_ref, x2, 0.5, cfg).edges[-1]
        )
        gap = lat.w2(tr_mix.edges[-1], lat.from_grid(ef.grid_measure(gaussian_ref, w_sup)))
        assert gap < 2.0 * gaussian_ref.cell_width


class TestRefine:
    def test_reference_start_gives_zero_gaps(self, gaussian_ref_coarse):
        res = ef.refine_trajectory(
            gaussian_ref_coarse, gaussian_ref_coarse.as_measure(), 0.04, 3, 0.2
        )
        assert np.all(res.cauchy_gaps < 1e-3)

    def test_gaps_within_envelope(self, gaussian_ref_coarse):
        mu0 = ef.gaussian_on_grid(gaussian_ref_coarse, 1.0, 0.5)
        res = ef.refine_trajectory(gaussian_ref_coarse, mu0, 0.04, 4, 0.4)
        assert np.all(res.cauchy_gaps <= res.envelope + 1e-5)

    def test_finest_tracks_analytic(self, gaussian_ref_coarse):
        mu0 = ef.gaussian_on_grid(gaussian_ref_coarse, 1.0, 0.5)
        res = ef.refine_trajectory(gaussian_ref_coarse, mu0, 0.04, 4, 0.4)
        finest = res.trajectories[-1]
        lat = finest.lattice
        d = w2_knots_to_gaussian(
            (lat.levels, finest.edges[-1]),
            math.exp(-0.4),
            math.sqrt(1.0 + (0.25 - 1.0) * math.exp(-0.8)),
        )
        assert d < 0.01


class TestTransitionMeasure:
    def test_ou_transition(self, gaussian_ref):
        traj = ef.transition_trajectory(gaussian_ref, 1.0, 0.5, ef.JkoConfig(tau=2e-3))
        lat = traj.lattice
        x = float(traj.initial.x[0])
        d = w2_knots_to_gaussian(
            (lat.levels, traj.edges[-1]),
            x * math.exp(-0.5),
            math.sqrt(1.0 - math.exp(-1.0)),
        )
        assert d < 0.02

    def test_reflected_transition(self, uniform_ref):
        from entroflow.oracles import neumann_density_on_grid

        traj = ef.transition_trajectory(uniform_ref, 0.3, 1.0, ef.JkoConfig(tau=2.5e-3))
        lat = traj.lattice
        x = float(traj.initial.x[0])
        w_jko = lat.to_grid_weights(traj.edges_at(1.0))
        w_ker = neumann_density_on_grid(uniform_ref.grid, x, 1.0)
        assert np.abs(w_jko - w_ker).sum() < 0.02

    def test_long_time_ergodicity(self, gaussian_ref_coarse):
        out = ef.transition_trajectory(gaussian_ref_coarse, 1.0, 10.0, ef.JkoConfig(tau=0.05)).measure_at(10.0)
        lat = QuantileLattice(gaussian_ref_coarse)
        assert lat.w2(lat.from_grid(out), lat.gamma_edges) < 0.01

    def test_snaps_outside_points(self, uniform_ref):
        traj = ef.transition_trajectory(uniform_ref, 7.5, 0.1, ef.JkoConfig(tau=0.01))
        assert 0.0 <= float(traj.initial.x[0]) <= 1.0


class TestChecks:
    def test_estimate_checks_pass_on_ou(self, gaussian_ref_coarse, rng):
        cfg = ef.JkoConfig(tau=5e-3)
        mu = ef.gaussian_on_grid(gaussian_ref_coarse, 1.0, 0.5)
        nu = ef.gaussian_on_grid(gaussian_ref_coarse, -1.0, 0.5)
        traj = ef.jko_trajectory(gaussian_ref_coarse, mu, cfg, 0.3)
        companion = ef.jko_trajectory(gaussian_ref_coarse, nu, cfg, 0.3)
        fine = ef.jko_trajectory(gaussian_ref_coarse, mu, dataclasses.replace(cfg, tau=1e-3), 0.3)
        report = ef.estimate_checks(traj, reference_traj=fine, companion_traj=companion, rng=rng)
        assert report.passed, str(report)

    def test_transition_entropy_bound_reported(self, gaussian_ref_coarse, rng):
        cfg = ef.JkoConfig(tau=5e-3)
        traj = ef.transition_trajectory(gaussian_ref_coarse, 1.0, 0.5, cfg)
        report = ef.estimate_checks(traj, rng=rng)
        ids = [item.check_id for item in report.items]
        assert "transition_entropy" in ids
        assert report.passed, str(report)

    def test_invariance_only_reference(self, gaussian_ref_coarse):
        cfg = ef.JkoConfig(tau=5e-3)
        candidates = [
            gaussian_ref_coarse.as_measure(),
            ef.gaussian_on_grid(gaussian_ref_coarse, 0.5, 1.0),
            ef.gaussian_on_grid(gaussian_ref_coarse, 0.0, 0.5),
        ]
        report = ef.invariance_check(gaussian_ref_coarse, candidates, 0.2, cfg)
        assert report.passed, str(report)
