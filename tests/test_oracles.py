import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv
from scipy.stats import norm

import entroflow as ef
import entroflow.oracles as orc
from entroflow.jko import QuantileLattice, _native_step
from entroflow.transport import histogram_quantile_knots, w2_knots_to_gaussian, w2_quantile_knots


def _full_edges(gamma):
    return np.concatenate(
        [gamma.grid - gamma.cell_width / 2, [gamma.grid[-1] + gamma.cell_width / 2]]
    )


def _every_step(T, dt):
    """``times`` that store every step of a solve to T."""
    return [k * dt for k in range(round(T / dt) + 1)]


class TestFpSolve:
    def test_reference_is_stationary(self, gaussian_ref):
        sol = orc.fp_solve(gaussian_ref, gaussian_ref.as_measure(), 1.0, 1e-3)
        drift = np.abs(sol.densities[-1] - gaussian_ref.weights).sum()
        assert drift < 1e-6

    def test_mass_conserved(self, gaussian_ref):
        start = ef.dirac_on_grid(gaussian_ref, 1.0)
        sol = orc.fp_solve(gaussian_ref, start, 0.3, 1e-3, times=_every_step(0.3, 1e-3))
        assert len(sol.times) == 301
        assert np.abs(sol.densities.sum(axis=1) - 1.0).max() < 1e-9
        assert sol.min_density > -1e-10

    def test_ou_dirac_vs_analytic(self, gaussian_ref):
        start = ef.dirac_on_grid(gaussian_ref, 1.0)
        x = float(start.x[0])
        sol = orc.fp_solve(gaussian_ref, start, 0.5, 1e-3)
        m = orc.ou_transition_exact(x, 0.5)
        edges = _full_edges(gaussian_ref)
        ref_w = np.diff(norm.cdf((edges - m.mean) / m.std))
        ref_w /= ref_w.sum()
        assert np.abs(sol.density_at(0.5) - ref_w).sum() < 0.01

    def test_uniform_dirac_vs_neumann_series(self, uniform_ref):
        start = ef.dirac_on_grid(uniform_ref, 0.3)
        x = float(start.x[0])
        sol = orc.fp_solve(uniform_ref, start, 0.1, 1e-4)
        ref_w = orc.neumann_density_on_grid(uniform_ref.grid, x, 0.1)
        assert np.abs(sol.density_at(0.1) - ref_w).sum() < 0.01

    def test_scheme_agreement_crank_nicolson_vs_implicit(self, gaussian_ref):
        # empirical uniqueness surrogate: two different schemes coincide
        mu0 = ef.gaussian_on_grid(gaussian_ref, 0.8, 0.6)
        a = orc.fp_solve(gaussian_ref, mu0, 0.25, 1e-3)
        implicit = orc._theta_stepper(*orc._fp_generator(gaussian_ref), 2.5e-4, 1.0)
        b = gaussian_ref.grid_weights(mu0)
        for _ in range(1000):  # implicit Euler to t = 0.25
            b = implicit(b)
        assert np.abs(a.densities[-1] - b).sum() < 2e-3

    def test_times_store_exactly_those_steps(self, gaussian_ref):
        mu0 = ef.gaussian_on_grid(gaussian_ref, 0.8, 0.6)
        full = orc.fp_solve(gaussian_ref, mu0, 0.1, 1e-3, times=_every_step(0.1, 1e-3))
        assert len(full.times) == 101
        some = orc.fp_solve(gaussian_ref, mu0, 0.1, 1e-3, times=[0.05, 0.0, 0.1, 0.05])
        assert np.array_equal(some.times, full.times[[0, 50, 100]])  # once each, in time order
        assert np.array_equal(some.densities, full.densities[[0, 50, 100]])
        assert (some.min_density, some.mass_error) == (full.min_density, full.mass_error)
        assert orc.fp_solve(gaussian_ref, mu0, 0.1, 1e-3, times=[]).densities.shape == (0, gaussian_ref.n)
        for bad in ([0.0105], [0.101], [-0.001]):
            with pytest.raises(ValueError, match="times must be whole steps of dt"):
                orc.fp_solve(gaussian_ref, mu0, 0.1, 1e-3, times=bad)

    def test_off_grid_start_placed_as_the_flow_places_it(self, gaussian_ref):
        # an atom 0.3 h right of cell 120 splits its mass over cells 120 and 121
        x = float(gaussian_ref.grid[120]) + 0.3 * gaussian_ref.cell_width
        mu = ef.DiscreteMeasure.from_atoms([x], [1.0])
        weights = gaussian_ref.grid_weights(mu)
        assert np.array_equal(np.flatnonzero(weights), [120, 121])
        assert weights[120] == pytest.approx(0.7) and weights[121] == pytest.approx(0.3)
        sol = orc.fp_solve(gaussian_ref, mu, 0.01, 1e-3, times=[0])
        assert np.array_equal(sol.densities[0], weights)
        lat = QuantileLattice(gaussian_ref)
        assert np.array_equal(lat.from_grid(mu), lat.from_weights(weights))

    @pytest.mark.parametrize("T,last", [(0.1, 100), (0.1005, 101)], ids=["whole", "not-whole"])
    def test_default_stores_the_last_step(self, gaussian_ref, T, last):
        # the last step is ceil(T / dt), whether or not dt divides T
        mu0 = ef.gaussian_on_grid(gaussian_ref, 0.8, 0.6)
        sol = orc.fp_solve(gaussian_ref, mu0, T, 1e-3)
        assert sol.densities.shape == (1, gaussian_ref.n)
        assert np.array_equal(sol.times, [last * 1e-3])
        at_last = orc.fp_solve(gaussian_ref, mu0, T, 1e-3, times=[last * 1e-3])
        assert np.array_equal(sol.densities, at_last.densities)

    def test_box_on_a_wider_grid(self):
        # cells where V = +inf are cut off: the box keeps its mass and its reference
        gamma = ef.discretize_reference(ef.box(0.0, 1.0), 60, (-0.25, 1.25))
        outside = gamma.weights == 0.0
        assert outside.sum() == 20
        start = ef.gaussian_on_grid(gamma, 0.3, 0.1)
        sol = orc.fp_solve(gamma, start, 0.1, 1e-3, times=_every_step(0.1, 1e-3))
        assert len(sol.times) == 101
        assert np.abs(sol.densities.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(sol.densities[:, outside] == 0.0)
        still = orc.fp_solve(gamma, gamma.as_measure(), 0.1, 1e-3)
        assert np.abs(still.densities[-1] - gamma.weights).max() < 1e-12
        assert orc.reversibility_check(gamma, 0.1) < 1e-3

    @pytest.mark.parametrize(
        "pot",
        [ef.abs_potential(3.0), ef.affine_max([[-3.0, 0.0], [1.5, 0.0], [6.0, -3.0]])],
        ids=["abs", "affine_max"],
    )
    def test_kinked_potential_matches_jko(self, pot):
        # the scheme reads V only at cell centres, so kinks cost it no order:
        # W2(fp, jko) at t = 0.5 falls at least twofold per doubling of n
        gaps = []
        for n in (100, 200, 400, 800):
            gamma = ef.discretize_reference(pot, n, ef.suggested_bounds(pot))
            mu0 = ef.gaussian_on_grid(gamma, 1.0, 0.5)
            lat = QuantileLattice(gamma)
            traj = ef.jko_trajectory(gamma, mu0, ef.JkoConfig(tau=1e-3), 0.5, lattice=lat)
            sol = orc.fp_solve(gamma, mu0, 0.5, 1e-3)
            fp_knots = histogram_quantile_knots(_full_edges(gamma), sol.density_at(0.5))
            gaps.append(w2_quantile_knots((lat.levels, traj.edges[-1]), fp_knots))
        gaps = np.array(gaps)
        assert np.all(gaps[:-1] >= 2.0 * gaps[1:]), gaps


class TestThetaStepper:
    """The stepper's factored solve against scipy's solve_banded and a dgtsv loop."""

    @staticmethod
    def _banded_step(lower, diag, upper, dt, theta, q):
        imp, ex = theta * dt, (1.0 - theta) * dt
        ab = np.zeros((3, len(diag)))
        ab[0, 1:] = -imp * upper
        ab[1] = 1.0 - imp * diag
        ab[2, :-1] = -imp * lower
        col = (slice(None),) + (None,) * (q.ndim - 1)
        rhs = q + ex * (diag[col] * q)
        rhs[:-1] += (ex * upper)[col] * q[1:]
        rhs[1:] += (ex * lower)[col] * q[:-1]
        return solve_banded((1, 1), ab, rhs)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("shape", [(200,), (200, 7)])
    def test_equals_solve_banded(self, gaussian_ref_coarse, theta, shape):
        bands = orc._fp_generator(gaussian_ref_coarse)  # 200 cells
        q = np.random.default_rng(3).dirichlet(np.ones(shape[0]), size=shape[1:]).T.reshape(shape)
        step = orc._theta_stepper(*bands, 1e-3, theta)
        got = step(q)
        assert np.array_equal(got, self._banded_step(*bands, 1e-3, theta, q))
        # a step's output fed back in (a Fortran-ordered array for (n, B))
        assert np.array_equal(step(got), self._banded_step(*bands, 1e-3, theta, got))

    @pytest.mark.parametrize("ref", ["quadratic", "box"])
    def test_fp_solve_equals_a_dgtsv_step_loop(self, gaussian_ref_coarse, uniform_ref, ref):
        # the stepper factors its matrix once; each step of a dgtsv loop factors it again
        gamma = gaussian_ref_coarse if ref == "quadratic" else uniform_ref
        mu0 = ef.dirac_on_grid(gamma, float(gamma.grid[gamma.n // 3]))
        dt, steps = 1e-3, 60
        sol = orc.fp_solve(gamma, mu0, steps * dt, dt, times=[dt, 2 * dt, steps * dt])
        lower, diag, upper = orc._fp_generator(gamma)
        p, loop = gamma.grid_weights(mu0), []
        for k in range(1, steps + 1):
            th = 1.0 if k <= 2 else 0.5  # two damped startup steps, then Crank-Nicolson
            imp, ex = th * dt, (1.0 - th) * dt
            rhs = p + ex * (diag * p)
            rhs[:-1] += (ex * upper) * p[1:]
            rhs[1:] += (ex * lower) * p[:-1]
            *_, p, info = dgtsv(-imp * lower, 1.0 - imp * diag, -imp * upper, rhs)
            assert info == 0
            if p.min() < -1e-10:
                p = np.maximum(p, 0.0)
                p /= p.sum()
            loop.append(p)
        assert np.array_equal(sol.densities, np.stack([loop[0], loop[1], loop[-1]]))

    def test_nan_raises(self):
        gamma = ef.discretize_reference(ef.quadratic(1.0), 50, (-8.0, 8.0))
        step = orc._theta_stepper(*orc._fp_generator(gamma), 1e-3, 0.5)
        q = np.full(50, 0.02)
        q[10] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            step(q)


class TestClosedForms:
    def test_ou_transition_endpoints(self):
        m0 = orc.ou_transition_exact(0.7, 0.0)
        assert (m0.mean, m0.variance) == (0.7, 0.0)
        m_inf = orc.ou_transition_exact(0.7, 50.0)
        assert m_inf.mean == pytest.approx(0.0, abs=1e-12)
        assert m_inf.variance == pytest.approx(1.0, abs=1e-12)

    def test_ou_transition_against_euler_maruyama(self):
        # frozen reference values mean = e^{-1/2}, var = 1 - e^{-1}
        m = orc.ou_transition_exact(1.0, 0.5)
        assert m.mean == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert m.variance == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        s = orc.sde_simulate(ef.quadratic(1.0), 1.0, 0.5, 1e-3, 40000, seed=11)
        pts = s.terminal_points
        assert abs(pts.mean() - m.mean) < 3.5 * m.std / math.sqrt(len(pts)) + 2e-3
        assert abs(pts.var() - m.variance) < 0.02

    def test_neumann_kernel_normalizes(self, uniform_ref):
        vals = orc.neumann_uniform_kernel(0.37, uniform_ref.grid, 0.05)
        assert float(vals.mean()) == pytest.approx(1.0, abs=1e-10)

    def test_neumann_kernel_symmetry_and_longtime(self):
        a = orc.neumann_uniform_kernel(0.2, 0.7, 0.15)
        b = orc.neumann_uniform_kernel(0.7, 0.2, 0.15)
        assert a == pytest.approx(b, abs=1e-14)
        flat = orc.neumann_uniform_kernel(0.3, 0.8, 10.0)
        assert flat == pytest.approx(1.0, abs=1e-12)

    def test_neumann_tail_bound_honored(self):
        t = 0.01
        terms = 40
        exact = orc.neumann_uniform_kernel(0.4, 0.6, t, terms=4000)
        short = orc.neumann_uniform_kernel(0.4, 0.6, t, terms=terms)
        assert abs(exact - short) <= orc.neumann_tail_bound(t, terms)


class TestSde:
    def test_reflected_paths_stay_inside(self):
        s = orc.sde_simulate(ef.box(0.0, 1.0), 0.3, 0.5, 1e-3, 5000, seed=3)
        assert s.terminal_points.min() >= 0.0
        assert s.terminal_points.max() <= 1.0

    def test_reflected_long_time_uniform(self):
        s = orc.sde_simulate(ef.box(0.0, 1.0), 0.3, 5.0, 1e-3, 20000, seed=5)
        mu = s.empirical()
        # W2 to the exact uniform law via its quantile knots
        d = w2_quantile_knots(
            (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
            (np.cumsum(np.full(mu.n, 1.0 / mu.n)), np.sort(mu.x)),
        )
        assert d < 0.01

    def test_seed_reproducibility(self):
        a = orc.sde_simulate(ef.quadratic(1.0), 1.0, 0.1, 1e-3, 1000, seed=9)
        b = orc.sde_simulate(ef.quadratic(1.0), 1.0, 0.1, 1e-3, 1000, seed=9)
        assert np.array_equal(a.terminal_points, b.terminal_points)

    def test_dt_halving_envelope(self):
        # self-consistency: empirical laws at dt and dt/2 within O(sqrt(dt))
        outs = {}
        for dt in (4e-3, 2e-3, 1e-3):
            outs[dt] = np.sort(
                orc.sde_simulate(ef.quadratic(1.0), 1.0, 0.25, dt, 30000, seed=17).terminal_points
            )
        for dt in (4e-3, 2e-3):
            gap = math.sqrt(float(np.mean((outs[dt] - outs[dt / 2]) ** 2)))
            assert gap < 0.2 * math.sqrt(dt) + 0.02

    def test_drift_guard(self):
        with pytest.raises(ValueError):
            orc.sde_simulate(ef.quartic(1e6), 3.0, 0.1, 1.0, 10, seed=0)

    @pytest.mark.parametrize(
        "pot,x",
        [
            (ef.quadratic(1.0), 1.0),
            (ef.box(0.0, 1.0), 0.3),
            (ef.affine_max([[-3.0, 0.0], [1.5, 0.0], [6.0, -3.0]]), 0.2),
        ],
        ids=["quadratic", "box", "affine_max"],
    )
    def test_samples_do_not_depend_on_workers(self, monkeypatch, pot, x):
        # three blocks, the last one short; each block's stream is Philox(key=(seed, b))
        n, T, dt, seed = 2 * orc.PATH_BLOCK + 1000, 0.02, 1e-3, 5
        lo, hi = pot.finite_interval()
        blocks = []
        for b, start in enumerate(range(0, n, orc.PATH_BLOCK)):
            rng = np.random.Generator(np.random.Philox(key=[seed, b]))
            xs = np.full(min(orc.PATH_BLOCK, n - start), x)
            for _ in range(20):
                xs = xs - pot.drift(xs) * dt + math.sqrt(2.0 * dt) * rng.standard_normal(len(xs))
                if math.isfinite(lo):
                    xs = orc._reflect(xs, lo, hi)
            blocks.append(xs)
        serial = np.concatenate(blocks)
        for workers in (1, 2, 3):
            monkeypatch.setattr(orc, "_path_workers", lambda *args: workers)
            got = orc.sde_simulate(pot, x, T, dt, n, seed).terminal_points
            assert np.array_equal(got, serial), workers

    def test_block_exception_propagates(self, monkeypatch):
        class BlockFailure(Exception):
            pass

        class FailingSecondBlock:
            def finite_interval(self):
                return (-math.inf, math.inf)

            def drift(self, xs):
                if len(xs) == 10:  # only block 1 holds 10 paths
                    raise BlockFailure("block 1")
                return xs

        monkeypatch.setattr(orc, "_path_workers", lambda *args: 2)
        with pytest.raises(BlockFailure, match="block 1"):
            orc.sde_simulate(FailingSecondBlock(), 0.0, 0.01, 1e-3, orc.PATH_BLOCK + 10, seed=0)

    def test_block_failure_stops_the_other_blocks(self, monkeypatch):
        class BlockFailure(Exception):
            pass

        class SlowFirstFailingSecond:
            def finite_interval(self):
                return (-math.inf, math.inf)

            def drift(self, xs):
                if len(xs) == 10:  # block 1 fails at its first step
                    raise BlockFailure("block 1")
                if len(xs) == orc.PATH_BLOCK:  # block 0 alone would run for about 30 s
                    time.sleep(0.01)
                return np.zeros_like(xs)

        monkeypatch.setattr(orc, "_path_workers", lambda *args: 2)
        start = time.perf_counter()
        with pytest.raises(BlockFailure, match="block 1"):
            orc.sde_simulate(SlowFirstFailingSecond(), 0.0, 3.0, 1e-3, orc.PATH_BLOCK + 10, seed=0)
        assert time.perf_counter() - start < 5.0

    def test_path_worker_rule(self):
        # one worker per CPU in the affinity set, at most one per block and at least one
        cpus = len(os.sched_getaffinity(0))
        assert [orc._path_workers(n) for n in (0, 1)] == [1, 1]
        assert orc._path_workers(100_000) == cpus

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.5), (-0.0, 1e-3), (2.5, 7.25), (-40.0, -39.9)])
    def test_reflect_equals_folding_every_path(self, lo, hi, rng):
        # the reflection skips np.mod where it returns its argument; the
        # result is the fold of every path by np.mod bit for bit
        def folded(x):
            span = hi - lo
            y = np.mod(x - lo, 2.0 * span)
            return lo + np.where(y > span, 2.0 * span - y, y)

        span = hi - lo
        marks = np.array([lo, hi, lo + 2.0 * span, lo - span, hi + span])
        x = np.concatenate([
            rng.uniform(lo - 3.0 * span, hi + 3.0 * span, 20000),
            rng.uniform(lo, hi, 2000),
            marks,
            np.nextafter(marks, np.inf),
            np.nextafter(marks, -np.inf),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300],
        ])
        with np.errstate(invalid="ignore"):
            got, ref = orc._reflect(x, lo, hi), folded(x)
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestSemigroup:
    def test_near_identity_after_one_short_step(self, gaussian_ref_coarse):
        p = orc.semigroup_matrix(gaussian_ref_coarse, 1e-6, dt=1e-6)
        assert np.abs(p - np.eye(gaussian_ref_coarse.n)).max() < 0.05

    def test_rows_match_analytic_ou(self, gaussian_ref_coarse):
        p = orc.semigroup_matrix(gaussian_ref_coarse, 0.5)
        edges = _full_edges(gaussian_ref_coarse)
        mid = gaussian_ref_coarse.n // 2 + 10
        x = gaussian_ref_coarse.grid[mid]
        m = orc.ou_transition_exact(float(x), 0.5)
        ref_w = np.diff(norm.cdf((edges - m.mean) / m.std))
        ref_w /= ref_w.sum()
        assert np.abs(p[mid] - ref_w).sum() < 0.02

    def test_chapman_kolmogorov_fp(self, gaussian_ref_coarse):
        p1 = orc.semigroup_matrix(gaussian_ref_coarse, 0.25)
        p2 = orc.semigroup_matrix(gaussian_ref_coarse, 0.5)
        err = np.abs(p1 @ p1 - p2).sum(axis=1).max()
        assert err < 0.02

    def test_chapman_kolmogorov_jko(self):
        g = ef.discretize_reference(ef.quadratic(1.0), 60, (-8, 8))
        cfg = ef.JkoConfig(tau=5e-3)
        p1 = orc.semigroup_matrix(g, 0.25, cfg, method="jko")
        p2 = orc.semigroup_matrix(g, 0.5, cfg, method="jko")
        assert np.abs(p1.sum(axis=1) - 1.0).max() < 1e-9
        err = np.abs(p1 @ p1 - p2).sum(axis=1).max()
        assert err < 0.02

    @pytest.mark.parametrize(
        "potential,bounds",
        [
            (ef.quadratic(1.0, 0.3), (-8.0, 8.0)),
            # cells outside the box carry no mass and keep their unit row
            (ef.box(0.0, 1.0, ef.quadratic(2.0, 0.3)), (-0.25, 1.25)),
        ],
        ids=["quadratic", "box"],
    )
    def test_jko_rows_are_transition_measures(self, potential, bounds):
        # one batch on one lattice gives each row's own Dirac flow
        gamma = ef.discretize_reference(potential, 30, bounds)
        cfg = ef.JkoConfig(tau=0.01)
        p = orc.semigroup_matrix(gamma, 0.05, cfg, method="jko")
        for j in range(gamma.n):
            row = np.zeros(gamma.n)
            if gamma.weights[j] > 0:
                mu = ef.transition_trajectory(gamma, float(gamma.grid[j]), 0.05, cfg).measure_at(0.05)
                row[gamma.locate(mu.x)] = mu.weights
            else:
                row[j] = 1.0
            assert np.abs(p[j] - row).max() <= 1e-12

    @staticmethod
    def _fp_step_loop(gamma, t, dt):
        # the k-step Crank-Nicolson loop the fp semigroup is the matrix power of
        lower, diag, upper = orc._fp_generator(gamma)
        step = orc._theta_stepper(lower, diag, upper, dt, 0.5)
        u = np.eye(gamma.n)
        for _ in range(int(math.ceil(t / dt - 1e-9))):
            u = step(u)
        return np.clip(u.T, 0.0, None) / np.clip(u.T, 0.0, None).sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("k", [1, 2, 3, 37, 400])
    @pytest.mark.parametrize(
        "potential,n,bounds",
        [
            (ef.quadratic(1.0), 60, (-8.0, 8.0)),
            (ef.quadratic(1.0), 200, (-8.0, 8.0)),
            (ef.abs_potential(1.0), 60, (-40.0, 40.0)),
            (ef.quartic(1.0, 0.5), 60, (-4.5, 4.5)),
            (ef.affine_max([[-3.0, 0.0], [1.5, 0.0], [6.0, -3.0]]), 60, (-15.0, 10.0)),
            (ef.box(0.0, 1.0), 60, (-0.25, 1.25)),
            (ef.box(-1.0, 1.5, ef.abs_potential(2.0)), 60, (-1.25, 1.75)),
        ],
        ids=["quadratic-60", "quadratic-200", "abs", "quartic", "affine_max", "box", "box-abs"],
    )
    def test_fp_power_matches_step_loop(self, potential, n, bounds, k):
        gamma = ef.discretize_reference(potential, n, bounds)
        t = 0.25
        dt = t / k
        assert int(math.ceil(t / dt - 1e-9)) == k
        p = orc.semigroup_matrix(gamma, t, dt=dt)
        assert np.abs(p - self._fp_step_loop(gamma, t, dt)).max() <= 1e-13
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-14

    def test_fp_time_zero_is_identity(self, gaussian_ref_coarse):
        p = orc.semigroup_matrix(gaussian_ref_coarse, 0.0)
        assert np.array_equal(p, np.eye(gaussian_ref_coarse.n))

    def test_fp_rejects_negative_time(self, gaussian_ref_coarse):
        # a negative power would invert the step and run the scheme backward
        with pytest.raises(ValueError, match="t must be nonnegative"):
            orc.semigroup_matrix(gaussian_ref_coarse, -0.1)

    def test_jko_keeps_only_the_current_stack(self):
        # the batch holds one (rows, n+1) stack at a time; all 51 would take 1.5 MB
        gamma = ef.discretize_reference(ef.quadratic(1.0), 60, (-8.0, 8.0))
        cfg = ef.JkoConfig(tau=5e-3)
        orc.semigroup_matrix(gamma, 2 * cfg.tau, cfg, method="jko")
        tracemalloc.start()
        try:
            orc.semigroup_matrix(gamma, 0.25, cfg, method="jko")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6

    def test_jko_row_failure_names_step_and_cell(self):
        gamma = ef.discretize_reference(ef.quadratic(1.0), 30, (-8.0, 8.0))
        cfg = ef.JkoConfig(tau=0.01, max_inner_iters=2, inner_tol=1e-16)
        with pytest.raises(ef.JkoSolverError) as err:
            orc.semigroup_matrix(gamma, 0.02, cfg, method="jko")
        # the reported row is the first start cell whose own first step fails
        lat = QuantileLattice(gamma)
        for j in np.flatnonzero(gamma.weights > 0):
            e0 = lat.from_grid(ef.dirac_on_grid(gamma, float(gamma.grid[j])))
            out = _native_step(lat, e0[None], cfg.tau, 1e-16, 2)[:7]
            e, _, _, _, residual, _, converged = (x[0] for x in out)
            if not converged:
                break
        assert str(err.value).startswith(f"step 0, start cell {j}: inner Newton residual")
        assert err.value.residual == residual
        best = lat.to_measure(e)
        assert np.array_equal(err.value.best_measure.x, best.x)
        assert np.array_equal(err.value.best_measure.weights, best.weights)

    def test_reversibility(self, gaussian_ref_coarse, uniform_ref):
        assert orc.reversibility_check(gaussian_ref_coarse, 0.5) < 1e-3
        assert orc.reversibility_check(uniform_ref, 0.2) < 1e-3

    def test_lip_contraction(self, gaussian_ref_coarse, uniform_ref):
        f = np.sin(gaussian_ref_coarse.grid)
        res = orc.lip_contraction_check(gaussian_ref_coarse, 0.5, f)
        assert res.contracts
        # the image's slope shrinks at least like e^{-t} under the mean map
        assert res.lip_after <= math.exp(-0.5) * res.lip_before + 1e-6
        const = orc.lip_contraction_check(gaussian_ref_coarse, 0.5, np.ones(gaussian_ref_coarse.n))
        assert const.lip_before == pytest.approx(0.0, abs=1e-14)
        clipped = np.clip(uniform_ref.grid, 0.2, 0.8)
        res_u = orc.lip_contraction_check(uniform_ref, 0.1, clipped)
        assert res_u.contracts


class TestJkoCrossChecks:
    def test_jko_vs_fp_ou(self, gaussian_ref):
        mu0 = ef.gaussian_on_grid(gaussian_ref, 1.0, 0.5)
        traj = ef.jko_trajectory(gaussian_ref, mu0, ef.JkoConfig(tau=5e-3), 0.5)
        sol = orc.fp_solve(gaussian_ref, mu0, 0.5, 1e-3, times=[0.1, 0.5])
        edges = _full_edges(gaussian_ref)
        lat = traj.lattice
        for t in (0.1, 0.5):
            d = w2_quantile_knots(
                (lat.levels, traj.edges_at(t)),
                histogram_quantile_knots(edges, sol.density_at(t)),
            )
            assert d < 0.02

    def test_jko_vs_sde_ou(self, gaussian_ref):
        traj = ef.transition_trajectory(gaussian_ref, 1.0, 0.5, ef.JkoConfig(tau=2e-3))
        x = float(traj.initial.x[0])
        s = orc.sde_simulate(gaussian_ref.potential, x, 0.5, 1e-3, 50000, seed=7)
        lat = traj.lattice
        mu = s.empirical()
        levels = np.cumsum(mu.weights)
        d = w2_quantile_knots((lat.levels, traj.edges[-1]), (levels, mu.x))
        assert d < 0.03
