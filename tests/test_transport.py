import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp
from scipy.stats import norm

import entroflow as ef
import entroflow.transport as tr
from entroflow.transport import (
    atomic_quantile_knots,
    histogram_quantile_knots,
    w2_knots_to_gaussian,
    w2_quantile_knots,
)
from conftest import random_atomic, random_grid_measure


class TestExact1d:
    def test_dirac_pair(self):
        a = ef.DiscreteMeasure.from_atoms([0.0], [1.0])
        b = ef.DiscreteMeasure.from_atoms([3.0], [1.0])
        assert ef.w2_exact_1d(a, b).distance == pytest.approx(3.0)

    def test_translation(self, gaussian_ref):
        a = ef.gaussian_on_grid(gaussian_ref, 0.0, 1.0)
        b = ef.gaussian_on_grid(gaussian_ref, 2.0, 1.0)
        assert ef.w2_exact_1d(a, b).distance == pytest.approx(2.0, abs=1e-6)

    def test_scaling(self, gaussian_ref):
        # quantile-integral oracle: W2(N(0,1), N(0,4)) = |2 - 1| = 1
        a = ef.gaussian_on_grid(gaussian_ref, 0.0, 1.0)
        b = ef.gaussian_on_grid(gaussian_ref, 0.0, 2.0)
        assert ef.w2_exact_1d(a, b).distance == pytest.approx(1.0, abs=1e-3)

    def test_coupling_marginals(self, rng):
        a, b = random_atomic(rng), random_atomic(rng)
        res = ef.w2_exact_1d(a, b)
        assert res.coupling.marginal_violation(a.weights, b.weights) < 1e-12


class TestLp:
    def test_dirac_target(self):
        mu = ef.DiscreteMeasure.from_atoms([0.0, 1.0], [0.5, 0.5])
        nu = ef.DiscreteMeasure.from_atoms([0.5], [1.0])
        assert ef.w2_lp(mu, nu).distance == pytest.approx(0.5)

    def test_matches_quantile(self, rng):
        worst = 0.0
        for _ in range(50):
            a, b = random_atomic(rng), random_atomic(rng, scale=1.4)
            worst = max(
                worst, abs(ef.w2_lp(a, b).distance - ef.w2_exact_1d(a, b).distance)
            )
        assert worst < 1e-8

    def test_identity(self, rng):
        a = random_atomic(rng, n=20)
        res = ef.w2_lp(a, a)
        assert res.distance < 1e-9
        plan = res.coupling.dense(a.n, a.n)
        assert np.abs(plan - np.diag(a.weights)).max() < 1e-12

    def test_two_dimensional_translation(self, rng):
        pts = rng.normal(size=(20, 2))
        w = rng.dirichlet(np.ones(20))
        mu = ef.DiscreteMeasure.from_atoms(pts, w)
        nu = ef.DiscreteMeasure.from_atoms(pts + np.array([1.0, -2.0]), w)
        assert ef.w2_lp(mu, nu).distance == pytest.approx(math.sqrt(5.0), abs=1e-9)

    def test_w2_dispatches_to_lp_in_two_dimensions(self, rng):
        a = ef.DiscreteMeasure.from_atoms(rng.normal(size=(12, 2)), rng.dirichlet(np.ones(12)))
        b = ef.DiscreteMeasure.from_atoms(rng.normal(size=(9, 2)) + 1.0, rng.dirichlet(np.ones(9)))
        assert ef.w2(a, b) == ef.w2_lp(a, b).distance

    def test_weighted_norm_cost(self, rng):
        a, b = random_atomic(rng, n=15), random_atomic(rng, n=17)
        spec = ef.NormSpec.scaled_identity(4.0, 1)
        assert ef.w2_lp(a, b, spec).distance == pytest.approx(
            2.0 * ef.w2_lp(a, b).distance, abs=1e-8
        )

    def test_size_guard(self):
        big = ef.DiscreteMeasure.from_atoms(
            np.arange(4000, dtype=float), np.full(4000, 1.0 / 4000)
        )
        with pytest.raises(ValueError):
            ef.w2_lp(big, big)


class TestSinkhorn:
    def test_matches_lp_at_small_epsilon(self, rng):
        a = random_atomic(rng, n=120)
        b = random_atomic(rng, n=120, shift=1.0)
        scale = float(np.mean((a.x[:, None] - b.x[None, :]) ** 2))
        lp = ef.w2_lp(a, b).distance
        res = ef.w2_sinkhorn(a, b, epsilon=1e-3 * scale)
        assert res.marginal_violation < 1e-9
        assert abs(res.distance_estimate - lp) <= 1e-3 * max(1.0, math.sqrt(scale))

    def test_epsilon_sweep_decreases_toward_lp(self, rng):
        a = random_atomic(rng, n=80)
        b = random_atomic(rng, n=80, shift=0.7)
        scale = float(np.mean((a.x[:, None] - b.x[None, :]) ** 2))
        lp = ef.w2_lp(a, b).distance
        estimates = [
            ef.w2_sinkhorn(a, b, epsilon=f * scale).distance_estimate
            for f in (1e-1, 1e-2, 1e-3)
        ]
        assert estimates[0] >= estimates[1] >= estimates[2] >= lp - 1e-9

    def test_self_distance_debiased(self, rng):
        a = random_atomic(rng, n=60)
        res = ef.w2_sinkhorn(a, a, epsilon=1e-2, debias=True)
        assert res.distance_estimate == pytest.approx(0.0, abs=1e-8)


def _log_domain_level(a, b, cost, eps, g):
    """Log-domain Sinkhorn level: the loop the kernel-domain scaling replaced."""
    log_a, log_b = np.log(a), np.log(b)
    it = 0
    while it < tr.SINKHORN_MAX_ITERS:
        f = -eps * logsumexp((g[None, :] - cost) / eps + log_b[None, :], axis=1)
        g = -eps * logsumexp((f[:, None] - cost) / eps + log_a[:, None], axis=0)
        it += 1
        if it % 5 == 0 or it == tr.SINKHORN_MAX_ITERS:
            log_p = (f[:, None] + g[None, :] - cost) / eps + log_a[:, None] + log_b[None, :]
            p = np.exp(log_p)
            viol = max(
                np.abs(p.sum(axis=1) - np.exp(log_a)).max(),
                np.abs(p.sum(axis=0) - np.exp(log_b)).max(),
            )
            if viol < tr.SINKHORN_TOL:
                return g, p, it, True
    return g, p, it, False


def _sinkhorn_pair(name):
    if name == "pair60":
        rng = np.random.default_rng(7)
        return random_atomic(rng, n=60), random_atomic(rng, n=60, shift=0.5), 0.05
    # far outlier: one target atom at 40, so exp(-C/eps) spans far beyond float range
    rng = np.random.default_rng(0)
    a = ef.DiscreteMeasure.from_atoms(rng.normal(size=12), rng.dirichlet(np.ones(12)))
    b = ef.DiscreteMeasure.from_atoms(
        np.concatenate([rng.normal(size=11), [40.0]]), rng.dirichlet(np.ones(12))
    )
    return a, b, 1e-3


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(tr, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(tr, name, counted)
    return calls


class TestKernelDomainSinkhorn:
    @pytest.mark.parametrize("name", ["pair60", "far_outlier"])
    def test_matches_log_domain_reference(self, name, monkeypatch):
        a, b, eps = _sinkhorn_pair(name)
        builds = _count_calls(monkeypatch, "_gibbs_kernel")
        levels = _count_calls(monkeypatch, "_sinkhorn_level")
        res = ef.w2_sinkhorn(a, b, epsilon=eps)
        # more kernel builds than levels: the scalings were absorbed at least once
        assert len(builds) > len(levels)

        monkeypatch.setattr(tr, "_sinkhorn_level", _log_domain_level)
        ref = ef.w2_sinkhorn(a, b, epsilon=eps)
        assert res.iterations == ref.iterations
        assert res.converged == ref.converged
        assert abs(res.distance_estimate - ref.distance_estimate) <= 1e-9
        plan = res.coupling.dense(a.n, b.n)
        assert np.isfinite(plan).all()
        assert res.marginal_violation <= 1e-9
        assert np.abs(plan.sum(axis=1) - a.weights).max() <= 1e-9
        assert np.abs(plan.sum(axis=0) - b.weights).max() <= 1e-9


    @pytest.mark.parametrize("column,offset", [(30, -50.0), (0, 50.0)])
    def test_underflowed_scalings_recover(self, column, offset):
        # a warm start far off the optimum underflows whole kernel columns
        # (then rows), which makes scalings infinite; the level must replace
        # them and still follow the log-domain iterates
        a, b, eps = _sinkhorn_pair("pair60")
        cost = (a.x[:, None] - b.x[None, :]) ** 2
        g0 = np.zeros(b.n)
        g0[column] = offset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, plan, it, ok = tr._sinkhorn_level(a.weights, b.weights, cost, eps, g0)
        g_ref, plan_ref, it_ref, ok_ref = _log_domain_level(a.weights, b.weights, cost, eps, g0)
        assert (it, ok) == (it_ref, ok_ref)
        assert np.isfinite(plan).all()
        assert np.abs(g - g_ref).max() <= 1e-9
        assert np.abs(plan - plan_ref).max() <= 1e-12


class TestMetricAxioms:
    def test_symmetry_triangle_identity(self, rng):
        for _ in range(20):
            a, b, c = (random_atomic(rng, n=int(rng.integers(5, 50))) for _ in range(3))
            dab = ef.w2(a, b)
            dba = ef.w2(b, a)
            dac = ef.w2(a, c)
            dcb = ef.w2(c, b)
            assert abs(dab - dba) < 1e-9
            assert dab <= dac + dcb + 1e-9
            assert ef.w2(a, a) < 1e-12


class TestDisplacementInterpolation:
    def test_endpoints(self, rng):
        a, b = random_atomic(rng), random_atomic(rng)
        for t, target in ((0.0, a), (1.0, b)):
            got = ef.displacement_interpolate(a, b, t)
            assert got.n == target.n
            assert np.allclose(got.x, target.x)
            assert np.allclose(got.weights, target.weights)

    def test_endpoints_two_dimensional(self, rng):
        # the LP plan's branch
        a, b = (
            ef.DiscreteMeasure.from_atoms(rng.normal(size=(n, 2)) + shift, rng.dirichlet(np.ones(n)))
            for n, shift in ((12, 0.0), (9, 1.0))
        )
        for t, target in ((0.0, a), (1.0, b)):
            got = ef.displacement_interpolate(a, b, t)
            assert got.n == target.n
            assert np.allclose(got.support, target.support)
            assert np.allclose(got.weights, target.weights)
            assert ef.w2(got, target) == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_midpoint(self, gaussian_ref):
        # translation geodesic: midpoint of N(0,1)->N(2,1) is N(1,1); the
        # shift is a whole number of cells, so the discretized target is hit
        a = ef.gaussian_on_grid(gaussian_ref, 0.0, 1.0)
        b = ef.gaussian_on_grid(gaussian_ref, 2.0, 1.0)
        mid = ef.displacement_interpolate(a, b, 0.5)
        target = ef.gaussian_on_grid(gaussian_ref, 1.0, 1.0)
        assert ef.w2(mid, target) < 1e-3

    def test_dirac_geodesic(self):
        a = ef.DiscreteMeasure.from_atoms([0.0], [1.0])
        b = ef.DiscreteMeasure.from_atoms([2.0], [1.0])
        mid = ef.displacement_interpolate(a, b, 0.25)
        assert mid.n == 1
        assert mid.x[0] == pytest.approx(0.5)

    def test_constant_speed(self, rng):
        a, b = random_atomic(rng, n=25), random_atomic(rng, n=30)
        d = ef.w2(a, b)
        ts = np.linspace(0, 1, 7)
        for i, s in enumerate(ts):
            for t in ts[i + 1 :]:
                ds = ef.w2(
                    ef.displacement_interpolate(a, b, float(s)),
                    ef.displacement_interpolate(a, b, float(t)),
                )
                assert ds <= (t - s) * d + 1e-9

    def test_quadrilateral_inequality(self, rng):
        # strong convexity of squared distance along base-point interpolation
        for _ in range(30):
            base = random_atomic(rng, n=20)
            nu0 = random_atomic(rng, n=15)
            nu1 = random_atomic(rng, n=25, shift=0.5)
            d0 = ef.w2(nu0, base) ** 2
            d1 = ef.w2(nu1, base) ** 2
            d01 = ef.w2(nu0, nu1) ** 2
            for t in np.linspace(0, 1, 11):
                nut = ef.interpolate_from_base(base, nu0, nu1, float(t))
                lhs = ef.w2(nut, base) ** 2
                assert lhs <= (1 - t) * d0 + t * d1 - t * (1 - t) * d01 + 1e-8

    def test_entropy_displacement_convexity(self, gaussian_ref, rng):
        for _ in range(20):
            mu0 = random_grid_measure(gaussian_ref, rng)
            mu1 = random_grid_measure(gaussian_ref, rng)
            h0 = ef.relative_entropy(mu0, gaussian_ref)
            h1 = ef.relative_entropy(mu1, gaussian_ref)
            for t in np.linspace(0, 1, 11):
                interp = ef.displacement_interpolate(mu0, mu1, float(t))
                ht = ef.relative_entropy(
                    ef.rebin_measure(interp, gaussian_ref), gaussian_ref
                )
                assert ht <= (1 - t) * h0 + t * h1 + 1e-6


class TestCyclicalMonotonicity:
    def test_optimal_plan_clean(self, rng):
        a, b = random_atomic(rng, n=30), random_atomic(rng, n=35)
        res = ef.cyclical_monotonicity_check(
            ef.w2_exact_1d(a, b).coupling, trials=10000, rng=rng
        )
        assert res.violations == 0

    def test_swapped_plan_detected(self):
        # anti-monotone plan on two distinct atoms: brute force over both plans
        source = np.array([[0.0], [1.0]])
        target = np.array([[0.0], [1.0]])
        coupling = ef.Coupling(
            rows=np.array([0, 1]),
            cols=np.array([1, 0]),
            masses=np.array([0.5, 0.5]),
            cost=1.0,
            source=source,
            target=target,
        )
        res = ef.cyclical_monotonicity_check(coupling, trials=200, rng=np.random.default_rng(0))
        assert res.violations >= 1

    def test_product_coupling_detected(self, rng):
        a, b = random_atomic(rng, n=6), random_atomic(rng, n=7, shift=1.0)
        rows, cols = np.meshgrid(np.arange(6), np.arange(7), indexing="ij")
        coupling = ef.Coupling(
            rows=rows.ravel(),
            cols=cols.ravel(),
            masses=np.outer(a.weights, b.weights).ravel(),
            cost=0.0,
            source=a.support,
            target=b.support,
        )
        res = ef.cyclical_monotonicity_check(coupling, trials=3000, rng=rng)
        assert res.violations > 0


class TestNormProjection:
    def test_scaled_identity_sequence(self):
        seq = [ef.NormSpec.scaled_identity(1.0 + 1.0 / n, 2) for n in range(1, 40)]
        h = np.array([1.0, 0.0])
        for n in (0, 5, 20):
            assert seq[n].norm(h) == pytest.approx(
                math.sqrt(1.0 + 1.0 / (n + 1))
            )
        assert abs(seq[38].norm(h) - 1.0) < 0.02

    def test_norm_equivalence_on_transport(self, rng):
        spec = ef.NormSpec.from_matrix([[2.5]])
        for _ in range(10):
            a, b = random_atomic(rng, n=12), random_atomic(rng, n=9)
            base = ef.w2(a, b)
            weighted = ef.w2(a, b, spec)
            assert weighted <= spec.kappa * base + 1e-9
            assert weighted >= base / spec.kappa - 1e-9


class TestQuantileKnotMetric:
    def test_matches_atomic_for_atoms(self, rng):
        a, b = random_atomic(rng, n=40), random_atomic(rng, n=31)
        d1 = ef.w2(a, b)
        d2 = w2_quantile_knots(
            atomic_quantile_knots(a.x, a.weights), atomic_quantile_knots(b.x, b.weights)
        )
        assert d1 == pytest.approx(d2, abs=1e-10)

    def test_gaussian_uniform_closed_form(self):
        # int_0^1 (u - z(u))^2 du = 1/3 + 1 - 2/(2 sqrt(pi)) ... exact value
        expected = math.sqrt(1.0 / 3.0 + 1.0 - 1.0 / math.sqrt(math.pi))
        knots = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert w2_knots_to_gaussian(knots, 0.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_gaussian_vs_quadrature(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 30))
            levels = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n)]))
            pos = np.sort(rng.normal(size=len(levels)))
            got = w2_knots_to_gaussian((levels, pos), 0.3, 1.2)

            def integrand(u):
                q = np.interp(u, levels, pos)
                return (q - 0.3 - 1.2 * norm.ppf(u)) ** 2

            # the knot levels are the integrand's kinks: break the quadrature there
            ref, _ = integrate.quad(integrand, 1e-12, 1 - 1e-12, points=levels[1:-1], limit=200)
            assert got**2 == pytest.approx(ref, rel=1e-6, abs=1e-9)

    def test_histogram_self_distance(self, gaussian_ref):
        edges = np.concatenate(
            [
                gaussian_ref.grid - gaussian_ref.cell_width / 2,
                [gaussian_ref.grid[-1] + gaussian_ref.cell_width / 2],
            ]
        )
        k = histogram_quantile_knots(edges, gaussian_ref.weights)
        assert w2_quantile_knots(k, k) == 0.0
