import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
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
from conftest import PROPERTY, random_atomic, random_grid_measure


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

    def test_size_guard(self):
        big = ef.DiscreteMeasure.from_atoms(
            np.arange(4000, dtype=float), np.full(4000, 1.0 / 4000)
        )
        with pytest.raises(ValueError):
            ef.w2_lp(big, big)


@st.composite
def atomic_pairs(draw):
    """Two atomic measures of 1-40 atoms with weights down to 1e-12; atoms may coincide or be shared."""
    shared = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=10))
    point = st.one_of(st.sampled_from(shared), st.floats(-5.0, 5.0))
    weight = st.one_of(st.just(1e-12), st.floats(1e-12, 1.0))

    def measure():
        n = draw(st.integers(1, 40))
        w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
        return ef.DiscreteMeasure.from_atoms(draw(st.lists(point, min_size=n, max_size=n)), w / w.sum())

    return measure(), measure()


class TestTransportProperties:
    @PROPERTY
    @given(pair=atomic_pairs())
    def test_quantile_plan_keeps_the_marginals(self, pair):
        a, b = pair
        assert ef.w2_exact_1d(a, b).coupling.marginal_violation(a.weights, b.weights) <= 1e-12

    # a failing example is not shrunk: shrinking LPs takes minutes
    @settings(PROPERTY, phases=[Phase.generate])
    @given(pair=atomic_pairs())
    def test_lp_matches_the_quantile_plan(self, pair):
        a, b = pair
        exact, lp = ef.w2_exact_1d(a, b), ef.w2_lp(a, b)
        assert abs(exact.distance - lp.distance) <= 1e-8
        assert lp.coupling.marginal_violation(a.weights, b.weights) <= 1e-12

    @PROPERTY
    @given(pair=atomic_pairs(), t=st.floats(0.0, 1.0))
    def test_interpolation_lies_on_the_geodesic(self, pair, t):
        a, b = pair
        # on squares: near 0 the square root blows rounding of the ladder's masses (1e-16) up to 1e-8
        d_t, d = ef.w2(a, ef.displacement_interpolate(a, b, t)), ef.w2(a, b)
        assert abs(d_t**2 - (t * d) ** 2) <= 1e-12 * (1.0 + d**2)


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


def _assert_certifies(a, b):
    """The quantile plan of (a, b) certifies, and the anti-monotone plan only where it is optimal.

    The quantile plan against b mirrored, read on b itself, is the anti-monotone plan: tight on
    its own cells with no gap, so only the dual check over every cell can refute it. By weak
    duality a certificate within 1e-12 bounds its cost by the optimum plus twice that, relative
    to the largest cost.
    """
    plan = ef.w2_exact_1d(a, b).coupling
    assert max(ef.optimality_certificate(plan, a.weights, b.weights)) <= 1e-12
    mirrored = ef.DiscreteMeasure.from_atoms(-b.x, b.weights)
    plan = ef.w2_exact_1d(a, mirrored).coupling
    anti = ef.Coupling(rows=plan.rows, cols=plan.cols, masses=plan.masses, source=a.x, target=-mirrored.x)
    scale = float(np.max((a.x[:, None] - b.x[None, :]) ** 2)) or 1.0
    cost = float(np.dot(plan.masses, (a.x[plan.rows] + mirrored.x[plan.cols]) ** 2))
    if max(ef.optimality_certificate(anti, a.weights, mirrored.weights)) <= 1e-12:
        assert cost <= ef.w2(a, b) ** 2 + 3e-12 * scale


class TestOptimalityCertificate:
    def test_quantile_plan_certifies(self, rng):
        _assert_certifies(random_atomic(rng, n=30), random_atomic(rng, n=35))

    @pytest.mark.parametrize(
        "points,weights",
        [([0.0, 1.0], [1.0 - 1e-12, 1e-12]), ([0.0, 1.0, 2.0], [2e-11, 2e-12, 1.0])],
        ids=["lp_reads_zero", "lp_moves_a_tiny_atom"],
    )
    def test_tiny_atoms_certify(self, points, weights):
        # pairs on which HiGHS at its default feasibility tolerance lost an atom's mass
        a = ef.DiscreteMeasure.from_atoms([0.0], [1.0])
        _assert_certifies(a, ef.DiscreteMeasure.from_atoms(points, np.array(weights) / sum(weights)))

    def test_skipped_atom_certifies(self):
        # the middle source atom lies below the cumulative float resolution: the staircase
        # skips it, and its potential is its c-transform
        a = ef.DiscreteMeasure.from_atoms([0.0, 1.0, 2.0], [0.5, 1e-17, 0.5])
        b = ef.DiscreteMeasure.from_atoms([0.5, 1.5, 2.5], [0.25, 0.5, 0.25])
        assert 1 not in ef.w2_exact_1d(a, b).coupling.rows
        _assert_certifies(a, b)

    def test_swapped_plan_fails(self):
        # anti-monotone plan on two distinct atoms: cost 1 against the optimum 0
        coupling = ef.Coupling(
            rows=np.array([0, 1]),
            cols=np.array([1, 0]),
            masses=np.array([0.5, 0.5]),
            source=np.array([0.0, 1.0]),
            target=np.array([0.0, 1.0]),
        )
        marginal, dual, gap = ef.optimality_certificate(coupling, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert (marginal, dual, gap) == (0.0, 0.0, 1.0)

    def test_product_coupling_fails(self, rng):
        a, b = random_atomic(rng, n=6), random_atomic(rng, n=7, shift=1.0)
        rows, cols = np.meshgrid(np.arange(6), np.arange(7), indexing="ij")
        coupling = ef.Coupling(
            rows=rows.ravel(),
            cols=cols.ravel(),
            masses=np.outer(a.weights, b.weights).ravel(),
            source=a.x,
            target=b.x,
        )
        marginal, dual, gap = ef.optimality_certificate(coupling, a.weights, b.weights)
        assert marginal <= 1e-12 and dual <= 1e-12 and gap > 0.01

    def test_staircase_on_an_unsorted_support_fails(self):
        # the staircase plan on a source listed in descending order is anti-monotone: tight on
        # its own cells with no gap, so only the dual check over every cell refutes it
        coupling = ef.Coupling(
            rows=np.array([0, 1]),
            cols=np.array([0, 1]),
            masses=np.array([0.5, 0.5]),
            source=np.array([1.0, 0.0]),
            target=np.array([0.0, 1.0]),
        )
        marginal, dual, gap = ef.optimality_certificate(coupling, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert (marginal, dual, gap) == (0.0, 2.0, 0.0)

    @PROPERTY
    @given(pair=atomic_pairs())
    def test_quantile_plans_certify(self, pair):
        _assert_certifies(*pair)


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

    def test_knots_must_span_the_levels(self):
        # every knot builder starts at level 0 and ends at 1; anything else is rejected, not padded
        for u in ([0.2, 1.0], [0.0, 0.8]):
            with pytest.raises(ValueError, match="knots"):
                w2_knots_to_gaussian((np.array(u), np.array([0.0, 1.0])), 0.0, 1.0)
        late = (np.array([0.2, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="knots"):
            w2_quantile_knots(late, late)
