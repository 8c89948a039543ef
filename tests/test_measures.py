import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

import entroflow as ef
from conftest import random_grid_measure
from entroflow.measures import POTENTIAL_KINDS


class TestPotentialCatalog:
    def test_quadratic_is_gaussian_density(self, gaussian_ref):
        # weights proportional to the standard normal density
        dens = norm.pdf(gaussian_ref.grid)
        ratio = gaussian_ref.weights / (dens / dens.sum())
        assert np.abs(ratio - 1.0).max() < 1e-12

    def test_box_uniform_weights(self):
        gam = ef.discretize_reference(ef.box(0.0, 1.0), 200, (0.0, 1.0))
        assert np.allclose(gam.weights, 1.0 / 200.0, atol=1e-15)

    def test_quartic_partition_vs_quadrature(self, quartic_ref):
        # independent oracle: adaptive quadrature of exp(-x^4/4 - x^2/2)
        z, _ = integrate.quad(lambda x: math.exp(-0.25 * x**4 - 0.5 * x**2), -10, 10)
        assert abs(quartic_ref.log_partition - math.log(z)) < 1e-6

    def test_log_partition_stable_under_refinement(self):
        # midpoint sums of smooth decaying densities are spectrally accurate;
        # kinked potentials only converge at second order in the cell width
        for pot in (ef.quadratic(1.0), ef.quartic(1.0, 1.0)):
            bounds = ef.suggested_bounds(pot)
            a = ef.discretize_reference(pot, 400, bounds).log_partition
            b = ef.discretize_reference(pot, 800, bounds).log_partition
            assert abs(a - b) < 1e-6
        pot = ef.abs_potential(1.0)
        bounds = ef.suggested_bounds(pot)
        h = (bounds[1] - bounds[0]) / 400
        a = ef.discretize_reference(pot, 400, bounds).log_partition
        b = ef.discretize_reference(pot, 800, bounds).log_partition
        z_exact = math.log(2.0)  # int exp(-|x|) = 2
        assert abs(a - b) < h * h
        assert abs(b - z_exact) < h * h

    def test_normalization(self):
        for pot, bounds in [
            (ef.quadratic(2.0, 0.5), (-6, 7)),
            (ef.quartic(1.0, 0.0), (-4.5, 4.5)),
            (ef.abs_potential(0.7), (-60, 60)),
            (ef.box(-1.0, 2.0, ef.quadratic(1.0)), (-1.0, 2.0)),
        ]:
            gam = ef.discretize_reference(pot, 300, bounds)
            assert abs(gam.weights.sum() - 1.0) < 1e-12

    def test_catalog_log_concavity(self):
        pots = [
            (ef.quadratic(1.0), (-8, 8)),
            (ef.quartic(1.0, 1.0), (-4.5, 4.5)),
            (ef.abs_potential(1.0), (-50, 50)),
            (ef.box(0.0, 1.0), (0.0, 1.0)),
            (ef.affine_max([(-1.0, 0.0), (1.0, 0.0), (2.0, -3.0)]), (-50, 30)),
        ]
        for pot, bounds in pots:
            gam = ef.discretize_reference(pot, 400, bounds)
            assert ef.discrete_log_concavity_ok(gam), pot.kind

    def test_log_concavity_needs_a_contiguous_support(self):
        gamma = ef.discretize_reference(ef.quadratic(1.0), 40, (-8.0, 8.0))
        w = np.array(gamma.weights)
        w[20] = 0.0
        assert not ef.discrete_log_concavity_ok(dataclasses.replace(gamma, weights=w / w.sum()))
        # two cells have no midpoint to test
        assert ef.discrete_log_concavity_ok(ef.discretize_reference(ef.box(0.0, 1.0), 2, (0.0, 1.0)))

    def test_tabulated_requires_convexity(self):
        xs = np.linspace(-1, 1, 21)
        with pytest.raises(ValueError):
            ef.tabulated(xs, -np.abs(xs))
        pot = ef.tabulated(xs, xs**2)
        assert pot.value(np.array([0.35]))[0] == pytest.approx(0.35**2, abs=5e-3)

    def test_non_integrable_rejected(self):
        flat = ef.affine_max.__wrapped__ if hasattr(ef.affine_max, "__wrapped__") else None
        with pytest.raises(ValueError):
            ef.affine_max([(0.0, 0.0), (1.0, -1.0)])  # flat left tail
        with pytest.raises(ValueError):
            ef.discretize_reference(ef.quadratic(1.0), 400, (-2.0, 8.0))  # fat tail cut

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            ef.discretize_reference(ef.box(10.0, 11.0), 100, (0.0, 1.0))

    def test_box_domain_meets_inner_domain(self):
        inner = ef.box(-0.5, 1.0)
        pot = ef.box(-1.0, 1.5, inner)
        assert pot.finite_interval() == (-0.5, 1.0)
        assert ef.box(-1.0, 1.5, ef.box(1.0, 4.0, ef.quadratic(1.0, 3.0))).argmin() == 1.5
        xs = np.array([-2.0, -0.7, 0.2, 1.2, 3.0])
        assert np.array_equal(pot.antiderivative(xs), np.zeros(5))
        tab = ef.tabulated(np.linspace(0.0, 2.0, 21), np.linspace(0.0, 2.0, 21) ** 2)
        assert np.array_equal(
            ef.box(-1.0, 1.5, tab).antiderivative(xs), tab.antiderivative(np.clip(xs, 0.0, 1.5))
        )
        gam = ef.discretize_reference(pot, 100, pot.finite_interval())
        assert np.isfinite(pot.cell_integrals(np.linspace(-0.5, 1.0, 101))).all()
        assert abs(gam.weights.sum() - 1.0) < 1e-12
        with pytest.raises(ValueError, match="inner"):
            ef.box(-1.0, 0.0, ef.box(0.5, 1.0))

    def test_antiderivatives_match_quadrature(self):
        pots = [
            ef.quadratic(1.3, 0.4),
            ef.quartic(0.8, 0.5),
            ef.abs_potential(1.2, 0.3),
            ef.affine_max([(-2.0, 0.1), (0.5, 0.0), (3.0, -2.0)]),
            # lines that are never on top
            ef.affine_max([(-1.0, 0.0), (0.0, -5.0), (1.0, 0.0)]),
            ef.affine_max([(-2.0, 0.0), (-1.0, -3.0), (0.0, -10.0), (1.0, -3.0), (2.0, 0.0)]),
            ef.tabulated(np.linspace(-3, 3, 40), np.linspace(-3, 3, 40) ** 2),
        ]
        for pot in pots:
            for a, b in [(-1.5, 0.3), (0.1, 2.2), (-2.5, 2.5)]:
                got = float(pot.cell_integrals([a, b])[0])
                pts = sorted({a, b, *pot.kinks().tolist()})
                ref = sum(
                    integrate.quad(
                        lambda x: float(pot.value(np.array([x]))[0]), lo, hi, limit=200
                    )[0]
                    for lo, hi in zip(pts, pts[1:])
                    if a <= lo < hi <= b
                )
                tol = 5e-6 if pot.kind == "tabulated" else 1e-8
                assert abs(got - ref) < tol * max(1.0, abs(ref)), pot.kind

    def test_descriptor_round_trip(self):
        # every catalog kind, plus a bare box and a box with a box inner
        pots = [
            ef.quadratic(2, -1),
            ef.quartic(1.0, 0.2),
            ef.abs_potential(0.5, 1.0),
            ef.box(0.0, 2.0, ef.quadratic(1.0)),
            ef.box(0, 1),
            ef.box(-1.0, 1.5, ef.box(-0.5, 1.0)),
            ef.affine_max([(2.0, -1.0), (-1.0, 0.0), (0.5, 0.1)]),
            ef.tabulated(np.linspace(-3.0, 3.0, 13), np.linspace(-3.0, 3.0, 13) ** 2 / 3.0),
        ]
        assert {pot.kind for pot in pots} == set(POTENTIAL_KINDS)
        xs = np.linspace(-0.5, 1.5, 11)
        for pot in pots:
            desc = pot.descriptor()
            clone = ef.potential_from_descriptor(json.loads(json.dumps(desc)))
            assert np.allclose(clone.value(xs), pot.value(xs), equal_nan=True)
            assert clone.descriptor() == desc
            assert json.dumps(clone.descriptor(), sort_keys=True) == json.dumps(desc, sort_keys=True)
        assert pots[0].descriptor() == {"kind": "quadratic", "a": 2.0, "m": -1.0}
        assert all(type(v) is float for v in pots[0].descriptor().values() if v != "quadratic")
        assert pots[4].descriptor() == {"kind": "box", "lo": 0.0, "hi": 1.0}  # no inner key
        assert pots[6].descriptor()["pieces"] == [[-1.0, 0.0], [0.5, 0.1], [2.0, -1.0]]  # slope order

    @pytest.mark.parametrize(
        "desc,message",
        [
            ({"kind": "cubic", "a": 1.0}, "unknown potential kind: 'cubic'"),
            ({"a": 1.0}, "unknown potential kind: None"),
            ({"kind": "quadratic", "m": 1.0}, "quadratic potential: missing field 'a'"),
            ({"kind": "box", "lo": 0.0}, "box potential: missing field 'hi'"),
            ({"kind": "box", "lo": 0.0, "hi": 1.0, "inner": {"kind": "abs"}}, "abs potential: missing field 'a'"),
            ({"kind": "tabulated", "xs": [0.0, 1.0, 2.0]}, "tabulated potential: missing field 'vals'"),
            ({"kind": "affine_max"}, "affine_max potential: missing field 'pieces'"),
        ],
        ids=["unknown-kind", "no-kind", "quadratic-a", "box-hi", "inner-abs-a", "tabulated-vals", "affine_max-pieces"],
    )
    def test_descriptor_reader_errors(self, desc, message):
        with pytest.raises(ValueError) as info:
            ef.potential_from_descriptor(desc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: ef.QuadraticPotential(a=0.0), "quadratic potential needs a > 0"),
            (lambda: ef.QuarticPotential(a=1.0, b=-4.0), "quartic potential needs a > 0, b >= 0"),
            (lambda: ef.QuarticPotential(a=-1.0), "quartic potential needs a > 0, b >= 0"),
            (lambda: ef.AbsPotential(a=-2.0, c=1.0), "abs potential needs a > 0"),
            (
                lambda: ef.TabulatedPotential(xs=np.arange(3.0), vals=np.zeros(2)),
                "tabulated potential needs >= 3 aligned samples",
            ),
            (
                lambda: ef.TabulatedPotential(xs=np.array([0.0, 2.0, 1.0]), vals=np.zeros(3)),
                "tabulated grid must be strictly increasing",
            ),
        ],
        ids=["quadratic-a", "quartic-b", "quartic-a", "abs-a", "tabulated-shape", "tabulated-order"],
    )
    def test_classes_validate_their_parameters(self, build, message):
        # the classes themselves, not only the factories, reject a non-convex or malformed V
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_smooth_drift_is_derivative(self):
        pots = [
            ef.quadratic(1.3, 0.4),
            ef.quartic(0.8, 0.5),
            ef.box(-1.0, 2.0),
            ef.box(-1.0, 2.0, ef.quadratic(2.0, 0.5)),
        ]
        # box walls and points outside the box included
        xs = np.concatenate([np.linspace(-3.0, 4.0, 141), [-1.0, 0.0, 0.4, 0.5, 2.0]])
        for pot in pots:
            assert pot.is_smooth()
            assert np.array_equal(pot.drift(xs), pot.derivative(xs), equal_nan=True), pot.descriptor()


class TestEntropy:
    def test_reference_entropy_zero(self, gaussian_ref):
        assert ef.relative_entropy(gaussian_ref.as_measure(), gaussian_ref) == 0.0

    def test_mass_off_support_is_infinite(self, uniform_ref):
        mu = ef.DiscreteMeasure.from_atoms([0.5, 3.0], [0.5, 0.5])
        assert math.isinf(ef.relative_entropy(mu, uniform_ref))
        # a grid cell where gamma vanishes: the padded grid has cells outside the box
        gamma = ef.discretize_reference(ef.box(0.0, 1.0), 60, (-0.5, 1.5))
        assert math.isinf(ef.relative_entropy(ef.DiscreteMeasure.from_atoms([gamma.grid[0]], [1.0]), gamma))

    def test_never_negative_next_to_the_reference(self, gaussian_ref, rng):
        # a relative change of 1e-9 leaves a true value near 1e-18, below the sum's rounding
        for _ in range(50):
            w = gaussian_ref.weights * (1.0 + 1e-9 * rng.standard_normal(gaussian_ref.n))
            assert ef.relative_entropy(ef.grid_measure(gaussian_ref, w), gaussian_ref) >= 0.0

    def test_gaussian_closed_form(self, gaussian_ref):
        # H(N(0.5, 0.25) | N(0,1)) = (s^2 + m^2 - 1 - ln s^2) / 2
        mu = ef.gaussian_on_grid(gaussian_ref, 0.5, 0.5)
        expected = 0.5 * (0.25 + 0.25 - 1.0 - math.log(0.25))
        assert ef.relative_entropy(mu, gaussian_ref) == pytest.approx(expected, abs=2e-4)

    def test_entropy_nonnegative_and_zero_iff_equal(self, gaussian_ref, rng):
        for _ in range(50):
            mu = random_grid_measure(gaussian_ref, rng)
            h = ef.relative_entropy(mu, gaussian_ref)
            assert h >= 0.0
            assert h > 1e-6  # distinct from gamma
        assert ef.relative_entropy(gaussian_ref.as_measure(), gaussian_ref) == 0.0

    def test_atoms_sharing_a_cell_are_its_one_atom_twin(self):
        # two distinct atoms within locate's tolerance of cell 30 charge it with their summed mass
        from entroflow.stability import _density_vs_limit

        gamma = ef.discretize_reference(ef.quadratic(1.0), 60, (-8.0, 8.0))
        x = float(gamma.grid[30])
        shared = ef.DiscreteMeasure.from_atoms([x, x + 1e-12], [0.5, 0.5])
        twin = ef.dirac_on_grid(gamma, x)
        assert len(shared.x) == 2 and len(twin.x) == 1
        h = ef.relative_entropy(twin, gamma)
        assert h == pytest.approx(-math.log(gamma.weights[30]), rel=1e-12)
        assert ef.relative_entropy(shared, gamma) == h
        assert ef.entropy_set_bound_check(shared, gamma, [30]) == ef.entropy_set_bound_check(twin, gamma, [30])
        s = np.sin(gamma.grid)
        assert ef.entropy_duality_bound(shared, gamma, s) == ef.entropy_duality_bound(twin, gamma, s)
        assert np.array_equal(_density_vs_limit(shared, gamma, 30.0)[1], _density_vs_limit(twin, gamma, 30.0)[1])


class TestDualityBound:
    def test_zero_witness(self, gaussian_ref, rng):
        mu = random_grid_measure(gaussian_ref, rng)
        val = ef.entropy_duality_bound(mu, gaussian_ref, np.zeros(gaussian_ref.n))
        assert val == pytest.approx(0.0, abs=1e-14)
        assert val <= ef.relative_entropy(mu, gaussian_ref)

    def test_optimal_witness_attains(self, gaussian_ref):
        mu = ef.gaussian_on_grid(gaussian_ref, 0.5, 0.5)
        h = ef.relative_entropy(mu, gaussian_ref)
        idx = gaussian_ref.locate(mu.x)
        s = np.full(gaussian_ref.n, -30.0)
        s[idx] = np.clip(
            np.log(mu.weights) - np.log(gaussian_ref.weights[idx]), -30.0, 30.0
        )
        val = ef.entropy_duality_bound(mu, gaussian_ref, s)
        assert val <= h + 1e-12
        assert abs(val - h) < 1e-3

    def test_random_witnesses_never_exceed(self, gaussian_ref, rng):
        mu = random_grid_measure(gaussian_ref, rng)
        h = ef.relative_entropy(mu, gaussian_ref)
        for _ in range(1000):
            s = rng.uniform(-3.0, 3.0) * np.sin(
                rng.uniform(0.2, 3.0) * gaussian_ref.grid + rng.uniform(0, 6.3)
            )
            assert ef.entropy_duality_bound(mu, gaussian_ref, s) <= h + 1e-10


class TestSecondMoment:
    def test_dirac_at_origin(self):
        mu = ef.DiscreteMeasure.from_atoms([0.0], [1.0])
        assert ef.second_moment(mu) == 0.0

    def test_standard_gaussian(self, gaussian_ref):
        mu = ef.gaussian_on_grid(gaussian_ref, 0.0, 1.0)
        assert ef.second_moment(mu) == pytest.approx(1.0, abs=1e-4)


class TestSetBound:
    def test_full_grid(self, gaussian_ref, rng):
        nu = random_grid_measure(gaussian_ref, rng)
        res = ef.entropy_set_bound_check(nu, gaussian_ref, np.arange(gaussian_ref.n))
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.holds

    def test_reference_itself(self, gaussian_ref):
        res = ef.entropy_set_bound_check(
            gaussian_ref.as_measure(), gaussian_ref, np.arange(100, 300)
        )
        assert res.lhs <= res.rhs
        assert res.holds

    def test_half_line(self, gaussian_ref):
        nu = ef.gaussian_on_grid(gaussian_ref, 0.5, 0.5)
        e_set = np.flatnonzero(gaussian_ref.grid >= 0.0)
        res = ef.entropy_set_bound_check(nu, gaussian_ref, e_set)
        # direct evaluation oracle
        idx = gaussian_ref.locate(nu.x)
        mask = np.isin(idx, e_set)
        nu_e = nu.weights[mask].sum()
        gam_e = gaussian_ref.weights[e_set].sum()
        assert res.lhs == pytest.approx(nu_e * math.log(nu_e / gam_e), rel=1e-12)
        assert res.holds

    def test_sets_nu_misses_or_gamma_misses(self):
        gamma = ef.discretize_reference(ef.box(0.0, 1.0), 60, (-0.5, 1.5))
        outside = np.flatnonzero(gamma.weights == 0.0)
        # nu(E) = 0: the left side is 0
        res = ef.entropy_set_bound_check(gamma.as_measure(), gamma, outside)
        assert (res.lhs, res.holds) == (0.0, True)
        # nu charges E where gamma vanishes: both sides are infinite, and the bound holds
        spread = ef.grid_measure(gamma, np.ones(gamma.n))
        res = ef.entropy_set_bound_check(spread, gamma, outside)
        assert math.isinf(res.lhs) and math.isinf(res.rhs) and res.holds
        # an atom off the grid: H is infinite and nu(E) counts as 0
        res = ef.entropy_set_bound_check(ef.DiscreteMeasure.from_atoms([0.5], [1.0]), gamma, np.arange(gamma.n))
        assert res.lhs == 0.0 and math.isinf(res.rhs) and res.holds

    def test_random_pairs(self, gaussian_ref, rng):
        for _ in range(500):
            nu = random_grid_measure(gaussian_ref, rng)
            size = int(rng.integers(1, gaussian_ref.n))
            e_set = rng.choice(gaussian_ref.n, size=size, replace=False)
            assert ef.entropy_set_bound_check(nu, gaussian_ref, e_set).holds


class TestGridProjection:
    def test_bin_preserves_mass_and_mean(self, gaussian_ref, rng):
        pts = rng.uniform(-3, 3, size=50)
        masses = rng.dirichlet(np.ones(50))
        w = ef.bin_to_grid(pts, masses, gaussian_ref.grid)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # linear splitting preserves the first moment exactly for interior atoms
        assert np.dot(w, gaussian_ref.grid) == pytest.approx(np.dot(masses, pts), abs=1e-12)

    def test_rebin_identity_on_grid(self, gaussian_ref):
        mu = ef.gaussian_on_grid(gaussian_ref, 0.3, 0.7)
        reb = ef.rebin_measure(mu, gaussian_ref)
        assert np.allclose(reb.x, mu.x)
        assert np.allclose(reb.weights, mu.weights, atol=1e-15)


class TestDiscreteMeasure:
    def test_merges_duplicates(self):
        mu = ef.DiscreteMeasure.from_atoms([0.0, 0.0, 1.0], [0.25, 0.25, 0.5])
        assert mu.n == 2
        assert mu.weights[0] == pytest.approx(0.5)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ef.DiscreteMeasure.from_atoms([0.0, 1.0], [0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ef.DiscreteMeasure.from_atoms([0.0, 1.0], [1.5, -0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_weights(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            ef.DiscreteMeasure.from_atoms([0.0, 1.0], [bad, 1.0])

    @pytest.mark.parametrize("points,weights", [([[0.5, 0.0]], [1.0]), ([[0.0], [1.0]], [0.5, 0.5]), (0.5, [1.0])])
    def test_rejects_points_that_are_not_flat(self, points, weights):
        # atoms live on the line: a planar cloud, a column or a scalar is not a list of coordinates
        with pytest.raises(ValueError, match="flat array"):
            ef.DiscreteMeasure.from_atoms(points, weights)


class TestGaussianOnGrid:
    @pytest.mark.parametrize("mean,std", [(0.0, 1e-300), (1e300, 1.0)])
    def test_no_representable_mass(self, gaussian_ref, mean, std):
        # every cell's z^2 overflows: a clean error, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no representable mass"):
                ef.gaussian_on_grid(gaussian_ref, mean, std)

    def test_narrow_law_on_a_cell_centre(self, gaussian_ref):
        # the cells around the one at the mean overflow to zero weight
        x = float(gaussian_ref.grid[37])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = ef.gaussian_on_grid(gaussian_ref, x, 1e-300)
        assert mu.n == 1 and mu.x[0] == x
