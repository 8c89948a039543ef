import math

import numpy as np
import pytest
from scipy import integrate

import entroflow as ef
import entroflow.dirichlet as dr
import entroflow.stability as st


class TestDirichletEnergy:
    def test_constant_is_zero(self, gaussian_ref):
        assert dr.dirichlet_energy(np.ones(gaussian_ref.n), gaussian_ref) == 0.0

    def test_identity_function(self, gaussian_ref):
        assert dr.dirichlet_energy(lambda x: x, gaussian_ref) == pytest.approx(1.0, abs=1e-3)

    def test_sine_vs_quadrature(self, gaussian_ref):
        got = dr.dirichlet_energy(np.sin(gaussian_ref.grid), gaussian_ref)
        ref, _ = integrate.quad(
            lambda x: math.cos(x) ** 2 * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -8,
            8,
        )
        assert got == pytest.approx(ref, abs=1e-3)

    def test_quadratic_scaling(self, gaussian_ref, rng):
        u = rng.normal(size=gaussian_ref.n)
        base = dr.dirichlet_energy(u, gaussian_ref)
        assert dr.dirichlet_energy(3.0 * u, gaussian_ref) == pytest.approx(9.0 * base, rel=1e-12)

    def test_markov_bound(self, uniform_ref, rng):
        # sqrt(E(u)) <= discrete Lipschitz constant, piecewise-linear draws
        for _ in range(500):
            knots = np.sort(rng.uniform(0, 1, size=5))
            vals = rng.uniform(-1, 1, size=5)
            u = np.interp(uniform_ref.grid, knots, vals)
            energy = dr.dirichlet_energy(u, uniform_ref)
            lip = dr.discrete_lipschitz(u, uniform_ref)
            assert math.sqrt(max(energy, 0.0)) <= lip + 1e-12


class TestSlopeCharacterization:
    def test_constant_function_zero_slope(self, gaussian_ref, rng):
        res = dr.slope_variational_check(
            np.ones(gaussian_ref.n), gaussian_ref, probe_count=20, rng=rng
        )
        assert res.energy == pytest.approx(0.0, abs=1e-15)
        assert res.inequality_violations == 0

    def test_exponential_tilt(self, gaussian_ref, rng):
        res = dr.slope_variational_check(
            np.exp(gaussian_ref.grid / 4.0), gaussian_ref, probe_count=200, rng=rng
        )
        # E(u) for u ~ exp(x/4) normalized: grad ln u = 1/4, E = 1/16
        assert res.energy == pytest.approx(1.0 / 16.0, abs=1e-4)
        assert res.inequality_violations == 0
        assert res.sharpness_ratio >= 0.9
        assert res.report.passed, str(res.report)

    def test_probe_at_target_is_equality(self, gaussian_ref, rng):
        vals = np.exp(gaussian_ref.grid / 4.0)
        sup = gaussian_ref.support_indices()
        norm = math.sqrt(float(np.dot(gaussian_ref.weights[sup], vals[sup] ** 2)))
        vals = vals / norm
        w = np.zeros(gaussian_ref.n)
        w[sup] = gaussian_ref.weights[sup] * vals[sup] ** 2
        target = ef.grid_measure(gaussian_ref, w)
        h = ef.relative_entropy(target, gaussian_ref)
        # at mu = u^2 gamma the inequality reads H >= H - 0
        assert h >= h - 1e-15

    def test_rejects_nonpositive(self, gaussian_ref):
        with pytest.raises(ValueError):
            dr.slope_variational_check(gaussian_ref.grid.copy(), gaussian_ref, probe_count=1)

    def test_catalog_sweep(self, gaussian_ref, rng):
        catalog = [
            np.exp(gaussian_ref.grid / 4.0),
            1.0 + 0.2 * np.sin(gaussian_ref.grid),
            1.0 + 0.3 * np.tanh(gaussian_ref.grid),
            np.exp(-0.1 * gaussian_ref.grid**2) + 0.5,
            2.0 + np.clip(gaussian_ref.grid, -1.0, 1.0) * 0.4,
        ]
        for u in catalog:
            res = dr.slope_variational_check(u, gaussian_ref, probe_count=40, rng=rng)
            assert res.inequality_violations == 0
            assert res.sharpness_ratio >= 0.9


class TestBoundaryMeasure:
    def test_gaussian_density_and_tv(self):
        sigma = dr.boundary_measure_1d(ef.quadratic(1.0))
        assert sigma.total_variation == pytest.approx(2.0, abs=1e-6)
        # density x e^{-x^2/2} at a probe point (cell-average accuracy)
        i = np.argmin(np.abs(sigma.centers - 1.0))
        x = sigma.centers[i]
        assert sigma.density[i] == pytest.approx(x * math.exp(-0.5 * x * x), abs=1e-4)
        assert not sigma.atoms

    def test_integrate_calls_f_once_per_atom(self):
        sigma = dr.boundary_measure_1d(ef.box(-1.0, 1.5, ef.quadratic(1.0)))
        assert len(sigma.atoms) == 2
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return np.sin(x)

        got = sigma.integrate(f)
        assert calls == [sigma.centers.shape] + [(1,)] * len(sigma.atoms)
        want = np.dot(np.sin(sigma.centers) * sigma.widths, sigma.density)
        want += sum(mass * math.sin(loc) for loc, mass in sigma.atoms)
        assert got == pytest.approx(want, rel=1e-14)

    def test_shifted_abs(self):
        sigma = dr.boundary_measure_1d(ef.abs_potential(1.0, 1.0))
        assert sigma.total_variation == pytest.approx(2.0 * math.exp(-1.0), abs=1e-9)
        # piecewise integration oracle: total variation = int |sign| e^{-|x|-1}
        ref = 2.0 * integrate.quad(lambda x: math.exp(-x - 1.0), 0, 60)[0]
        assert sigma.total_variation == pytest.approx(ref, abs=1e-7)

    def test_box_atoms(self):
        sigma = dr.boundary_measure_1d(ef.box(0.0, 1.0))
        assert sigma.total_variation == pytest.approx(2.0, abs=1e-12)
        assert sorted(m for _, m in sigma.atoms) == [pytest.approx(-1.0), pytest.approx(1.0)]
        assert np.abs(sigma.density).max() < 1e-14

    def test_catalog_tv_identity(self):
        pots = [
            ef.quadratic(1.0),
            ef.quadratic(2.5, 0.7),
            ef.quartic(1.0, 1.0),
            ef.abs_potential(1.0, 1.0),
            ef.box(0.0, 1.0),
            ef.box(-1.0, 2.0, ef.quadratic(1.0)),
            ef.affine_max([(-1.0, 0.0), (1.0, 0.0), (2.0, -3.0)]),
        ]
        for pot in pots:
            sigma = dr.boundary_measure_1d(pot)
            expected = 2.0 * math.exp(-pot.min_value())
            assert sigma.total_variation == pytest.approx(expected, abs=1e-6), pot.kind

    def test_grid_tv_identity_internal(self):
        sigma = dr.boundary_measure_1d(ef.quartic(1.0, 0.5))
        recomputed = float(np.dot(np.abs(sigma.density), sigma.widths)) + sum(
            abs(m) for _, m in sigma.atoms
        )
        assert sigma.total_variation == pytest.approx(recomputed, abs=1e-12)


class TestIntegrationByParts:
    def test_constant_function(self):
        res = dr.integration_by_parts_check(
            ef.quadratic(1.0),
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        assert abs(res.lhs) < 1e-12
        assert abs(res.rhs) < 1e-12

    def test_sine_against_quadratic(self):
        res = dr.integration_by_parts_check(ef.quadratic(1.0), np.sin, np.cos)
        assert res.gap <= 1e-6 * max(1.0, abs(res.lhs))

    def test_box_fundamental_theorem(self):
        res = dr.integration_by_parts_check(
            ef.box(0.0, 1.0),
            lambda x: np.asarray(x, dtype=float) ** 2,
            lambda x: 2.0 * np.asarray(x, dtype=float),
        )
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.rhs == pytest.approx(1.0, abs=1e-12)

    def test_numeric_derivative_fallback(self):
        res = dr.integration_by_parts_check(ef.quadratic(1.0), np.sin)
        assert res.gap <= 1e-6 * max(1.0, abs(res.lhs))

    def test_kinked_potential(self):
        res = dr.integration_by_parts_check(ef.abs_potential(1.0), np.sin, np.cos)
        assert res.gap <= 1e-6 * max(1.0, abs(res.lhs), abs(res.rhs))


    @pytest.mark.parametrize(
        "potential",
        [
            ef.quadratic(1.0),
            ef.quartic(1.0, 0.5),
            ef.abs_potential(2.0),
            ef.affine_max([[-3.0, 0.0], [1.5, 0.0], [6.0, -3.0]]),
            ef.tabulated(np.linspace(-3.0, 3.0, 41), 0.5 * np.linspace(-3.0, 3.0, 41) ** 2),
            ef.box(0.0, 1.0),
            ef.box(-1.0, 1.5, ef.abs_potential(2.0)),
        ],
        ids=["quadratic", "quartic", "abs", "affine_max", "tabulated", "box", "box-abs"],
    )
    def test_catalog_gap(self, potential):
        # Simpson's end nodes sit on kinks, where each segment needs its own one-sided U'
        res = dr.integration_by_parts_check(potential, lambda x: np.sin(np.asarray(x) + 0.3))
        assert res.gap < 1e-6

class TestBoundaryConvergence:
    def test_affine_envelope_sequence(self):
        base = ef.quadratic(1.0)
        pots = [
            st.affine_envelope_potential(base, st._envelope_tangency_points(base, n))
            for n in (4, 16, 64)
        ]
        report = dr.boundary_convergence_check(pots, base)
        assert report.passed, str(report)
        # TV formula applies per member: 2 exp(-min V_n) -> 2
        tvs = [dr.boundary_measure_1d(p).total_variation for p in pots]
        for pot, tv in zip(pots, tvs):
            assert tv == pytest.approx(2.0 * math.exp(-pot.min_value()), abs=1e-6)
        assert tvs[-1] == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("inner", [None, ef.quadratic(1.0)], ids=["bare", "quadratic"])
    def test_shrinking_boxes(self, inner):
        # the walls give every boundary measure two atoms
        pots = [ef.box(-1.0 - 1.0 / n, 1.0 + 1.0 / n, inner) for n in (16, 64, 256)]
        report = dr.boundary_convergence_check(pots, ef.box(-1.0, 1.0, inner))
        assert report.passed, str(report)
        weak = next(item for item in report.items if item.check_id == "weak_convergence")
        assert 0.0 < weak.value < 0.005

    def test_coarse_boxes_miss_weak_convergence(self):
        # the last member's walls sit 1/64 out: its atoms still weigh against the limit's
        pots = [ef.box(-1.0 - 1.0 / n, 1.0 + 1.0 / n) for n in (4, 16, 64)]
        report = dr.boundary_convergence_check(pots, ef.box(-1.0, 1.0))
        assert [item.check_id for item in report.failures()] == ["weak_convergence"]

    def test_constant_sequence(self):
        base = ef.quadratic(1.0)
        report = dr.boundary_convergence_check([base, base], base)
        for item in report.items:
            if item.check_id in ("weak_convergence", "tv_convergence"):
                assert item.value < 1e-12
        assert report.passed

    def test_mollified_abs_tv_limit(self):
        # smoothing keeps the minimum near zero: TV_n -> 2 e^0
        pots = [st.mollified_potential(ef.abs_potential(1.0), 0.5 / n) for n in (4, 16, 64)]
        tvs = [dr.boundary_measure_1d(p).total_variation for p in pots]
        mins = [p.min_value() for p in pots]
        assert mins[-1] == pytest.approx(0.0, abs=2e-2)
        assert tvs[-1] == pytest.approx(2.0, abs=5e-2)
        assert abs(tvs[-1] - 2.0) < abs(tvs[0] - 2.0)
