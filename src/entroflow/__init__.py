"""Entropy gradient flows in Wasserstein space over log-concave references.

The package builds discrete log-concave reference measures from a convex
potential catalog, runs the implicit Euler (proximal) scheme for the
relative entropy functional, and cross-validates the flow against
finite-difference Fokker-Planck solutions, closed-form kernels, and
simulated diffusion paths. Stability of the flow under convergence of the
references, Dirichlet-energy identities, and every quantitative estimate
the scheme satisfies are covered by dedicated checkers.

Exports load their module on first use: importing the package loads no numpy,
so the CLI can still set its default of one BLAS thread (see ``entroflow.cli``).
"""
import importlib

_EXPORTS = {  # module -> the names the package exports from it
    "measures": """AbsPotential AffineMaxPotential BoxPotential ConvexPotential DiscreteMeasure
        NormSpec QuadraticPotential QuarticPotential ReferenceMeasure TabulatedPotential
        abs_potential affine_max bin_to_grid box dirac_on_grid discrete_log_concavity_ok
        discretize_reference entropy_duality_bound entropy_set_bound_check gaussian_on_grid
        grid_measure potential_from_descriptor quadratic quartic rebin_measure
        relative_entropy second_moment suggested_bounds tabulated""".split(),
    "transport": """Coupling cyclical_monotonicity_check displacement_interpolate
        interpolate_from_base w2 w2_exact_1d w2_lp w2_lp_batch w2_sinkhorn""".split(),
    "jko": """FlowTrajectory JkoConfig JkoSolverError QuantileLattice UNIFORM_APPROX_CONSTANT
        dirac_transport_cost estimate_checks evi_residual_profile invariance_check
        jko_step_detailed jko_trajectory refine_trajectory transition_trajectory""".split(),
    "report": ["CheckItem", "CheckReport"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME.get(name, name)}", __name__)
    return module if name in _EXPORTS else getattr(module, name)
