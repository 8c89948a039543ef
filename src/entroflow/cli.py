"""Configuration-driven experiment runner.

Subcommands: flow, step, transition, fp, sde, stability, dirichlet,
check-all. Each consumes a JSON config, writes CSV artifacts plus a JSON
manifest into the output directory, and exits 0 on success, 1 on a failed
numerical check (naming the check id), or 2 on a config schema violation
(naming the field path).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

__all__ = ["main", "run", "ConfigError"]


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config field '{path}': {message}")
        self.field_path = path


def _get(cfg: dict, path: str, kind, default=None, required: bool = False):
    node = cfg
    parts = path.split(".")
    for p in parts[:-1]:
        node = node.get(p, {}) if isinstance(node, dict) else {}
    val = node.get(parts[-1], None) if isinstance(node, dict) else None
    if val is None:
        if required:
            raise ConfigError(path, "missing")
        return default
    if kind is float and isinstance(val, (int, float)):
        return float(val)
    if not isinstance(val, kind):
        raise ConfigError(path, f"expected {kind.__name__}")
    return val


def _positive(cfg: dict, path: str, default=None, required=False) -> float:
    val = _get(cfg, path, float, default, required)
    if val is not None and val <= 0:
        raise ConfigError(path, "must be positive")
    return val


def _build_reference(cfg: dict):
    from . import measures as ms

    desc = _get(cfg, "potential", dict, required=True)
    try:
        pot = ms.potential_from_descriptor(desc)
    except (KeyError, ValueError) as exc:
        raise ConfigError("potential", str(exc)) from exc
    n = _get(cfg, "grid.n", int, required=True)
    bounds = _get(cfg, "grid.bounds", list)
    if bounds is None:
        bounds = ms.suggested_bounds(pot)
    elif len(bounds) != 2:
        raise ConfigError("grid.bounds", "expected [lo, hi]")
    try:
        return ms.discretize_reference(pot, n, tuple(bounds))
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from exc


def _build_initial(cfg: dict, gamma):
    from . import measures as ms

    desc = _get(cfg, "initial", dict, default={"kind": "reference"})
    kind = desc.get("kind")
    if kind == "reference":
        return gamma.as_measure()
    if kind == "gaussian":
        return ms.gaussian_on_grid(gamma, float(desc["mean"]), float(desc["std"]))
    if kind == "dirac":
        return ms.dirac_on_grid(gamma, float(desc["x"]))
    raise ConfigError("initial.kind", f"unknown kind {kind!r}")


def _jko_config(cfg: dict):
    from .jko import JkoConfig

    tau = _positive(cfg, "jko.tau", required=True)
    inner_tol = _positive(cfg, "jko.inner_tol", default=1e-12)
    iters = _get(cfg, "jko.max_inner_iters", int, default=80)
    return JkoConfig(tau=tau, inner_tol=inner_tol, max_inner_iters=iters)


def _tolerances(cfg: dict, scale: float) -> dict:
    tols = _get(cfg, "tolerances", dict, default={})
    for key, val in tols.items():
        if not isinstance(val, (int, float)) or val <= 0:
            raise ConfigError(f"tolerances.{key}", "must be a positive number")
    return {k: float(v) * scale for k, v in tols.items()}


def _manifest_base(cfg: dict, seed: int | None) -> dict:
    from . import __version__

    return {
        "config": cfg,
        "version": __version__,
        "seed": seed,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _emit(outdir: Path, name: str, manifest: dict, report) -> int:
    from .serialize import write_manifest

    manifest["checks"] = report.to_dict()
    write_manifest(outdir / f"{name}_manifest.json", manifest)
    if not report.passed:
        failed = ", ".join(item.check_id for item in report.failures())
        print(f"FAILED checks: {failed}", file=sys.stderr)
        return 1
    print(f"ok: {name} -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_flow(cfg, outdir, seed, tol_scale):
    import numpy as np

    from .jko import UNIFORM_APPROX_CONSTANT, estimate_checks, jko_trajectory
    from .serialize import write_measure_csv, write_reference, write_trajectory_csv

    gamma = _build_reference(cfg)
    mu0 = _build_initial(cfg, gamma)
    jcfg = _jko_config(cfg)
    horizon = _positive(cfg, "horizon", required=True)
    traj = jko_trajectory(gamma, mu0, jcfg, horizon)

    write_reference(outdir / "reference", gamma)
    write_trajectory_csv(outdir / "trajectory.csv", traj)
    times = _get(cfg, "times", list, default=[horizon])
    for t in times:
        write_measure_csv(outdir / f"measure_t{t:g}.csv", traj.measure_at(float(t)))

    report = estimate_checks(traj, gamma, rng=np.random.default_rng(seed))
    tols = _tolerances(cfg, tol_scale)
    entropy_slack = tols.get("entropy_decrease", 1e-10)
    worst_increase = float(np.max(np.diff(traj.entropies))) if len(traj.entropies) > 1 else 0.0
    report.add("entropy_nonincreasing", worst_increase, 0.0, entropy_slack)

    manifest = _manifest_base(cfg, seed)
    manifest["final_entropy"] = float(traj.entropies[-1])
    manifest["steps"] = len(traj.w2_increments)
    manifest["uniform_approx_constant"] = UNIFORM_APPROX_CONSTANT
    return _emit(outdir, "flow", manifest, report)


def _cmd_step(cfg, outdir, seed, tol_scale):
    from .jko import jko_step_detailed
    from .report import CheckReport
    from .serialize import write_measure_csv

    gamma = _build_reference(cfg)
    mu = _build_initial(cfg, gamma)
    jcfg = _jko_config(cfg)
    out, info = jko_step_detailed(gamma, mu, jcfg)
    write_measure_csv(outdir / "before.csv", mu)
    write_measure_csv(outdir / "after.csv", out)
    report = CheckReport()
    report.add("inner_gap", info.residual, 0.0, max(jcfg.inner_tol * 10, 1e-9))
    manifest = _manifest_base(cfg, seed)
    manifest["objective"] = info.objective
    manifest["entropy"] = info.entropy
    manifest["w2_sq"] = info.w2_sq
    return _emit(outdir, "step", manifest, report)


def _cmd_transition(cfg, outdir, seed, tol_scale):
    from .jko import dirac_transport_cost, transition_trajectory
    from .report import CheckReport
    from .serialize import write_measure_csv

    gamma = _build_reference(cfg)
    jcfg = _jko_config(cfg)
    x = _get(cfg, "x", float, required=True)
    t = _positive(cfg, "t", required=True)
    traj = transition_trajectory(gamma, x, t, jcfg)
    write_measure_csv(outdir / "transition.csv", traj.measure_at(t))
    report = CheckReport()
    start = float(traj.initial.x[0])
    bound = dirac_transport_cost(gamma, start) / (2.0 * t)
    report.add("transition_entropy_bound", float(traj.entropies[-1]), bound, 0.0)
    manifest = _manifest_base(cfg, seed)
    manifest["snapped_start"] = start
    return _emit(outdir, "transition", manifest, report)


def _cmd_fp(cfg, outdir, seed, tol_scale):
    import numpy as np

    from .oracles import fp_solve
    from .report import CheckReport
    from .serialize import _csv_text, atomic_write_text

    gamma = _build_reference(cfg)
    mu0 = _build_initial(cfg, gamma)
    dt = _positive(cfg, "oracle.dt", required=True)
    horizon = _positive(cfg, "horizon", required=True)
    sol = fp_solve(gamma.potential, mu0, horizon, dt, grid=gamma.grid)
    header = ["t"] + [f"{x:.17g}" for x in sol.grid.tolist()]
    rows = ([t] + dens.tolist() for t, dens in zip(sol.times.tolist(), sol.densities))
    atomic_write_text(outdir / "fp_densities.csv", _csv_text(header, rows))
    report = CheckReport()
    report.add("mass_conserved", float(abs(sol.densities[-1].sum() - 1.0)), 0.0, 1e-9)
    report.add("nonnegative", float(-sol.min_density), 0.0, 1e-10)
    manifest = _manifest_base(cfg, seed)
    manifest["dt"] = dt
    manifest["theta"] = sol.theta
    return _emit(outdir, "fp", manifest, report)


def _cmd_sde(cfg, outdir, seed, tol_scale):
    from .oracles import sde_simulate
    from .report import CheckReport
    from .serialize import _csv_text, atomic_write_text

    gamma = _build_reference(cfg)
    dt = _positive(cfg, "oracle.dt", required=True)
    n_paths = _get(cfg, "oracle.paths", int, required=True)
    x = _get(cfg, "x", float, required=True)
    horizon = _positive(cfg, "horizon", required=True)
    sample = sde_simulate(gamma.potential, x, horizon, dt, n_paths, seed)
    # numpy scalars rather than one list of all floats keep the peak memory low
    rows = zip(sample.terminal_points)
    atomic_write_text(outdir / "sde_terminal.csv", _csv_text(["terminal"], rows))
    report = CheckReport()
    lo, hi = gamma.potential.finite_interval()
    if math.isfinite(lo) and math.isfinite(hi):
        outside = float(
            ((sample.terminal_points < lo) | (sample.terminal_points > hi)).mean()
        )
        report.add("paths_in_domain", outside, 0.0, 0.0)
    manifest = _manifest_base(cfg, seed)
    manifest["dt"] = dt
    manifest["paths"] = n_paths
    return _emit(outdir, "sde", manifest, report)


def _cmd_stability(cfg, outdir, seed, tol_scale):
    from . import measures as ms
    from .serialize import _csv_text, atomic_write_text
    from .stability import build_sequence, flow_stability_run, gamma_convergence_check

    desc = _get(cfg, "potential", dict, required=True)
    try:
        base = ms.potential_from_descriptor(desc)
    except (KeyError, ValueError) as exc:
        raise ConfigError("potential", str(exc)) from exc
    kind = _get(cfg, "sequence.kind", str, required=True)
    ns = tuple(_get(cfg, "sequence.ns", list, default=[4, 16, 64]))
    grid_n = _get(cfg, "grid.n", int, default=400)
    try:
        seq = build_sequence(kind, base, ns, grid_n)
    except ValueError as exc:
        raise ConfigError("sequence.kind", str(exc)) from exc

    jcfg = _jko_config(cfg)
    x = _get(cfg, "x", float, required=True)
    horizon = _positive(cfg, "horizon", required=True)
    tols = _tolerances(cfg, tol_scale)
    res = flow_stability_run(
        seq,
        [x] * len(seq.members),
        x,
        horizon,
        jcfg,
        final_gap_tol=tols.get("flow_gap", 0.05),
    )
    # str(n) echoes each n as configured, also when it was given as a float
    rows = [(str(n), float(g)) for n, g in zip(seq.ns, res.gaps)]
    atomic_write_text(outdir / "stability_gaps.csv", _csv_text(["n", "gap"], rows))
    report = res.report
    probe = ms.gaussian_on_grid(seq.limit, 0.25, 0.5)
    report.extend(gamma_convergence_check(seq, [probe], tol=tols.get("gamma_gap", 0.01)))
    manifest = _manifest_base(cfg, seed)
    manifest["ns"] = list(seq.ns)
    manifest["gaps"] = [float(g) for g in res.gaps]
    return _emit(outdir, "stability", manifest, report)


def _cmd_dirichlet(cfg, outdir, seed, tol_scale):
    import numpy as np

    from . import measures as ms
    from .dirichlet import boundary_measure_1d, integration_by_parts_check, slope_variational_check
    from .report import CheckReport
    from .serialize import _csv_text, atomic_write_text

    gamma = _build_reference(cfg)
    tols = _tolerances(cfg, tol_scale)
    report = CheckReport()

    sigma = boundary_measure_1d(gamma.potential)
    expected_tv = 2.0 * math.exp(-gamma.potential.min_value())
    report.add(
        "boundary_tv_identity",
        abs(sigma.total_variation - expected_tv),
        0.0,
        tols.get("tv", 1e-6),
    )
    rows = zip(sigma.centers.tolist(), sigma.widths.tolist(), sigma.density.tolist())
    atomic_write_text(
        outdir / "boundary_density.csv", _csv_text(["center", "width", "density"], rows)
    )

    ibp = integration_by_parts_check(gamma.potential, np.sin, np.cos)
    report.add("integration_by_parts_gap", ibp.gap, 0.0, tols.get("ibp", 1e-6))

    u_vals = np.exp(gamma.grid / 4.0)
    res = slope_variational_check(
        u_vals, gamma, probe_count=50, rng=np.random.default_rng(seed)
    )
    report.extend(res.report)
    manifest = _manifest_base(cfg, seed)
    manifest["total_variation"] = sigma.total_variation
    return _emit(outdir, "dirichlet", manifest, report)


def _cmd_check_all(cfg, outdir, seed, tol_scale):
    import numpy as np

    from . import measures as ms
    from .dirichlet import boundary_measure_1d, slope_variational_check
    from .jko import JkoConfig, QuantileLattice, jko_trajectory
    from .oracles import fp_solve, reversibility_check
    from .report import CheckReport
    from .transport import w2_exact_1d, w2_knots_to_gaussian, w2_lp

    rng = np.random.default_rng(seed)
    report = CheckReport()

    gamma = ms.discretize_reference(ms.quadratic(1.0), 200, (-8.0, 8.0))
    lat = QuantileLattice(gamma)
    mu0 = ms.gaussian_on_grid(gamma, 1.0, 0.5)
    traj = jko_trajectory(gamma, mu0, JkoConfig(tau=5e-3), 0.5, lattice=lat)
    m = math.exp(-0.5)
    s = math.sqrt(1.0 + (0.25 - 1.0) * math.exp(-1.0))
    report.add(
        "flow_vs_analytic",
        w2_knots_to_gaussian((lat.levels, traj.edges[-1]), m, s),
        0.02 * tol_scale,
        0.0,
    )
    worst_inc = float(np.max(np.diff(traj.entropies)))
    report.add("entropy_nonincreasing", worst_inc, 0.0, 1e-12)

    stationary = jko_trajectory(gamma, gamma.as_measure(), JkoConfig(tau=5e-3), 0.05, lattice=lat)
    report.add(
        "reference_invariant",
        lat.w2(stationary.edges[-1], stationary.edges[0]),
        0.0,
        5e-3 * tol_scale,
    )

    worst = 0.0
    for _ in range(20):
        n1, n2 = rng.integers(5, 40), rng.integers(5, 40)
        a = ms.DiscreteMeasure.from_atoms(rng.normal(size=n1), rng.dirichlet(np.ones(n1)))
        b = ms.DiscreteMeasure.from_atoms(rng.normal(size=n2), rng.dirichlet(np.ones(n2)))
        worst = max(worst, abs(w2_exact_1d(a, b).distance - w2_lp(a, b).distance))
    report.add("quantile_vs_lp", worst, 0.0, 1e-8)

    sol = fp_solve(gamma.potential, gamma.as_measure(), 0.5, 1e-3)
    drift = float(np.abs(sol.densities[-1] - gamma.weights[gamma.weights > 0]).sum())
    report.add("fp_stationarity", drift, 0.0, 1e-6)

    report.add("reversibility", reversibility_check(gamma, 0.25).asymmetry, 0.0, 1e-3)

    for pot, expected in (
        (ms.quadratic(1.0), 2.0),
        (ms.abs_potential(1.0, 1.0), 2.0 * math.exp(-1.0)),
        (ms.box(0.0, 1.0), 2.0),
    ):
        sigma = boundary_measure_1d(pot)
        report.add(
            f"tv_identity_{pot.kind}",
            abs(sigma.total_variation - expected),
            0.0,
            1e-6,
        )

    res = slope_variational_check(np.exp(gamma.grid / 4.0), gamma, probe_count=25, rng=rng)
    report.extend(res.report)

    manifest = _manifest_base(cfg, seed)
    return _emit(outdir, "check_all", manifest, report)


_COMMANDS = {
    "flow": _cmd_flow,
    "step": _cmd_step,
    "transition": _cmd_transition,
    "fp": _cmd_fp,
    "sde": _cmd_sde,
    "stability": _cmd_stability,
    "dirichlet": _cmd_dirichlet,
    "check-all": _cmd_check_all,
}


def run(command: str, config_path: str | None, out: str | None, seed: int | None, tol_scale: float) -> int:
    cfg = {}
    if config_path is not None:
        from .serialize import load_config

        try:
            cfg = load_config(config_path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(cfg, dict):
            print("config field '<root>': expected an object", file=sys.stderr)
            return 2
    if seed is None:
        seed = _get(cfg, "oracle.seed", int, default=0)
    outdir = Path(out if out is not None else cfg.get("output_dir", "entroflow_out"))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[command](cfg, outdir, seed, tol_scale)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def main(argv=None) -> int:
    threads = os.environ.get("ENTROFLOW_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)

    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="entropy gradient flows over log-concave references",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", nargs="?", help="JSON config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--tol-scale", type=float, default=1.0, help="scale check tolerances")
    args = parser.parse_args(argv)

    needs_config = args.command not in ("check-all",)
    if needs_config and args.config is None:
        print("config field '<root>': missing (config file required)", file=sys.stderr)
        return 2
    return run(args.command, args.config, args.out, args.seed, args.tol_scale)


if __name__ == "__main__":
    sys.exit(main())
