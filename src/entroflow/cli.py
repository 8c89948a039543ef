"""Configuration-driven experiment runner.

Subcommands: flow, step, transition, fp, sde, stability, dirichlet,
check-all. Each consumes a JSON config, checked against the subcommand's
schema before any work starts, writes CSV artifacts plus a JSON manifest
into the output directory, and exits 0 on success, 1 on a failed numerical
check (naming the check id), 2 on a config error (naming the field path),
or 3 when a solver or oracle fails (the manifest then carries a ``failure``
record instead of checks).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from collections import namedtuple
from pathlib import Path

# one BLAS thread unless these variables say otherwise; set before numpy first loads,
# below, since OpenBLAS and OpenMP read their thread counts then
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__, measures as ms  # noqa: E402
from .dirichlet import (  # noqa: E402
    _slope_witness,
    boundary_measure_1d,
    integration_by_parts_check,
    slope_variational_check,
)
from .jko import (  # noqa: E402
    REFERENCE_W2_SLACK,
    UNIFORM_APPROX_CONSTANT,
    JkoConfig,
    QuantileLattice,
    dirac_transport_cost,
    estimate_checks,
    jko_step_detailed,
    jko_trajectory,
    transition_trajectory,
    whole_steps,
)
from .oracles import FP_THETA, fp_solve, reversibility_check, sde_simulate  # noqa: E402
from .report import CheckReport  # noqa: E402
from .serialize import (  # noqa: E402
    load_config,
    write_csv,
    write_manifest,
    write_measure_csv,
    write_reference,
    write_trajectory_csv,
)
from .stability import build_sequence, flow_stability_run, gamma_convergence_check  # noqa: E402
from .transport import w2_exact_1d, w2_knots_to_gaussian, w2_lp_batch  # noqa: E402

__all__ = ["main", "run", "ConfigError"]


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config field '{path}': {message}")
        self.field_path = path


# a config field's kind, whether it is required, and its default; a default of None
# leaves the value to the library call the field feeds (for ``times``, to its use)
Field = namedtuple("Field", "kind required default", defaults=(False, None))


def _number(v) -> bool:
    # type() rather than isinstance: true and false are never numbers here
    return type(v) in (int, float) and (type(v) is int or math.isfinite(v))


def _list(v, test) -> bool:
    return type(v) is list and all(map(test, v))


def _positive(v) -> bool:
    return _number(v) and v > 0


_KINDS = {  # kind -> (test, what a failing value was expected to be)
    "number": (_number, "a number"),
    "positive": (_positive, "a positive number"),
    "count": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "cells": (lambda v: type(v) is int and v >= 2, "an integer of at least 2"),
    "seed": (lambda v: type(v) is int and v >= 0, "a nonnegative integer"),
    "string": (lambda v: type(v) is str, "a string"),
    "numbers": (lambda v: _list(v, _number), "a list of numbers"),
    "positives": (lambda v: _list(v, _positive) and len(v) > 0, "a non-empty list of positive numbers"),
    "interval": (lambda v: _list(v, _number) and len(v) == 2, "[lo, hi], two numbers"),
    "pairs": (lambda v: _list(v, _KINDS["interval"][0]), "a list of [slope, intercept] number pairs"),
}

_REQUIRED_NUMBER = Field("number", True)
_INITIALS = {  # initial kind -> (its fields, the measure it makes on gamma from its config object)
    "reference": ({}, lambda gamma, d: gamma.as_measure()),
    "gaussian": ({"mean": _REQUIRED_NUMBER, "std": Field("positive", True)},
                 lambda gamma, d: ms.gaussian_on_grid(gamma, float(d["mean"]), float(d["std"]))),
    "dirac": ({"x": _REQUIRED_NUMBER}, lambda gamma, d: ms.dirac_on_grid(gamma, float(d["x"]))),
}
_VARIANTS = {  # object kinds whose fields depend on their own "kind" entry
    "potential": {kind: {n: Field(*spec) for n, spec in f.items()} for kind, (_, f) in ms.POTENTIAL_KINDS.items()},
    "initial": {kind: fields for kind, (fields, _) in _INITIALS.items()},
}

_FIELDS = {  # every config field, with its one kind and default
    "output_dir": Field("string", default="entroflow_out"),
    "oracle.seed": Field("seed", default=0),
    "potential": Field("potential", True),
    "grid.n": Field("cells", True),
    "grid.bounds": Field("interval"),
    "initial": Field("initial", default={"kind": "reference"}),
    "jko.tau": Field("positive", True),
    "jko.inner_tol": Field("positive"),
    "jko.max_inner_iters": Field("count"),
    "horizon": Field("positive", True),
    "times": Field("numbers"),
    "x": _REQUIRED_NUMBER,
    "t": Field("positive", True),
    "oracle.dt": Field("positive", True),
    "oracle.paths": Field("count", True),
    "sequence.kind": Field("string", True),
    "sequence.ns": Field("positives"),
    "tolerances.entropy_decrease": Field("positive", default=1e-10),
    "tolerances.flow_gap": Field("positive"),
    "tolerances.gamma_gap": Field("positive"),
    "tolerances.tv": Field("positive", default=1e-6),
    "tolerances.ibp": Field("positive", default=1e-6),
}
_REFERENCE, _JKO = "potential grid.n grid.bounds", "jko.tau jko.inner_tol jko.max_inner_iters"
_SCHEMAS = {  # the fields each subcommand reads; run() reads output_dir and oracle.seed
    command: {path: _FIELDS[path] for path in f"output_dir oracle.seed {names}".split()}
    for command, names in {
        "flow": f"{_REFERENCE} initial {_JKO} horizon times tolerances.entropy_decrease",
        "step": f"{_REFERENCE} initial {_JKO}",
        "transition": f"{_REFERENCE} {_JKO} x t",
        "fp": f"{_REFERENCE} initial horizon times oracle.dt",
        "sde": f"{_REFERENCE} horizon x oracle.dt oracle.paths",
        "stability": f"potential grid.n sequence.kind sequence.ns {_JKO} horizon x"
        " tolerances.flow_gap tolerances.gamma_gap",
        "dirichlet": f"{_REFERENCE} tolerances.tv tolerances.ibp",
        "check-all": "",
    }.items()
}
_SCHEMAS["stability"]["grid.n"] = Field("cells")  # build_sequence has the default


def _lookup(node: dict, path: str):
    """Value at a dotted path, None when absent; every parent must be an object."""
    parts = path.split(".")
    for i, part in enumerate(parts[:-1]):
        node = node.get(part)
        if node is None:
            return None
        if not isinstance(node, dict):
            raise ConfigError(".".join(parts[: i + 1]), "expected an object")
    return node.get(parts[-1])


def _check(node: dict, fields: dict, prefix: str = "", tol_scale: float = 1.0) -> dict:
    """Checked values by field path, with defaults filled in.

    Scalar numbers come back as floats, configured ``tolerances.*`` scaled by
    ``tol_scale``; lists and objects come back as given.
    """
    out = {}
    for path, spec in fields.items():
        full = prefix + path
        val = _lookup(node, path)
        if val is None:
            if spec.required:
                raise ConfigError(full, "missing")
            out[full] = spec.default
            continue
        if spec.kind in _VARIANTS:
            table = _VARIANTS[spec.kind]
            if not isinstance(val, dict):
                raise ConfigError(full, "expected an object")
            kind = val.get("kind")
            if type(kind) is not str or kind not in table:
                raise ConfigError(f"{full}.kind", f"expected one of {', '.join(table)}")
            _check(val, table[kind], f"{full}.")
        else:
            test, expected = _KINDS[spec.kind]
            if not test(val):
                raise ConfigError(full, f"expected {expected}")
            if spec.kind in ("number", "positive"):
                val = float(val)
            if full.startswith("tolerances."):
                val *= tol_scale
        out[full] = val
    return out


def _given(**kwargs) -> dict:
    """The keyword arguments a config sets; the others keep their library defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _potential(c: dict):
    try:
        return ms.potential_from_descriptor(c["potential"])
    except ValueError as exc:
        raise ConfigError("potential", str(exc)) from exc


def _reference(c: dict):
    pot = _potential(c)
    bounds = c["grid.bounds"] or ms.suggested_bounds(pot)
    try:
        return ms.discretize_reference(pot, c["grid.n"], tuple(bounds))
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from exc


def _initial(c: dict, gamma):
    desc = c["initial"]
    try:
        return _INITIALS[desc["kind"]][1](gamma, desc)
    except ValueError as exc:
        raise ConfigError("initial", str(exc)) from exc


def _horizon(c: dict, path: str) -> float:
    """The flow horizon at ``path``, which must hold at least one step of ``jko.tau``."""
    if c[path] < c["jko.tau"]:
        raise ConfigError(path, "expected at least jko.tau (one step)")
    return c[path]


def _oracle_dt(c: dict) -> float:
    """``oracle.dt``, which must divide ``horizon`` into whole steps: the oracles take whole steps of dt."""
    steps = whole_steps(c["horizon"], c["oracle.dt"])
    if steps is None or steps < 1:
        raise ConfigError("oracle.dt", "expected to divide horizon into a whole number of steps")
    return c["oracle.dt"]


def _times(c: dict, horizon: float, dt: float | None = None) -> list:
    """``times``, by default ``[horizon]``: each in [0, horizon] and, given an
    oracle's ``dt``, a whole number of its steps (``whole_steps``)."""
    times = c["times"] if c["times"] is not None else [horizon]
    if not all(0 <= t <= horizon for t in times):
        raise ConfigError("times", "expected times in [0, horizon]")
    if dt is not None and any(whole_steps(t, dt) is None for t in times):
        raise ConfigError("times", "expected whole multiples of oracle.dt")
    return times


def _jko_config(c: dict):
    return JkoConfig(
        **_given(tau=c["jko.tau"], inner_tol=c["jko.inner_tol"], max_inner_iters=c["jko.max_inner_iters"])
    )


# ---------------------------------------------------------------------------
# Subcommands: each returns its check report and its own manifest entries
# ---------------------------------------------------------------------------
def _cmd_flow(c, outdir, seed, tol_scale):
    horizon = _horizon(c, "horizon")
    times = _times(c, horizon)
    gamma = _reference(c)
    traj = jko_trajectory(gamma, _initial(c, gamma), _jko_config(c), horizon)

    write_reference(outdir / "reference", gamma)
    write_trajectory_csv(outdir / "trajectory.csv", traj)
    for t in times:
        write_measure_csv(outdir / f"measure_t{t:g}.csv", traj.measure_at(float(t)))

    report = estimate_checks(traj, rng=np.random.default_rng(seed))
    worst_increase = float(np.max(np.diff(traj.entropies)))  # a flow has at least one step
    report.add("entropy_nonincreasing", worst_increase, 0.0, c["tolerances.entropy_decrease"])
    return report, {
        "final_entropy": float(traj.entropies[-1]),
        "steps": len(traj.w2_increments),
        "uniform_approx_constant": UNIFORM_APPROX_CONSTANT,
    }


def _cmd_step(c, outdir, seed, tol_scale):
    gamma = _reference(c)
    mu = _initial(c, gamma)
    jcfg = _jko_config(c)
    out, info = jko_step_detailed(gamma, mu, jcfg)
    write_measure_csv(outdir / "before.csv", mu)
    write_measure_csv(outdir / "after.csv", out)
    report = CheckReport()
    report.add("inner_gap", info.residual, 0.0, max(jcfg.inner_tol * 10, 1e-9))
    return report, {"objective": info.objective, "entropy": info.entropy, "w2_sq": info.w2_sq}


def _cmd_transition(c, outdir, seed, tol_scale):
    t = _horizon(c, "t")
    gamma = _reference(c)
    traj = transition_trajectory(gamma, c["x"], t, _jko_config(c))
    write_measure_csv(outdir / "transition.csv", traj.measure_at(t))
    report = CheckReport()
    start = float(traj.initial.x[0])
    bound = dirac_transport_cost(gamma, start) / (2.0 * t)
    report.add("transition_entropy_bound", float(traj.entropies[-1]), bound, 0.0)
    return report, {"snapped_start": start}


def _cmd_fp(c, outdir, seed, tol_scale):
    if c["grid.n"] < 3:
        raise ConfigError("grid.n", "expected an integer of at least 3 (the fp stencil)")
    dt = _oracle_dt(c)
    times = _times(c, c["horizon"], dt)
    gamma = _reference(c)
    sol = fp_solve(gamma, _initial(c, gamma), c["horizon"], dt, times=times)
    header = ["t"] + [f"{x:.17g}" for x in gamma.grid.tolist()]
    write_csv(outdir / "fp_densities.csv", header, np.column_stack([sol.times, sol.densities]))
    report = CheckReport()
    report.add("mass_conserved", sol.mass_error, 0.0, 1e-9)
    report.add("nonnegative", float(-sol.min_density), 0.0, 1e-10)
    return report, {"dt": dt, "theta": FP_THETA}


def _cmd_sde(c, outdir, seed, tol_scale):
    dt, n_paths = _oracle_dt(c), c["oracle.paths"]
    gamma = _reference(c)
    sample = sde_simulate(gamma.potential, c["x"], c["horizon"], dt, n_paths, seed)
    write_csv(outdir / "sde_terminal.csv", ["terminal"], sample.terminal_points[:, None])
    report = CheckReport()
    lo, hi = gamma.potential.finite_interval()
    if math.isfinite(lo) and math.isfinite(hi):
        outside = float(
            ((sample.terminal_points < lo) | (sample.terminal_points > hi)).mean()
        )
        report.add("paths_in_domain", outside, 0.0, 0.0)
    return report, {"dt": dt, "paths": n_paths}


def _cmd_stability(c, outdir, seed, tol_scale):
    horizon = _horizon(c, "horizon")
    base = _potential(c)
    try:
        seq = build_sequence(c["sequence.kind"], base, **_given(ns=c["sequence.ns"], grid_n=c["grid.n"]))
    except ValueError as exc:
        raise ConfigError("sequence.kind", str(exc)) from exc

    x = c["x"]
    gap_tol = _given(final_gap_tol=c["tolerances.flow_gap"])
    res = flow_stability_run(seq, [x] * len(seq.members), x, horizon, _jko_config(c), **gap_tol)
    # str(n) echoes each n as configured, also when it was given as a float
    rows = [(str(n), float(g)) for n, g in zip(seq.ns, res.gaps)]
    write_csv(outdir / "stability_gaps.csv", ["n", "gap"], rows)
    report = res.report
    probe = ms.gaussian_on_grid(seq.limit, 0.25, 0.5)
    report.extend(gamma_convergence_check(seq, [probe], **_given(tol=c["tolerances.gamma_gap"])))
    return report, {"ns": list(seq.ns), "gaps": [float(g) for g in res.gaps]}


def _cmd_dirichlet(c, outdir, seed, tol_scale):
    gamma = _reference(c)
    report = CheckReport()

    sigma = boundary_measure_1d(gamma.potential)
    expected_tv = 2.0 * math.exp(-gamma.potential.min_value())
    report.add("boundary_tv_identity", abs(sigma.total_variation - expected_tv), 0.0, c["tolerances.tv"])
    rows = np.column_stack([sigma.centers, sigma.widths, sigma.density])
    write_csv(outdir / "boundary_density.csv", ["center", "width", "density"], rows)

    ibp = integration_by_parts_check(gamma.potential, np.sin, np.cos)
    report.add("integration_by_parts_gap", ibp.gap, 0.0, c["tolerances.ibp"])

    res = slope_variational_check(_slope_witness(gamma), gamma, probe_count=50, rng=np.random.default_rng(seed))
    report.extend(res.report)
    return report, {"total_variation": sigma.total_variation}


def _cmd_check_all(c, outdir, seed, tol_scale):
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
        REFERENCE_W2_SLACK * tol_scale,
    )

    pairs = []
    for _ in range(20):
        n1, n2 = rng.integers(5, 40), rng.integers(5, 40)
        a = ms.DiscreteMeasure.from_atoms(rng.normal(size=n1), rng.dirichlet(np.ones(n1)))
        b = ms.DiscreteMeasure.from_atoms(rng.normal(size=n2), rng.dirichlet(np.ones(n2)))
        pairs.append((a, b))
    worst = max(
        abs(w2_exact_1d(a, b).distance - lp.distance) for (a, b), lp in zip(pairs, w2_lp_batch(pairs))
    )
    report.add("quantile_vs_lp", worst, 0.0, 1e-8)

    sol = fp_solve(gamma, gamma.as_measure(), 0.5, 1e-3)
    drift = float(np.abs(sol.densities[-1] - gamma.weights).sum())
    report.add("fp_stationarity", drift, 0.0, 1e-6)

    report.add("reversibility", reversibility_check(gamma, 0.25), 0.0, 1e-3)

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

    res = slope_variational_check(_slope_witness(gamma), gamma, probe_count=25, rng=rng)
    report.extend(res.report)
    return report, {}


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


def _write_manifest(outdir: Path, name: str, manifest: dict) -> None:
    manifest["created_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    write_manifest(outdir / f"{name}_manifest.json", manifest)


def run(command: str, config_path: str | None, out: str | None, seed: int | None, tol_scale: float) -> int:
    cfg = {}
    if config_path is not None:
        try:
            cfg = load_config(config_path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config field '<root>': expected a readable JSON file ({exc})", file=sys.stderr)
            return 2
        if not isinstance(cfg, dict):
            print("config field '<root>': expected an object", file=sys.stderr)
            return 2
    name = command.replace("-", "_")
    created = None
    try:
        c = _check(cfg, _SCHEMAS[command], tol_scale=tol_scale)  # before any work starts
        if seed is None:
            seed = c["oracle.seed"]
        elif not _KINDS["seed"][0](seed):
            raise ConfigError("--seed", f"expected {_KINDS['seed'][1]}")
        if not _positive(tol_scale):
            raise ConfigError("--tol-scale", "expected a positive finite number")
        outdir = Path(out if out is not None else c["output_dir"])
        # the outermost directory this run creates, removed again on a config error
        created = next((p for p in (*reversed(outdir.parents), outdir) if not p.exists()), None)
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = {"config": cfg, "version": __version__, "seed": seed}
        report, entries = _COMMANDS[command](c, outdir, seed, tol_scale)
    except ConfigError as exc:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        print(str(exc), file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        # a solver or oracle failed: JkoSolverError is a RuntimeError, rejected inputs ValueErrors
        failure = {"type": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "residual"):
            failure["residual"] = float(exc.residual)
        _write_manifest(outdir, name, {**manifest, "failure": failure})
        print(f"{name} failed: {failure['type']}: {failure['message']}", file=sys.stderr)
        return 3
    _write_manifest(outdir, name, {**manifest, **entries, "checks": report.to_dict()})
    if not report.passed:
        failed = ", ".join(item.check_id for item in report.failures())
        print(f"FAILED checks: {failed}", file=sys.stderr)
        return 1
    print(f"ok: {name} -> {outdir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="entropy gradient flows over log-concave references",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", nargs="?", help="JSON config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--tol-scale", type=float, default=1.0, help="scale configured check tolerances")
    args = parser.parse_args(argv)

    if args.command != "check-all" and args.config is None:
        print("config field '<root>': missing (config file required)", file=sys.stderr)
        return 2
    return run(args.command, args.config, args.out, args.seed, args.tol_scale)
