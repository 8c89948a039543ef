"""The four workloads: inputs made from the seed, a warm-up, and one round of ops.

Each op is a timed call into the program, through a CLI subcommand run
in-process or a public library function, plus a check of its output made
apart from the program (see ``checks``). A workload's ``build`` writes its
inputs into a work directory, runs a small warm-up of every op kind, and
returns the round. Inputs vary with the seed only in ways that leave the
amount of work per op the same, so that ops per second compare across
seeds.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as C
import entroflow as ef
from entroflow import cli, oracles

# Sizes. The README explains each choice.
FLOW_N, FLOW_BOUNDS, FLOW_TAU, FLOW_HORIZON = 4000, (-10.0, 10.0), 0.004, 1.0
SEMI_N, SEMI_HALF_SPAN, SEMI_TAU, SEMI_T = 60, 8.0, 5e-3, 0.25
SDE_PATHS, SDE_DT, SDE_HORIZON = 100_000, 0.01, 0.5
FP_N, FP_BOUNDS, FP_DT, FP_HORIZON = 400, (-8.0, 8.0), 1e-3, 0.5
CLOUD_ATOMS, SINKHORN_EPS, CLOUD_SHAPE_SEED = 60, 0.05, 20240817
# check-all's seed draws the sizes of its 20 LP spot checks, which moves its
# cost by up to a fifth; it is held fixed so every seed runs the same work
CHECK_ALL_SEED = 1
LADDER_NS, LADDER_GRID, LADDER_TAU, LADDER_HORIZON, LADDER_GAP_BOUND = (4, 16, 64), 400, 0.01, 0.25, 0.05
# cells whose reference mass the quantile lattice merges away (its MASS_FLOOR)
LATTICE_MASS_FLOOR = 1e-12


@dataclass
class Outcome:
    """What an op returned: a CLI exit code and manifest path, or a library value."""

    value: Any = None
    rc: int = 0
    manifest: Path | None = None


@dataclass
class Op:
    name: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]

    def failures(self, out: Outcome) -> list[str]:
        """Check ids the program itself reported as failed."""
        if out.rc == 0:
            return []
        if out.rc == 1 and out.manifest is not None and out.manifest.exists():
            items = json.loads(out.manifest.read_text())["checks"]["items"]
            failed = [it["check_id"] for it in items if not it["passed"]]
            if failed:
                return failed
        return [f"exit_{out.rc}"]


def run_cli(argv: list[str], manifest: Path) -> Outcome:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return Outcome(rc=rc, manifest=manifest)


def cli_op(name, command, cfg, work: Path, check, extra=()) -> Op:
    """Op running ``entroflow <command> <config> --out <dir>`` in-process."""
    out = work / name
    path = work / f"{name}.json"
    if cfg is not None:
        path.write_text(json.dumps(cfg))
    argv = [command] + ([str(path)] if cfg is not None else []) + ["--out", str(out), *extra]
    manifest = out / f"{command.replace('-', '_')}_manifest.json"
    return Op(name, lambda: run_cli(argv, manifest), lambda o: check(o, out))


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _warm(ops: list[Op]) -> None:
    """Run small ops once so lazy imports and first-call costs fall in set-up."""
    for op in ops:
        op.call()


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------
def flow_op(name, work, n, bounds, tau, horizon, mean, std) -> Op:
    times = [0.5 * horizon, horizon]
    cfg = {
        "potential": {"kind": "quadratic", "a": 1.0, "m": 0.0},
        "grid": {"n": n, "bounds": list(bounds)},
        "jko": {"tau": tau},
        "initial": {"kind": "gaussian", "mean": mean, "std": std},
        "horizon": horizon,
        "times": times,
    }
    centers = C.grid_centers(bounds[0], bounds[1], n)

    def check(out: Outcome, outdir: Path):
        for t in times:
            m = _read_csv(outdir / f"measure_t{t:g}.csv")
            law = C.ou_law(mean, std * std, t)
            bad = C.check_w2_to_gaussian(m[:, 0], m[:, 1], centers, *law, C.FLOW_W2_TOL, f"flow t={t:g}")
            if bad:
                return bad
        traj = np.genfromtxt(outdir / "trajectory.csv", delimiter=",", names=True)
        return C.check_nonincreasing(traj["entropy"])

    return cli_op(name, "flow", cfg, work, check)


def build_flow(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    mean, std = rng.uniform(0.5, 1.5), rng.uniform(0.4, 0.6)
    _warm([flow_op("warm_flow", work, 400, FLOW_BOUNDS, 0.02, 0.2, mean, std)])
    return [flow_op("flow", work, FLOW_N, FLOW_BOUNDS, FLOW_TAU, FLOW_HORIZON, mean, std)]


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------
def semigroup_op(name, n, a, m, tau, t) -> Op:
    lo, hi = m - SEMI_HALF_SPAN, m + SEMI_HALF_SPAN
    gamma = ef.discretize_reference(ef.quadratic(a, m), n, (lo, hi))
    cfg = ef.JkoConfig(tau=tau)
    centers = C.grid_centers(lo, hi, n)
    ref = np.exp(-0.5 * a * (centers - m) ** 2)
    ref /= ref.sum()
    resolved = ref >= LATTICE_MASS_FLOOR

    def check(out: Outcome):
        p = out.value
        return (
            C.check_row_stochastic(p)
            or C.check_semigroup_rows(p, centers, t, a, m, np.flatnonzero(resolved))
            or C.check_transition_entropy(p, centers, ref, t)
        )

    return Op(name, lambda: Outcome(oracles.semigroup_matrix(gamma, t, cfg, method="jko")), check)


def build_semigroup(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    a, m = rng.uniform(0.9, 1.1), rng.uniform(-0.25, 0.25)
    _warm([semigroup_op("warm_semigroup", 12, a, m, SEMI_TAU, 2 * SEMI_TAU)])
    return [semigroup_op("semigroup", SEMI_N, a, m, SEMI_TAU, SEMI_T)]


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------
def check_all_op(work) -> Op:
    def check(out: Outcome, outdir: Path):
        return C.check_manifest_items(json.loads(out.manifest.read_text()), "check-all")

    return cli_op("check_all", "check-all", None, work, check, extra=("--seed", str(CHECK_ALL_SEED)))


def sde_op(name, work, x, paths, seed) -> Op:
    cfg = {
        "potential": {"kind": "quadratic", "a": 1.0, "m": 0.0},
        "grid": {"n": 200, "bounds": [-8.0, 8.0]},
        "oracle": {"dt": SDE_DT, "paths": paths},
        "x": x,
        "horizon": SDE_HORIZON,
    }
    steps = int(math.ceil(SDE_HORIZON / SDE_DT - 1e-9))

    def check(out: Outcome, outdir: Path):
        text = (outdir / "sde_terminal.csv").read_text().split("\n", 1)[1]
        sample = np.array(text.split(), dtype=float)
        if len(sample) != paths:
            return f"sde: {len(sample)} terminal points, expected {paths}"
        return C.check_sde_moments(sample, x, 1.0, SDE_DT, steps)

    return cli_op(name, "sde", cfg, work, check, extra=("--seed", str(seed)))


def fp_op(name, work, mean, std, horizon) -> Op:
    cfg = {
        "potential": {"kind": "quadratic", "a": 1.0, "m": 0.0},
        "grid": {"n": FP_N, "bounds": list(FP_BOUNDS)},
        "initial": {"kind": "gaussian", "mean": mean, "std": std},
        "oracle": {"dt": FP_DT},
        "horizon": horizon,
    }
    centers = C.grid_centers(FP_BOUNDS[0], FP_BOUNDS[1], FP_N)

    def check(out: Outcome, outdir: Path):
        text = (outdir / "fp_densities.csv").read_text()
        last = np.array(text.rstrip("\n").rsplit("\n", 1)[1].split(","), dtype=float)
        if abs(last[0] - horizon) > 1e-9:
            return f"fp: last row at t={last[0]:g}, expected {horizon:g}"
        law = C.ou_law(mean, std * std, horizon)
        return C.check_w2_to_gaussian(centers, last[1:], centers, *law, C.FP_W2_TOL, "fp")

    return cli_op(name, "fp", cfg, work, check)


def atom_cloud(rng, n, shift, scale):
    x = np.sort(shift + scale * rng.normal(size=n))
    return x, rng.dirichlet(np.full(n, 20.0))


def transport_ops(seed, n) -> list[Op]:
    """LP and Sinkhorn on one pair of atom clouds.

    The clouds' shape comes from a fixed stream and the seed moves both by
    one common shift: transport costs, and so Sinkhorn's iteration count,
    do not depend on a common shift, which keeps the work per op the same
    across seeds.
    """
    shape = np.random.default_rng(CLOUD_SHAPE_SEED)
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0)
    xa, wa = atom_cloud(shape, n, shift, 1.0)
    xb, wb = atom_cloud(shape, n, shift + 0.5, 1.3)
    a = ef.DiscreteMeasure.from_atoms(xa, wa)
    b = ef.DiscreteMeasure.from_atoms(xb, wb)

    def check_lp(out: Outcome):
        return C.check_lp(out.value.distance, xa, wa, xb, wb)

    def check_sinkhorn(out: Outcome):
        cp = out.value.coupling
        return C.check_sinkhorn(cp.rows, cp.cols, cp.masses, SINKHORN_EPS, xa, wa, xb, wb)

    return [
        Op("lp", lambda: Outcome(ef.w2_lp(a, b)), check_lp),
        Op("sinkhorn", lambda: Outcome(ef.w2_sinkhorn(a, b, SINKHORN_EPS)), check_sinkhorn),
    ]


def build_crosscheck(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5)
    mean, std = rng.uniform(0.5, 1.5), rng.uniform(0.4, 0.6)
    _warm(
        [sde_op("warm_sde", work, x, 2000, seed), fp_op("warm_fp", work, mean, std, 0.01)]
        + transport_ops(seed, 8)
    )
    return [
        check_all_op(work),
        sde_op("sde", work, x, SDE_PATHS, seed),
        fp_op("fp", work, mean, std, FP_HORIZON),
    ] + transport_ops(seed, CLOUD_ATOMS)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------
def ladder_op(name, work, kind, potential, x, ns, grid_n, horizon) -> Op:
    cfg = {
        "potential": potential,
        "sequence": {"kind": kind, "ns": list(ns)},
        "grid": {"n": grid_n},
        "jko": {"tau": LADDER_TAU},
        "x": x,
        "horizon": horizon,
        "tolerances": {"flow_gap": LADDER_GAP_BOUND},
    }

    def check(out: Outcome, outdir: Path):
        table = _read_csv(outdir / "stability_gaps.csv")
        if [int(v) for v in table[:, 0]] != list(ns):
            return f"stability {kind}: ladder ns {table[:, 0]} differ from {ns}"
        gaps = table[:, 1]
        bad = C.check_final_gap(gaps, LADDER_GAP_BOUND)
        if bad is None and kind == "variance_perturbed":
            closed = C.gaussian_ladder_gaps(x, potential["a"], ns, LADDER_TAU, horizon)
            bad = C.check_ladder(gaps, closed)
        return bad

    return cli_op(name, "stability", cfg, work, check)


QUADRATIC = {"kind": "quadratic", "a": 1.0, "m": 0.0}
UNIT_BOX = {"kind": "box", "lo": 0.0, "hi": 1.0}


def build_stability(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    x_var, x_box = rng.uniform(2.0, 3.0), rng.uniform(0.35, 0.65)
    _warm(
        [
            ladder_op("warm_variance", work, "variance_perturbed", QUADRATIC, x_var, (4, 8), 100, 0.05),
            ladder_op("warm_mollified", work, "mollified", UNIT_BOX, x_box, (4, 8), 100, 0.05),
        ]
    )
    return [
        ladder_op("variance_perturbed", work, "variance_perturbed", QUADRATIC, x_var,
                  LADDER_NS, LADDER_GRID, LADDER_HORIZON),
        ladder_op("mollified", work, "mollified", UNIT_BOX, x_box, LADDER_NS, LADDER_GRID, LADDER_HORIZON),
        # fixed start: this ladder fails every time (start-snapping fault), whatever the seed
        ladder_op("affine_envelope", work, "affine_envelope", QUADRATIC, 1.0,
                  LADDER_NS, LADDER_GRID, LADDER_HORIZON),
    ]


WORKLOADS = {
    "flow": build_flow,
    "semigroup": build_semigroup,
    "crosscheck": build_crosscheck,
    "stability": build_stability,
}
