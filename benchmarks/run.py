"""Layered benchmark of entroflow.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload flow --seed 1 --seconds 20 --trace 0

One process, one caller, closed loop: the workload's round of ops runs
again and again until ``--seconds`` have passed, whole rounds only. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it carries the details: failures by name, round times, set-up samples,
the machine and the ``src/`` line counts. See README.md.
"""
import os
import sys
import time

# BLAS/OpenMP threads are fixed before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # listed in the root .gitignore; removed after each run
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("flow", "semigroup", "crosscheck", "stability"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once in a fresh process and report when ready
    p.add_argument("--probe-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> float:
    """Import numpy, scipy and the program from this checkout's src/; seconds taken."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import entroflow
        import entroflow.cli  # noqa: F401
        import workloads  # noqa: F401  (imports the rest of the program it drives)
    except ImportError as exc:
        sys.exit(f"cannot import the program from {SRC}: {exc}")
    if Path(entroflow.__file__).resolve().parent.parent != SRC:
        sys.exit(f"entroflow was imported from {entroflow.__file__}, not from {SRC}")
    return time.perf_counter() - t0


def probe_setup(workload: str, seed: int, run_dir: Path) -> tuple[float, float]:
    """Set-up time of a fresh process (start to ready), and its import time."""
    probe_dir = Path(tempfile.mkdtemp(prefix="probe_", dir=run_dir))
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--probe-dir", str(probe_dir)]
    t_spawn = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    ready = json.loads(proc.stdout.strip().splitlines()[-1])
    return ready["ready"] - t_spawn, ready["import_s"]


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def src_lines() -> dict:
    counts = {p.name: sum(1 for _ in p.open()) for p in sorted((SRC / "entroflow").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def run_round(ops, tracer):
    """One whole round; returns (op seconds, failed ops, failure names, check problems)."""
    elapsed, failed, failures, problems = 0.0, 0, [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call() if tracer is None else tracer.span(f"op:{op.name}", op.call)
        except Exception as exc:  # a raising op counts as failed, by exception type
            elapsed += time.perf_counter() - t0
            failed += 1
            failures.append(f"{op.name}:{type(exc).__name__}")
            continue
        elapsed += time.perf_counter() - t0
        names = op.failures(out)
        if names:
            failed += 1
            failures += [f"{op.name}:{n}" for n in names]
            continue
        problem = op.check(out)
        if problem is not None:
            failed += 1
            failures.append(f"{op.name}:benchmark_check")
            problems.append(problem)
    return elapsed, failed, failures, problems


def timed_loop(ops, seconds, trace):
    """Whole rounds until ``seconds`` have passed; with ``trace``, the second half traced.

    Returns the rounds as (op seconds, traced), the tally of failures, the
    tracer (or None), and the loop's CPU and wall seconds.
    """
    import layers

    tracer = None
    rounds = []
    tally = {"failed": 0, "names": Counter(), "problems": []}
    cpu0, t0 = os.times(), time.perf_counter()
    while True:
        now = time.perf_counter() - t0
        if trace and tracer is None and rounds and now >= seconds / 2:
            tracer = layers.Tracer()
            tracer.install()
        if rounds and now >= seconds and (not trace or rounds[-1][1]):
            break
        elapsed, n_failed, names, problems = run_round(ops, tracer)
        rounds.append((elapsed, tracer is not None))
        tally["failed"] += n_failed
        tally["names"].update(names)
        tally["problems"] += problems
    wall = time.perf_counter() - t0
    cpu1 = os.times()
    if tracer is not None:
        tracer.uninstall()
    cpu = (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system)
    return rounds, tally, tracer, cpu, wall


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import layers
    from workloads import WORKLOADS

    if args.probe_dir:
        WORKLOADS[args.workload](args.seed, Path(args.probe_dir))
        print(json.dumps({"ready": time.time(), "import_s": import_s}))
        return 0

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=WORK))
    try:
        probes = [probe_setup(args.workload, args.seed, run_dir) for _ in range(SETUP_PROBES)]
        t_build = time.perf_counter()
        ops = WORKLOADS[args.workload](args.seed, run_dir)
        main_setup_s = import_s + time.perf_counter() - t_build
        rounds, tally, tracer, cpu, wall = timed_loop(ops, args.seconds, args.trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    per_round = len(ops)
    plain = [r for r, traced in rounds if not traced]
    traced = [r for r, t in rounds if t]
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layers.layer_metrics(tracer, per_round * len(traced)).items()
        }
        metrics["proc.import_s"] = {"value": statistics.median(p[1] for p in probes), "unit": "s"}
        metrics["proc.cpu_per_wall"] = {"value": cpu / wall, "unit": "ratio"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
            "unit": "%",
        }
    else:
        metrics = {
            "ops_per_s": {"value": per_round / statistics.median(plain), "unit": "1/s"},
            "setup_s": {"value": statistics.median(p[0] for p in probes), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_names": [op.name for op in ops],
        "rounds": len(rounds),
        "round_s": [round(r, 6) for r, _ in rounds],
        "failures": dict(tally["names"]),
        "problems": tally["problems"][:5],
        "setup_probe_s": [round(p[0], 6) for p in probes],
        "main_setup_s": round(main_setup_s, 6),
        "machine": machine(),
        "src_lines": src_lines(),
    }
    if tracer is not None:
        top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:12]
        detail["top_self_s_per_op"] = {k: v / (per_round * len(traced)) for k, v in top}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not tally["problems"],
        "attempted": per_round * len(rounds),
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
