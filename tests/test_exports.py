import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import entroflow as ef

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(ef.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"entroflow.{name}")
    missing = [attr for attr in getattr(mod, "__all__", []) if not hasattr(mod, attr)]
    assert missing == []


def test_package_exports_resolve():
    assert [attr for attr in ef.__all__ if not hasattr(ef, attr)] == []


def _fresh_python(code, *args, env=os.environ):
    """Last line of standard output of ``code`` run in a fresh interpreter on this package."""
    src = str(Path(ef.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env={**env, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_package_import_loads_no_numpy():
    # the lazy exports keep ``import entroflow`` free of numpy
    assert _fresh_python("import sys, entroflow; print('numpy' in sys.modules)") == "False"


# records OPENBLAS_NUM_THREADS when numpy is first imported, then runs one subcommand
THREADS_PROBE = """
import builtins, json, os, sys
seen = []
_import = builtins.__import__
def record(name, *args, **kwargs):
    if name.split(".")[0] == "numpy" and "numpy" not in sys.modules:
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
    return _import(name, *args, **kwargs)
builtins.__import__ = record
from entroflow.cli import main
code = main(["step", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "seen": seen}))
"""

SMALL_CONFIG = {  # one config for every subcommand but check-all, each run kept short
    "potential": {"kind": "quadratic", "a": 1.0},
    "grid": {"n": 60, "bounds": [-8, 8]},
    "jko": {"tau": 0.05},
    "initial": {"kind": "gaussian", "mean": 0.5, "std": 1.0},
    "horizon": 0.1,
    "times": [0.05, 0.1],
    "x": 0.5,
    "t": 0.1,
    "sequence": {"kind": "variance_perturbed", "ns": [4, 16]},
    "oracle": {"dt": 1e-2, "paths": 50},
    "tolerances": {"flow_gap": 0.1, "gamma_gap": 0.05},
}


def test_threads_variable_set_before_numpy_loads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    # one thread by default; a count already in the environment wins
    for preset, seen in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")):
        out = _fresh_python(THREADS_PROBE, cfg, tmp_path / seen, env={**env, **preset})
        assert json.loads(out) == {"code": 0, "seen": [seen]}


def test_benchmark_layers_resolve():
    # the traced benchmark run wraps these entry points by name
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
    spec = importlib.util.spec_from_file_location("_bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    unresolved = []
    for entries in layers.LAYERS.values():
        for entry in entries:
            for modname, qual in layers._expand(entry):
                obj = importlib.import_module(f"entroflow.{modname}")
                for part in qual.split("."):
                    obj = getattr(obj, part, None)
                if not callable(obj):
                    unresolved.append(entry)
            if not entry.split(":")[1].startswith("*") and not layers._expand(entry):
                unresolved.append(entry)
    assert unresolved == []
    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


# runs every subcommand, none of which solves an LP, then one w2_lp, reporting the LP stack after each
IMPORT_GUARD = """
import json, sys
from pathlib import Path
from entroflow.cli import main
from entroflow.measures import DiscreteMeasure
from entroflow.transport import w2_lp
cfg, out = sys.argv[1], Path(sys.argv[2])
lp_stack = ("scipy.optimize", "scipy.sparse")
codes = [main([c, cfg, "--out", str(out / c)]) for c in sys.argv[3:]]
codes.append(main(["check-all", "--out", str(out / "check-all")]))
before = [m in sys.modules for m in lp_stack]
w2_lp(DiscreteMeasure.from_atoms([0.0, 1.0], [0.5, 0.5]), DiscreteMeasure.from_atoms([0.5], [1.0]))
print(json.dumps({"codes": codes, "before": before, "after": [m in sys.modules for m in lp_stack]}))
"""


def test_lp_stack_loads_only_for_an_lp(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    commands = ["flow", "step", "transition", "fp", "sde", "stability", "dirichlet"]
    out = json.loads(_fresh_python(IMPORT_GUARD, cfg, tmp_path / "o", *commands))
    assert out == {"codes": [0] * 8, "before": [False, False], "after": [True, True]}


def test_benchmark_tracer_sees_cli_calls(tmp_path):
    # the tracer rebinds the names cli imported from the library modules
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
    spec = importlib.util.spec_from_file_location("_bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    from entroflow.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert main(["flow", str(cfg), "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall()
    names = ("jko_trajectory", "estimate_checks", "write_measure_csv", "atomic_write_text")
    assert {name: tracer.calls[name] for name in names} == {
        "jko_trajectory": 1,
        "estimate_checks": 1,
        "write_measure_csv": 2,
        "atomic_write_text": 6,
    }
