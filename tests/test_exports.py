import importlib
import importlib.util
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


def test_package_import_loads_no_numpy():
    # numpy must load after the CLI sets the BLAS thread variables
    src = str(Path(ef.__file__).resolve().parents[1])
    code = "import sys, entroflow, entroflow.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


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
