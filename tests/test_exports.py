import importlib
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
