import importlib
import pkgutil

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
