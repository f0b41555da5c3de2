"""Every name a `qct` module exports in `__all__` resolves, and none repeats."""

import importlib
import pkgutil

import pytest

import qct

# qct.__main__ runs the command line on import and exports nothing
MODULES = ["qct"] + [
    f"qct.{info.name}" for info in pkgutil.iter_modules(qct.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
