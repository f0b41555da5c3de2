"""The names the benchmark looks up on the program must exist.

`perfbench/tracing.py` wraps every function its `LAYERS` table names, on
that function's ``qct`` module (methods on their class), and the
`sessions` workload calls `run_reflect_attack` with `record_transcript`.
`perfbench/workloads.py`, `perfbench/run.py`, `perfbench/checks.py` and
the benchmark's own tests, `perfbench/tests/*.py`, import ``qct`` names and
read attributes of ``qct`` modules. A name that moved without a re-export
would only show up as a failed or traced benchmark run, or as a failing
benchmark test; these tests catch it in the test suite.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import qct
from qct import adversary
from qct.bell import PauliLabel
from qct.protocol import SessionConfig
from qct.seeding import trial_rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
MODULES = {info.name for info in pkgutil.iter_modules(qct.__path__)}


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "name", [f"{layer}.{fn}" for layer, fns in _layers().items() for fn in fns])
def test_traced_name_resolves(name):
    layer, _, attr = name.partition(".")
    home = importlib.import_module(f"qct.{layer}")
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(home, owner_name)
        assert callable(owner.__dict__["__init__" if method == "init" else method])
    else:
        assert callable(getattr(home, attr))


def _imported_names(path: Path) -> list[str]:
    """Dotted ``qct`` names the script uses: each ``from qct... import X``
    and each attribute read off a name bound to a ``qct`` module."""
    tree = ast.parse(path.read_text())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name)
                           for alias in node.names if alias.name.split(".")[0] == "qct")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qct":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                if node.module == "qct" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = f"qct.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(names)


SCRIPTS = ["workloads.py", "run.py", "checks.py"] + sorted(
    path.relative_to(PERFBENCH).as_posix() for path in (PERFBENCH / "tests").glob("*.py"))


@pytest.mark.parametrize("name", [
    f"{script}:{name}" for script in SCRIPTS for name in _imported_names(PERFBENCH / script)])
def test_benchmark_script_name_resolves(name):
    module, _, attr = name.partition(":")[2].rpartition(".")
    if module == "qct" and attr in MODULES:
        importlib.import_module(f"qct.{attr}")
    else:
        assert hasattr(importlib.import_module(module), attr)


def test_reflect_attack_takes_record_transcript():
    assert "record_transcript" in inspect.signature(adversary.run_reflect_attack).parameters
    config = SessionConfig(4, seed=3)
    full, bare = (adversary.run_reflect_attack(config, PauliLabel.Y, trial_rng(8, 0),
                                               record_transcript=record)
                  for record in (True, False))
    assert len(full.transcript.messages) >= 5 and bare.transcript.messages == []
    assert (bare.passed, bare.coin) == (full.passed, full.coin)
    assert bare.transcript.alice_outcomes == full.transcript.alice_outcomes
    assert bare.transcript.bob_outcomes == full.transcript.bob_outcomes
