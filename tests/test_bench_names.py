"""The names the benchmark looks up on the program must exist.

`perfbench/tracing.py` wraps every function its `LAYERS` table names, on
that function's ``qct`` module (methods on their class), and the
`sessions` workload calls `run_reflect_attack` with `record_transcript`.
A name that moved without a re-export would only show up in a traced
benchmark run; these tests catch it in the test suite.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from qct import adversary
from qct.bell import PauliLabel
from qct.protocol import SessionConfig
from qct.seeding import trial_rng

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
