"""Every CLI output byte, pinned: stdout, stderr and exit code of each
command in each format, plus the `--out` file where a case writes one.

`golden/cli.jsonl` holds one JSON line per case. It was written by the
per-command formatters; the shared renderer must reproduce it exactly.
Two deliberate changes moved lines since: the reflect `cheat` cases'
Monte Carlo counts, when Bob's fabricated results became Alice's phase
rule run on his guesses, and the fake-seq case's note, which it no longer
prints. The two-block N = 128 reflect case was written by the row-major
walk that the pointer-doubling kernel replaced, so it pins the new kernel
to the old one's bytes.

Regenerate it only for a deliberate change to the output:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from qct.cli import main

CLI = Path(__file__).parent / "golden" / "cli.jsonl"

# (argv without --format, whether the case also writes --out)
COMMANDS = [
    (["toss", "--seed", "3"], True),
    (["toss", "--n-pairs", "11", "--gamma", "0.9", "--seed", "5"], False),  # aborts
    (["toss", "--n-pairs", "0"], False),
    (["cheat", "--n-pairs", "2", "--trials", "500", "--seed", "4"], True),
    (["cheat", "--n-pairs", "3", "--flip", "Y", "--trials", "2000", "--seed", "1"], False),
    (["cheat", "--strategy", "fake-seq", "--n-pairs", "3", "--desired", "1",
      "--trials", "300", "--seed", "2"], False),
    (["cheat", "--n-pairs", "3", "--gamma", "0.8", "--trials", "1000", "--seed", "1"], False),
    # two blocks at N=128: the block boundary and the forced-coin rate under noise
    (["cheat", "--n-pairs", "128", "--trials", "2048", "--flip", "Z", "--gamma", "0.9",
      "--seed", "1"], False),
    (["cheat", "--gamma", "1.5"], False),
    (["analyze", "--n-pairs", "3"], True),
    (["analyze", "--n-pairs", "5", "--p-threshold", "0.05", "--seed", "7"], False),
    (["analyze", "--n-pairs", "0"], False),
    (["verify", "--samples", "20000", "--sequences", "4", "--max-pairs", "2", "--seed", "11"],
     True),
    (["verify", "--samples", "20000", "--sequences", "4", "--max-pairs", "2", "--seed", "11",
      "--inject-fault"], False),
    (["verify", "--max-pairs", "9"], False),
]
CASES = [
    ([*argv, "--format", fmt], out)
    for argv, out in COMMANDS for fmt in ("text", "json", "csv")
]


def run_case(argv: list[str], out_path: Path | None) -> dict:
    """Run `qct <argv>` in process; the case as a golden record."""
    stdout, stderr = io.StringIO(), io.StringIO()
    full = argv if out_path is None else [*argv, "--out", str(out_path)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(full)
    record = {"argv": argv, "code": code, "stdout": stdout.getvalue(),
              "stderr": stderr.getvalue()}
    if out_path is not None:
        record["out"] = out_path.read_text(encoding="utf-8")
    return record


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("QCT_SEED", raising=False)


@functools.cache
def _golden() -> list[str]:
    return CLI.read_text(encoding="utf-8").splitlines()


def test_golden_covers_every_case():
    assert [json.loads(line)["argv"] for line in _golden()] == [argv for argv, _ in CASES]


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(argv) for argv, _ in CASES])
def test_output_matches_golden(index, tmp_path):
    argv, out = CASES[index]
    got = run_case(argv, tmp_path / "out.txt" if out else None)
    assert _line(got) == _golden()[index]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lines = [_line(run_case(argv, Path(tmp) / "out.txt" if out else None))
                 for argv, out in CASES]
    CLI.write_text("\n".join(lines) + "\n", encoding="utf-8")
