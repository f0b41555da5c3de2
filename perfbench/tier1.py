"""Reference figures too slow to be a workload.

    python3 perfbench/tier1.py

Run from the repository root. It counts the lines of ``src/``, runs the
Tier-1 suite once (``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors``, plus ``-s`` so the acceptance suite's
``_report`` lines reach stdout), times it, and parses each acceptance
criterion's elapsed time and runtime cap from those lines. It prints one
JSON object. The whole suite takes several minutes.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# "[PASS] criterion 7 simulated pass probability: <detail> (285.12s < 300s)"
REPORT = re.compile(r"\[(PASS|FAIL)\] criterion (\d+) (.+?): .*\(([\d.]+)s < (\d+)s\)\s*$")


def src_lines() -> int:
    """Lines of the package's Python sources, as `wc -l` counts them."""
    return sum(path.read_text().count("\n") for path in sorted(SRC.rglob("*.py")))


def criteria(output: str) -> list[dict]:
    rows = []
    for line in output.splitlines():
        match = REPORT.search(line)
        if match:
            status, num, name, elapsed, cap = match.groups()
            rows.append({
                "criterion": int(num), "name": name, "status": status,
                "elapsed_s": float(elapsed), "cap_s": float(cap),
                "elapsed_over_cap": round(float(elapsed) / float(cap), 4),
            })
    return rows


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "pytest", "-q", "-s", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(json.dumps({
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "src_lines": src_lines(),
        "tier1": {"wall_s": round(wall, 1), "exit_code": proc.returncode, "summary": summary},
        "criteria": criteria(proc.stdout),
    }, indent=2))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
