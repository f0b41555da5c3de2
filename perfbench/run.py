"""qct benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload {reflect-mc,sessions,verify} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it benchmarks the sources under ``src/``.
The workload runs in whole rounds until S seconds have passed, in this one
single-threaded process. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics, including the tracing overhead, and writes
the spans to ``perfbench/out/spans-<workload>.npz``. Each metric is printed
as ``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``wall_s`` is the median round time in reference seconds. On a shared
machine the same code runs up to ~60% slower for seconds to minutes at a
time, so a fixed reference loop, independent of qct, is timed every
PROBE_PERIOD seconds from a timer signal while a round runs. A round's
wall time, less the probes' own time, is divided by the loop's mean time
during the round and multiplied by the loop's nominal REFERENCE_S. The
raw median is printed as ``wall_s.raw``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process, numpy's BLAS included; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("reflect-mc", "sessions", "verify")
SETUP_REPEATS = 7
PROBE_PERIOD = 0.05
REFERENCE_S = 1e-3

# A fresh interpreter that imports qct, builds the workload and prints the
# clock; perf_counter is system-wide on Linux, so the parent can subtract.
_SETUP_PROBE = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; "
    "import workloads; workloads.build({name!r}, {seed!r}); print(time.perf_counter())"
)


def setup_seconds(name: str, seed: int) -> float:
    """Median time from process start to a built workload, over
    SETUP_REPEATS fresh interpreters."""
    code = _SETUP_PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True)
        times.append(float(probe.stdout) - start)
    return statistics.median(times)


def _reference(rng) -> int:
    """Fixed mix of dict, tuple and small numpy work, about 1 ms."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(2000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) ^ i
        acc += len(key)
    for _ in range(40):
        acc += int(rng.integers(4))
    return acc


class SpeedProbe:
    """Times the reference loop once before a round and then every
    PROBE_PERIOD seconds during it, from SIGALRM."""

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        self.samples: list[float] = []

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _reference(self._rng)
        self.samples.append(time.perf_counter() - start)

    def timed(self, fn) -> tuple[float, float]:
        """(raw seconds, reference seconds) that fn() took, probes excluded."""
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        start = time.perf_counter()
        try:
            fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sum(self.samples[1:])
        return raw, raw * REFERENCE_S / statistics.fmean(self.samples)


def timed_round(workload) -> float:
    gc.collect()
    start = time.perf_counter()
    workload.round()
    elapsed = time.perf_counter() - start
    workload.check()
    return elapsed


def plain_run(workload, seconds: float) -> tuple[list[float], list[float]]:
    """Raw and reference-second times of each round."""
    probe = SpeedProbe()
    deadline = time.perf_counter() + seconds
    raw, ref = [], []
    while not raw or time.perf_counter() < deadline:
        gc.collect()
        r, s = probe.timed(workload.round)
        workload.check()
        raw.append(r)
        ref.append(s)
    return raw, ref


def traced_run(workload, seconds: float, tracer) -> tuple[list[float], list[float]]:
    """Untraced and traced rounds in turn, so both see the same machine."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while not traced or time.perf_counter() < deadline:
        plain.append(timed_round(workload))
        tracer.install()
        try:
            traced.append(timed_round(workload))
        finally:
            tracer.uninstall()
    return plain, traced


def session_lines(workload, wall_s: float) -> list[tuple[str, float, str]]:
    """Session rates: all sessions per round over wall_s, and per pair count."""
    if not workload.sessions:
        return []
    per_round = sum(workload.sessions.values()) / workload.rounds
    lines = [("sessions_per_s", per_round / wall_s, "1/s")]
    for n in sorted(workload.sessions):
        lines.append((f"sessions_per_s.n{n}", workload.sessions[n] / workload.busy[n], "1/s"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qct" / "__init__.py").is_file():
        print(f"error: no qct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import qct
    import tracing
    import workloads

    if Path(qct.__file__).resolve().parent != SRC / "qct":
        print(f"error: imported qct from {qct.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed)
    info: list[tuple[str, float, str]] = []
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = traced_run(workload, args.seconds, tracer)
        units = tracing.metric_units()
        values = {}
        for name, (calls, self_s) in tracer.totals().items():
            values[f"{name}.calls"] = calls / len(traced)
            values[f"{name}.self_s"] = self_s / len(traced)
        values[tracing.PARTNER] = tracer.partner_calls / len(traced)
        values[tracing.SWAP] = tracer.swap_calls / len(traced)
        values[tracing.OVERHEAD] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        info += [("rounds.untraced", len(plain), "count"), ("rounds.traced", len(traced), "count"),
                 ("wall_s.raw.untraced", statistics.median(plain), "s"),
                 ("wall_s.raw.traced", statistics.median(traced), "s")]
        tracer.save(HERE / "out" / f"spans-{args.workload}.npz")
    else:
        raw, ref = plain_run(workload, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (statistics.median(ref), "s"),
                   "peak_rss_mib": (peak_rss_mib, "MiB")}
        wall_raw = statistics.median(raw)
        info += [("rounds", len(raw), "count"), ("wall_s.raw", wall_raw, "s")]
        info += session_lines(workload, wall_raw)
    workload.finish()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value, unit in info + [(n, v, u) for n, (v, u) in metrics.items()]:
        print(f"{name} {value!r} {unit}")
    for text in workload.errors:
        print(f"failed operation: {text}", file=sys.stderr)
    for text in workload.problems:
        print(f"check failed: {text}", file=sys.stderr)
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
