"""Per-layer tracing from outside the program.

A `Tracer` replaces qct's public functions with wrappers that record one
span each: which function, the enclosing wrapped span, and start and end in
nanoseconds. A function is replaced under every ``qct`` module name that
holds it, because callers look it up there (``qct.adversary.trial_rng`` as
well as ``qct.seeding.trial_rng``); methods are replaced on their class.
Spans stay in memory in flat arrays until `save` writes them out. A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Layer -> traced public functions. "Class.init" names the constructor.
LAYERS = {
    "seeding": ("trial_rng", "session_rng"),
    "protocol": (
        "random_sequence", "run_honest", "apply_noise", "alice_verify", "toss_from_outcomes",
    ),
    "bell": (
        "EntangledMatching.init", "EntangledMatching.measure_pair", "EntangledMatching.apply_pauli",
    ),
    "adversary": (
        "run_cheat_experiment", "run_reflect_attack", "run_fake_sequence_attack",
        "cycle_structure", "best_guess_results", "wilson_interval",
    ),
    "analysis": (
        "pass_prob_closed_form", "pass_prob_composition_sum", "pass_prob_permutation_model",
    ),
    "oracle": ("prepare_pairs", "bell_distribution", "bell_measure_collapse", "apply_pauli_gate"),
    "crosscheck": (
        "check_pauli_action", "check_residual_rule", "check_swap_distribution_exact",
        "check_swap_distribution_sampled", "check_parity_conservation_engine",
        "check_parity_conservation_oracle",
    ),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
MEASURE_PAIR = "bell.EntangledMatching.measure_pair"
PARTNER, SWAP = "bell.measure_pair.partner_calls", "bell.measure_pair.swap_calls"
OVERHEAD = "trace.overhead_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[PARTNER] = units[SWAP] = "count"
    units[OVERHEAD] = "s"
    return units


def _qct_modules():
    return [m for k, m in sys.modules.items() if k == "qct" or k.startswith("qct.")]


class Tracer:
    def __init__(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.partner_calls = 0
        self.swap_calls = 0
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, fn_id: int, fn):
        ids, parents, starts, ends, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(fn_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def _classified(self, traced):
        """measure_pair wrapper that also counts partner measurements (no
        randomness) and swaps (one draw)."""

        @functools.wraps(traced)
        def measure_pair(matching, u, v, rng=None):
            partners = matching.is_live(u) and matching.partner_of(u) == v
            outcome = traced(matching, u, v, rng)
            if partners:
                self.partner_calls += 1
            else:
                self.swap_calls += 1
            return outcome

        return measure_pair

    def install(self) -> None:
        """Replace every traced function until `uninstall`."""
        modules = _qct_modules()
        for fn_id, name in enumerate(FUNCTIONS):
            layer, _, attr = name.partition(".")
            home = importlib.import_module(f"qct.{layer}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                method = "__init__" if method == "init" else method
                original = owner.__dict__[method]
                wrapper = self._span(fn_id, original)
                if name == MEASURE_PAIR:
                    wrapper = self._classified(wrapper)
                self._replace(owner, method, original, wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self._span(fn_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Function name -> (calls, self seconds) over every recorded span."""
        ids = np.frombuffer(self.fn, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested], minlength=len(ids))
        own = duration - children
        calls = np.bincount(ids, minlength=len(FUNCTIONS))
        own_s = np.bincount(ids, weights=own, minlength=len(FUNCTIONS)) / 1e9
        return {name: (int(calls[i]), float(own_s[i])) for i, name in enumerate(FUNCTIONS)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            functions=np.array(FUNCTIONS),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
