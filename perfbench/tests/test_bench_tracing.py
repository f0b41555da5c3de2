"""The tracer records every call under the names callers use, nests spans,
and leaves the program as it found it."""

import json
from pathlib import Path

import numpy as np

import tracing
from qct import adversary, cli, protocol, seeding
from qct.bell import EntangledMatching, PauliLabel

BENCHMARK = Path(tracing.__file__).resolve().parent.parent / "BENCHMARK.json"


def _traced(call):
    """Trace call(), which must look the program's functions up by name."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert declared == tracing.metric_units()


def test_honest_session_counts_and_self_time():
    n = 3
    tracer = _traced(lambda: protocol.run_honest(protocol.SessionConfig(n), seeding.session_rng(1)))
    totals = tracer.totals()
    assert totals["protocol.run_honest"][0] == 1
    assert totals["protocol.random_sequence"][0] == 1
    assert totals["bell.EntangledMatching.init"][0] == 1
    assert totals["bell.EntangledMatching.measure_pair"][0] == 2 * n
    assert totals["protocol.apply_noise"][0] == 2 * n
    assert tracer.partner_calls + tracer.swap_calls == 2 * n
    # Alice's measurements all swap; Bob's then find their partners.
    assert tracer.swap_calls == n
    # Self times partition the top-level spans (session_rng, then run_honest).
    roots = [i for i, parent in enumerate(tracer.parent) if parent == -1]
    assert len(roots) == 2
    root_ns = sum(tracer.end[i] - tracer.start[i] for i in roots)
    self_ns = sum(s for _, s in totals.values()) * 1e9
    assert all(s >= 0 for _, s in totals.values())
    assert abs(self_ns - root_ns) <= 1e-6 * root_ns + 10


def test_functions_are_traced_where_callers_look_them_up():
    config = protocol.SessionConfig(2, seed=3)
    strategy = adversary.Strategy.reflect(PauliLabel.X)
    tracer = _traced(lambda: adversary.run_cheat_experiment(config, strategy, 5))
    totals = tracer.totals()
    assert totals["seeding.trial_rng"][0] == 5  # looked up as qct.adversary.trial_rng
    assert totals["adversary.run_reflect_attack"][0] == 5
    assert totals["adversary.cycle_structure"][0] == 5
    assert totals["bell.EntangledMatching.apply_pauli"][0] == 5
    assert totals["adversary.wilson_interval"][0] == 1
    parents = {tracer.parent[i] for i, f in enumerate(tracer.fn)
               if tracing.FUNCTIONS[f] == "adversary.run_reflect_attack"}
    assert parents == {0}  # nested under run_cheat_experiment


def test_cli_and_analysis_are_traced():
    tracer = _traced(lambda: cli.main(["analyze", "--n-pairs", "2", "--format", "csv"]))
    totals = tracer.totals()
    assert totals["cli.main"][0] == 1
    assert totals["analysis.pass_prob_permutation_model"][0] == 2


def test_uninstall_restores_originals():
    originals = (protocol.run_honest, adversary.trial_rng, seeding.trial_rng,
                 EntangledMatching.__init__, EntangledMatching.measure_pair, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    assert protocol.run_honest is not originals[0]
    assert adversary.trial_rng is seeding.trial_rng is not originals[1]
    tracer.uninstall()
    assert (protocol.run_honest, adversary.trial_rng, seeding.trial_rng,
            EntangledMatching.__init__, EntangledMatching.measure_pair, cli.main) == originals


def test_save_writes_every_span(tmp_path):
    tracer = _traced(lambda: protocol.run_honest(protocol.SessionConfig(2), seeding.session_rng(1)))
    path = tmp_path / "spans.npz"
    tracer.save(path)
    with np.load(path) as spans:
        assert len(spans["fn"]) == len(tracer.fn)
        assert (spans["end_ns"] >= spans["start_ns"]).all()
        assert list(spans["functions"]) == list(tracing.FUNCTIONS)
