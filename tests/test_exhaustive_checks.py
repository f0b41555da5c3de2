"""`qct verify`'s exhaustive checks run as batched oracle passes.

`pauli-action-16`, `residual-rule-64` and `swap-distribution-exact` each
build one batch of states through `qct.oracle`'s batched entry points. Every
case must equal the scalar oracle functions bit for bit, every batched state
must be checked for normalisation, a corrupted oracle must fail the checks
with their usual details, and no per-case `QuantumState` may come back.
"""

import numpy as np

from qct import crosscheck, oracle
from qct.bell import BellLabel, PauliLabel
from qct.oracle import (
    apply_pauli_gate,
    bell_distribution,
    bell_measure_collapse,
    prepare_pairs,
)

EXHAUSTIVE = (
    crosscheck.check_pauli_action,
    crosscheck.check_residual_rule,
    crosscheck.check_swap_distribution_exact,
)
BATCHED = ("prepare_states", "apply_pauli_gates", "bell_distributions", "bell_project")


class FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def mid_branch(probs, outcome):
    """The uniform in the middle of `outcome`'s branch."""
    cumulative = np.cumsum(probs)
    low = cumulative[outcome - 1] if outcome else 0.0
    return (low + cumulative[outcome]) / 2.0 / cumulative[-1]


def recorded_passes(monkeypatch, check):
    """Run `check` with crosscheck's batched oracle calls recorded, as
    (name, args, result) in call order."""
    calls = []
    for name in BATCHED:
        def wrapped(*args, _name=name, _call=getattr(crosscheck, name)):
            result = _call(*args)
            calls.append((_name, args, result))
            return result

        monkeypatch.setattr(crosscheck, name, wrapped)
    assert check().passed
    return calls


def test_pauli_cases_equal_the_scalar_oracle(monkeypatch):
    calls = recorded_passes(monkeypatch, crosscheck.check_pauli_action)
    assert [name for name, _, _ in calls] == [
        "prepare_states", "apply_pauli_gates", "bell_distributions"]
    states, dists = calls[1][2], calls[2][2]
    assert states.shape == (32, 4) and dists.shape == (32, 4)
    for case in range(32):
        label, pauli, qubit = BellLabel(case >> 3), PauliLabel((case >> 1) & 3), case & 1
        state = apply_pauli_gate(prepare_pairs([label]), pauli, qubit)
        assert np.array_equal(states[case], state.amplitudes)
        assert np.array_equal(dists[case], bell_distribution(state, 0, 1))


def test_swap_cases_equal_the_scalar_oracle(monkeypatch):
    calls = recorded_passes(monkeypatch, crosscheck.check_swap_distribution_exact)
    assert [name for name, _, _ in calls] == ["prepare_states", "bell_distributions"]
    states, dists = calls[0][2], calls[1][2]
    assert dists.shape == (16, 4)
    for pair in range(16):
        state = prepare_pairs([BellLabel(pair >> 2), BellLabel(pair & 3)])
        assert np.array_equal(states[pair], state.amplitudes)
        assert np.array_equal(dists[pair], bell_distribution(state, 1, 2))


def test_residual_cases_equal_the_scalar_collapse(monkeypatch):
    calls = recorded_passes(monkeypatch, crosscheck.check_residual_rule)
    assert [name for name, _, _ in calls] == [
        "prepare_states", "bell_project", "bell_distributions"]
    (_, (_, q1, q2, outcomes), (probs, collapsed)), residuals = calls[1], calls[2][2]
    assert (q1, q2) == (1, 2) and calls[2][1][1:] == (0, 3)
    assert collapsed.shape == (64, 16)
    for case in range(64):
        b1, b2, outcome = BellLabel(case >> 4), BellLabel((case >> 2) & 3), case & 3
        assert outcomes[case] == outcome
        state = prepare_pairs([b1, b2])
        want = bell_distribution(state, 1, 2)
        assert np.array_equal(probs[case], want)
        got, post = bell_measure_collapse(state, 1, 2, FixedRng(mid_branch(want, outcome)))
        assert got.value == outcome
        assert np.array_equal(collapsed[case], post.amplitudes)
        assert np.array_equal(residuals[case], bell_distribution(post, 0, 3))


def test_every_batched_state_is_checked_for_normalisation(monkeypatch):
    checked = []
    require = oracle._require_normalized

    def recording(amps):
        checked.append(amps.shape)
        require(amps)

    monkeypatch.setattr(oracle, "_require_normalized", recording)
    assert all(check().passed for check in EXHAUSTIVE)
    # pauli: the prepared pairs and the gated states; residual: the prepared
    # pairs and every collapsed branch; swap: the prepared pairs
    assert checked == [(32, 4), (32, 4), (64, 16), (64, 16), (16, 16)]


def misread(value):
    """A Bell label as a readout with the Phi+ and Phi- rows swapped sees it."""
    return value ^ 1 if value < 2 else value


def test_swapped_bell_rows_fail_both_rule_checks(monkeypatch):
    # the batched readout reports Phi+ as Phi- and back
    distributions = crosscheck.bell_distributions
    monkeypatch.setattr(crosscheck, "bell_distributions",
                        lambda *args: distributions(*args)[:, [1, 0, 2, 3]])
    pauli = []
    for case in range(32):
        label, p, qubit = BellLabel(case >> 3), PauliLabel((case >> 1) & 3), case & 1
        got = BellLabel(misread(label ^ p))
        if got != label ^ p:
            pauli.append(f"{label.symbol},{p.name},q{qubit}->{got}")
    assert crosscheck.check_pauli_action() == crosscheck.CheckResult(
        "pauli-action-16", False, "; ".join(pauli))
    residual = []
    for case in range(64):
        b1, b2, outcome = BellLabel(case >> 4), BellLabel((case >> 2) & 3), BellLabel(case & 3)
        engine = BellLabel(b1 ^ b2 ^ outcome)
        if misread(engine) != engine:
            residual.append(f"{b1.symbol}x{b2.symbol}|{outcome.symbol}: "
                            f"engine {engine.symbol} oracle {BellLabel(misread(engine)).symbol}")
    assert crosscheck.check_residual_rule() == crosscheck.CheckResult(
        "residual-rule-64", False, "32 mismatches: " + "; ".join(residual[:4]))
    assert residual[0] == "Phi+xPhi+|Phi+: engine Phi+ oracle Phi-"


def test_verify_builds_no_per_case_quantum_state(monkeypatch):
    built = []
    post_init = oracle.QuantumState.__post_init__

    def counting(self):
        built.append(self.qubit_count)
        post_init(self)

    born = oracle._born
    evaluated = []
    monkeypatch.setattr(oracle.QuantumState, "__post_init__", counting)
    monkeypatch.setattr(oracle, "_born", lambda *args: evaluated.append(args[1:]) or born(*args))
    assert all(result.passed for result in crosscheck.run_all())
    # every check, the sampled one's base distribution too, runs on batches
    assert built == []
    assert evaluated == []
    scalar = ["prepare_pairs", "bell_distribution", "bell_measure_collapse",
              "apply_pauli_gate", "QuantumState"]
    assert [name for name in scalar if hasattr(crosscheck, name)] == []

