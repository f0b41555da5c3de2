"""The benchmark's references are right, and each of its checks passes real
program output and fails on a wrong reference and on a wrong output."""

import dataclasses
import json
from fractions import Fraction

import pytest

import checks
from qct import adversary, protocol, seeding
from qct.bell import BellLabel, PauliLabel
from workloads import call_cli


def _other(label):
    return BellLabel(int(label) ^ 0b01)  # flips the parity


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_closed_form(n):
    assert checks.enumerated_pass_probability(n) == checks.permutation_model(n)


def test_enumeration_known_values():
    assert checks.enumerated_pass_probability(2) == Fraction(5, 8)
    assert checks.enumerated_pass_probability(4) == Fraction(35, 256)


def test_pass_probability_cross_check_rejects_wrong_closed_form(monkeypatch):
    monkeypatch.setattr(checks, "permutation_model", lambda n: Fraction(5, 8) ** (n - 1))
    assert checks.reflect_pass_probability(2) == Fraction(5, 8)  # the models agree at N <= 2
    with pytest.raises(ArithmeticError):
        checks.reflect_pass_probability(3)


@pytest.mark.parametrize("n,gamma", [(1, 0.9), (3, 0.7), (11, 0.9991)])
def test_noisy_accept_matches_per_label_enumeration(n, gamma):
    # Each party's record of the shared outcome 0 is 0 with probability
    # gamma and each other label with probability (1 - gamma) / 3.
    record = [gamma] + [(1 - gamma) / 3] * 3
    per_index = sum(p * p for p in record)
    assert checks.noisy_accept_probability(n, gamma) == pytest.approx(per_index**n, rel=1e-12)


def test_coin_and_flip_parity():
    assert checks.coin_of([BellLabel.PHI_MINUS, BellLabel.PSI_PLUS]) == 0
    assert checks.coin_of([BellLabel.PSI_MINUS, BellLabel.PHI_MINUS]) == 1
    assert [checks.flip_parity(p) for p in PauliLabel] == [0, 1, 1, 0]


def test_binomial():
    assert checks.binomial("x", 5000, 10_000, 0.5) is None
    assert checks.binomial("x", 5000, 10_000, 0.45) is not None  # wrong reference
    assert checks.binomial("x", 5400, 10_000, 0.5) is not None  # wrong outcome
    assert checks.binomial("x", 0, 1000, 1e-9) is None  # near-zero mean
    assert checks.binomial("x", 3, 1000, 1e-9) is not None


def _honest(n=4, noise=None, seed=3):
    return protocol.run_honest(protocol.SessionConfig(n, noise=noise), seeding.session_rng(seed))


def _aborted():
    rng = seeding.session_rng(5)
    config = protocol.SessionConfig(4, noise=protocol.NoiseModel(0.6))
    while True:
        transcript = protocol.run_honest(config, rng)
        if transcript.coin is None:
            return transcript


def test_honest():
    assert checks.honest(_honest(), noiseless=True) is None
    aborted = _aborted()
    assert checks.honest(aborted, noiseless=False) is None
    assert checks.honest(aborted, noiseless=True) is not None  # wrong reference

    t = _honest()
    t.coin ^= 1
    assert checks.honest(t, noiseless=True) is not None
    t = _honest()
    t.bob_outcomes = (_other(t.bob_outcomes[0]),) + t.bob_outcomes[1:]
    assert checks.honest(t, noiseless=True) is not None
    t = _honest()
    t.messages[0], t.messages[1] = t.messages[1], t.messages[0]
    assert checks.honest(t, noiseless=True) is not None
    t = _honest()
    t.messages[-1] = dataclasses.replace(t.messages[-1], coin=t.coin ^ 1)
    assert checks.honest(t, noiseless=True) is not None


def _reflect(flip=PauliLabel.X, n=3):
    return adversary.run_reflect_attack(protocol.SessionConfig(n), flip, seeding.trial_rng(7, 0))


def test_reflect():
    for flip in PauliLabel:
        assert checks.reflect(_reflect(flip), flip) is None
    assert checks.reflect(_reflect(PauliLabel.X), PauliLabel.Y) is not None  # wrong reference

    run = _reflect()
    assert checks.reflect(run._replace(coin=run.coin ^ 1), PauliLabel.X) is not None
    assert checks.reflect(run._replace(passed=not run.passed), PauliLabel.X) is not None
    run.transcript.messages.pop()
    assert checks.reflect(run, PauliLabel.X) is not None


def _fake():
    return adversary.run_fake_sequence_attack(protocol.SessionConfig(3), 1, seeding.trial_rng(9, 0))


def test_fake_sequence():
    assert checks.fake_sequence(_fake()) is None

    run = _fake()  # wrong reference: Alice's parity
    run.transcript.alice_outcomes = (_other(run.transcript.alice_outcomes[0]),) + run.transcript.alice_outcomes[1:]
    assert checks.fake_sequence(run) is not None
    run = _fake()
    assert checks.fake_sequence(run._replace(bob_coin=run.bob_coin ^ 1)) is not None


def _cheat_report(n=2, flip="Y", trials=200, seed=4):
    code, out, _ = call_cli([
        "cheat", "--n-pairs", str(n), "--trials", str(trials), "--flip", flip,
        "--seed", str(seed), "--format", "json",
    ])
    assert code == 0
    return json.loads(out)


def test_cheat_report():
    p = checks.reflect_pass_probability(2)
    assert checks.cheat_report(_cheat_report(), 2, "Y", 200, p) is None
    assert checks.cheat_report(_cheat_report(), 2, "Y", 200, Fraction(1, 2)) is not None
    assert checks.cheat_report(_cheat_report(), 2, "X", 200, p) is not None
    assert checks.cheat_report(_cheat_report(), 3, "Y", 200, p) is not None

    report = _cheat_report()
    report["forced_coin_rate"] = 0.995
    assert checks.cheat_report(report, 2, "Y", 200, p) is not None
    report = _cheat_report()
    report["successes"] += 1
    assert checks.cheat_report(report, 2, "Y", 200, p) is not None


def _verify_report(fault):
    argv = ["verify", "--samples", "20000", "--sequences", "8", "--max-pairs", "2",
            "--seed", "6", "--format", "json"]
    code, out, _ = call_cli(argv + ["--inject-fault"] if fault else argv)
    return code, json.loads(out)


def test_verify_report():
    clean, faulted = _verify_report(False), _verify_report(True)
    assert checks.verify_report(*clean, fault=False) is None
    assert checks.verify_report(*faulted, fault=True) is None
    assert checks.verify_report(*clean, fault=True) is not None  # wrong reference
    assert checks.verify_report(*faulted, fault=False) is not None

    code, report = clean
    assert checks.verify_report(3, report, fault=False) is not None
    report["checks"][4]["passed"] = False
    assert checks.verify_report(code, report, fault=False) is not None
    code, report = faulted
    report["checks"].pop()
    assert checks.verify_report(code, report, fault=True) is not None
