"""Whole sessions pinned byte for byte, and the engine's enum edge.

`sessions()` runs honest, noisy, reflect and fake-sequence sessions at
several pair counts on fixed streams and renders each as one JSON line:
its messages as `qct toss --out` writes them, both parties' outcome
records, the verdict, the coin and the driver's own result. The noiseless
lines in `golden/sessions.jsonl` were written by the dictionary engine on
`BellLabel` objects; the int-label engine consumes the same draws in the
same order, so they may not move. The noisy lines and the bytes of
`golden/toss_n11_g0.9_seed5.jsonl` were regenerated on purpose when a noisy
phase began to draw all its swap labels first and then its noise through
`apply_noise`. That also moved one noiseless line, the first honest N = 32
session: it shares the honest stream with the noisy N = 11 sessions before
it, whose new noise draws end one 32-bit half-word later in that stream, so
its sequence draw starts half a word later. Its outcomes did not move, and
the stream agrees again from the next session on. The reflect lines' `bob`
records and results messages (and in three lines `passed`, `verdict` and
`coin`) were regenerated on purpose when Bob's fabricated results became
Alice's phase rule run on his guesses: the same guesses now sit at other
indices. No `alice` record moved.

Regenerate a golden file only for a deliberate change to the streams:
``PYTHONPATH=src python tests/test_session_golden.py``.
"""

import json
from pathlib import Path

import pytest

from qct.adversary import run_fake_sequence_attack, run_reflect_attack
from qct.bell import (
    BellLabel,
    EntangledMatching,
    MatchingError,
    ParticleId,
    Party,
    PauliLabel,
    SelfMeasurementError,
)
from qct.cli import main, transcript_to_jsonl
from qct.protocol import NoiseModel, SessionConfig, run_honest
from qct.seeding import session_rng, trial_rng

GOLDEN = Path(__file__).parent / "golden"
SESSIONS = GOLDEN / "sessions.jsonl"
TOSS = GOLDEN / "toss_n11_g0.9_seed5.jsonl"
TOSS_ARGV = ["toss", "--n-pairs", "11", "--gamma", "0.9", "--seed", "5"]

PAIR_COUNTS = (1, 2, 3, 4, 11, 32)
SEED = 2026


def _record(kind, transcript, **extra) -> str:
    record = {
        "kind": kind,
        "n": transcript.config.n_pairs,
        "messages": [json.loads(line) for line in transcript_to_jsonl(transcript).splitlines()],
        "alice": [int(o) for o in transcript.alice_outcomes],
        "bob": [int(o) for o in transcript.bob_outcomes],
        "verdict": None if transcript.verdict is None else transcript.verdict.value,
        "coin": transcript.coin,
        **extra,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def sessions() -> list[str]:
    """One line per session, in a fixed order over fixed streams."""
    lines = []
    honest_rng = session_rng(SEED)  # one stream across every honest session
    for n in PAIR_COUNTS:
        for gamma in (None, 0.8):
            config = SessionConfig(n, SEED, None if gamma is None else NoiseModel(gamma))
            for _ in range(2):
                lines.append(_record("honest", run_honest(config, honest_rng), gamma=gamma))
    trial = 0
    for n in PAIR_COUNTS:
        for gamma in (None, 0.9):
            config = SessionConfig(n, SEED, None if gamma is None else NoiseModel(gamma))
            for flip in PauliLabel:
                run = run_reflect_attack(config, flip, trial_rng(SEED, trial))
                lines.append(_record("reflect", run.transcript, gamma=gamma, flip=flip.name,
                                     passed=run.passed, run_coin=run.coin))
                trial += 1
    for n in PAIR_COUNTS:
        config = SessionConfig(n, SEED)
        for desired in (0, 1):
            for _ in range(3):
                run = run_fake_sequence_attack(config, desired, trial_rng(SEED + 1, trial))
                lines.append(_record("fake-seq", run.transcript, desired=desired,
                                     bob_coin=run.bob_coin))
                trial += 1
    return lines


def test_sessions_match_golden():
    want = SESSIONS.read_text(encoding="utf-8").splitlines()
    got = sessions()
    assert len(got) == len(want)
    for index, (line, golden) in enumerate(zip(got, want)):
        assert line == golden, f"session {index} differs"


def test_toss_transcript_bytes_match_golden(tmp_path, capsys):
    out = tmp_path / "toss.jsonl"
    assert main([*TOSS_ARGV, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == TOSS.read_bytes()


def _is_member(label) -> bool:
    return type(label) is BellLabel and label is BellLabel(int(label))


def test_engine_hands_out_enum_members():
    rng = session_rng(7)
    a, b, c, d = (ParticleId(Party.ALICE, i) for i in range(1, 5))
    matching = EntangledMatching([(a, b, BellLabel.PSI_MINUS), (c, d, BellLabel.PHI_MINUS)])
    matching.apply_pauli(a, PauliLabel.Y)
    assert matching.label_of(b) is BellLabel.PHI_PLUS
    swap = matching.measure_pair(b, c, rng)
    assert _is_member(swap)
    assert _is_member(matching.label_of(a))
    partner = matching.measure_pair(a, d)
    assert partner is matching.history[-1][1]
    assert all(_is_member(outcome) for _, outcome in matching.history)


def test_transcripts_hold_enum_members():
    config = SessionConfig(5, SEED, NoiseModel(0.5))
    transcripts = [
        run_honest(config, session_rng(1)),
        run_reflect_attack(config, PauliLabel.X, trial_rng(SEED, 0)).transcript,
        run_fake_sequence_attack(config, 1, trial_rng(SEED, 1)).transcript,
    ]
    for transcript in transcripts:
        results = transcript.messages[3].results
        for outcomes in (transcript.alice_outcomes, transcript.bob_outcomes, results):
            assert len(outcomes) == 5
            assert all(_is_member(o) for o in outcomes)


A1, A2, A3 = (ParticleId(Party.ALICE, i) for i in (1, 2, 3))


@pytest.mark.parametrize(
    "edges, error, message",
    [([(A1, A2, BellLabel.PHI_PLUS), (A1, A3, BellLabel.PHI_PLUS)], MatchingError,
      "particle alice:1 already in the matching"),
     ([(A1, A2, BellLabel.PHI_PLUS), (A3, A2, BellLabel.PSI_PLUS)], MatchingError,
      "particle alice:2 already in the matching"),
     ([(A1, A2, BellLabel.PHI_PLUS), (A2, A1, BellLabel.PHI_PLUS)], MatchingError,
      "particle alice:2 already in the matching"),
     ([(A1, A2, BellLabel.PHI_PLUS), (A3, A3, BellLabel.PHI_PLUS)], SelfMeasurementError,
      "cannot pair alice:3 with itself")],
    ids=["first-end-reused", "second-end-reused", "pair-repeated", "self-pair"],
)
def test_construction_errors_keep_types_and_messages(edges, error, message):
    with pytest.raises(error) as info:
        EntangledMatching(edges)
    assert type(info.value) is error
    assert str(info.value) == message


if __name__ == "__main__":
    SESSIONS.write_text("\n".join(sessions()) + "\n", encoding="utf-8")
    main([*TOSS_ARGV, "--out", str(TOSS)])
