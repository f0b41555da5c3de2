"""Transcripts share their constant messages.

Bob's plain-order batch, the two verdicts and the four coins are built once
and shared by every session; each is frozen and slotted, so no session can
change another's. `SessionTranscript` admits the log it is given through
`append`, whatever iterable it comes in. These tests pin that construction
admits and refuses what `append` does, that sharing leaks no edit from one
transcript into another, and how many objects a kept session retains.
"""

import copy
import dataclasses
import gc
import pickle

import pytest

from qct.adversary import run_fake_sequence_attack, run_reflect_attack
from qct.bell import PauliLabel, Party
from qct.protocol import (
    CoinAnnouncement,
    ProtocolOrderError,
    SessionConfig,
    SessionTranscript,
    Strategy,
    Verdict,
    run_honest,
    run_session,
)
from qct.seeding import trial_rng


def _accepted():
    return run_honest(SessionConfig(4, seed=3)).messages


def _rejected():
    for i in range(100):
        run = run_reflect_attack(SessionConfig(4), PauliLabel.X, trial_rng(5, i))
        if not run.passed:
            return run.transcript.messages
    raise AssertionError("no failed reflection in 100 trials")


def _appended(messages):
    transcript = SessionTranscript(SessionConfig(1))
    try:
        for message in messages:
            transcript.append(message)
    except ProtocolOrderError as exc:
        return str(exc)
    return transcript.messages


def _constructed(messages):
    try:
        return SessionTranscript(SessionConfig(1), messages).messages
    except ProtocolOrderError as exc:
        return str(exc)


def _str_sender(message):
    return dataclasses.replace(message, sender=message.sender.value)


def _logs():
    accepted, rejected = _accepted(), _rejected()
    reject = rejected[4]
    assert len(accepted) == 6 and len(rejected) == 5 and reject.verdict is Verdict.REJECT
    logs = [log[:k] for log in (accepted, rejected) for k in range(len(log) + 1)]
    for log in (accepted, rejected):
        for i in range(len(log) - 1):
            logs.append(log[:i] + [log[i + 1], log[i]] + log[i + 2:])  # adjacent swap
        for i in range(len(log)):
            logs.append(log[:i + 1] + log[i:])  # a duplicated message
            logs.append(log[:i] + [_str_sender(log[i])] + log[i + 1:])
    for coin in (CoinAnnouncement(Party.ALICE, 0), CoinAnnouncement(Party.BOB, 1)):
        logs.append(accepted + [coin])  # a seventh message
        logs.append(rejected + [coin])  # a coin after a reject
    logs.append(accepted[:4] + [reject, accepted[5]])
    return logs


@pytest.mark.parametrize("log", _logs())
def test_construction_matches_append(log):
    want = _appended(log)
    assert _constructed(log) == want
    assert _constructed(tuple(log)) == want
    assert _constructed(m for m in log) == want  # a generator is read once, in full


def test_check_refuses_each_fault_kind():
    errors = {e for e in map(_constructed, _logs()) if isinstance(e, str)}
    assert any("out of order" in e for e in errors)
    assert any("no coin after a reject verdict" in e for e in errors)
    assert any("does not fit any protocol phase" in e for e in errors)
    assert any("expected nothing further" in e for e in errors)


def test_admitted_log_is_a_new_list():
    given = list(_accepted())
    transcript = SessionTranscript(SessionConfig(4), given)
    assert transcript.messages == given and transcript.messages is not given
    given.clear()
    assert len(transcript.messages) == 6


def _runs(strategy, n=4, sessions=40):
    return [run_session(SessionConfig(n), strategy, trial_rng(11, i)) for i in range(sessions)]


@pytest.mark.parametrize("strategy", [Strategy.honest(), Strategy.fake_sequence(1)],
                         ids=["honest", "fake-seq"])
def test_constant_messages_are_shared(strategy):
    runs = _runs(strategy)
    first = runs[0].transcript.messages
    coins = {}
    for run in runs:
        messages = run.transcript.messages
        assert messages[1] is first[1]  # Bob's plain-order batch
        assert messages[4] is first[4]  # the accept verdict
        coin = messages[5]
        assert coins.setdefault((coin.sender, coin.coin), coin) is coin
    assert len(coins) == 2  # both coin values occur


def test_reflect_batch_is_per_session_and_verdicts_are_shared():
    runs = _runs(Strategy.reflect(PauliLabel.X), sessions=60)
    batches = [run.transcript.messages[1] for run in runs]
    assert len({id(batch) for batch in batches}) == len(runs)
    verdicts = {}
    for run in runs:
        verdict = run.transcript.messages[4]
        assert verdicts.setdefault(verdict.verdict, verdict) is verdict
    assert set(verdicts) == set(Verdict)
    honest = run_honest(SessionConfig(4)).messages[4]
    assert honest is verdicts[Verdict.ACCEPT]


def test_shared_messages_are_frozen_and_slotted():
    transcript = run_honest(SessionConfig(3))
    for message in transcript.messages:
        assert not hasattr(message, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.sender = Party.BOB
        with pytest.raises(AttributeError):
            object.__setattr__(message, "note", 1)
        # A new name is refused too; on Python 3.11 with TypeError, as its
        # frozen __setattr__ names the class that slots=True replaces.
        with pytest.raises((AttributeError, TypeError)):
            message.note = 1
    with pytest.raises(AttributeError):
        transcript.note = 1
    sequence = transcript.messages[2].sequence
    with pytest.raises(AttributeError):
        object.__setattr__(sequence, "note", 1)
    with pytest.raises((AttributeError, TypeError)):
        sequence.note = 1


def test_replace_leaves_the_shared_coin():
    config = SessionConfig(3)
    coin = run_session(config, Strategy.honest(), trial_rng(2, 0)).transcript.messages[5]
    changed = dataclasses.replace(coin, coin=coin.coin ^ 1)
    assert changed is not coin and changed.coin != coin.coin
    again = run_session(config, Strategy.honest(), trial_rng(2, 0)).transcript.messages[5]
    assert again is coin and again == CoinAnnouncement(coin.sender, coin.coin)


def test_list_edits_stay_in_their_transcript():
    config = SessionConfig(4)
    kept = run_session(config, Strategy.honest(), trial_rng(3, 0)).transcript
    before = list(kept.messages)

    bare = run_reflect_attack(config, PauliLabel.Y, trial_rng(3, 1), record_transcript=False)
    assert bare.transcript.messages == []
    edited = run_session(config, Strategy.honest(), trial_rng(3, 2)).transcript
    edited.messages[0], edited.messages[1] = edited.messages[1], edited.messages[0]
    edited.messages[-1] = dataclasses.replace(edited.messages[-1], coin=edited.coin ^ 1)
    edited.messages.pop()

    assert kept.messages == before
    assert all(a is b for a, b in zip(kept.messages, before))
    fresh = run_session(config, Strategy.honest(), trial_rng(3, 0)).transcript
    assert fresh.messages == before and fresh.messages is not kept.messages
    full = run_reflect_attack(config, PauliLabel.Y, trial_rng(3, 1))
    assert len(full.transcript.messages) in (5, 6)


@pytest.mark.parametrize("strategy", [Strategy.honest(), Strategy.reflect(PauliLabel.Z),
                                      Strategy.fake_sequence(0)],
                         ids=["honest", "reflect", "fake-seq"])
def test_transcript_round_trips(strategy):
    for i in range(8):
        transcript = run_session(SessionConfig(5), strategy, trial_rng(4, i)).transcript
        assert copy.deepcopy(transcript) == transcript
        assert pickle.loads(pickle.dumps(transcript)) == transcript


# Objects the gc tracks that one kept session retains, by what the public
# function of each kind returns. On CPython 3.11.7 honest keeps 9, fake-seq
# 10 or 11 (11 when Alice lies; 10.5 on average), reflect 13; each was 13,
# 14 and 14 before the constant messages were shared. Which objects the gc
# tracks is an interpreter detail, so each limit sits between the two counts:
# it leaves room for another interpreter yet fails if the sharing is undone.
RETAINED = {
    "honest": (lambda config, rng: run_honest(config, rng), 11),
    "fake-seq": (lambda config, rng: run_fake_sequence_attack(config, 1, rng), 12.5),
    "reflect": (lambda config, rng: run_reflect_attack(config, PauliLabel.X, rng), 13.5),
}


@pytest.mark.parametrize("kind", sorted(RETAINED))
@pytest.mark.parametrize("n", [4, 11, 32])
def test_retained_objects_per_session(kind, n):
    run, limit = RETAINED[kind]
    config, sessions = SessionConfig(n), 1000
    run(config, trial_rng(6, sessions))  # fill the per-N caches first
    rngs = [trial_rng(6, i) for i in range(sessions)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = [run(config, rng) for rng in rngs]
        per_session = (len(gc.get_objects()) - before - 1) / sessions  # 1: the list `kept`
    finally:
        if enabled:
            gc.enable()
    assert len(kept) == sessions
    assert per_session <= limit, (
        f"a kept {kind} session at N={n} retains {per_session:.2f} gc-tracked objects, "
        f"over {limit}")
