"""`protocol.run_session` against the partner-walk reference, bit for bit.

The driver computes each phase from the cycles of the permutation it
measures along (`protocol.cycle_outcomes`); `reference.reference_session`
walks the same phases particle by particle on partner and label lists. On
identical streams both must give the same messages, records, verdict and
coin, and leave the generator in the same state. The driver draws its
orders by shuffling lists and the reference by `rng.permutation`, so the
replay also ties those two calls together on one stream. A counting proxy
pins how many generator calls a session makes, without timing anything.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct.bell import PauliLabel
from qct.protocol import (
    NoiseModel,
    SessionConfig,
    Strategy,
    cycle_outcomes,
    cycle_structure,
    run_session,
)
from qct.seeding import session_rng, trial_rng
from reference import reference_session
from test_int_path import _state

STRATEGIES = [
    Strategy.honest(),
    *(Strategy.reflect(flip) for flip in PauliLabel),
    Strategy.fake_sequence(0),
    Strategy.fake_sequence(1),
]
NOISE = {"noiseless": None, "gamma1.0": NoiseModel(1.0), "gamma0.8": NoiseModel(0.8)}


def _run(driver, config, strategy, rng):
    run = driver(config, strategy, rng)
    t = run.transcript
    return (t.messages, t.alice_outcomes, t.bob_outcomes, t.verdict, t.coin,
            run.passed, run.coin, _state(rng))


@pytest.mark.parametrize("noise", sorted(NOISE))
@pytest.mark.parametrize("strategy", STRATEGIES, ids=Strategy.describe)
@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_session_equals_partner_walk(strategy, noise, n, seed):
    config = SessionConfig(n, seed, NOISE[noise])
    assert _run(run_session, config, strategy, trial_rng(seed, n)) == _run(
        reference_session, config, strategy, trial_rng(seed, n))


class CountingRng:
    """A generator that records each call it serves as (method, args, kwargs)."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        attr = getattr(self.rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls.append((name, args, tuple(sorted(kwargs))))
            return attr(*args, **kwargs)
        return counted


def _tally(calls) -> Counter:
    """Calls by kind: list shuffles, batched label draws, noise uniforms,
    noise corruptions; any other call, a `permutation` too, is counted under
    its own signature."""
    kinds = {
        ("shuffle", 1, ()): "shuffle",
        ("random", 1, ("dtype",)): "labels",
        ("random", 0, ()): "uniform",
        ("integers", 2, ()): "corruption",
    }
    return Counter(kinds.get((name, len(args), kw), (name, args, kw)) for name, args, kw in calls)


@pytest.mark.parametrize("n", [1, 2, 4, 11, 32])
def test_draw_counts_per_session(n):
    for seed in range(20):
        for gamma in (None, 0.8):
            config = SessionConfig(n, seed, None if gamma is None else NoiseModel(gamma))
            noisy = gamma is not None
            # honest, and fake-seq whose coin came out as wished (no lie)
            for strategy in (Strategy.honest(), Strategy.fake_sequence(0),
                             Strategy.fake_sequence(1)):
                rng = CountingRng(session_rng(seed))
                messages = run_session(config, strategy, rng).transcript.messages
                sent = tuple([p.index // 2 + 1 for p in messages[0].particles])
                if messages[2].sequence.order != sent:
                    continue  # she lied: the lie's draws are the replay test's
                tally = _tally(rng.calls)
                assert tally.pop("shuffle") == 1
                assert tally.pop("labels") == 1
                assert tally.pop("uniform", 0) == (2 * n if noisy else 0)
                assert tally.pop("corruption", 0) <= 2 * n
                assert not tally
            rng = CountingRng(session_rng(seed))
            messages = run_session(config, Strategy.reflect(PauliLabel.X), rng).transcript.messages
            arrived = [p.index // 2 + 1 for p in messages[1].particles]
            tally = _tally(rng.calls)
            assert tally.pop("shuffle") == 2
            # a return order of fixed points only leaves no swap and no guess to draw
            assert tally.pop("labels", 0) == (len(cycle_structure(arrived)) < n)
            assert tally.pop("uniform", 0) == (n if noisy else 0)
            assert tally.pop("corruption", 0) <= n
            assert not tally


def test_lies_and_their_retries_replay_exactly():
    # at N = 2 half of the lies redraw the true order at least once
    retries = 0
    for seed in range(200):
        for desired in (0, 1):
            for gamma in (None, 0.8):
                config = SessionConfig(2, seed, None if gamma is None else NoiseModel(gamma))
                strategy = Strategy.fake_sequence(desired)
                rng = CountingRng(trial_rng(seed, 2))
                got = _run(run_session, config, strategy, rng)
                assert got == _run(reference_session, config, strategy, trial_rng(seed, 2))
                retries += _tally(rng.calls)["shuffle"] > 2
    assert retries > 50


def test_cycle_rule_on_a_two_cycle_and_a_fixed_point():
    # 1 <-> 3 and 2 fixed: index 1 swaps, index 3 closes the cycle, index 2 reads its label
    for swap in range(4):
        assert cycle_outcomes(((1, 3), (2,)), [1, 2, 3], [swap]) == [swap, 2, 1 ^ 3 ^ swap]


def test_cycle_rule_takes_one_outcome_per_swap():
    for swaps in ([], [0, 1]):
        with pytest.raises(ValueError, match=f"{len(swaps)} outcomes for 1 swaps"):
            cycle_outcomes(((1, 3), (2,)), [1, 2, 3], swaps)
