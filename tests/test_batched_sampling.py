"""Batched swap samplers replayed against their scalar references.

`oracle.bell_sample`, given a state's `bell_distribution`, must return
exactly the outcomes of successive `bell_measure_collapse` calls on that
state and the same stream, and leave the stream where the scalar loop
leaves it, so that later draws agree too. The sampled swap check, which
draws the oracle's outcomes through it and the engine's as one
`integers(4, size=k)` call per chunk, must count what scalar
`bell_measure_collapse` and fresh non-partner
`EntangledMatching.measure_pair` loops count. Its TV threshold, derived
from the sample count, must pass correct samplers at few samples and fail
one that never returns a label.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import crosscheck
from qct.bell import BellLabel, EntangledMatching, ParticleId, Party
from qct.crosscheck import CHUNK, _sampled_swap_counts
from qct.oracle import bell_distribution, bell_measure_collapse, bell_sample, prepare_pairs
from qct.seeding import session_rng

labels_st = st.lists(st.sampled_from(list(BellLabel)), min_size=1, max_size=4)


def collapse_outcomes(state, q1, q2, rng, size):
    return [bell_measure_collapse(state, q1, q2, rng)[0].value for _ in range(size)]


def measure_pair_swaps(b1, b2, rng, size):
    u1, u2, v1, v2 = (ParticleId(Party.ALICE, i) for i in range(1, 5))
    return [EntangledMatching([(u1, u2, b1), (v1, v2, b2)]).measure_pair(u2, v1, rng).value
            for _ in range(size)]


def assert_same_stream_position(rng_a, rng_b):
    assert rng_a.random() == rng_b.random()


class TestBellSample:
    @settings(deadline=None, max_examples=60)
    @given(labels_st, st.data(), st.integers(0, 2**32), st.integers(0, 40))
    def test_replays_collapse(self, labels, data, seed, size):
        state = prepare_pairs(labels)
        q1, q2 = data.draw(
            st.lists(st.integers(0, 2 * len(labels) - 1), min_size=2, max_size=2, unique=True)
        )
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = bell_sample(bell_distribution(state, q1, q2), fast, size)
        assert got.tolist() == collapse_outcomes(state, q1, q2, slow, size)
        assert_same_stream_position(fast, slow)

    def test_point_mass_never_leaves_its_label(self):
        # partners (0, 1) hold Phi- exactly: the other three branches have
        # probability zero and must never be drawn
        state = prepare_pairs([BellLabel.PHI_MINUS, BellLabel.PSI_PLUS])
        fast, slow = np.random.default_rng(3), np.random.default_rng(3)
        got = bell_sample(bell_distribution(state, 0, 1), fast, 5000)
        assert set(got.tolist()) == {BellLabel.PHI_MINUS.value}
        assert got.tolist() == collapse_outcomes(state, 0, 1, slow, 5000)

    def test_empty_and_negative_sizes(self):
        state = prepare_pairs([BellLabel.PHI_PLUS])
        probs = bell_distribution(state, 0, 1)
        assert bell_sample(probs, np.random.default_rng(0), 0).size == 0
        with pytest.raises(ValueError):
            bell_sample(probs, np.random.default_rng(0), -1)
        with pytest.raises(ValueError):
            bell_distribution(state, 0, 0)

    @pytest.mark.parametrize("probs", [np.full(5, 0.2), np.full(3, 1 / 3), np.full((1, 4), 0.25)])
    def test_refuses_probs_not_of_four_outcomes(self, probs):
        # five entries would draw outcome 4, three would fail on an index
        with pytest.raises(ValueError, match="4 Bell outcomes"):
            bell_sample(probs, np.random.default_rng(0), 3)

    @pytest.mark.parametrize("probs", [
        np.zeros(4),  # no total: every draw would be label 4
        np.array([np.nan, 0.5, 0.25, 0.25]),  # NaN: every draw would be label 0
        np.array([0.5, -0.25, 0.5, 0.25]),  # negative: label 1 sampled around
        np.array([np.inf, 0.0, 0.0, 0.0]),
    ], ids=["zeros", "nan", "negative", "inf"])
    def test_refuses_probs_that_are_no_distribution(self, probs):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="finite and nonnegative with a positive total"):
            bell_sample(probs, rng, 3)
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn


@pytest.mark.parametrize("chunk", [5, CHUNK])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sampled_check_counts_match_scalar_loops(monkeypatch, chunk, offset):
    monkeypatch.setattr(crosscheck, "CHUNK", chunk)
    samples = chunk + offset
    b1, b2 = BellLabel.PSI_MINUS, BellLabel.PHI_MINUS
    engine = measure_pair_swaps(b1, b2, session_rng(7), samples)
    oracle = collapse_outcomes(prepare_pairs([b1, b2]), 1, 2, session_rng(8), samples)
    engine_counts, oracle_counts = _sampled_swap_counts(samples, seed=7)
    assert engine_counts.tolist() == np.bincount(engine, minlength=4).tolist()
    assert oracle_counts.tolist() == np.bincount(oracle, minlength=4).tolist()


@pytest.mark.parametrize("samples", [1_000, 5_000])
def test_sampled_check_passes_correct_samplers_at_few_samples(samples):
    # a fixed TV threshold of 0.02 failed 176 of these seeds at 1,000 samples
    check = crosscheck.check_swap_distribution_sampled
    assert [seed for seed in range(200) if not check(samples, seed).passed] == []


def test_sampled_check_fails_a_sampler_that_never_returns_phi_plus(monkeypatch):
    sample = crosscheck.bell_sample
    monkeypatch.setattr(crosscheck, "bell_sample",
                        lambda probs, rng, size: sample(probs, rng, size) % 3 + 1)
    result = crosscheck.check_swap_distribution_sampled(20_000, 0)
    assert not result.passed and "oracle-vs-exact TV=0.2" in result.detail
