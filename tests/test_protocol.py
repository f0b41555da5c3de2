"""Honest-protocol tests: sequences, messages, transcript order, noise."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qct.bell import BellLabel, ParticleId, Party, total_parity
from qct.protocol import (
    CoinAnnouncement,
    EmptyOutcomesError,
    LengthMismatchError,
    NoiseModel,
    ParticleBatch,
    ProtocolOrderError,
    ResultsAnnouncement,
    Sequence,
    SequenceAnnouncement,
    SessionConfig,
    SessionTranscript,
    Verdict,
    VerdictAnnouncement,
    alice_verify,
    apply_noise,
    phase_of,
    random_sequence,
    run_honest,
    toss_from_outcomes,
)
from qct.seeding import session_rng
from test_int_path import _state


class TestSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sequence((1, 1, 3))
        with pytest.raises(ValueError):
            Sequence((0, 1, 2))
        with pytest.raises(ValueError):
            Sequence(())

    def test_inverse_kept_out_of_repr_and_equality(self):
        assert repr(Sequence((2, 1))) == "Sequence(order=(2, 1))"
        assert Sequence((2, 1)) == Sequence((2, 1)) != Sequence((1, 2))
        assert hash(Sequence((2, 1))) == hash(Sequence((2, 1)))

    @given(st.lists(st.integers(-2, 8), max_size=7))
    def test_rejects_exactly_the_non_permutations(self, order):
        # the O(N) check against the definition: sorted order is 1..n
        n = len(order)
        if n and sorted(order) == list(range(1, n + 1)):
            assert Sequence(tuple(order)).order == tuple(order)
        else:
            with pytest.raises(ValueError) as info:
                Sequence(tuple(order))
            assert str(info.value) == f"not a permutation of 1..{n}: {tuple(order)}"

    def test_integer_like_pairs(self):
        assert Sequence((np.int64(2), np.int64(1))).order == (2, 1)
        assert Sequence((True,)).order == (1,)
        with pytest.raises(ValueError):
            Sequence((True, True))

    @pytest.mark.parametrize("order", [
        (1.0,), (2.0, 1.0), (1, 2.0), (2.5, 1), (np.True_,), (Fraction(1),), (np.float64(1.0),),
    ])
    def test_float_pairs_rejected_as_non_permutations(self, order):
        with pytest.raises(ValueError) as info:
            Sequence(order)
        assert str(info.value) == f"not a permutation of 1..{len(order)}: {order}"

    @pytest.mark.parametrize("n", [1, 2, 4, 11, 32])
    def test_random_sequence_equals_the_checked_sequence(self, n):
        for seed in range(200):
            rng, twin = session_rng(seed), session_rng(seed)
            seq = random_sequence(n, rng)
            checked = Sequence(tuple([x + 1 for x in twin.permutation(n).tolist()]))
            assert seq.order == checked.order
            assert seq == checked and hash(seq) == hash(checked)
            assert repr(seq) == repr(checked)
            assert _state(rng) == _state(twin)

    @pytest.mark.parametrize("n", [0, -1])
    def test_random_sequence_of_no_pairs_refused(self, n):
        with pytest.raises(ValueError, match=r"not a permutation of 1..0: \(\)"):
            random_sequence(n, session_rng(1))

    def test_random_sequence_is_permutation(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5, 9):
            seq = random_sequence(n, rng)
            assert sorted(seq.order) == list(range(1, n + 1))


class TestConfigs:
    def test_n_pairs_validated(self):
        with pytest.raises(ValueError):
            SessionConfig(0)

    @pytest.mark.parametrize("n_pairs", [2.5, 3.0, True, False, np.int64(3), "3", None])
    def test_n_pairs_must_be_an_int(self, n_pairs):
        with pytest.raises(ValueError, match="n_pairs must be an int"):
            SessionConfig(n_pairs)

    @pytest.mark.parametrize("seed", [2.5, 3.0, True, False, np.int64(3), "3", None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            SessionConfig(2, seed)

    @pytest.mark.parametrize("noise", [0.9, 1.0, "0.9", True])
    def test_noise_must_be_a_noise_model(self, noise):
        with pytest.raises(ValueError, match=re.escape(
                f"noise must be a NoiseModel or None, not {noise!r}")):
            SessionConfig(4, 0, noise)
        SessionConfig(4, 0, NoiseModel(0.9))
        SessionConfig(4, 0, None)

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0)
        with pytest.raises(ValueError):
            NoiseModel(1.2)
        NoiseModel(1.0)


class TestTossAndVerify:
    def test_toss_parity(self):
        assert toss_from_outcomes([BellLabel.PHI_MINUS, BellLabel.PSI_PLUS]) == 0
        assert toss_from_outcomes([BellLabel.PHI_MINUS]) == 1
        assert toss_from_outcomes([BellLabel.PHI_PLUS, BellLabel.PSI_MINUS]) == 0

    def test_toss_empty_errors(self):
        with pytest.raises(EmptyOutcomesError):
            toss_from_outcomes([])

    def test_verify(self):
        a = [BellLabel.PHI_PLUS, BellLabel.PSI_MINUS]
        assert alice_verify(a, list(a)) is Verdict.ACCEPT
        assert alice_verify(a, [BellLabel.PHI_PLUS, BellLabel.PSI_PLUS]) is Verdict.REJECT
        # same multiset, wrong position: index-by-index comparison rejects
        assert alice_verify(a, list(reversed(a))) is Verdict.REJECT
        with pytest.raises(LengthMismatchError):
            alice_verify(a, a[:1])


class TestNoise:
    def test_gamma_one_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert apply_noise(BellLabel.PSI_PLUS, NoiseModel(1.0), rng) is BellLabel.PSI_PLUS
        for _ in range(200):
            assert apply_noise(BellLabel.PSI_PLUS, None, rng) is BellLabel.PSI_PLUS

    def test_corruption_uniform_over_other_labels(self):
        rng = np.random.default_rng(7)
        noise = NoiseModel(0.25)
        counts = {label: 0 for label in BellLabel}
        trials = 40_000
        for _ in range(trials):
            counts[apply_noise(BellLabel.PHI_PLUS, noise, rng)] += 1
        kept = counts[BellLabel.PHI_PLUS]
        others = [counts[b] for b in BellLabel if b is not BellLabel.PHI_PLUS]
        # kept with probability 1/4; the rest split evenly three ways
        expected = [trials * 0.25] + [trials * 0.25] * 3
        result = stats.chisquare([kept] + others, expected)
        assert result.pvalue > 0.001


class _Batch(ParticleBatch):
    """A subclass of a message type, which fits no phase."""


class TestTranscriptOrder:
    def test_out_of_order_rejected(self):
        transcript = SessionTranscript(SessionConfig(2))
        announcement = SequenceAnnouncement(Party.ALICE, Sequence((1, 2)))
        with pytest.raises(ProtocolOrderError):
            transcript.append(announcement)

    def test_full_order_accepted(self):
        transcript = SessionTranscript(SessionConfig(1))
        batch_a = ParticleBatch(Party.ALICE, (ParticleId(Party.ALICE, 1),))
        batch_b = ParticleBatch(Party.BOB, (ParticleId(Party.BOB, 1),))
        transcript.append(batch_a)
        with pytest.raises(ProtocolOrderError):
            transcript.append(batch_a)  # Alice cannot send her batch twice
        transcript.append(batch_b)
        transcript.append(SequenceAnnouncement(Party.ALICE, Sequence((1,))))
        transcript.append(ResultsAnnouncement(Party.BOB, (BellLabel.PHI_PLUS,)))
        transcript.append(VerdictAnnouncement(Party.ALICE, Verdict.ACCEPT))
        transcript.append(CoinAnnouncement(Party.ALICE, 0))
        with pytest.raises(ProtocolOrderError):
            transcript.append(CoinAnnouncement(Party.ALICE, 0))

    @staticmethod
    def _error(add):
        try:
            add()
        except ProtocolOrderError as exc:
            return str(exc)
        return None

    def test_constructor_raises_what_append_raises(self):
        seq = Sequence((1,))
        full = [
            ParticleBatch(Party.ALICE, ()),
            ParticleBatch(Party.BOB, ()),
            SequenceAnnouncement(Party.ALICE, seq),
            ResultsAnnouncement(Party.BOB, ()),
            VerdictAnnouncement(Party.ALICE, Verdict.ACCEPT),
            CoinAnnouncement(Party.BOB, 1),
        ]
        # (start, messages): the constructor is given full[:start] + messages
        cases = [
            (0, full),
            (0, full[:5]),
            (2, full[2:]),
            (0, []),
            (0, full + [CoinAnnouncement(Party.ALICE, 0)]),  # nothing after the coin
            (0, full[:5] + [CoinAnnouncement(Party.ALICE, 0), full[5]]),
            (0, full[:2] + full[3:]),  # sequence announcement skipped
            (1, full),  # Alice's batch again
            (0, full[:3] + [ResultsAnnouncement(Party.ALICE, ())] + full[4:]),  # misfit
            (0, full[:1] + [seq]),  # not a message
            (0, [ParticleBatch("alice", ())] + full[1:]),  # a str equal to a Party member
            (4, [VerdictAnnouncement("alice", Verdict.ACCEPT)]),
            (5, [CoinAnnouncement("bob", 1)]),
            (0, [_Batch(Party.ALICE, ())] + full[1:]),  # a subclass of a message type
        ]
        for start, messages in cases:
            given = full[:start] + messages
            transcript = SessionTranscript(SessionConfig(1))
            error = self._error(lambda: [transcript.append(m) for m in given])
            assert self._error(lambda: SessionTranscript(SessionConfig(1), given)) == error, given
            if error is None:
                assert SessionTranscript(SessionConfig(1), given).messages == given

    @pytest.mark.parametrize(
        "messages",
        [[CoinAnnouncement(Party.BOB, 1), "junk"],
         [VerdictAnnouncement(Party.ALICE, Verdict.ACCEPT)],
         [ParticleBatch(Party.BOB, ()), ParticleBatch(Party.ALICE, ())],
         ["junk"],
         [ParticleBatch("alice", ())]],
        ids=["coin-then-junk", "verdict-first", "batches-swapped", "not-a-message",
             "str-sender"],
    )
    def test_constructor_refuses_out_of_order_lists(self, messages):
        with pytest.raises(ProtocolOrderError):
            SessionTranscript(SessionConfig(2), messages)


class TestPhaseOf:
    def test_each_message_has_its_phase(self):
        messages = [
            ParticleBatch(Party.ALICE, ()),
            ParticleBatch(Party.BOB, ()),
            SequenceAnnouncement(Party.ALICE, Sequence((1,))),
            ResultsAnnouncement(Party.BOB, ()),
            VerdictAnnouncement(Party.ALICE, Verdict.ACCEPT),
            CoinAnnouncement(Party.ALICE, 0),
        ]
        assert [phase_of(m) for m in messages] == list(range(6))
        assert phase_of(CoinAnnouncement(Party.BOB, 1)) == 5

    @pytest.mark.parametrize(
        "message",
        [SequenceAnnouncement(Party.BOB, Sequence((1,))),
         ResultsAnnouncement(Party.ALICE, ()),
         VerdictAnnouncement(Party.BOB, Verdict.REJECT),
         Sequence((1,)),
         ParticleBatch("alice", ()),
         _Batch(Party.ALICE, ())],
        ids=["bob-sequence", "alice-results", "bob-verdict", "not-a-message",
             "str-sender", "message-subclass"],
    )
    def test_misfits_rejected(self, message):
        with pytest.raises(ProtocolOrderError, match="does not fit any protocol phase"):
            phase_of(message)


class TestHonestRun:
    def test_single_pair_outcomes_identical(self):
        seen = set()
        for seed in range(64):
            t = run_honest(SessionConfig(1, seed=seed))
            assert t.alice_outcomes == t.bob_outcomes
            assert t.verdict is Verdict.ACCEPT
            assert t.coin == t.alice_outcomes[0].parity
            seen.add(t.alice_outcomes[0])
        assert seen == set(BellLabel)  # all four labels actually occur

    def test_n4_session_shape(self):
        t = run_honest(SessionConfig(4, seed=11))
        assert len(t.messages) == 6
        assert t.verdict is Verdict.ACCEPT
        assert t.alice_outcomes == t.bob_outcomes
        assert t.coin == total_parity(t.alice_outcomes)
        assert t.alice_coin == t.bob_coin == t.coin
        batch = t.messages[0]
        assert isinstance(batch, ParticleBatch)
        assert sorted(p.index for p in batch.particles) == [1, 3, 5, 7]

    def test_reproducible(self):
        a = run_honest(SessionConfig(3, seed=5))
        b = run_honest(SessionConfig(3, seed=5))
        assert a.alice_outcomes == b.alice_outcomes
        assert a.messages[2].sequence == b.messages[2].sequence

    def test_default_stream_is_session_rng(self):
        for seed in (-1, 0, 7, 2**64 + 7):
            default = run_honest(SessionConfig(3, seed=seed))
            explicit = run_honest(SessionConfig(3, seed=seed), session_rng(seed))
            assert default.messages == explicit.messages
            assert default.alice_outcomes == explicit.alice_outcomes
        negative = run_honest(SessionConfig(3, seed=-1))
        assert negative.verdict is Verdict.ACCEPT

    def test_coin_equals_parity_lemma_over_both_parties(self):
        # 2N source pairs are all Phi+ (total parity 0), so the XOR over all
        # 2N outcomes vanishes and the parties' coins agree, run by run
        for seed in range(40):
            t = run_honest(SessionConfig(3, seed=seed))
            assert total_parity(t.alice_outcomes + t.bob_outcomes) == 0

    def test_noiseless_never_rejects(self):
        for seed in range(300):
            assert run_honest(SessionConfig(2, seed=seed)).verdict is Verdict.ACCEPT

    def test_noisy_reject_rate(self):
        # per-pair agreement: gamma^2 + (1-gamma)^2 / 3 (both kept, or both
        # corrupted onto the same of three labels); accept = that to the N
        gamma, n, runs = 0.8, 2, 30_000
        agree = gamma**2 + (1.0 - gamma) ** 2 / 3.0
        expected_reject = 1.0 - agree**n
        rng = np.random.default_rng(99)
        config = SessionConfig(n, noise=NoiseModel(gamma))
        rejects = sum(
            run_honest(config, rng).verdict is Verdict.REJECT for _ in range(runs)
        )
        rate = rejects / runs
        sigma = (expected_reject * (1 - expected_reject) / runs) ** 0.5
        assert abs(rate - expected_reject) < 4 * sigma

    def test_abort_rate_is_two_sided_not_analysis_bound(self):
        # analysis.robustness_ok / min_gamma budget the one-sided rate
        # 1 - gamma^N; the simulator corrupts both parties' records, so an
        # honest session aborts at 1 - (gamma^2 + (1-gamma)^2/3)^N instead
        gamma, n, runs = 0.9, 4, 10_000
        two_sided = 1.0 - (gamma**2 + (1.0 - gamma) ** 2 / 3.0) ** n  # ~0.562
        one_sided = 1.0 - gamma**n  # ~0.344
        rng = np.random.default_rng(2026)
        config = SessionConfig(n, noise=NoiseModel(gamma))
        aborts = sum(run_honest(config, rng).verdict is Verdict.REJECT for _ in range(runs))
        rate = aborts / runs
        sigma = (two_sided * (1 - two_sided) / runs) ** 0.5
        assert abs(rate - two_sided) < 5 * sigma
        assert abs(rate - one_sided) > 5 * sigma

    def test_rejected_run_has_no_coin(self):
        rng = np.random.default_rng(4)
        config = SessionConfig(4, noise=NoiseModel(0.3))
        saw_reject = False
        for _ in range(200):
            t = run_honest(config, rng)
            if t.verdict is Verdict.REJECT:
                saw_reject = True
                assert t.coin is None
                assert len(t.messages) == 5  # no coin announcement
        assert saw_reject
