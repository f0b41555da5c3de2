"""Cheating-strategy tests: cycles, best guesses, forcing, futility."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qct.adversary import (
    Strategy,
    StrategyKind,
    best_guess_results,
    cycle_structure,
    run_cheat_experiment,
    run_fake_sequence_attack,
    run_reflect_attack,
    wilson_interval,
)
from qct.analysis import pass_prob_permutation_model
from qct.bell import (
    BellLabel,
    EntangledMatching,
    ParticleId,
    Party,
    PauliLabel,
    total_parity,
)
from qct.protocol import SessionConfig, cycle_outcomes
from qct.seeding import session_rng
from reference import stirling_first_kind


class TestStrategy:
    def test_argument_validation(self):
        Strategy.reflect(PauliLabel.X)
        Strategy.fake_sequence(1)
        with pytest.raises(ValueError):
            Strategy.fake_sequence(2)
        # flip must be a PauliLabel member, desired the int 0 or 1
        for flip in (7, 3, Party.ALICE, None):
            with pytest.raises(ValueError, match="flip must be a PauliLabel"):
                Strategy(StrategyKind.REFLECT, flip)
        for desired in (True, False, 1.0, np.int64(1), "1"):
            with pytest.raises(ValueError, match="desired coin must be the int 0 or 1"):
                Strategy(StrategyKind.FAKE_SEQUENCE, desired=desired)
        # kind must be a StrategyKind member, not its value or anything else
        for kind in ("reflect", "honest", 1, None, PauliLabel.X):
            with pytest.raises(ValueError, match="kind must be a StrategyKind"):
                Strategy(kind)

    def test_options_belong_to_their_kind(self):
        with pytest.raises(ValueError, match="flip applies to the reflect strategy, not fake-seq"):
            Strategy(StrategyKind.FAKE_SEQUENCE, PauliLabel.X)
        with pytest.raises(ValueError, match="desired applies to the fake-seq strategy, not honest"):
            Strategy(StrategyKind.HONEST, desired=1)
        # seven strategies: honest, reflect with each flip, fake-seq for each coin
        made = set()
        for kind, flip, desired in itertools.product(StrategyKind, PauliLabel, (0, 1)):
            try:
                made.add(Strategy(kind, flip, desired))
            except ValueError:
                pass
        assert made == {Strategy.honest(), *map(Strategy.reflect, PauliLabel),
                        Strategy.fake_sequence(0), Strategy.fake_sequence(1)}
        assert len(made) == 7

    def test_describe(self):
        assert Strategy.reflect(PauliLabel.Z).describe() == "reflect(flip=Z)"
        assert Strategy.fake_sequence(1).describe() == "fake-seq(desired=1)"

    def test_constructors_cached_per_typed_argument(self):
        assert Strategy.reflect(PauliLabel.X) is Strategy.reflect(PauliLabel.X)
        assert Strategy.fake_sequence(1) is Strategy.fake_sequence(1)
        # an equal int or bool is not served the valid argument's entry, and
        # is refused
        assert Strategy.reflect(PauliLabel.Y).flip is PauliLabel.Y
        with pytest.raises(ValueError):
            Strategy.reflect(3)
        with pytest.raises(ValueError):
            Strategy.fake_sequence(True)
        assert type(Strategy.fake_sequence(1).desired) is int


def _independent_cycle_count(tau: dict[int, int]) -> int:
    seen, count = set(), 0
    for start in tau:
        if start in seen:
            continue
        count += 1
        node = start
        while node not in seen:
            seen.add(node)
            node = tau[node]
    return count


class TestCycleDecomposition:
    def test_identity_order_gives_fixed_points(self):
        assert cycle_structure((1, 2, 3)) == ((1,), (2,), (3,))

    def test_two_slot_swap_gives_one_transposition(self):
        assert cycle_structure([2, 1]) == ((1, 2),)

    def test_cycles_listed_by_smallest_member(self):
        assert cycle_structure((3, 5, 1, 4, 2)) == ((1, 3), (2, 5), (4,))

    @pytest.mark.parametrize("order", [(1, 1), (2, 2, 1), (0, 1), (-1, 1), (2, 1, 2, 5)])
    def test_non_permutations_rejected(self, order):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\."):
            cycle_structure(order)

    @pytest.mark.parametrize("order, error", [((2, 3), IndexError), ((1.0,), TypeError)])
    def test_entries_that_index_no_pair_rejected(self, order, error):
        with pytest.raises(error):
            cycle_structure(order)

    @settings(deadline=None)
    @given(st.permutations(list(range(1, 8))))
    def test_against_independent_decomposition(self, order):
        cycles = cycle_structure(order)
        assert sum(map(len, cycles)) == 7
        tau = {m: order[m - 1] for m in range(1, 8)}
        assert len(cycles) == _independent_cycle_count(tau)
        # every cycle really is a tau-orbit
        for cycle in cycles:
            for i, m in enumerate(cycle):
                assert tau[m] == cycle[(i + 1) % len(cycle)]


class TestBestGuess:
    def test_fixed_points_guessed_exactly(self):
        cycles = ((1,), (2,), (3,))
        assert best_guess_results(cycles, []) == [BellLabel.PHI_PLUS] * 3
        assert best_guess_results((), []) == []

    def test_cycle_xor_matches_target(self):
        rng = session_rng(1)
        cycles = ((1, 3, 4), (2, 5))
        for _ in range(200):
            guess = best_guess_results(cycles, rng.integers(4, size=3).tolist(),
                                       BellLabel.PSI_PLUS)
            xor_a = guess[0].value ^ guess[2].value ^ guess[3].value
            xor_b = guess[1].value ^ guess[4].value
            assert BellLabel(xor_a) is BellLabel.PSI_PLUS
            assert BellLabel(xor_b) is BellLabel.PHI_PLUS

    @pytest.mark.parametrize("cycles", [((1,), (2,)), ((1, 3, 4), (2, 5)), ((1, 2, 3, 4, 5, 6),)])
    def test_runs_the_phase_rule_on_the_guesses(self, cycles):
        # the flip's label on pair 1, the free guesses where the phase swaps
        n = sum(map(len, cycles))
        free = [(5 * k + 2) % 4 for k in range(n - len(cycles))]
        guess = best_guess_results(cycles, free, BellLabel.PSI_MINUS)
        want = cycle_outcomes(cycles, [3] + [0] * (n - 1), free)
        assert guess == [BellLabel(v) for v in want]

    def test_one_label_per_free_guess(self):
        cycles = ((1, 3, 4), (2, 5))
        for free in ([0, 1], [0, 1, 2, 3]):
            with pytest.raises(ValueError, match=f"{len(free)} labels for 3 free guesses"):
                best_guess_results(cycles, free)

    def test_two_cycle_uniform_over_equal_pairs(self):
        # consistent set for a 2-cycle with target 00 = the four equal pairs
        rng = session_rng(2)
        cycles = ((1, 2),)
        counts = {label: 0 for label in BellLabel}
        trials = 20_000
        for _ in range(trials):
            a, b = best_guess_results(cycles, [int(rng.integers(4))])
            assert a is b
            counts[a] += 1
        result = stats.chisquare(list(counts.values()))
        assert result.pvalue > 0.001


class TestReflectAttack:
    @pytest.mark.parametrize("flip", list(PauliLabel))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_coin_forced_exactly(self, flip, n):
        config = SessionConfig(n, seed=13)
        for i in range(50):
            run = run_reflect_attack(config, flip, session_rng(1000 * n + i))
            assert run.coin == flip.parity

    def test_transcript_shape(self):
        run = run_reflect_attack(SessionConfig(3, seed=8), PauliLabel.X, session_rng(8))
        t = run.transcript
        assert len(t.messages) in (5, 6)
        bob_batch = t.messages[1]
        # Bob ships back Alice's own odd particles
        assert all(p.owner is Party.ALICE and p.index % 2 == 1 for p in bob_batch.particles)
        assert t.bob_outcomes == t.messages[3].results

    def test_pass_implies_exact_match(self):
        hits = 0
        for i in range(300):
            run = run_reflect_attack(SessionConfig(2, seed=0), PauliLabel.I, session_rng(i))
            if run.passed:
                hits += 1
                assert run.transcript.alice_outcomes == run.transcript.bob_outcomes
        assert 0 < hits < 300  # some pass, some fail

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_per_cycle_match_rate(self, length):
        """A single cycle of length L matches with probability 4**(1-L)."""
        rng = session_rng(31 + length)
        arrived = [(m % length) + 1 for m in range(1, length + 1)]
        cycles = cycle_structure(arrived)
        assert tuple(map(len, cycles)) == (length,)
        trials = 40_000 if length > 1 else 500
        hits = 0
        for _ in range(trials):
            matching = EntangledMatching(
                (
                    ParticleId(Party.ALICE, 2 * m - 1),
                    ParticleId(Party.ALICE, 2 * m),
                    BellLabel.PHI_PLUS,
                )
                for m in range(1, length + 1)
            )
            outcomes = [
                matching.measure_pair(
                    ParticleId(Party.ALICE, 2 * m),
                    ParticleId(Party.ALICE, 2 * arrived[m - 1] - 1),
                    rng,
                )
                for m in range(1, length + 1)
            ]
            if best_guess_results(cycles, rng.integers(4, size=length - 1).tolist()) == outcomes:
                hits += 1
        p = 4.0 ** (1 - length)
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) <= max(3 * sigma, 1e-12)

    def test_tau_is_uniform_cycle_count_distribution(self):
        """Cycle counts over many runs follow the signless Stirling weights."""
        n, trials = 4, 20_000
        counts = np.zeros(n + 1)
        for i in range(trials):
            run = run_reflect_attack(SessionConfig(n, seed=7), PauliLabel.I, session_rng(i))
            arrived_pairs = [(p.index + 1) // 2 for p in run.transcript.messages[1].particles]
            tau = {m: arrived_pairs[m - 1] for m in range(1, n + 1)}
            counts[_independent_cycle_count(tau)] += 1
        stirling = stirling_first_kind(n)
        expected = np.array([trials * stirling[m] / 24.0 for m in range(n + 1)])
        result = stats.chisquare(counts[1:], expected[1:])
        assert result.pvalue > 0.001


class TestFakeSequenceAttack:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_parity_equality_exact(self, n):
        config = SessionConfig(n, seed=3)
        for i in range(400):
            run = run_fake_sequence_attack(config, desired=1, rng=session_rng(i))
            t = run.transcript
            assert total_parity(t.alice_outcomes) == total_parity(t.bob_outcomes)
            assert run.bob_coin == total_parity(t.bob_outcomes)

    def test_single_pair_degenerates_to_honest(self):
        config = SessionConfig(1, seed=0)
        for i in range(100):
            run = run_fake_sequence_attack(config, desired=0, rng=session_rng(i))
            t = run.transcript
            true_first = (t.messages[0].particles[0].index + 1) // 2
            assert t.messages[2].sequence.order[0] == true_first
            assert t.alice_outcomes == t.bob_outcomes

    def test_lie_told_exactly_when_coin_wrong(self):
        config = SessionConfig(3, seed=0)
        lied = honest = 0
        for i in range(400):
            run = run_fake_sequence_attack(config, desired=1, rng=session_rng(i))
            t = run.transcript
            true_seq = tuple((p.index + 1) // 2 for p in t.messages[0].particles)
            announced = t.messages[2].sequence.order
            alice_coin = total_parity(t.alice_outcomes)
            if alice_coin == 1:
                honest += 1
                assert announced == true_seq
            else:
                lied += 1
                assert announced != true_seq
        assert lied > 0 and honest > 0

    def test_desired_coin_not_forced(self):
        config = SessionConfig(2, seed=0)
        hits = sum(
            run_fake_sequence_attack(config, desired=1, rng=session_rng(i)).bob_coin
            for i in range(4000)
        )
        rate = hits / 4000
        assert abs(rate - 0.5) < 4 * (0.25 / 4000) ** 0.5

    def test_desired_validation(self):
        with pytest.raises(ValueError):
            run_fake_sequence_attack(SessionConfig(2), desired=2, rng=session_rng(0))


class TestExperiments:
    def test_wilson_against_scipy(self):
        for successes, trials in [(0, 10), (10, 10), (7, 19), (625, 1000), (1, 100_000)]:
            lo, hi = wilson_interval(successes, trials)
            ref = stats.binomtest(successes, trials).proportion_ci(
                confidence_level=0.95, method="wilson"
            )
            assert lo == pytest.approx(ref.low, abs=1e-12)
            assert hi == pytest.approx(ref.high, abs=1e-12)

    def test_wilson_brackets_estimate(self):
        for trials in range(1, 301):
            for successes in range(trials + 1):
                lo, hi = wilson_interval(successes, trials)
                assert lo <= successes / trials <= hi

    def test_wilson_pins_edges_for_every_trial_count(self):
        for trials in range(1, 10_001):
            lo, hi = wilson_interval(0, trials)
            assert lo == 0.0 and 0.0 < hi < 1.0
            lo, hi = wilson_interval(trials, trials)
            assert 0.0 < lo < 1.0 and hi == 1.0

    @pytest.mark.parametrize("successes", [5, 4, -1])
    def test_wilson_rejects_successes_outside_range(self, successes):
        with pytest.raises(ValueError, match="successes must lie in 0..3"):
            wilson_interval(successes, 3)

    def test_report_reproducible_and_consistent(self):
        config = SessionConfig(2, seed=77)
        a = run_cheat_experiment(config, Strategy.reflect(), 3000)
        b = run_cheat_experiment(config, Strategy.reflect(), 3000)
        assert a == b
        assert a.estimate == a.successes / a.trials
        assert a.ci_low <= a.estimate <= a.ci_high
        assert a.forced_coin_rate == 1.0  # flip I forces coin 0 every run
        assert a.seed == 77

    def test_pass_rate_matches_permutation_model_n3(self):
        report = run_cheat_experiment(SessionConfig(3, seed=5), Strategy.reflect(), 20_000)
        assert report.ci_low <= pass_prob_permutation_model(3) <= report.ci_high
        assert report.ci_low <= 0.3125 <= report.ci_high

    def test_fake_sequence_experiment(self):
        report = run_cheat_experiment(
            SessionConfig(2, seed=6), Strategy.fake_sequence(1), 4000
        )
        assert report.forced_coin_rate == report.estimate
        assert abs(report.estimate - 0.5) < 0.03

    def test_honest_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_cheat_experiment(SessionConfig(2), Strategy.honest(), 10)

    def test_trial_count_validated(self):
        with pytest.raises(ValueError):
            run_cheat_experiment(SessionConfig(2), Strategy.reflect(), 0)
