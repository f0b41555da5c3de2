"""The batched reflect kernel against the scalar session and the exact model.

`ReplayRng` feeds one recorded draws row to `run_reflect_attack`, so the
scalar session and the kernel consume identical draws and must agree bit
for bit. Exact enumeration over every equally likely draws row pins the
kernel's pass rate to the permutation model as a `Fraction`.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct.adversary import (
    ReflectBlock,
    ReflectDraws,
    Strategy,
    draw_reflect_block,
    reflect_blocks,
    reflect_kernel,
    run_cheat_experiment,
    run_reflect_attack,
)
from qct.analysis import pass_prob_permutation_model_exact
from qct.bell import PauliLabel
from qct.protocol import NoiseModel, SessionConfig
from qct.seeding import BLOCK_TRIALS, block_rng


def _cycles(tau) -> list[list[int]]:
    """Cycles of tau as 0-based orbits, each starting at its smallest member,
    in ascending order of that member."""
    seen, cycles = set(), []
    for start in range(len(tau)):
        if start in seen:
            continue
        cycle, m = [], start
        while m not in seen:
            seen.add(m)
            cycle.append(m)
            m = int(tau[m])
        cycles.append(cycle)
    return cycles


class ReplayRng:
    """Minimal rng stand-in that serves `run_reflect_attack` the draws of one
    recorded row, in the order the scalar session asks for them.

    The session draws Alice's sequence and Bob's return order, then at each
    index m in turn a swap outcome (unless the measurement closes its cycle,
    at the cycle's largest index), a noise uniform and, when the record is
    corrupted, a corruption label; last come Bob's guesses, cycle by cycle
    in orbit order, skipping each cycle's smallest index. A label draw may
    come as one `integers(4, size=k)` call, which pops the next k labels.
    """

    def __init__(self, row: ReflectDraws):
        n = len(row.swap)
        cycles = _cycles(row.alice_order[row.return_order])
        closers = {max(cycle) for cycle in cycles}
        self._perms = [row.alice_order, row.return_order]
        self._labels = [row.swap[m] for m in range(n) if m not in closers]
        self._labels += [row.guess[m] for cycle in cycles for m in cycle[1:]]
        self._noise, self._corrupt = row.noise, row.corrupt
        self._index = -1  # index of the last noise draw

    def permutation(self, n: int) -> np.ndarray:
        perm = self._perms.pop(0)
        assert len(perm) == n
        return perm

    def integers(self, low: int, high: int | None = None, size: int | None = None):
        if high is None:
            low, high = 0, low
        if (low, high) == (0, 4):
            if size is None:
                return self._labels.pop(0)
            # a batched draw serves the labels of `size` scalar draws, in order
            assert size <= len(self._labels), "more labels asked for than recorded"
            served, self._labels = self._labels[:size], self._labels[size:]
            return np.array(served, dtype=np.int64)
        assert (low, high) == (1, 4) and size is None, "unexpected draw"
        return self._corrupt[self._index]

    def random(self) -> float:
        self._index += 1
        return self._noise[self._index]

    @property
    def exhausted(self) -> bool:
        """Every draw served: noise uniforms at no index or at all of them."""
        noise_draws_ok = self._index in (-1, len(self._noise) - 1)
        return not self._perms and not self._labels and noise_draws_ok


def _row(draws: ReflectDraws, i: int) -> ReflectDraws:
    return ReflectDraws(*(field[i] for field in draws))


def _assert_replay_matches(draws: ReflectDraws, flip: PauliLabel, gamma: float) -> None:
    n = draws.swap.shape[1]
    config = SessionConfig(n, noise=NoiseModel(gamma) if gamma < 1.0 else None)
    block = reflect_kernel(draws, flip.value, gamma)
    for i in range(len(draws.swap)):
        rng = ReplayRng(_row(draws, i))
        run = run_reflect_attack(config, flip, rng)
        assert rng.exhausted
        assert [o.value for o in run.transcript.alice_outcomes] == block.alice[i].tolist()
        assert [o.value for o in run.transcript.bob_outcomes] == block.bob[i].tolist()
        assert run.passed == bool(block.passed[i])
        assert run.coin == int(block.coin[i])


@st.composite
def draws_rows(draw, max_pairs: int = 8):
    n = draw(st.integers(1, max_pairs))
    labels = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return ReflectDraws(
        alice_order=np.array([draw(st.permutations(range(n)))]),
        return_order=np.array([draw(st.permutations(range(n)))]),
        swap=np.array([draw(labels)], dtype=np.int8),
        noise=np.array([draw(st.lists(
            st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))]),
        corrupt=np.array([draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))],
                         dtype=np.int8),
        guess=np.array([draw(labels)], dtype=np.int8),
    )


class TestReplay:
    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    @pytest.mark.parametrize("flip", list(PauliLabel))
    @settings(deadline=None, max_examples=60)
    @given(draws=draws_rows())
    def test_scalar_session_equals_kernel(self, draws, flip, gamma):
        _assert_replay_matches(draws, flip, gamma)

    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_block_stream_rows_replay(self, n, gamma):
        draws = draw_reflect_block(block_rng(2026, 3), n)
        head = ReflectDraws(*(field[:150] for field in draws))
        _assert_replay_matches(head, PauliLabel.Y, gamma)

    def test_hand_worked_row(self):
        # tau = (0 1)(2 3): swaps at m=0, 2, closers at m=1, 3; Bob guesses
        # at m=1, 3 and derives m=0, 2.
        row = ReflectDraws(
            alice_order=np.array([[1, 0, 3, 2]]),
            return_order=np.array([[0, 1, 2, 3]]),
            swap=np.array([[1, 2, 3, 0]], dtype=np.int8),
            noise=np.zeros((1, 4)),
            corrupt=np.ones((1, 4), dtype=np.int8),
            guess=np.array([[0, 1, 2, 3]], dtype=np.int8),
        )
        block = reflect_kernel(row, PauliLabel.I.value)
        assert block.alice.tolist() == [[1, 1, 3, 3]]
        assert block.bob.tolist() == [[1, 1, 3, 3]]
        assert block.passed.tolist() == [True] and block.coin.tolist() == [0]
        block = reflect_kernel(row, PauliLabel.X.value)  # flips the cycle holding m=0
        assert block.alice.tolist() == [[1, 3, 3, 3]]
        assert block.bob.tolist() == [[3, 1, 3, 3]]
        assert block.passed.tolist() == [False] and block.coin.tolist() == [1]
        _assert_replay_matches(row, PauliLabel.X, 1.0)


def _all_rows(n: int) -> ReflectDraws:
    """Every noiseless draws row at n pairs, each once: both permutations and
    a label per index for swaps and guesses."""
    perms = np.array(list(itertools.permutations(range(n))))
    labels = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.int8)
    a, r, s, g = (
        axis.ravel()
        for axis in np.meshgrid(
            np.arange(len(perms)), np.arange(len(perms)),
            np.arange(len(labels)), np.arange(len(labels)), indexing="ij",
        )
    )
    rows = a.size
    return ReflectDraws(
        perms[a], perms[r], labels[s], np.zeros((rows, n)),
        np.ones((rows, n), dtype=np.int8), labels[g],
    )


class TestExactEnumeration:
    @pytest.mark.parametrize("n,rows", [(1, 16), (2, 1024), (3, 147_456)])
    def test_pass_count_equals_permutation_model(self, n, rows):
        draws = _all_rows(n)
        assert len(draws.swap) == rows
        for flip in PauliLabel:
            block = reflect_kernel(draws, flip.value)
            passes = int(np.count_nonzero(block.passed))
            assert Fraction(passes, rows) == pass_prob_permutation_model_exact(n)
            forced = int(np.count_nonzero(block.coin == flip.parity))
            assert Fraction(forced, rows) == 1


def _concat(blocks) -> ReflectBlock:
    return ReflectBlock(*(np.concatenate(field) for field in zip(*blocks)))


class TestBlockStreams:
    def test_short_run_is_prefix_of_longer_run(self):
        config = SessionConfig(3, seed=21)
        short_trials = BLOCK_TRIALS + 7
        short = _concat(reflect_blocks(config, PauliLabel.Y, short_trials))
        long = _concat(reflect_blocks(config, PauliLabel.Y, 2 * BLOCK_TRIALS + 100))
        assert len(short.passed) == short_trials
        assert len(long.passed) == 2 * BLOCK_TRIALS + 100
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a, b[:short_trials])
        report = run_cheat_experiment(config, Strategy.reflect(PauliLabel.Y), short_trials)
        assert report.successes == int(np.count_nonzero(long.passed[:short_trials]))

    def test_trial_reproduced_from_its_block(self):
        config = SessionConfig(4, seed=5, noise=NoiseModel(0.9))
        trials = 3 * BLOCK_TRIALS
        run = _concat(reflect_blocks(config, PauliLabel.X, trials))
        for i in (0, BLOCK_TRIALS - 1, BLOCK_TRIALS, trials - 1):
            draws = draw_reflect_block(block_rng(5, i // BLOCK_TRIALS), 4)
            alone = reflect_kernel(draws, PauliLabel.X.value, 0.9)
            for got, want in zip(run, alone):
                np.testing.assert_array_equal(got[i], want[i % BLOCK_TRIALS])

    @pytest.mark.parametrize("gamma", [1.0, 0.9])
    def test_one_trial_is_row_zero_of_the_full_block(self, gamma):
        config = SessionConfig(4, seed=11, noise=NoiseModel(gamma))
        draws = draw_reflect_block(block_rng(11, 0), 4)
        for flip in PauliLabel:
            (one,) = reflect_blocks(config, flip, 1)
            full = reflect_kernel(draws, flip.value, gamma)
            for got, want in zip(one, full):
                assert len(got) == 1
                np.testing.assert_array_equal(got[0], want[0])
            report = run_cheat_experiment(config, Strategy.reflect(flip), 1)
            assert report.successes == int(full.passed[0])

    def test_a_thousand_trials_draw_one_block(self):
        assert BLOCK_TRIALS >= 1000
        assert len(list(reflect_blocks(SessionConfig(2), PauliLabel.I, 1000))) == 1
