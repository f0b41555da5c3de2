"""The batched reflect kernel against the scalar session and the exact model.

`ReplayRng` feeds one recorded draws row to `run_reflect_attack`, so the
scalar session and the kernel consume identical draws and must agree bit
for bit; the scalar rules `cycle_outcomes` and `best_guess_results` take
a row's draws as arguments and must give the kernel's rows. Exact
enumeration over every equally likely draws row pins the kernel's pass
rate to the permutation model as a `Fraction`.
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
from qct.protocol import (
    NoiseModel,
    SessionConfig,
    best_guess_results,
    cycle_kernel,
    cycle_outcomes,
    cycle_structure,
)
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

    The session draws Alice's sequence and Bob's return order; then the
    phase's swap labels, one per index m in order except where the
    measurement closes its cycle (at the cycle's largest index); then Bob's
    guesses, by the same rule; then, under noise, the noise on the records:
    at each index m in order a noise uniform and, when the record is
    corrupted, a corruption label. The swap labels and guesses may come as
    one `random(k, dtype=np.float32)` call, which pops the next k labels and
    serves each as label / 4, a float32 uniform that four times truncates to
    that label. A label asked for after the first noise uniform fails the
    replay.
    """

    def __init__(self, row: ReflectDraws):
        n = len(row.swap)
        cycles = _cycles(row.alice_order[row.return_order])
        closers = {max(cycle) for cycle in cycles}
        self._perms = [row.alice_order, row.return_order]
        self._labels = [row.swap[m] for m in range(n) if m not in closers]
        self._labels += [row.guess[m] for m in range(n) if m not in closers]
        self._noise, self._corrupt = row.noise, row.corrupt
        self._index = -1  # index of the last noise draw

    def permutation(self, n: int) -> np.ndarray:
        perm = self._perms.pop(0)
        assert len(perm) == n
        return perm

    def integers(self, low: int, high: int | None = None, size: int | None = None):
        if high is None:
            low, high = 0, low
        assert size is None, "unexpected draw"
        if (low, high) == (0, 4):
            assert self._index == -1, "a label drawn after the noise"
            return self._labels.pop(0)
        assert (low, high) == (1, 4), "unexpected draw"
        return self._corrupt[self._index]

    def random(self, size: int | None = None, dtype=None):
        if size is None:
            assert dtype is None, "unexpected draw"
            self._index += 1
            return self._noise[self._index]
        # a batched draw serves the labels of `size` scalar draws, in order
        assert dtype is np.float32, "unexpected draw"
        assert self._index == -1, "a label drawn after the noise"
        assert size <= len(self._labels), "more labels asked for than recorded"
        served, self._labels = self._labels[:size], self._labels[size:]
        return np.array(served, dtype=np.float32) / 4

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

    def test_replay_serves_labels_as_float32_and_none_after_the_noise(self):
        row = ReflectDraws(
            alice_order=np.array([1, 0]), return_order=np.array([0, 1]),
            swap=np.array([2, 0], dtype=np.int8), noise=np.array([0.5, 0.25]),
            corrupt=np.array([1, 1], dtype=np.int8), guess=np.array([0, 3], dtype=np.int8))
        rng = ReplayRng(row)  # one 2-cycle: the swap label and the guess at m=0
        served = rng.random(2, dtype=np.float32)
        assert served.dtype == np.float32 and (served * 4).tolist() == [2, 0]
        rng = ReplayRng(row)
        assert rng.random() == 0.5
        with pytest.raises(AssertionError, match="a label drawn after the noise"):
            rng.random(1, dtype=np.float32)
        with pytest.raises(AssertionError, match="a label drawn after the noise"):
            rng.integers(4)

    def test_hand_worked_row(self):
        # tau = (0 1)(2 3): swaps at m=0, 2, closers at m=1, 3; Bob guesses
        # at m=0, 2 and derives m=1, 3 by Alice's rule.
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
        assert block.bob.tolist() == [[0, 0, 2, 2]]
        assert block.passed.tolist() == [False] and block.coin.tolist() == [0]
        block = reflect_kernel(row, PauliLabel.X.value)  # flips the cycle holding m=0
        assert block.alice.tolist() == [[1, 3, 3, 3]]
        assert block.bob.tolist() == [[0, 2, 2, 2]]
        assert block.passed.tolist() == [False] and block.coin.tolist() == [1]
        _assert_replay_matches(row, PauliLabel.X, 1.0)


@pytest.mark.parametrize("n", [*range(1, 12), 32, 128, 1024])
def test_kernel_rows_equal_the_scalar_rules(n):
    # the scalar rules take a row's draws as arguments: no stream between them
    gamma = 0.9
    draws = draw_reflect_block(block_rng(23, n), n)
    head = ReflectDraws(*(field[:200 if n < 12 else 3] for field in draws))
    blocks = {flip: reflect_kernel(head, flip.value, gamma) for flip in PauliLabel}
    for i, row in enumerate(zip(*(field.tolist() for field in head))):
        alice_order, return_order, swap, noise, corrupt, guess = row
        tau = [alice_order[r] for r in return_order]
        cycles = cycle_structure([t + 1 for t in tau])
        closing = {max(cycle) for cycle in cycles}
        swaps = [swap[m - 1] for m in range(1, n + 1) if m not in closing]
        guesses = [guess[m - 1] for m in range(1, n + 1) if m not in closing]
        for flip, block in blocks.items():
            edges = [0] * n
            edges[tau[0]] = flip.value  # the pair Alice receives in return slot 1
            alice = cycle_outcomes(cycles, edges, swaps)
            alice = [a ^ c if u >= gamma else a for a, u, c in zip(alice, noise, corrupt)]
            assert alice == block.alice[i].tolist()
            bob = best_guess_results(cycles, guesses, flip)
            assert [b.value for b in bob] == block.bob[i].tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 11, 32, 128, 1024])
def test_cycle_kernel_closes_each_cycle_at_its_largest_index(n):
    # columns are trials: B random permutations and packed values at once
    rng = np.random.default_rng(n)
    b = 64 if n < 128 else 4
    tau = rng.permuted(np.broadcast_to(np.arange(n)[:, None], (n, b)), axis=0)
    packed = rng.integers(0, 16, size=(n, b), dtype=np.int8)
    closes, out = cycle_kernel(tau, packed)
    assert closes.shape == out.shape == (n, b) and out.dtype == np.int8
    for t in range(b):
        cycles = cycle_structure((tau[:, t] + 1).tolist())
        lasts = {max(cycle) - 1 for cycle in cycles}
        assert set(np.flatnonzero(closes[:, t]).tolist()) == lasts
        # swaps keep their value; each closer reads its cycle's other values' XOR
        values = packed[:, t].tolist()
        want = list(values)
        for cycle in cycles:
            acc = 0
            for m in cycle:
                if m != max(cycle):
                    acc ^= values[m - 1]
            want[max(cycle) - 1] = acc
        assert out[:, t].tolist() == want


@pytest.mark.parametrize("n", [1, 2, 3, 11, 32, 128])
def test_cycle_kernel_folds_labels_in_by_xor(n):
    # the identity the engine check and the reflect kernel run their labels through
    rng = np.random.default_rng(n + 7)
    b = 64 if n < 128 else 4
    tau = rng.permuted(np.broadcast_to(np.arange(n)[:, None], (n, b)), axis=0)
    labels = rng.integers(0, 4, size=(n, b), dtype=np.int8)
    swaps = rng.integers(0, 4, size=(n, b), dtype=np.int8)
    closes, out = cycle_kernel(tau, swaps ^ labels)
    out ^= labels
    for t in range(b):
        cycles = cycle_structure((tau[:, t] + 1).tolist())
        drawn = swaps[~closes[:, t], t].tolist()
        assert out[:, t].tolist() == cycle_outcomes(cycles, labels[:, t].tolist(), drawn)


@pytest.mark.parametrize("field", ReflectDraws._fields)
@pytest.mark.parametrize("shape", [(8, 1), (8, 4), (7, 3), (3,)])
def test_kernel_refuses_draws_fields_of_another_shape(field, shape):
    # unchecked, a (B, 1) noise broadcast one uniform over every index of a trial
    draws = ReflectDraws(*(a[:8] for a in draw_reflect_block(block_rng(2, 0), 3)))
    bad = np.zeros(shape, dtype=getattr(draws, field).dtype)
    with pytest.raises(ValueError, match=rf"draws fields .*\b{field}\b"):
        reflect_kernel(draws._replace(**{field: bad}), PauliLabel.X.value, 0.9)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("trials", [1, 1000, BLOCK_TRIALS])
def test_reflect_block_keeps_its_documented_shapes(trials, n):
    (block,) = reflect_blocks(SessionConfig(n, seed=3, noise=NoiseModel(0.9)),
                              PauliLabel.Y, trials)
    for rows in (block.alice, block.bob):
        assert rows.shape == (trials, n) and rows.dtype == np.int8
        assert rows.tolist() == np.ascontiguousarray(rows).tolist()
    assert block.passed.shape == (trials,) and block.passed.dtype == np.bool_
    assert block.coin.shape == (trials,) and block.coin.dtype == np.int8


@pytest.mark.parametrize("n", range(1, 12))
def test_guessing_the_swaps_announces_alices_records(n):
    # Bob runs Alice's rule: given her swap outcomes as his guesses, he
    # announces exactly her noiseless records, whatever the cycles and flip
    draws = draw_reflect_block(block_rng(31, n), n)
    draws = draws._replace(guess=draws.swap)
    for flip in PauliLabel:
        block = reflect_kernel(draws, flip.value)
        assert block.passed.all()
        np.testing.assert_array_equal(block.bob, block.alice)
        for i in range(20):
            assert run_reflect_attack(SessionConfig(n), flip, ReplayRng(_row(draws, i))).passed


@pytest.mark.parametrize("flip, gamma, message", [
    (4, 1.0, "Pauli 4 is not"), (7, 1.0, "Pauli 7 is not"), (-1, 1.0, "Pauli -1 is not"),
    (2.5, 1.0, "must be integers"), (0, 1.5, "gamma"), (0, float("nan"), "gamma"),
    (0, -0.2, "gamma"),
])
def test_kernel_refuses_bad_flip_and_gamma(flip, gamma, message):
    # unchecked, these gave outcomes outside 0..3, ran 2.5 as 2, ran 1.5 and
    # nan noiseless and corrupted every record at -0.2
    with pytest.raises(ValueError, match=message):
        reflect_kernel(draw_reflect_block(block_rng(1, 0), 3), flip, gamma)


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
