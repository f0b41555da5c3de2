"""The batched reflect kernel against the scalar session and the exact model.

`ReplayRng` feeds one recorded draws row, with any order of Alice's, to
`run_reflect_attack`, so the scalar session and the kernel consume
identical draws and must agree bit for bit; the scalar rules
`cycle_outcomes` and `best_guess_results` take a row's draws as arguments
and must give the kernel's rows. Exact enumeration over every equally
likely draws row pins the kernel's pass rate to the permutation model as a
`Fraction`.
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
from test_int_path import _state


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

    The session draws Alice's sequence and Bob's return order, each by a
    `shuffle`: the first reorders its list by `alice_order`, any
    permutation alpha of 0..N-1, the second by alpha^-1 o tau, so that the
    pairs arrive in the row's order tau. Then come the phase's swap labels
    (bits 0-1 of the row's labels), one per index m in order except where
    the measurement closes its cycle (at the cycle's largest index); then
    Bob's guesses (bits 2-3), by the same rule; then, under noise, the noise
    on the records: at each index m in order a noise uniform and, when the
    record is corrupted, a corruption label. The swap labels and guesses may
    come as one `random(k, dtype=np.float32)` call, which pops the next k
    labels and serves each as label / 4, a float32 uniform that four times
    truncates to that label. A label asked for after the first noise uniform
    fails the replay.
    """

    def __init__(self, row: ReflectDraws, alice_order):
        n = len(row.tau)
        closers = {max(cycle) for cycle in _cycles(row.tau)}
        alice_order = np.asarray(alice_order)
        self._perms = [alice_order, np.argsort(alice_order)[row.tau]]
        self._labels = [row.labels[m] & 3 for m in range(n) if m not in closers]
        self._labels += [row.labels[m] >> 2 for m in range(n) if m not in closers]
        self._noise, self._corrupt = row.noise, row.corrupt
        self._index = -1  # index of the last noise draw

    def shuffle(self, x: list) -> None:
        # entry i becomes entry perm[i], as numpy's shuffle with `permutation`'s draws
        perm = self._perms.pop(0)
        assert len(perm) == len(x)
        x[:] = [x[i] for i in perm.tolist()]

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
        indices = 0 if self._noise is None else len(self._noise)
        noise_draws_ok = self._index in (-1, indices - 1)
        return not self._perms and not self._labels and noise_draws_ok


def _row(draws: ReflectDraws, i: int) -> ReflectDraws:
    return ReflectDraws(*(field if field is None else field[i] for field in draws))


def _head(draws: ReflectDraws, rows: int) -> ReflectDraws:
    return ReflectDraws(*(field if field is None else field[:rows] for field in draws))


def _alice_orders(n: int, rows: int, seed: int) -> np.ndarray:
    """A fixed order of Alice's per row, the identity only by chance."""
    return np.random.default_rng(seed).permuted(np.broadcast_to(np.arange(n), (rows, n)), axis=1)


def _assert_replay_matches(
    draws: ReflectDraws, alice_orders, flip: PauliLabel, gamma: float
) -> None:
    n = draws.tau.shape[1]
    config = SessionConfig(n, noise=NoiseModel(gamma) if gamma < 1.0 else None)
    block = reflect_kernel(draws, flip.value, gamma)
    for i in range(len(draws.tau)):
        rng = ReplayRng(_row(draws, i), alice_orders[i])
        run = run_reflect_attack(config, flip, rng)
        assert rng.exhausted
        assert [o.value for o in run.transcript.alice_outcomes] == block.alice[i].tolist()
        assert [o.value for o in run.transcript.bob_outcomes] == block.bob[i].tolist()
        assert run.passed == bool(block.passed[i])
        assert run.coin == int(block.coin[i])


@st.composite
def draws_rows(draw, max_pairs: int = 8):
    """One draws row and an order of Alice's to replay it with."""
    n = draw(st.integers(1, max_pairs))
    row = ReflectDraws(
        tau=np.array([draw(st.permutations(range(n)))]),
        labels=np.array([draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))],
                        dtype=np.int8),
        noise=np.array([draw(st.lists(
            st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))]),
        corrupt=np.array([draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))],
                         dtype=np.int8),
    )
    return row, np.array([draw(st.permutations(range(n)))])


class TestReplay:
    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    @pytest.mark.parametrize("flip", list(PauliLabel))
    @settings(deadline=None, max_examples=60)
    @given(row=draws_rows(), drop_noise=st.booleans())
    def test_scalar_session_equals_kernel(self, row, drop_noise, flip, gamma):
        draws, alice_orders = row
        if gamma == 1.0 and drop_noise:  # a noiseless row may carry noise, read by neither
            draws = draws._replace(noise=None, corrupt=None)
        _assert_replay_matches(draws, alice_orders, flip, gamma)

    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_block_stream_rows_replay(self, n, gamma):
        head = _head(draw_reflect_block(block_rng(2026, 3), n, gamma), 150)
        _assert_replay_matches(head, _alice_orders(n, 150, n), PauliLabel.Y, gamma)

    def test_replay_serves_alices_order_then_the_arrival_order(self):
        row = ReflectDraws(tau=np.array([2, 0, 1]), labels=np.zeros(3, dtype=np.int8),
                           noise=None, corrupt=None)
        rng = ReplayRng(row, [1, 2, 0])
        sent = [1, 2, 3]
        rng.shuffle(sent)
        arrived = list(sent)
        rng.shuffle(arrived)
        # Alice ships pair alpha[t] + 1 in slot t; her pair tau[m] + 1 returns in slot m
        assert sent == [2, 3, 1] and arrived == [3, 1, 2]

    def test_replay_serves_labels_as_float32_and_none_after_the_noise(self):
        row = ReflectDraws(
            tau=np.array([1, 0]), labels=np.array([2, 12], dtype=np.int8),
            noise=np.array([0.5, 0.25]), corrupt=np.array([1, 1], dtype=np.int8))
        rng = ReplayRng(row, [0, 1])  # one 2-cycle: the swap label and the guess at m=0
        served = rng.random(2, dtype=np.float32)
        assert served.dtype == np.float32 and (served * 4).tolist() == [2, 0]
        rng = ReplayRng(row, [1, 0])
        assert rng.random() == 0.5
        with pytest.raises(AssertionError, match="a label drawn after the noise"):
            rng.random(1, dtype=np.float32)
        with pytest.raises(AssertionError, match="a label drawn after the noise"):
            rng.integers(4)

    def test_hand_worked_row(self):
        # tau = (0 1)(2 3): swaps at m=0, 2, closers at m=1, 3; Bob guesses
        # at m=0, 2 and derives m=1, 3 by Alice's rule. Swaps 1, 2, 3, 0
        # and guesses 0, 1, 2, 3 pack to swap | guess << 2.
        row = ReflectDraws(
            tau=np.array([[1, 0, 3, 2]]),
            labels=np.array([[1, 6, 11, 12]], dtype=np.int8),
            noise=None,
            corrupt=None,
        )
        block = reflect_kernel(row, PauliLabel.I.value)
        assert block.alice.tolist() == [[1, 1, 3, 3]]
        assert block.bob.tolist() == [[0, 0, 2, 2]]
        assert block.passed.tolist() == [False] and block.coin.tolist() == [0]
        block = reflect_kernel(row, PauliLabel.X.value)  # flips the cycle holding m=0
        assert block.alice.tolist() == [[1, 3, 3, 3]]
        assert block.bob.tolist() == [[0, 2, 2, 2]]
        assert block.passed.tolist() == [False] and block.coin.tolist() == [1]
        _assert_replay_matches(row, [[2, 0, 3, 1]], PauliLabel.X, 1.0)


@pytest.mark.parametrize("n", [*range(1, 12), 32, 128, 1024])
def test_kernel_rows_equal_the_scalar_rules(n):
    # the scalar rules take a row's draws as arguments: no stream between them
    gamma = 0.9
    head = _head(draw_reflect_block(block_rng(23, n), n, gamma), 200 if n < 12 else 3)
    blocks = {flip: reflect_kernel(head, flip.value, gamma) for flip in PauliLabel}
    for i, row in enumerate(zip(*(field.tolist() for field in head))):
        tau, labels, noise, corrupt = row
        cycles = cycle_structure([t + 1 for t in tau])
        closing = {max(cycle) for cycle in cycles}
        swaps = [labels[m - 1] & 3 for m in range(1, n + 1) if m not in closing]
        guesses = [labels[m - 1] >> 2 for m in range(1, n + 1) if m not in closing]
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
    draws = _head(draw_reflect_block(block_rng(2, 0), 3, 0.9), 8)
    bad = np.zeros(shape, dtype=getattr(draws, field).dtype)
    for gamma in (1.0, 0.9):
        with pytest.raises(ValueError, match=rf"draws fields .*\b{field}\b"):
            reflect_kernel(draws._replace(**{field: bad}), PauliLabel.X.value, gamma)


@pytest.mark.parametrize("missing", [("noise",), ("corrupt",), ("noise", "corrupt")])
def test_kernel_refuses_missing_noise_under_noise(missing):
    # unchecked, a noiseless block run at gamma < 1 would fail on None or read no noise
    draws = _head(draw_reflect_block(block_rng(2, 0), 3, 0.9), 8)
    draws = draws._replace(**{name: None for name in missing})
    with pytest.raises(ValueError, match=rf"draws fields {', '.join(missing)} are None"):
        reflect_kernel(draws, PauliLabel.X.value, 0.9)
    reflect_kernel(draws, PauliLabel.X.value)  # a noiseless run reads neither


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


@pytest.mark.parametrize("gamma", [1.0, 0.9])
@pytest.mark.parametrize("n", [1, 2, 11, 1024])
def test_block_orders_are_permutations(n, gamma):
    # the kernel does not check tau, so the drawn one must be a permutation
    for seed, k in ((0, 0), (7, 3)):
        tau = draw_reflect_block(block_rng(seed, k), n, gamma).tau
        assert tau.shape == (BLOCK_TRIALS, n)
        np.testing.assert_array_equal(np.sort(tau, axis=1),
                                      np.broadcast_to(np.arange(n), tau.shape))


@pytest.mark.parametrize("n", [1, 3, 11])
def test_noise_is_drawn_after_the_noiseless_fields(n):
    # noise never moves tau or the labels: a noisy run is the noiseless run
    # plus corruption, at every (seed, block)
    for seed, k in ((0, 0), (7, 3), (2**64 - 1, 5)):
        quiet = draw_reflect_block(block_rng(seed, k), n)
        noisy = draw_reflect_block(block_rng(seed, k), n, 0.9)
        assert quiet.noise is None and quiet.corrupt is None
        np.testing.assert_array_equal(noisy.tau, quiet.tau)
        np.testing.assert_array_equal(noisy.labels, quiet.labels)
        assert noisy.noise.shape == noisy.corrupt.shape == (BLOCK_TRIALS, n)


@pytest.mark.parametrize("gamma", [1.0, 0.9])
@pytest.mark.parametrize("n", [1, 4, 32])
def test_block_draws_exactly_its_fields(n, gamma):
    # a noiseless block makes two draw calls, a noisy one four, in field order
    rng, twin = block_rng(9, 2), block_rng(9, 2)
    draws = draw_reflect_block(rng, n, gamma)
    shape = (BLOCK_TRIALS, n)
    want = [twin.permuted(np.broadcast_to(np.arange(n), shape), axis=1),
            twin.integers(0, 16, size=shape, dtype=np.int8)]
    if gamma < 1.0:
        want += [twin.random(shape), twin.integers(1, 4, size=shape, dtype=np.int8)]
    assert _state(rng) == _state(twin)
    assert [field is None for field in draws] == [False, False, *[gamma == 1.0] * 2]
    for got, field in zip(draws, want):
        np.testing.assert_array_equal(got, field)
    assert draws.labels.dtype == np.int8


@pytest.mark.parametrize("n", range(1, 12))
def test_guessing_the_swaps_announces_alices_records(n):
    # Bob runs Alice's rule: given her swap outcomes as his guesses, he
    # announces exactly her noiseless records, whatever the cycles and flip
    draws = draw_reflect_block(block_rng(31, n), n)
    draws = draws._replace(labels=5 * (draws.labels & 3))  # guess = swap
    alice_orders = _alice_orders(n, 20, n)
    for flip in PauliLabel:
        block = reflect_kernel(draws, flip.value)
        assert block.passed.all()
        np.testing.assert_array_equal(block.bob, block.alice)
        for i in range(20):
            rng = ReplayRng(_row(draws, i), alice_orders[i])
            assert run_reflect_attack(SessionConfig(n), flip, rng).passed


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


def _all_rows(n: int) -> list[ReflectDraws]:
    """Every noiseless draws row at n pairs, each once: a permutation tau and
    a packed label per index. One chunk of 16**n rows per tau, all sharing
    one labels array, bounds the kernel's memory by a chunk's."""
    labels = np.array(list(itertools.product(range(16), repeat=n)), dtype=np.int8)
    return [ReflectDraws(np.broadcast_to(np.array(tau), labels.shape), labels, None, None)
            for tau in itertools.permutations(range(n))]


class TestExactEnumeration:
    @pytest.mark.parametrize("n,rows", [(1, 16), (2, 512), (3, 24_576), (4, 1_572_864)])
    def test_pass_count_equals_permutation_model(self, n, rows):
        chunks = _all_rows(n)
        assert sum(len(chunk.tau) for chunk in chunks) == rows
        for flip in PauliLabel:
            passes = forced = 0
            for chunk in chunks:
                block = reflect_kernel(chunk, flip.value)
                passes += int(np.count_nonzero(block.passed))
                forced += int(np.count_nonzero(block.coin == flip.parity))
            assert Fraction(passes, rows) == pass_prob_permutation_model_exact(n)
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
            draws = draw_reflect_block(block_rng(5, i // BLOCK_TRIALS), 4, 0.9)
            alone = reflect_kernel(draws, PauliLabel.X.value, 0.9)
            for got, want in zip(run, alone):
                np.testing.assert_array_equal(got[i], want[i % BLOCK_TRIALS])

    @pytest.mark.parametrize("gamma", [1.0, 0.9])
    def test_one_trial_is_row_zero_of_the_full_block(self, gamma):
        config = SessionConfig(4, seed=11, noise=NoiseModel(gamma))
        draws = draw_reflect_block(block_rng(11, 0), 4, gamma)
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
