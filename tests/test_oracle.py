"""Statevector oracle tests: frozen amplitudes, Born probabilities, collapse."""

import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

from qct import oracle
from qct.bell import BellLabel, PauliLabel
from qct.oracle import (
    _BELL_MATRIX,
    MAX_QUBITS,
    QuantumState,
    apply_pauli_gate,
    bell_distribution,
    bell_measure_collapse,
    bell_sample,
    prepare_pairs,
)

EXACT = {0.0, 0.25, 1.0}  # every Born probability of a product of Bell pairs


class TestPreparation:
    @pytest.mark.parametrize("label, amplitudes", [
        (BellLabel.PHI_PLUS, [1, 0, 0, 1]), (BellLabel.PHI_MINUS, [1, 0, 0, -1]),
        (BellLabel.PSI_PLUS, [0, 1, 1, 0]), (BellLabel.PSI_MINUS, [0, 1, -1, 0]),
    ])
    def test_bell_pairs_are_exact_signs(self, label, amplitudes):
        # each Bell state times sqrt(2): entries 0 and +-1, no rounding
        assert prepare_pairs([label]).amplitudes.tolist() == amplitudes

    def test_bell_vectors_orthogonal_with_norm_two(self):
        assert np.array_equal(_BELL_MATRIX @ _BELL_MATRIX.T, 2.0 * np.eye(4))

    def test_pair_placement(self):
        # pair 0 on qubits (0,1), pair 1 on qubits (2,3)
        state = prepare_pairs([BellLabel.PHI_PLUS, BellLabel.PSI_PLUS])
        assert bell_distribution(state, 0, 1)[BellLabel.PHI_PLUS.value] == 1.0
        assert bell_distribution(state, 2, 3)[BellLabel.PSI_PLUS.value] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_equals_the_kron_product_bit_for_bit(self, n):
        # every label tuple up to three pairs, a few random ones at eight
        tuples = (product(range(4), repeat=n) if n <= 3
                  else np.random.default_rng(n).integers(4, size=(6, n)).tolist())
        for values in tuples:
            real, full = np.array([1.0]), np.array([1.0], dtype=np.complex128)
            for value in values:
                real = np.kron(real, _BELL_MATRIX[value])
                full = np.kron(full, _BELL_MATRIX[value].astype(np.complex128))
            got = prepare_pairs([BellLabel(int(v)) for v in values]).amplitudes
            assert got.dtype == np.float64
            assert got.tobytes() == real.tobytes()
            # the complex product is the same state: its imaginary part is
            # exactly zero and its real part equals the amplitudes, up to the
            # sign of zero amplitudes, which complex products do not keep
            # (x*y - 0*0 is +0.0 where x*y is -0.0)
            assert not full.imag.any()
            assert np.array_equal(got, full.real)

    def test_qubit_budget(self):
        prepare_pairs([BellLabel.PHI_PLUS] * (MAX_QUBITS // 2))  # exactly at the cap
        with pytest.raises(ValueError):
            prepare_pairs([BellLabel.PHI_PLUS] * (MAX_QUBITS // 2 + 1))
        with pytest.raises(ValueError):
            prepare_pairs([])

    @pytest.mark.parametrize("amplitudes", [
        [1.0, 1.0, 1.0, 0.0],    # three entries of +-1 where a pair has two
        [1.0, 0.0, 0.0, 0.0],    # one
        [0.5, 0.5, 0.5, 0.5],    # a normalised state, not held as signs
        [1.0, 0.0, 0.0, 2.0],
        [np.nan, 0.0, 0.0, 1.0],
        [np.inf, 0.0, 0.0, 1.0],
        # complex amplitudes: the Born rule squares real coefficients
        [1.0 + 0j, 0.0, 0.0, 1.0j],
    ])
    def test_normalization_enforced(self, amplitudes):
        with pytest.raises(ValueError, match=re.escape("state is not normalized: not sqrt(4) entries of +-1, the rest 0")):
            QuantumState(np.array(amplitudes), 2)

    def test_normalization_needs_whole_pairs(self):
        QuantumState(np.array([0.0, -1.0, -1.0, 0.0]), 2)
        with pytest.raises(ValueError, match="amplitude vector has the wrong length"):
            QuantumState(np.zeros(3), 2)
        # an odd qubit count holds no product of pairs
        with pytest.raises(ValueError, match="state is not normalized"):
            QuantumState(np.array([1.0, 0.0]), 1)

    def test_amplitudes_are_read_only(self):
        state = prepare_pairs([BellLabel.PHI_PLUS])
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 5
        assert bell_distribution(state, 0, 1).sum() == 1.0
        # the caller's own array stays writable and is not copied
        amps = np.array([1.0, 0.0, 0.0, 1.0])
        held = QuantumState(amps, 2).amplitudes
        assert amps.flags.writeable and np.shares_memory(held, amps)
        with pytest.raises(ValueError, match="read-only"):
            held[1] = 1.0


class TestDistribution:
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_eigenstate_point_mass(self, label):
        probs = bell_distribution(prepare_pairs([label]), 0, 1)
        expected = np.zeros(4)
        expected[label.value] = 1.0
        assert np.array_equal(probs, expected)

    def test_cross_pair_uniform(self):
        state = prepare_pairs([BellLabel.PSI_MINUS, BellLabel.PHI_MINUS])
        assert bell_distribution(state, 1, 2).tolist() == [0.25] * 4

    def test_invalid_qubits(self):
        state = prepare_pairs([BellLabel.PHI_PLUS])
        with pytest.raises(ValueError):
            bell_distribution(state, 0, 0)
        with pytest.raises(ValueError):
            bell_distribution(state, 0, 5)

    def test_probabilities_sum_to_one(self):
        state = prepare_pairs([BellLabel.PHI_MINUS, BellLabel.PSI_PLUS, BellLabel.PHI_PLUS])
        for q1, q2 in [(0, 3), (1, 4), (2, 5), (5, 0)]:
            assert bell_distribution(state, q1, q2).sum() == 1.0


class TestCollapse:
    def test_documented_swap_instance(self):
        # Psi- (x) Phi-, cross measurement lands on Phi+ -> residual is Psi+
        rng = np.random.default_rng(0)
        state = prepare_pairs([BellLabel.PSI_MINUS, BellLabel.PHI_MINUS])
        while True:
            outcome, post = bell_measure_collapse(state, 1, 2, rng)
            if outcome is BellLabel.PHI_PLUS:
                residual = bell_distribution(post, 0, 3)
                assert residual[BellLabel.PSI_PLUS.value] == 1.0
                break

    def test_collapse_is_repeatable(self):
        rng = np.random.default_rng(3)
        state = prepare_pairs([BellLabel.PHI_PLUS, BellLabel.PHI_PLUS])
        outcome, post = bell_measure_collapse(state, 1, 2, rng)
        again, _ = bell_measure_collapse(post, 1, 2, rng)
        assert again is outcome

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        state = prepare_pairs([BellLabel.PSI_PLUS, BellLabel.PHI_MINUS, BellLabel.PSI_MINUS])
        for _ in range(3):
            _, state = bell_measure_collapse(
                state, *rng.choice(state.qubit_count, size=2, replace=False), rng
            )

    def test_zero_probability_branch_never_sampled(self):
        rng = np.random.default_rng(17)
        state = prepare_pairs([BellLabel.PHI_MINUS])
        for _ in range(500):
            outcome, _ = bell_measure_collapse(state, 0, 1, rng)
            assert outcome is BellLabel.PHI_MINUS

    @pytest.mark.parametrize("first", list(BellLabel))
    @pytest.mark.parametrize("second", list(BellLabel))
    def test_zero_branch_never_sampled_at_zero_uniform(self, first, second):
        # measuring a pair leaves its other labels a Born probability of
        # exactly 0; a uniform of exactly 0.0 must still land on the pair's
        # own label, on either pair, through both samplers
        class ZeroRng:
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        state = prepare_pairs([first, second])
        for (q1, q2), label in (((0, 1), first), ((2, 3), second)):
            assert bell_measure_collapse(state, q1, q2, ZeroRng())[0] is label
            probs = bell_distribution(state, q1, q2)
            assert bell_sample(probs, ZeroRng(), 3).tolist() == [label.value] * 3


class TestResidualRuleCertification:
    def test_all_64_cases(self):
        """Engine XOR rule re-derived from amplitudes for every label pair
        and every outcome, on two different cross-pairings."""
        rng = np.random.default_rng(123)
        for q_pair, spectators in [((1, 2), (0, 3)), ((1, 3), (0, 2))]:
            for b1 in BellLabel:
                for b2 in BellLabel:
                    state = prepare_pairs([b1, b2])
                    seen = set()
                    guard = 0
                    while len(seen) < 4:
                        guard += 1
                        assert guard < 10_000
                        outcome, post = bell_measure_collapse(state, *q_pair, rng)
                        if outcome in seen:
                            continue
                        seen.add(outcome)
                        expected = BellLabel(b1.value ^ b2.value ^ outcome.value)
                        probs = bell_distribution(post, *spectators)
                        assert probs[expected.value] == 1.0


class TestPauliGate:
    def test_y_is_real(self):
        # the real Y is X @ Z: Z first, then X, on real amplitudes
        state = prepare_pairs([BellLabel.PHI_PLUS])
        y = apply_pauli_gate(state, PauliLabel.Y, 0).amplitudes
        xz = apply_pauli_gate(apply_pauli_gate(state, PauliLabel.Z, 0), PauliLabel.X, 0).amplitudes
        assert y.dtype == np.float64
        assert np.array_equal(y, xz) and not np.array_equal(y, state.amplitudes)

    def test_invalid_qubit(self):
        with pytest.raises(ValueError):
            apply_pauli_gate(prepare_pairs([BellLabel.PHI_PLUS]), PauliLabel.X, 2)


def pair_indices(qubits, q1, q2):
    """Reference basis indices of each row's (q1, q2) view: ``[r, 2a + b, j]``
    is the index with qubit q1 = a, qubit q2 = b and the other qubits
    spelling j in order, as `_pair_view` lays them out (bit arithmetic)."""
    bit1 = qubits - 1 - q1.astype(np.intp)[:, None]
    bit2 = qubits - 1 - q2.astype(np.intp)[:, None]
    low, high = np.minimum(bit1, bit2), np.maximum(bit1, bit2)
    rest = np.arange(2 ** (qubits - 2))[None, :]
    # open a zero bit at `low`, then one at `high`
    rest = ((rest >> low) << (low + 1)) | (rest & ((1 << low) - 1))
    rest = ((rest >> high) << (high + 1)) | (rest & ((1 << high) - 1))
    pair = np.arange(4)[None, :, None]
    return rest[:, None, :] | ((pair >> 1) << bit1[:, :, None]) | ((pair & 1) << bit2[:, :, None])


@pytest.mark.parametrize("qubits", range(1, MAX_QUBITS + 1))
def test_transpose_index_is_np_transpose(qubits):
    rng = np.random.default_rng(qubits)
    perms = np.array([rng.permutation(qubits) for _ in range(3)])
    basis = np.arange(2**qubits).reshape([2] * qubits)
    got = oracle._transpose_index(perms)
    assert got.shape == (3, 2**qubits)
    for perm, row in zip(perms, got):
        assert np.array_equal(row, np.transpose(basis, perm).reshape(-1))
    # one permutation, without a batch axis, is one index
    assert np.array_equal(oracle._transpose_index(perms[0]), got[0])


@pytest.mark.parametrize("qubits", range(2, MAX_QUBITS + 1))
def test_pair_index_matches_the_bit_arithmetic(qubits):
    amps = np.zeros((1, 2**qubits))
    for q1 in range(qubits):  # one first qubit at a time keeps the reference small
        q2 = np.array([q for q in range(qubits) if q != q1])
        want = pair_indices(qubits, np.full_like(q2, q1), q2)
        for second, index in zip(q2, want):
            assert np.array_equal(oracle._pair_index(amps, q1, int(second)), index)


def label_tuples(n):
    """Every tuple of n Bell label values, as the rows of one array."""
    return np.array(list(product(range(4), repeat=n)))


def reachable_states(pairs, seed, count=4):
    """Products of Bell pairs on 2 * pairs qubits, most not on adjacent
    qubits: prepared pairs, each collapsed once on two random qubits."""
    rng = np.random.default_rng(seed)
    states = []
    for values in rng.integers(4, size=(count, pairs)):
        state = prepare_pairs([BellLabel(int(v)) for v in values])
        if pairs > 1:
            q1, q2 = rng.choice(2 * pairs, size=2, replace=False)
            state = bell_measure_collapse(state, int(q1), int(q2), rng)[1]
        states.append(state)
    return states


class FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("pairs", range(1, 5))
def test_axis_permutations_equal_moveaxis(pairs):
    """`_pair_view`, `bell_measure_collapse` and `apply_pauli_gate` give the
    np.moveaxis layout bit for bit, for every qubit pair and qubit; the
    reference gathers and scatters by basis-index bit arithmetic, so it
    does not go through np.moveaxis itself."""
    n = 2 * pairs
    uniforms = np.random.default_rng(100 + n).random(n * n)
    index = np.arange(2**n)
    for state in reachable_states(pairs, n):
        amps = state.amplitudes
        for (q1, q2), u in zip(((a, b) for a in range(n) for b in range(n) if a != b), uniforms):
            rows = pair_indices(n, np.array([q1]), np.array([q2]))[0]
            view = amps[rows]
            assert oracle._pair_view(state, q1, q2).tobytes() == view.tobytes()
            outcome, post = bell_measure_collapse(state, q1, q2, FixedRng(u))
            coeffs = _BELL_MATRIX @ view
            weights = np.sum(coeffs**2, axis=1)
            probs = weights / weights.sum()
            assert set(probs.tolist()) <= EXACT
            assert outcome.value == oracle._outcomes_of(probs, u)
            branch = coeffs[outcome.value]
            want = np.empty_like(amps)
            want[rows] = np.outer(_BELL_MATRIX[outcome.value], branch / np.abs(branch).max())
            assert post.amplitudes.dtype == amps.dtype
            assert post.amplitudes.tobytes() == want.tobytes()
        for qubit in range(n):
            mask = 1 << (n - 1 - qubit)
            zero = index[index & mask == 0]  # the qubit at 0, the rest in order
            tensor = np.stack([amps[zero], amps[zero | mask]])
            for pauli in PauliLabel:
                moved = oracle._PAULI_MATRICES[pauli] @ tensor
                want = np.empty_like(amps)
                want[zero], want[zero | mask] = moved
                got = apply_pauli_gate(state, pauli, qubit).amplitudes
                assert got.tobytes() == want.tobytes()


def test_outcomes_of_is_searchsorted_row_by_row():
    """The one outcome rule on a ``(rows, 4)`` batch is numpy's searchsorted
    (side="right") of each row's cumulative distribution, and its own 1-D
    call on that row: on random distributions, point masses, the oracle's
    exact ones and zero branches, at u = 0, at random uniforms, just below
    1 and exactly on each branch's upper edge."""
    rng = np.random.default_rng(31)
    spread = rng.random((40, 4)) ** 3
    exact = [[0.25] * 4, [0.5, 0.0, 0.5, 0.0], [0.0, 0.25, 0.0, 0.75], [0.0, 0.0, 0.0, 1.0]]
    probs = np.concatenate([spread / spread.sum(axis=1, keepdims=True), np.eye(4), exact])
    rows = len(probs)
    cumulative = np.cumsum(probs, axis=1)
    # a branch's upper edge, below 1: uniforms lie in [0, 1)
    edges = np.minimum(cumulative[:, :3] / cumulative[:, -1:], np.nextafter(1.0, 0.0))
    for u in [np.zeros(rows), rng.random(rows), np.full(rows, np.nextafter(1.0, 0.0)), *edges.T]:
        got = oracle._outcomes_of(probs, u)
        want = [np.searchsorted(c, x * c[-1], side="right") for c, x in zip(cumulative, u)]
        assert got.tolist() == want
        assert got.tolist() == [int(oracle._outcomes_of(p, x)) for p, x in zip(probs, u)]
        assert (probs[np.arange(rows), got] > 0).all()
    # no branch at all: past the last outcome, where searchsorted puts it
    assert oracle._outcomes_of(np.zeros((2, 4)), np.array([0.0, 0.5])).tolist() == [4, 4]
    # one distribution against many uniforms, as `bell_sample` draws
    uniforms = np.concatenate([[0.0], rng.random(50), edges[0]])
    for p, c in zip(probs, cumulative):
        want = np.searchsorted(c, uniforms * c[-1], side="right")
        assert oracle._outcomes_of(p, uniforms).tolist() == want.tolist()


class TestBatched:
    """The batched entry points against the scalar functions, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_prepare_states_equal_prepare_pairs(self, n):
        labels = (np.array(list(product(range(4), repeat=n))) if n <= 3
                  else np.random.default_rng(n).integers(4, size=(6, n)))
        amps = oracle.prepare_states(labels)
        assert amps.shape == (len(labels), 4**n)
        for row, values in zip(amps, labels):
            state = prepare_pairs([BellLabel(int(v)) for v in values])
            assert np.array_equal(row, state.amplitudes)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_distributions_equal_bell_distribution(self, n):
        """Every label tuple of n pairs and every ordered qubit pair: each
        probability is exactly 0, 1/4 or 1, and the scalar one, bit for bit."""
        labels = label_tuples(n)
        amps = oracle.prepare_states(labels)
        states = [prepare_pairs([BellLabel(int(v)) for v in row]) for row in labels]
        for q1, q2 in ((a, b) for a in range(2 * n) for b in range(2 * n) if a != b):
            dists = oracle.bell_distributions(amps, q1, q2)
            assert set(dists.ravel().tolist()) <= EXACT
            for state, p in zip(states, dists):
                assert p.tobytes() == bell_distribution(state, q1, q2).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_gates_equal_apply_pauli_gate(self, n):
        """Every label tuple of n pairs and every Pauli on every qubit: the
        scalar gate bit for bit, and the gated pair a point mass on its
        label XOR the Pauli."""
        labels = label_tuples(n)
        states = [prepare_pairs([BellLabel(int(v)) for v in row]) for row in labels]
        cases = np.arange(8 * n)  # pauli c & 3 on qubit c >> 2
        paulis, qubits = np.tile(cases & 3, len(labels)), np.tile(cases >> 2, len(labels))
        amps = np.repeat(oracle.prepare_states(labels), len(cases), axis=0)
        out = oracle.apply_pauli_gates(amps, paulis, qubits)
        for row, state, pauli, qubit in zip(out, np.repeat(states, len(cases)), paulis, qubits):
            want = apply_pauli_gate(state, PauliLabel(int(pauli)), int(qubit)).amplitudes
            assert row.tobytes() == want.tobytes()
        gated = np.repeat(labels, len(cases), axis=0)[np.arange(len(out)), qubits // 2] ^ paulis
        for pair in range(n):
            rows = qubits // 2 == pair
            dists = oracle.bell_distributions(out[rows], 2 * pair, 2 * pair + 1)
            assert np.array_equal(dists, np.eye(4)[gated[rows]])

    def test_one_pair_gathers_through_one_shared_index(self):
        # 256 states of 12 qubits are 8 MiB of amplitudes, as are the
        # gathered pair views and their coefficients; an index of every
        # row's pair view would be 8 MiB more, where the one index all rows
        # share is 32 KiB
        amps = oracle.prepare_states(np.random.default_rng(6).integers(4, size=(256, 6)))
        oracle.bell_distributions(amps, 1, 2)  # the first call may build cached tables
        tracemalloc.start()
        try:
            oracle.bell_distributions(amps, 1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * amps.nbytes

    def test_every_produced_state_is_checked_for_normalisation(self, monkeypatch):
        amps = oracle.prepare_states(np.array([[0, 1], [2, 3]]))
        twice = np.array(oracle._BELL_MATRIX)
        twice[2] *= 2.0
        monkeypatch.setattr(oracle, "_BELL_MATRIX", twice)
        with pytest.raises(ValueError, match="state is not normalized"):
            oracle.prepare_states(np.array([[0, 1], [2, 3]]))
        monkeypatch.setattr(oracle, "_PAULI_MATRICES", 2.0 * oracle._PAULI_MATRICES)
        with pytest.raises(ValueError, match="state is not normalized"):
            oracle.apply_pauli_gates(amps, np.array([0, 1]), np.array([0, 3]))

    @pytest.mark.parametrize("call, message", [
        (lambda a: oracle.prepare_states(np.array([[0, 4]])),
         "label 4 is not a Bell label value 0..3"),
        (lambda a: oracle.prepare_states(np.zeros((2, 9), dtype=int)),
         "9 pairs exceed the 16-qubit limit"),
        (lambda a: oracle.prepare_states(np.zeros((2, 0), dtype=int)),
         "at least one pair is required"),
        (lambda a: oracle.bell_distributions(a, 0, 4), "qubit 4 out of range for 4-qubit state"),
        (lambda a: oracle.bell_distributions(a, 2, 2), "measurement qubits must be distinct"),
        (lambda a: oracle.bell_distributions(a[:, :12], 0, 1), "amplitudes must have shape"),
        (lambda a: oracle.apply_pauli_gates(a, np.array([0, 4]), np.array([0, 1])),
         "Pauli 4 is not a Pauli label value 0..3"),
        (lambda a: oracle.apply_pauli_gates(a, np.array([0, 1]), np.array([0, -1])),
         "qubit -1 out of range for 4-qubit state"),
        (lambda a: apply_pauli_gate(prepare_pairs([BellLabel.PHI_PLUS] * 2), -1, 0),
         "Pauli -1 is not a Pauli label value 0..3"),
        (lambda a: apply_pauli_gate(prepare_pairs([BellLabel.PHI_PLUS] * 2), 4, 0),
         "Pauli 4 is not a Pauli label value 0..3"),
        # non-integers are refused by dtype before numpy would index with them
        (lambda a: apply_pauli_gate(prepare_pairs([BellLabel.PHI_PLUS]), PauliLabel.Z, 1.5),
         "qubits must be integers, not float64"),
        (lambda a: apply_pauli_gate(prepare_pairs([BellLabel.PHI_PLUS]), 0.5, 0),
         "Paulis must be integers, not float64"),
        (lambda a: apply_pauli_gate(prepare_pairs([BellLabel.PHI_PLUS]), True, 0),
         "Paulis must be integers, not bool"),
        (lambda a: bell_distribution(prepare_pairs([BellLabel.PHI_PLUS]), 0.5, 1),
         "qubits must be integers, not float64"),
        (lambda a: oracle.apply_pauli_gates(a, np.array([0, 1]), np.array([0.0, 1.0])),
         "qubits must be integers, not float64"),
        (lambda a: oracle.prepare_states(np.array([[0.5, 1.0]])),
         "labels must be integers, not float64"),
        (lambda a: oracle.prepare_states(np.array([[True, False]])),
         "labels must be integers, not bool"),
    ])
    def test_bad_input_is_refused(self, call, message):
        amps = oracle.prepare_states(np.array([[0, 1], [2, 3]]))
        with pytest.raises(ValueError, match=re.escape(message)):
            call(amps)
