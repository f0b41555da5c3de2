"""Statevector oracle tests: frozen amplitudes, Born probabilities, collapse."""

import re
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

SQ2 = 1.0 / np.sqrt(2.0)


class TestPreparation:
    def test_phi_plus_amplitudes(self):
        state = prepare_pairs([BellLabel.PHI_PLUS])
        np.testing.assert_allclose(state.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-15)

    def test_psi_minus_amplitudes(self):
        state = prepare_pairs([BellLabel.PSI_MINUS])
        np.testing.assert_allclose(state.amplitudes, [0, SQ2, -SQ2, 0], atol=1e-15)

    def test_bell_vectors_orthonormal(self):
        np.testing.assert_allclose(_BELL_MATRIX @ _BELL_MATRIX.conj().T, np.eye(4), atol=1e-15)

    def test_pair_placement(self):
        # pair 0 on qubits (0,1), pair 1 on qubits (2,3)
        state = prepare_pairs([BellLabel.PHI_PLUS, BellLabel.PSI_PLUS])
        assert bell_distribution(state, 0, 1)[BellLabel.PHI_PLUS.value] == pytest.approx(1.0)
        assert bell_distribution(state, 2, 3)[BellLabel.PSI_PLUS.value] == pytest.approx(1.0)

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

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex), 2)
        with pytest.raises(ValueError):
            QuantumState(np.zeros(3, dtype=complex), 2)
        with pytest.raises(ValueError, match="nan"):
            QuantumState(np.array([np.nan, 0.0, 0.0, 0.0], dtype=complex), 2)

    def test_amplitudes_are_read_only(self):
        state = prepare_pairs([BellLabel.PHI_PLUS])
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 5
        assert bell_distribution(state, 0, 1).sum() == pytest.approx(1.0, abs=1e-12)
        # the caller's own array stays writable and is not copied
        amps = np.array([SQ2, 0.0, 0.0, SQ2])
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
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_cross_pair_uniform(self):
        state = prepare_pairs([BellLabel.PSI_MINUS, BellLabel.PHI_MINUS])
        np.testing.assert_allclose(bell_distribution(state, 1, 2), 0.25, atol=1e-12)

    def test_invalid_qubits(self):
        state = prepare_pairs([BellLabel.PHI_PLUS])
        with pytest.raises(ValueError):
            bell_distribution(state, 0, 0)
        with pytest.raises(ValueError):
            bell_distribution(state, 0, 5)

    def test_probabilities_sum_to_one(self):
        state = prepare_pairs([BellLabel.PHI_MINUS, BellLabel.PSI_PLUS, BellLabel.PHI_PLUS])
        for q1, q2 in [(0, 3), (1, 4), (2, 5), (5, 0)]:
            assert bell_distribution(state, q1, q2).sum() == pytest.approx(1.0, abs=1e-12)


class TestCollapse:
    def test_documented_swap_instance(self):
        # Psi- (x) Phi-, cross measurement lands on Phi+ -> residual is Psi+
        rng = np.random.default_rng(0)
        state = prepare_pairs([BellLabel.PSI_MINUS, BellLabel.PHI_MINUS])
        while True:
            outcome, post = bell_measure_collapse(state, 1, 2, rng)
            if outcome is BellLabel.PHI_PLUS:
                residual = bell_distribution(post, 0, 3)
                assert residual[BellLabel.PSI_PLUS.value] == pytest.approx(1.0, abs=1e-12)
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
    def test_rounding_residue_never_sampled_at_zero_uniform(self, first, second):
        # Phi- (x) Phi+ gives Phi+ a Born probability of ~1e-33 on the first
        # pair, not 0; a uniform of exactly 0.0 must still land on the pair's
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
                        assert probs[expected.value] == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("qubits", range(2, MAX_QUBITS + 1))
def test_gather_tables_match_the_bit_arithmetic(qubits):
    pair, high, low = oracle._gather_tables(qubits)
    assert pair.shape == (qubits * qubits, 4)
    assert high.shape[1] * low.shape[1] == 2 ** (qubits - 2)
    # each half is about the square root of the view, never the full table
    assert max(high.shape[1], low.shape[1]) <= 2 ** (qubits // 2)
    for q1 in range(qubits):  # one first qubit at a time keeps the reference small
        q2 = np.array([q for q in range(qubits) if q != q1])
        ids = q1 * qubits + q2
        got = (pair[ids][:, :, None, None] + high[ids][:, None, :, None]
               + low[ids][:, None, None, :]).reshape(len(ids), 4, -1)
        assert np.array_equal(got, pair_indices(qubits, np.full_like(q2, q1), q2))


def random_states(n, seed):
    """A normalised random real state and complex state on n qubits."""
    rng = np.random.default_rng(seed)
    real = rng.standard_normal(2**n)
    full = real + 1j * rng.standard_normal(2**n)
    return [QuantumState(v / np.linalg.norm(v), n) for v in (real, full)]


class FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("n", range(1, 9))
def test_axis_permutations_equal_moveaxis(n):
    """`_pair_view`, `bell_measure_collapse` and `apply_pauli_gate` give the
    np.moveaxis layout bit for bit, for every qubit pair and qubit; the
    reference gathers and scatters by basis-index bit arithmetic, so it
    does not go through np.moveaxis itself."""
    uniforms = np.random.default_rng(100 + n).random(n * n)
    index = np.arange(2**n)
    for state in random_states(n, n):
        amps = state.amplitudes
        for (q1, q2), u in zip(((a, b) for a in range(n) for b in range(n) if a != b), uniforms):
            rows = pair_indices(n, np.array([q1]), np.array([q2]))[0]
            view = amps[rows]
            assert oracle._pair_view(state, q1, q2).tobytes() == view.tobytes()
            outcome, post = bell_measure_collapse(state, q1, q2, FixedRng(u))
            coeffs = _BELL_MATRIX @ view
            probs = np.sum(np.abs(coeffs) ** 2, axis=1)
            assert outcome.value == oracle._outcomes_of(probs, u)
            projected = np.outer(_BELL_MATRIX[outcome.value], coeffs[outcome.value])
            projected = projected / np.sqrt(probs[outcome.value])
            want = np.empty_like(amps)
            want[rows] = projected
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


def forced_uniform(probs, outcome):
    """A uniform that `_outcomes_of` maps to `outcome`: the middle of its
    branch of the cumulative distribution."""
    cumulative = oracle._cumulative(probs)
    low = cumulative[outcome - 1] if outcome else 0.0
    return (low + cumulative[outcome]) / 2.0 / cumulative[-1]


def test_outcomes_of_is_searchsorted_row_by_row():
    """The one outcome rule on a ``(rows, 4)`` batch is numpy's searchsorted
    (side="right") of each row's cumulative distribution, and its own 1-D
    call on that row: on random distributions, point masses, zero branches
    and branches of 1e-13 (rounding residue), at u = 0, at random uniforms,
    just below 1 and exactly on each branch's upper edge."""
    rng = np.random.default_rng(31)
    spread = rng.random((40, 4)) ** 3
    residue = [[1 - 3e-13, 1e-13, 1e-13, 1e-13], [1e-13, 0.5, 1e-13, 0.5 - 2e-13],
               [0.5, 0.0, 0.5, 0.0], [0.0, 1e-13, 0.0, 1 - 1e-13]]
    probs = np.concatenate([spread / spread.sum(axis=1, keepdims=True), np.eye(4), residue])
    rows = len(probs)
    cumulative = oracle._cumulative(probs)
    # a branch's upper edge, below 1: uniforms lie in [0, 1)
    edges = np.minimum(cumulative[:, :3] / cumulative[:, -1:], np.nextafter(1.0, 0.0))
    for u in [np.zeros(rows), rng.random(rows), np.full(rows, np.nextafter(1.0, 0.0)), *edges.T]:
        got = oracle._outcomes_of(probs, u)
        want = [np.searchsorted(c, x * c[-1], side="right") for c, x in zip(cumulative, u)]
        assert got.tolist() == want
        assert got.tolist() == [int(oracle._outcomes_of(p, x)) for p, x in zip(probs, u)]
        assert (probs[np.arange(rows), got] > oracle._RESIDUE).all()
    # no branch at all: past the last outcome, where searchsorted puts it
    assert oracle._outcomes_of(np.full((2, 4), 1e-13), np.array([0.0, 0.5])).tolist() == [4, 4]
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

    @pytest.mark.parametrize("n", range(2, 6))
    def test_distributions_and_projections_equal_the_collapse(self, n):
        """Every ordered qubit pair and every outcome with a branch, on
        random real and complex states and on pair products, which have
        zero-probability branches."""
        states = random_states(n, 40 + n)
        if n % 2 == 0:
            labels = np.random.default_rng(n).integers(4, size=(4, n // 2))
            states += [prepare_pairs([BellLabel(int(v)) for v in row]) for row in labels]
        for kind in (np.float64, np.complex128):
            batch = [s for s in states if s.amplitudes.dtype == kind]
            amps = np.array([s.amplitudes for s in batch])
            for q1, q2 in ((a, b) for a in range(n) for b in range(n) if a != b):
                dists = oracle.bell_distributions(amps, q1, q2)
                for outcome in range(4):
                    outcomes = np.full(len(amps), outcome)
                    probs, collapsed = oracle.bell_project(amps, q1, q2, outcomes)
                    assert np.array_equal(probs, dists)
                    for state, p, row in zip(batch, probs, collapsed):
                        assert np.array_equal(p, bell_distribution(state, q1, q2))
                        if p[outcome] <= oracle._RESIDUE:
                            assert np.isnan(row).all()
                            continue
                        got, post = bell_measure_collapse(
                            state, q1, q2, FixedRng(forced_uniform(p, outcome)))
                        assert got.value == outcome
                        assert row.dtype == post.amplitudes.dtype
                        assert np.array_equal(row, post.amplitudes)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pauli_gates_equal_apply_pauli_gate(self, n):
        states = random_states(n, 70 + n)
        for kind in (np.float64, np.complex128):
            batch = [s for s in states if s.amplitudes.dtype == kind]
            amps = np.repeat(np.array([s.amplitudes for s in batch]), 4 * n, axis=0)
            cases = np.arange(4 * n)  # pauli c & 3 on qubit c >> 2
            paulis, qubits = np.tile(cases & 3, len(batch)), np.tile(cases >> 2, len(batch))
            out = oracle.apply_pauli_gates(amps, paulis, qubits)
            assert out.dtype == kind
            for row, state, pauli, qubit in zip(out, np.repeat(batch, 4 * n), paulis, qubits):
                want = apply_pauli_gate(state, PauliLabel(int(pauli)), int(qubit)).amplitudes
                assert np.array_equal(row, want)

    def test_every_produced_state_is_checked_for_normalisation(self, monkeypatch):
        amps = oracle.prepare_states(np.array([[0, 1], [2, 3]]))
        twice = np.array(oracle._BELL_MATRIX)
        twice[2] *= 2.0
        monkeypatch.setattr(oracle, "_BELL_MATRIX", twice)
        with pytest.raises(ValueError, match="state is not normalized"):
            oracle.prepare_states(np.array([[0, 1], [2, 3]]))
        # a projection reads coefficients through the same matrix, so a
        # doubled row overweights the branch it projects on
        with pytest.raises(ValueError, match="state is not normalized"):
            oracle.bell_project(amps, 1, 2, np.array([2, 2]))
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
        (lambda a: oracle.bell_project(a, 0, 1, np.array([0, -1])), "label -1 is not a Bell label"),
        (lambda a: oracle.bell_project(a, 0, 1, np.array([0])), "one outcome per row"),
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
        (lambda a: oracle.bell_project(a, 0, 1, np.array([1.0, 0.0])),
         "labels must be integers, not float64"),
        (lambda a: oracle.bell_project(a, 0, 1, np.array([True, False])),
         "labels must be integers, not bool"),
    ])
    def test_bad_input_is_refused(self, call, message):
        amps = oracle.prepare_states(np.array([[0, 1], [2, 3]]))
        with pytest.raises(ValueError, match=re.escape(message)):
            call(amps)
