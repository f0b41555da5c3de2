"""Statevector oracle tests: frozen amplitudes, Born probabilities, collapse."""

from itertools import product

import numpy as np
import pytest

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
            want = np.array([1.0], dtype=np.complex128)
            for value in values:
                want = np.kron(want, _BELL_MATRIX[value])
            got = prepare_pairs([BellLabel(int(v)) for v in values]).amplitudes
            assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes()

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
            assert bell_sample(state, q1, q2, ZeroRng(), 3).tolist() == [label.value] * 3


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
        state = apply_pauli_gate(prepare_pairs([BellLabel.PHI_PLUS]), PauliLabel.Y, 0)
        assert np.allclose(state.amplitudes.imag, 0.0)

    def test_invalid_qubit(self):
        with pytest.raises(ValueError):
            apply_pauli_gate(prepare_pairs([BellLabel.PHI_PLUS]), PauliLabel.X, 2)
