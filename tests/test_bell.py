"""Label algebra and matching-engine tests, certified against the oracle
wherever an operation's contract is a physical claim rather than arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qct.bell import (
    AlreadyMeasuredError,
    BellLabel,
    EntangledMatching,
    ParticleId,
    Party,
    PauliLabel,
    SelfMeasurementError,
    UnknownParticleError,
    apply_pauli,
    total_parity,
)

A = Party.ALICE
B = Party.BOB


def pid(i: int, party: Party = A) -> ParticleId:
    return ParticleId(party, i)


def fresh_matching(labels: list[BellLabel], party: Party = A) -> EntangledMatching:
    return EntangledMatching(
        (pid(2 * i + 1, party), pid(2 * i + 2, party), lab) for i, lab in enumerate(labels)
    )


class TestLabels:
    def test_encoding(self):
        assert [b.bits for b in BellLabel] == ["00", "01", "10", "11"]

    def test_parity_classes(self):
        assert BellLabel.PHI_PLUS.parity == 0
        assert BellLabel.PSI_MINUS.parity == 0
        assert BellLabel.PHI_MINUS.parity == 1
        assert BellLabel.PSI_PLUS.parity == 1

    def test_pauli_parity_change(self):
        assert PauliLabel.I.parity == 0
        assert PauliLabel.Y.parity == 0
        assert PauliLabel.X.parity == 1
        assert PauliLabel.Z.parity == 1


class TestApplyPauli:
    def test_known_flips(self):
        assert apply_pauli(BellLabel.PHI_PLUS, PauliLabel.X) is BellLabel.PSI_PLUS
        assert apply_pauli(BellLabel.PHI_PLUS, PauliLabel.Z) is BellLabel.PHI_MINUS
        assert apply_pauli(BellLabel.PHI_PLUS, PauliLabel.Y) is BellLabel.PSI_MINUS

    @pytest.mark.parametrize("label", list(BellLabel))
    @pytest.mark.parametrize("pauli", list(PauliLabel))
    def test_involution_and_identity(self, label, pauli):
        assert apply_pauli(label, PauliLabel.I) is label
        assert apply_pauli(apply_pauli(label, pauli), pauli) is label

    @pytest.mark.parametrize("label", list(BellLabel))
    @pytest.mark.parametrize("pauli", list(PauliLabel))
    def test_agrees_with_statevector(self, label, pauli):
        # independent route: oracle gates on amplitudes, no label algebra
        from qct.oracle import apply_pauli_gate, bell_distribution, prepare_pairs

        state = apply_pauli_gate(prepare_pairs([label]), pauli, 0)
        probs = bell_distribution(state, 0, 1)
        expected = apply_pauli(label, pauli)
        assert probs[expected.value] == pytest.approx(1.0, abs=1e-12)


class TestTotalParity:
    def test_example(self):
        labels = [BellLabel.PHI_MINUS, BellLabel.PSI_PLUS, BellLabel.PHI_PLUS]
        assert total_parity(labels) == 0

    def test_empty_is_zero(self):
        assert total_parity([]) == 0

    @given(st.lists(st.sampled_from(list(BellLabel)), max_size=12))
    def test_equals_parity_of_xor(self, labels):
        acc = 0
        for lab in labels:
            acc ^= lab.value
        assert total_parity(labels) == (((acc >> 1) ^ acc) & 1)


class TestMatchingBasics:
    def test_partner_and_label(self):
        m = fresh_matching([BellLabel.PSI_MINUS])
        assert m.partner_of(pid(1)) == pid(2)
        assert m.label_of(pid(2)) is BellLabel.PSI_MINUS

    def test_self_pair_rejected(self):
        with pytest.raises(SelfMeasurementError):
            EntangledMatching([(pid(1), pid(1), BellLabel.PHI_PLUS)])

    def test_apply_pauli_flips_edge(self):
        m = fresh_matching([BellLabel.PHI_PLUS])
        m.apply_pauli(pid(1), PauliLabel.X)
        assert m.label_of(pid(1)) is BellLabel.PSI_PLUS
        assert m.label_of(pid(2)) is BellLabel.PSI_PLUS
        m.apply_pauli(pid(2), PauliLabel.I)
        assert m.label_of(pid(2)) is BellLabel.PSI_PLUS


class _CountingRng:
    """Fails the test if the engine draws from it."""

    def integers(self, *a, **k):  # pragma: no cover - reaching this is the bug
        raise AssertionError("rng consulted in a deterministic branch")


class TestMeasurePair:
    def test_partners_deterministic_without_rng(self):
        m = fresh_matching([BellLabel.PSI_PLUS])
        assert m.measure_pair(pid(1), pid(2), rng=None) is BellLabel.PSI_PLUS

    def test_partners_never_consult_rng(self):
        m = fresh_matching([BellLabel.PHI_MINUS])
        assert m.measure_pair(pid(1), pid(2), _CountingRng()) is BellLabel.PHI_MINUS

    def test_swap_residual_rule(self):
        # two pairs Psi- and Phi-: residual must be b1 ^ b2 ^ outcome
        for seed in range(16):
            m = fresh_matching([BellLabel.PSI_MINUS, BellLabel.PHI_MINUS])
            outcome = m.measure_pair(pid(2), pid(3), np.random.default_rng(seed))
            expected = BellLabel(
                BellLabel.PSI_MINUS.value ^ BellLabel.PHI_MINUS.value ^ outcome.value
            )
            assert m.label_of(pid(1)) is expected
            assert m.partner_of(pid(1)) == pid(4)

    def test_swap_example_outcome(self):
        # the documented instance: Psi-, Phi-, outcome Phi+ -> residual Psi+
        rng = np.random.default_rng(0)
        while True:
            m = fresh_matching([BellLabel.PSI_MINUS, BellLabel.PHI_MINUS])
            if m.measure_pair(pid(2), pid(3), rng) is BellLabel.PHI_PLUS:
                assert m.label_of(pid(1)) is BellLabel.PSI_PLUS
                break

    def test_errors(self):
        m = fresh_matching([BellLabel.PHI_PLUS, BellLabel.PHI_PLUS])
        with pytest.raises(SelfMeasurementError):
            m.measure_pair(pid(1), pid(1))
        with pytest.raises(UnknownParticleError):
            m.measure_pair(pid(1), pid(9))
        m.measure_pair(pid(1), pid(2))
        with pytest.raises(AlreadyMeasuredError):
            m.measure_pair(pid(1), pid(3))

    def test_non_partner_requires_rng(self):
        m = fresh_matching([BellLabel.PHI_PLUS, BellLabel.PHI_PLUS])
        with pytest.raises(ValueError):
            m.measure_pair(pid(2), pid(3), rng=None)

    def test_outcome_uniformity_chi_square(self):
        # 1e5 swap outcomes must be consistent with uniform at alpha = 0.001
        rng = np.random.default_rng(2026)
        counts = np.zeros(4)
        for _ in range(100_000):
            m = fresh_matching([BellLabel.PHI_PLUS, BellLabel.PHI_PLUS])
            counts[m.measure_pair(pid(2), pid(3), rng).value] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001


@st.composite
def _matching_script(draw):
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(st.sampled_from(list(BellLabel)), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    flips = draw(
        st.lists(
            st.tuples(st.integers(1, 2 * n), st.sampled_from(list(PauliLabel))),
            max_size=4,
        )
    )
    return n, labels, seed, flips


class TestConservation:
    @settings(deadline=None, max_examples=200)
    @given(_matching_script())
    def test_invariant_after_every_operation(self, script):
        n, labels, seed, flips = script
        rng = np.random.default_rng(seed)
        m = fresh_matching(labels)
        assert m.conservation_ok()
        live = [pid(i) for i in range(1, 2 * n + 1)]
        for index, pauli in flips:
            target = pid(index)
            if m.is_live(target):
                m.apply_pauli(target, pauli)
        # measure to exhaustion in random order; every single measurement
        # must preserve the running XOR of live labels and past outcomes
        while live:
            before = m.live_xor() ^ m.history_xor()
            i, j = sorted(rng.choice(len(live), size=2, replace=False))
            u, v = live[i], live[j]
            m.measure_pair(u, v, rng)
            assert m.live_xor() ^ m.history_xor() == before
            del live[j], live[i]
        assert m.live_xor() == 0

    @settings(deadline=None, max_examples=100)
    @given(_matching_script())
    def test_outcome_parity_equals_initial_parity(self, script):
        n, labels, seed, _ = script
        rng = np.random.default_rng(seed)
        m = fresh_matching(labels)
        live = [pid(i) for i in range(1, 2 * n + 1)]
        outcomes = []
        while live:
            i, j = sorted(rng.choice(len(live), size=2, replace=False))
            outcomes.append(m.measure_pair(live[i], live[j], rng))
            del live[j], live[i]
        assert m.conservation_ok()
        assert total_parity(outcomes) == total_parity(labels)
