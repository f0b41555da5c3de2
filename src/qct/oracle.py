"""Dense statevector oracle for Bell-basis measurements.

Small brute-force simulator (up to 16 qubits) used to certify the label
algebra in :mod:`qct.bell`: it prepares products of Bell pairs, computes
exact Born probabilities for a Bell measurement on any two qubits, and
collapses the state. No label bookkeeping happens here - everything is
amplitudes, so agreement with the symbolic engine is a real check, not a
tautology.

`bell_measure_collapse` samples one outcome and returns the collapsed
state; `bell_sample` draws many outcomes of the same measurement on one
state from a single Born distribution. Both map a uniform draw to an
outcome through `_outcomes_of`, so `bell_sample(state, q1, q2, rng, k)`
returns exactly the outcomes of k successive collapses of `state`.

Qubits are big-endian: qubit 0 is the most significant bit of the basis
index. `prepare_pairs` places pair i on qubits (2i, 2i+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import BellLabel, PauliLabel

__all__ = [
    "MAX_QUBITS",
    "QuantumState",
    "prepare_pairs",
    "bell_distribution",
    "bell_measure_collapse",
    "bell_sample",
    "apply_pauli_gate",
    "bell_vector",
]

MAX_QUBITS = 16

_SQ2 = 1.0 / np.sqrt(2.0)

# Rows indexed by BellLabel value, columns by |q1 q2> in the order 00,01,10,11.
_BELL_MATRIX = np.array(
    [
        [_SQ2, 0.0, 0.0, _SQ2],   # Phi+ = (|00> + |11>)/sqrt2
        [_SQ2, 0.0, 0.0, -_SQ2],  # Phi- = (|00> - |11>)/sqrt2
        [0.0, _SQ2, _SQ2, 0.0],   # Psi+ = (|01> + |10>)/sqrt2
        [0.0, _SQ2, -_SQ2, 0.0],  # Psi- = (|01> - |10>)/sqrt2
    ],
    dtype=np.complex128,
)

# The real Y = X @ Z keeps every matrix in this table real.
_PAULI_MATRICES = {
    PauliLabel.I: np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128),
    PauliLabel.X: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    PauliLabel.Y: np.array([[0.0, -1.0], [1.0, 0.0]], dtype=np.complex128),
    PauliLabel.Z: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}


def bell_vector(label: BellLabel) -> np.ndarray:
    """Two-qubit amplitude vector of `label` (basis order 00,01,10,11)."""
    return _BELL_MATRIX[label.value].copy()


@dataclass(frozen=True)
class QuantumState:
    """Immutable n-qubit statevector with 2**n amplitudes."""

    amplitudes: np.ndarray
    qubit_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.qubit_count <= MAX_QUBITS:
            raise ValueError(f"qubit_count must be in 1..{MAX_QUBITS}")
        if self.amplitudes.shape != (2**self.qubit_count,):
            raise ValueError("amplitude vector has the wrong length")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm}")

    def probability_of(self, basis_index: int) -> float:
        return float(np.abs(self.amplitudes[basis_index]) ** 2)


def prepare_pairs(labels: list[BellLabel]) -> QuantumState:
    """Product state of Bell pairs, pair i on qubits (2i, 2i+1)."""
    if not labels:
        raise ValueError("at least one pair is required")
    if 2 * len(labels) > MAX_QUBITS:
        raise ValueError(f"{len(labels)} pairs exceed the {MAX_QUBITS}-qubit limit")
    amps = np.array([1.0], dtype=np.complex128)
    for label in labels:
        amps = np.kron(amps, _BELL_MATRIX[label.value])
    return QuantumState(amps, 2 * len(labels))


def _pair_view(state: QuantumState, q1: int, q2: int) -> np.ndarray:
    """Amplitudes reshaped to (4, rest) with (q1, q2) as the leading axes."""
    n = state.qubit_count
    for q in (q1, q2):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n}-qubit state")
    if q1 == q2:
        raise ValueError("measurement qubits must be distinct")
    tensor = state.amplitudes.reshape([2] * n)
    tensor = np.moveaxis(tensor, (q1, q2), (0, 1))
    return tensor.reshape(4, -1)


def _born(state: QuantumState, q1: int, q2: int) -> tuple[np.ndarray, np.ndarray]:
    """Bell-basis coefficients (4, rest) and their Born probabilities."""
    coeffs = _BELL_MATRIX.conj() @ _pair_view(state, q1, q2)
    return coeffs, np.sum(np.abs(coeffs) ** 2, axis=1).real


def _outcomes_of(probs: np.ndarray, uniforms):
    """Outcome index for each uniform in [0, 1): the first index whose
    cumulative probability exceeds ``u * total``, so a zero-probability
    branch is never chosen."""
    cumulative = np.cumsum(probs)
    return np.searchsorted(cumulative, uniforms * cumulative[-1], side="right")


def bell_distribution(state: QuantumState, q1: int, q2: int) -> np.ndarray:
    """Exact Born probabilities of the four Bell outcomes on (q1, q2).

    Returns an array indexed by BellLabel value; entries sum to 1 within
    numerical precision.
    """
    return _born(state, q1, q2)[1]


def bell_measure_collapse(
    state: QuantumState, q1: int, q2: int, rng: np.random.Generator
) -> tuple[BellLabel, QuantumState]:
    """Sample a Bell outcome on (q1, q2) and collapse the state.

    Zero-probability branches are never sampled. The collapsed state keeps
    the measured pair in the outcome's Bell state, so later measurements on
    those qubits reproduce the outcome.
    """
    n = state.qubit_count
    coeffs, probs = _born(state, q1, q2)
    outcome = BellLabel(int(_outcomes_of(probs, rng.random())))
    p = probs[outcome.value]
    projected = np.outer(_BELL_MATRIX[outcome.value], coeffs[outcome.value]) / np.sqrt(p)
    tensor = projected.reshape([2, 2] + [2] * (n - 2))
    tensor = np.moveaxis(tensor, (0, 1), (q1, q2))
    return outcome, QuantumState(tensor.reshape(-1), n)


def bell_sample(
    state: QuantumState, q1: int, q2: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Outcomes (BellLabel values) of `size` independent Bell measurements
    on (q1, q2) of `state`, each on a fresh copy.

    Consumes `rng` exactly as `size` successive `bell_measure_collapse`
    calls on `state` would and returns the same outcomes, from one Born
    distribution and one array of `size` uniforms.
    """
    return _outcomes_of(bell_distribution(state, q1, q2), rng.random(size))


def apply_pauli_gate(state: QuantumState, pauli: PauliLabel, qubit: int) -> QuantumState:
    """Apply a single-qubit Pauli (real Y convention) to `qubit`."""
    n = state.qubit_count
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")
    tensor = state.amplitudes.reshape([2] * n)
    tensor = np.moveaxis(tensor, qubit, 0).reshape(2, -1)
    tensor = _PAULI_MATRICES[pauli] @ tensor
    tensor = np.moveaxis(tensor.reshape([2] * n), 0, qubit)
    return QuantumState(tensor.reshape(-1), n)
