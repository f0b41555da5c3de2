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
`schedule_outcomes` runs whole measurement schedules on a batch of
product states, with the same outcome rule and the same normalisation
check as a `QuantumState`. Each step reads every row's pair view out of
the flat amplitudes with one `take` and writes the collapsed branch back
with one `put`, scaling it by the real 1 / sqrt(p) as numpy's complex /
real division does, so the amplitudes are `bell_measure_collapse`'s bit
for bit.

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
    "schedule_outcomes",
    "apply_pauli_gate",
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


def _require_normalized(amplitudes: np.ndarray) -> None:
    """Raise unless every row (last axis) has |psi|^2 within 1e-9 of 1; a
    NaN norm fails too."""
    norms = np.sum(np.abs(amplitudes) ** 2, axis=-1, keepdims=True)
    bad = ~(np.abs(norms - 1.0) <= 1e-9)
    if bad.any():
        raise ValueError(f"state is not normalized: |psi|^2 = {float(norms[bad][0])}")


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
        _require_normalized(self.amplitudes)


def prepare_pairs(labels: list[BellLabel]) -> QuantumState:
    """Product state of Bell pairs, pair i on qubits (2i, 2i+1)."""
    if not labels:
        raise ValueError("at least one pair is required")
    if 2 * len(labels) > MAX_QUBITS:
        raise ValueError(f"{len(labels)} pairs exceed the {MAX_QUBITS}-qubit limit")
    amps = np.ones(1, dtype=np.complex128)
    for label in labels:  # np.kron's products, without its reshaping
        amps = np.multiply.outer(amps, _BELL_MATRIX[label.value]).reshape(-1)
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


# Born probabilities at or below this are rounding residue of an exact zero
# (an amplitude of a few ulps gives ~1e-33), not a branch that can occur.
_RESIDUE = 1e-12


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative Born probabilities along the last axis, with rounding
    residue counted as zero."""
    return np.cumsum(np.where(probs > _RESIDUE, probs, 0.0), axis=-1)


def _outcomes_of(probs: np.ndarray, uniforms):
    """Outcome index for each uniform in [0, 1): the first index whose
    cumulative probability exceeds ``u * total``, so a zero-probability
    branch is never chosen, not even at u = 0."""
    cumulative = _cumulative(probs)
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


def _pair_indices(qubits: int, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Basis indices of each row's (q1, q2) view: ``[r, 2a + b, j]`` is the
    index with qubit q1 = a, qubit q2 = b and the other qubits spelling j
    in order, as `_pair_view` lays them out."""
    bit1 = qubits - 1 - q1.astype(np.intp)[:, None]
    bit2 = qubits - 1 - q2.astype(np.intp)[:, None]
    low, high = np.minimum(bit1, bit2), np.maximum(bit1, bit2)
    rest = np.arange(2 ** (qubits - 2))[None, :]
    # open a zero bit at `low`, then one at `high`
    rest = ((rest >> low) << (low + 1)) | (rest & ((1 << low) - 1))
    rest = ((rest >> high) << (high + 1)) | (rest & ((1 << high) - 1))
    pair = np.arange(4)[None, :, None]
    return rest[:, None, :] | ((pair >> 1) << bit1[:, :, None]) | ((pair & 1) << bit2[:, :, None])


def schedule_outcomes(
    labels: np.ndarray, order: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of many measurement schedules on the statevector, batched.

    Row r starts from ``prepare_pairs(labels[r])`` and Bell-measures qubits
    ``order[r, 2k]`` and ``order[r, 2k + 1]`` at step k, collapsing on the
    outcome picked by ``uniforms[r, k]``. Each step makes one gather of
    every row's pair view and agrees with `bell_measure_collapse` on the
    same uniform: the same Born probabilities, the same `_outcomes_of`
    rule (a zero-probability branch is never chosen) and the same
    normalisation check on every row.

    Returns the outcome label values, shape ``(rows, steps)``, and the
    collapsed amplitudes, shape ``(rows, 4**n)``.
    """
    rows, n = labels.shape
    steps = order.shape[1] // 2
    if order.shape != (rows, 2 * steps) or uniforms.shape[0] != rows or steps > n:
        raise ValueError("labels, order and uniforms disagree in shape")
    if 2 * n > MAX_QUBITS:
        raise ValueError(f"{n} pairs exceed the {MAX_QUBITS}-qubit limit")
    amps = np.ones((rows, 1), dtype=np.complex128)
    for i in range(n):  # np.kron's outer product, row by row
        amps = (amps[:, :, None] * _BELL_MATRIX[labels[:, i]][:, None, :]).reshape(rows, -1)
    _require_normalized(amps)
    row = np.arange(rows)
    # flat index of row r's amplitude j is r * 4**n + j; `flat` is a view
    flat, offset = amps.reshape(-1), (row * amps.shape[1])[:, None, None]
    bell_conj = _BELL_MATRIX.conj()
    outcomes = np.empty((rows, steps), dtype=labels.dtype)
    for k in range(steps):
        where = _pair_indices(2 * n, order[:, 2 * k], order[:, 2 * k + 1]) + offset
        coeffs = bell_conj @ flat.take(where)
        probs = np.sum(np.abs(coeffs) ** 2, axis=2).real
        cumulative = _cumulative(probs)
        # searchsorted(side="right") of each row, as in _outcomes_of
        outcome = np.sum(cumulative <= uniforms[:, k : k + 1] * cumulative[:, -1:], axis=1)
        projected = _BELL_MATRIX[outcome][:, :, None] * coeffs[row, outcome][:, None, :]
        projected.view(np.float64)[...] *= (1.0 / np.sqrt(probs[row, outcome]))[:, None, None]
        flat.put(where, projected)
        _require_normalized(amps)
        outcomes[:, k] = outcome
    return outcomes, amps


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
