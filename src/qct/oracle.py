"""Exact dense statevector oracle for Bell-basis measurements.

Small brute-force simulator (up to 16 qubits) used to certify the label
algebra in :mod:`qct.bell`: it prepares products of Bell pairs, computes
exact Born probabilities for a Bell measurement on any two qubits, and
collapses the state. No label bookkeeping happens here - everything is
amplitudes, so agreement with the symbolic engine is a real check, not a
tautology.

Every state the oracle builds is a product of Bell pairs (up to a sign),
whose nonzero amplitudes all have one magnitude. It holds one on 2k qubits
as 2**k entries of +-1 and zeros (the amplitudes times 2**(k/2)) and
measures through the Bell matrix times sqrt(2), whose entries are 0 and
+-1, so all arithmetic is on small integers and exact in float64: a Born
probability is exactly 0, 1/4 or 1, and a collapse divides the chosen
branch by its largest |entry|, 1 or 2. Every state built is checked for
that form (`_require_normalized`).

`bell_measure_collapse` samples one outcome and returns the collapsed
state; `bell_sample(probs, rng, k)` draws k outcomes from one Born
distribution, so ``bell_sample(bell_distribution(state, q1, q2), rng, k)``
returns exactly the outcomes of k successive collapses of `state` on
(q1, q2).

The batched entry points hold many states as the rows of one ``(rows,
2**n)`` array: `prepare_states` (of `prepare_pairs`), `apply_pauli_gates`
(of `apply_pauli_gate`, one Pauli and qubit per row), `bell_distributions`
(of `bell_distribution`) and `schedule_outcomes`, the one batched
collapse, which runs a measurement schedule per row on the outcomes its
uniforms pick and refuses what the engine's kernel refuses
(`bell.validate_schedule`). The Bell measurements share one copy of each
rule: one gather that reorders qubits (`_transpose_index`; a measurement
of one qubit pair gathers every row through one shared index), one Born
rule (`_born_of`), one outcome rule (`_outcomes_of`, the scalar samplers'
too) and one collapse (`_collapse`). They give the scalar functions'
amplitudes, probabilities and outcomes bit for bit, but build no
`QuantumState`.

Qubits are big-endian: qubit 0 is the most significant bit of the basis
index. `prepare_pairs` places pair i on qubits (2i, 2i+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bell import BellLabel, PauliLabel, validate_labels, validate_schedule

__all__ = [
    "MAX_QUBITS",
    "QuantumState",
    "prepare_pairs",
    "bell_distribution",
    "bell_measure_collapse",
    "bell_sample",
    "schedule_outcomes",
    "apply_pauli_gate",
    "prepare_states",
    "bell_distributions",
    "apply_pauli_gates",
]

MAX_QUBITS = 16

# Rows indexed by BellLabel value, columns by |q1 q2> in the order 00,01,10,11:
# each Bell state times sqrt(2).
_BELL_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],   # Phi+ = (|00> + |11>)/sqrt2
        [1.0, 0.0, 0.0, -1.0],  # Phi- = (|00> - |11>)/sqrt2
        [0.0, 1.0, 1.0, 0.0],   # Psi+ = (|01> + |10>)/sqrt2
        [0.0, 1.0, -1.0, 0.0],  # Psi- = (|01> - |10>)/sqrt2
    ],
    dtype=np.float64,
)

# Indexed by PauliLabel value; the real Y = X @ Z keeps every matrix real.
_PAULI_MATRICES = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],   # I
        [[1.0, 0.0], [0.0, -1.0]],  # Z
        [[0.0, 1.0], [1.0, 0.0]],   # X
        [[0.0, -1.0], [1.0, 0.0]],  # Y
    ],
    dtype=np.float64,
)


def _require_normalized(amplitudes: np.ndarray) -> None:
    """Raise unless every row (last axis) of 4**k amplitudes is 2**k real
    entries of +-1 and zeros: a normalised product of k Bell pairs as the
    oracle holds it. A NaN or a complex array fails too."""
    size = amplitudes.shape[-1]
    magnitudes = np.abs(amplitudes)
    ones = magnitudes.sum(axis=-1)  # the row's count of +-1, once every entry is 0 or 1
    exact = ((magnitudes == 1.0) | (magnitudes == 0.0)).all() and (ones * ones == size).all()
    if np.iscomplexobj(amplitudes) or not exact:
        raise ValueError(f"state is not normalized: not sqrt({size}) entries of +-1, the rest 0")


@dataclass(frozen=True)
class QuantumState:
    """Immutable n-qubit statevector with 2**n amplitudes (a read-only view)."""

    amplitudes: np.ndarray
    qubit_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.qubit_count <= MAX_QUBITS:
            raise ValueError(f"qubit_count must be in 1..{MAX_QUBITS}")
        if self.amplitudes.shape != (2**self.qubit_count,):
            raise ValueError("amplitude vector has the wrong length")
        _require_normalized(self.amplitudes)
        object.__setattr__(self, "amplitudes", self.amplitudes.view())
        self.amplitudes.flags.writeable = False


def _check_pair_count(n: int) -> None:
    if n < 1:
        raise ValueError("at least one pair is required")
    if 2 * n > MAX_QUBITS:
        raise ValueError(f"{n} pairs exceed the {MAX_QUBITS}-qubit limit")


def prepare_pairs(labels: list[BellLabel]) -> QuantumState:
    """Product state of Bell pairs, pair i on qubits (2i, 2i+1)."""
    _check_pair_count(len(labels))
    amps = np.ones(1)
    for label in labels:  # np.kron's products, without its reshaping
        amps = np.multiply.outer(amps, _BELL_MATRIX[label.value]).reshape(-1)
    return QuantumState(amps, 2 * len(labels))


def _check_pair(n: int, q1: int, q2: int) -> None:
    validate_labels((q1, q2), "qubit", n)
    if q1 == q2:
        raise ValueError("measurement qubits must be distinct")


def _pair_view(state: QuantumState, q1: int, q2: int) -> np.ndarray:
    """Amplitudes reshaped to (4, rest) with (q1, q2) as the leading axes."""
    n = state.qubit_count
    _check_pair(n, q1, q2)
    return np.moveaxis(state.amplitudes.reshape([2] * n), (q1, q2), (0, 1)).reshape(4, -1)


def _born_of(coeffs: np.ndarray) -> np.ndarray:
    """Born probabilities ``(..., 4)`` of Bell-basis coefficients ``(..., 4,
    rest)``: each branch's sum of squares over the row's total."""
    weights = np.einsum("...ij,...ij->...i", coeffs, coeffs)
    return weights / weights.sum(axis=-1, keepdims=True)


def _born(state: QuantumState, q1: int, q2: int) -> tuple[np.ndarray, np.ndarray]:
    """Bell-basis coefficients (4, rest) and their Born probabilities."""
    coeffs = _BELL_MATRIX @ _pair_view(state, q1, q2)
    return coeffs, _born_of(coeffs)


def _outcomes_of(probs: np.ndarray, uniforms):
    """Outcome index for each uniform in [0, 1), row by row: the first index
    whose cumulative probability exceeds ``u * total``, so a zero-probability
    branch is never chosen, not even at u = 0. `uniforms` broadcasts against
    the leading axes of `probs`, shape ``(..., 4)``."""
    cumulative = np.cumsum(probs, axis=-1)
    point = uniforms * cumulative[..., -1]
    return sum(cumulative[..., j] <= point for j in range(4))  # searchsorted, side="right"


def _collapse(branch: np.ndarray) -> np.ndarray:
    """The state the qubits left in a Bell branch's coefficients ``(...,
    rest)`` collapse to: the branch divided by its largest |entry|."""
    return branch / np.abs(branch).max(axis=-1, keepdims=True)


def bell_distribution(state: QuantumState, q1: int, q2: int) -> np.ndarray:
    """Exact Born probabilities of the four Bell outcomes on (q1, q2).

    Returns an array indexed by BellLabel value, each entry 0, 1/4 or 1.
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
    projected = np.outer(_BELL_MATRIX[outcome.value], _collapse(coeffs[outcome.value]))
    tensor = np.moveaxis(projected.reshape([2] * n), (0, 1), (q1, q2))
    return outcome, QuantumState(tensor.reshape(-1), n)


def bell_sample(probs: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Outcomes (BellLabel values) of `size` independent draws from the Born
    distribution `probs` of a Bell measurement, as `bell_distribution` gives it.

    Consumes `rng` exactly as `size` successive `bell_measure_collapse`
    calls on the measured state would and returns the same outcomes, from
    one array of `size` uniforms.
    """
    if np.shape(probs) != (4,):
        raise ValueError(f"probs must hold the 4 Bell outcomes, not shape {np.shape(probs)}")
    return _outcomes_of(probs, rng.random(size))


@lru_cache(maxsize=None)
def _bits(width: int) -> np.ndarray:
    """Row j holds the `width` bits of j, most significant first."""
    return np.arange(2**width)[:, None] >> np.arange(width - 1, -1, -1) & 1


def _transpose_index(qubits: np.ndarray) -> np.ndarray:
    """Basis indices ``(..., 2**n)`` that reorder the n qubits of a state:
    gathering a state through row r of the index, built from the
    permutation ``qubits[r]`` of 0..n-1, is np.transpose of its ``(2,) *
    n`` tensor to those axes, so qubit t of the result is qubit
    ``qubits[r, t]`` of the state. Each half of the new qubits' bits is
    weighed through one small table."""
    n = qubits.shape[-1]
    weight = 1 << (n - 1 - qubits.astype(np.intp))  # new qubit t's place in the old index
    high = weight[..., : n // 2] @ _bits(n // 2).T
    low = weight[..., n // 2 :] @ _bits(n - n // 2).T
    return (high[..., :, None] + low[..., None, :]).reshape(*qubits.shape[:-1], -1)


def prepare_states(labels: np.ndarray) -> np.ndarray:
    """Batched `prepare_pairs`: row r is the product of Bell pairs labelled
    ``labels[r]`` (label values, pair i on qubits 2i, 2i + 1), shape
    ``(rows, 4**n)``, with every row checked for normalisation."""
    rows, n = labels.shape
    _check_pair_count(n)
    validate_labels(labels)
    amps = np.ones((rows, 1))
    for i in reversed(range(n)):  # np.kron's outer product, row by row, last pair first
        amps = (_BELL_MATRIX[labels[:, i]][:, :, None] * amps[:, None, :]).reshape(rows, -1)
    _require_normalized(amps)
    return amps


def _qubits(amps: np.ndarray) -> int:
    """Qubit count of a ``(rows, 2**n)`` batch of states."""
    if amps.ndim == 2:
        qubits = amps.shape[1].bit_length() - 1
        if 1 <= qubits <= MAX_QUBITS and amps.shape[1] == 1 << qubits:
            return qubits
    raise ValueError(f"amplitudes must have shape (rows, 2**n) with n in 1..{MAX_QUBITS}")


def _pair_index(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    """The ``(4, rest)`` basis indices of `_pair_view` on (q1, q2), which
    every row of the batch shares, after checking its shape and the qubits."""
    qubits = _qubits(amps)
    _check_pair(qubits, q1, q2)
    others = [q for q in range(qubits) if q not in (q1, q2)]
    return _transpose_index(np.array([q1, q2, *others])).reshape(4, -1)


def bell_distributions(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    """Batched `bell_distribution`: Born probabilities ``(rows, 4)``, indexed
    by BellLabel value, of a Bell measurement on (q1, q2) of every row."""
    return _born_of(_BELL_MATRIX @ amps[:, _pair_index(amps, q1, q2)])


def apply_pauli_gates(amps: np.ndarray, paulis: np.ndarray, qubits: np.ndarray) -> np.ndarray:
    """Batched `apply_pauli_gate`: the Pauli of value ``paulis[r]`` (real Y
    convention) on qubit ``qubits[r]`` of row r, every row checked for
    normalisation."""
    n = _qubits(amps)
    rows, size = amps.shape
    if paulis.shape != (rows,) or qubits.shape != (rows,):
        raise ValueError("one Pauli and one qubit per row are required")
    validate_labels(paulis, "Pauli")
    validate_labels(qubits, "qubit", n)
    # row r's view with qubits[r] moved to the front, as in `apply_pauli_gate`
    others = np.arange(n - 1) + (np.arange(n - 1) >= qubits[:, None])
    where = _transpose_index(np.column_stack([qubits, others])).reshape(rows, 2, -1)
    where += (np.arange(rows) * size)[:, None, None]
    out = np.empty(rows * size, dtype=amps.dtype)
    out[where] = _PAULI_MATRICES[paulis] @ amps.reshape(-1)[where]
    out = out.reshape(rows, size)
    _require_normalized(out)
    return out


def schedule_outcomes(
    labels: np.ndarray, order: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of many measurement schedules on the statevector, batched.

    Row r starts from ``prepare_pairs(labels[r])`` and Bell-measures qubits
    ``order[r, 2k]`` and ``order[r, 2k + 1]`` at step k, collapsing on the
    outcome picked by ``uniforms[r, k]``. Each step runs the Born rule, the
    outcome rule and the collapse of `bell_measure_collapse`, so it agrees
    bit for bit with it on the same uniform, and a zero-probability branch
    is never chosen. The prepared rows are gathered once, with each row's
    qubits in the order its schedule measures them and then the qubits it
    leaves, in order: every step measures the two leading qubits and keeps
    only the rest, since the measured pair is left in the outcome's Bell
    state, which no later step reads. Every row is checked for
    normalisation after every step.

    Returns the outcome label values, shape ``(rows, steps)``, and the state
    of the qubits never measured, shape ``(rows, 4**(n - steps))``. Inputs
    `bell.validate_schedule` refuses raise its ValueError, as they do in
    the engine's `bell.schedule_outcomes`; so do uniforms outside [0, 1).
    """
    steps = validate_schedule(labels, order, uniforms)
    outside = uniforms[~((uniforms >= 0) & (uniforms < 1))]
    if outside.size:
        raise ValueError(f"uniform {outside[0]} is not in [0, 1)")
    rows, n = labels.shape
    row = np.arange(rows)
    left = np.ones((rows, 2 * n), dtype=bool)  # the qubits the schedule leaves
    left[row[:, None], order] = False
    qubits = np.concatenate([order, np.nonzero(left)[1].reshape(rows, 2 * (n - steps))], axis=1)
    index = _transpose_index(qubits) + (row << 2 * n)[:, None]  # into the flattened batch
    amps = prepare_states(labels).take(index)
    outcomes = np.empty((rows, steps), dtype=labels.dtype)
    for k in range(steps):
        coeffs = _BELL_MATRIX @ amps.reshape(rows, 4, -1)
        outcomes[:, k] = outcome = _outcomes_of(_born_of(coeffs), uniforms[:, k])
        amps = _collapse(coeffs[row, outcome])
        _require_normalized(amps)
    return outcomes, amps


def apply_pauli_gate(state: QuantumState, pauli: PauliLabel, qubit: int) -> QuantumState:
    """Apply a single-qubit Pauli (real Y convention) to `qubit`."""
    n = state.qubit_count
    validate_labels(pauli, "Pauli")
    validate_labels(qubit, "qubit", n)
    tensor = np.moveaxis(state.amplitudes.reshape([2] * n), qubit, 0).reshape(2, -1)
    tensor = np.moveaxis((_PAULI_MATRICES[pauli] @ tensor).reshape([2] * n), 0, qubit)
    return QuantumState(tensor.reshape(-1), n)
