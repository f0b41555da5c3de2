"""Dense statevector oracle for Bell-basis measurements.

Small brute-force simulator (up to 16 qubits) used to certify the label
algebra in :mod:`qct.bell`: it prepares products of Bell pairs, computes
exact Born probabilities for a Bell measurement on any two qubits, and
collapses the state. No label bookkeeping happens here - everything is
amplitudes, so agreement with the symbolic engine is a real check, not a
tautology.

`bell_measure_collapse` samples one outcome and returns the collapsed
state; `bell_sample(probs, rng, k)` draws k outcomes from one Born
distribution, so ``bell_sample(bell_distribution(state, q1, q2), rng, k)``
returns exactly the outcomes of k successive collapses of `state` on
(q1, q2).

The batched entry points hold many states as the rows of one ``(rows,
2**n)`` array: `prepare_states` (of `prepare_pairs`), `apply_pauli_gates`
(of `apply_pauli_gate`, one Pauli and qubit per row), `bell_distributions`
(of `bell_distribution`), `bell_project`, which collapses each row on a
chosen outcome, and `schedule_outcomes`, which runs a measurement schedule
per row and refuses what the engine's kernel refuses
(`bell.validate_schedule`). The Bell measurements share one copy of each
rule: one gather of every row's pair view through index tables cached per
qubit count (`_pair_rows`), one collapse that divides by sqrt(p) and
checks normalisation (`_collapse`) and one outcome rule (`_outcomes_of`,
the scalar samplers' too). They give the scalar functions' amplitudes,
probabilities and outcomes bit for bit, but build no `QuantumState`.
Amplitudes are float64: Bell states and real-Y Paulis never leave the
reals, and the real Bell matrix is its own conjugate (the scalar and
batched functions take complex too).

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
    "bell_project",
    "apply_pauli_gates",
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
    """Raise unless every row (last axis) has |psi|^2 within 1e-9 of 1; a
    NaN norm fails too."""
    norms = np.sum(np.abs(amplitudes) ** 2, axis=-1, keepdims=True)
    bad = ~(np.abs(norms - 1.0) <= 1e-9)
    if bad.any():
        raise ValueError(f"state is not normalized: |psi|^2 = {float(norms[bad][0])}")


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


def _born(state: QuantumState, q1: int, q2: int) -> tuple[np.ndarray, np.ndarray]:
    """Bell-basis coefficients (4, rest) and their Born probabilities."""
    coeffs = _BELL_MATRIX @ _pair_view(state, q1, q2)
    return coeffs, np.sum(np.abs(coeffs) ** 2, axis=1)


# Born probabilities at or below this are rounding residue of an exact zero
# (an amplitude of a few ulps gives ~1e-33), not a branch that can occur.
_RESIDUE = 1e-12


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative Born probabilities along the last axis, with rounding
    residue counted as zero."""
    return np.cumsum(np.where(probs > _RESIDUE, probs, 0.0), axis=-1)


def _outcomes_of(probs: np.ndarray, uniforms):
    """Outcome index for each uniform in [0, 1), row by row: the first index
    whose cumulative probability exceeds ``u * total``, so a zero-probability
    branch is never chosen, not even at u = 0. `uniforms` broadcasts against
    the leading axes of `probs`, shape ``(..., 4)``."""
    cumulative = _cumulative(probs)
    point = uniforms * cumulative[..., -1]
    return sum(cumulative[..., j] <= point for j in range(4))  # searchsorted, side="right"


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
def _gather_tables(qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair view tables, row ``q1 * qubits + q2`` (a placeholder at q1 = q2): `_pair_view`'s
    ``[2a + b, h * low.shape[1] + l]`` is ``pair[id, 2a + b] + high[id, h] + low[id, l]``,
    `high` spreading the leading half of the other qubits and `low` the rest."""
    q1, q2 = np.divmod(np.arange(qubits * qubits), qubits)
    weight = 1 << np.arange(qubits - 1, -1, -1)
    pair = np.outer(weight[q1], [0, 0, 1, 1]) + np.outer(weight[q2], [0, 1, 0, 1])
    qubit = np.arange(qubits)  # the other qubits in order (one extra on a placeholder)
    others = np.sort(np.where((qubit == q1[:, None]) | (qubit == q2[:, None]), qubits, qubit))
    halves = np.split(weight[others[:, : qubits - 2]], [(qubits - 1) // 2], axis=1)
    bits = [np.arange(2 ** h.shape[1])[:, None] >> np.arange(h.shape[1])[::-1] & 1 for h in halves]
    return pair, halves[0] @ bits[0].T, halves[1] @ bits[1].T


def prepare_states(labels: np.ndarray) -> np.ndarray:
    """Batched `prepare_pairs`: row r is the product of Bell pairs labelled
    ``labels[r]`` (label values, pair i on qubits 2i, 2i + 1), shape
    ``(rows, 4**n)``, with every row checked for normalisation."""
    rows, n = labels.shape
    _check_pair_count(n)
    validate_labels(labels)
    amps = np.ones((rows, 1))
    for i in range(n):  # np.kron's outer product, row by row
        amps = (amps[:, :, None] * _BELL_MATRIX[labels[:, i]][:, None, :]).reshape(rows, -1)
    _require_normalized(amps)
    return amps


def _qubits(amps: np.ndarray) -> int:
    """Qubit count of a ``(rows, 2**n)`` batch of states."""
    if amps.ndim == 2:
        qubits = amps.shape[1].bit_length() - 1
        if 1 <= qubits <= MAX_QUBITS and amps.shape[1] == 1 << qubits:
            return qubits
    raise ValueError(f"amplitudes must have shape (rows, 2**n) with n in 1..{MAX_QUBITS}")


def _pair_ids(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    """Every row's `_gather_tables` row for a measurement of (q1, q2), after
    checking the batch's shape and the qubits."""
    qubits = _qubits(amps)
    _check_pair(qubits, q1, q2)
    return np.full(len(amps), q1 * qubits + q2)


def _pair_rows(amps: np.ndarray, ids: np.ndarray):
    """Flat basis indices ``(rows, 4, rest)`` of row r's `_pair_view` on the
    qubit pair of `_gather_tables` row ``ids[r]``, and every row's
    Bell-basis coefficients ``(rows, 4, rest)`` and Born probabilities."""
    rows, size = amps.shape
    pair, high, low = _gather_tables(size.bit_length() - 1)
    start = high.take(ids, axis=0) + (np.arange(rows) * size)[:, None]  # row r from r * size
    spread = start[:, :, None] + low.take(ids, axis=0)[:, None]
    where = (pair.take(ids, axis=0)[:, :, None, None] + spread[:, None]).reshape(rows, 4, -1)
    coeffs = _BELL_MATRIX @ amps.take(where)
    return where, coeffs, np.sum(np.abs(coeffs) ** 2, axis=2)


def _collapse(out: np.ndarray, where, coeffs, probs, outcomes: np.ndarray) -> None:
    """Write row r's projection on Bell outcome ``outcomes[r]``, divided by
    sqrt(p) as in `bell_measure_collapse`, into C-ordered `out` at `_pair_rows`'
    indices `where`; check the rows for normalisation, but leave NaN a row
    whose p is rounding residue (a branch the samplers never pick)."""
    row = np.arange(len(outcomes))
    p = probs[row, outcomes]
    possible = p > _RESIDUE
    projected = _BELL_MATRIX[outcomes][:, :, None] * coeffs[row, outcomes][:, None, :]
    out.reshape(-1)[where] = projected / np.sqrt(np.where(possible, p, np.nan))[:, None, None]
    _require_normalized(out[possible])


def bell_distributions(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    """Batched `bell_distribution`: Born probabilities ``(rows, 4)``, indexed
    by BellLabel value, of a Bell measurement on (q1, q2) of every row."""
    return _pair_rows(amps, _pair_ids(amps, q1, q2))[2]


def bell_project(
    amps: np.ndarray, q1: int, q2: int, outcomes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched `bell_measure_collapse` on a chosen branch: row r collapses on
    the Bell outcome ``outcomes[r]`` of (q1, q2).

    Returns every row's Born probabilities ``(rows, 4)`` and the collapsed
    amplitudes, through the collapse `schedule_outcomes` makes. An outcome
    of probability at or below the rounding residue is a branch the
    samplers never pick: its row has no collapsed state and is NaN. Every
    other row is checked for normalisation.
    """
    if outcomes.shape != (len(amps),):
        raise ValueError("one outcome per row is required")
    validate_labels(outcomes)
    where, coeffs, probs = _pair_rows(amps, _pair_ids(amps, q1, q2))
    collapsed = np.empty(amps.shape, dtype=amps.dtype)
    _collapse(collapsed, where, coeffs, probs, outcomes)
    return probs, collapsed


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
    bit = (n - 1 - qubits.astype(np.intp))[:, None, None]
    rest = np.arange(size // 2)
    # row r's view with qubits[r] moved to the front, as in `apply_pauli_gate`:
    # [r, a, j] has the qubit at a and the other qubits spelling j in order
    where = (rest >> bit) << (bit + 1) | np.arange(2)[:, None] << bit | rest & (1 << bit) - 1
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
    outcome picked by ``uniforms[r, k]``. Each step runs the gather, the
    outcome rule and the collapse of `bell_project`, so it agrees bit for
    bit with `bell_measure_collapse` on the same uniform, and a
    zero-probability branch is never chosen.

    Returns the outcome label values, shape ``(rows, steps)``, and the
    collapsed amplitudes, shape ``(rows, 4**n)``. Inputs
    `bell.validate_schedule` refuses raise its ValueError, as they do in
    the engine's `bell.schedule_outcomes`; so do uniforms outside [0, 1).
    """
    steps = validate_schedule(labels, order, uniforms)
    outside = uniforms[~((uniforms >= 0) & (uniforms < 1))]
    if outside.size:
        raise ValueError(f"uniform {outside[0]} is not in [0, 1)")
    amps = prepare_states(labels)
    rows, n = labels.shape
    ids = order[:, 0::2].astype(np.intp) * (2 * n) + order[:, 1::2]
    outcomes = np.empty((rows, steps), dtype=labels.dtype)
    for k in range(steps):
        where, coeffs, probs = _pair_rows(amps, ids[:, k])
        outcomes[:, k] = outcome = _outcomes_of(probs, uniforms[:, k])
        _collapse(amps, where, coeffs, probs, outcome)
    return outcomes, amps


def apply_pauli_gate(state: QuantumState, pauli: PauliLabel, qubit: int) -> QuantumState:
    """Apply a single-qubit Pauli (real Y convention) to `qubit`."""
    n = state.qubit_count
    validate_labels(pauli, "Pauli")
    validate_labels(qubit, "qubit", n)
    tensor = np.moveaxis(state.amplitudes.reshape([2] * n), qubit, 0).reshape(2, -1)
    tensor = np.moveaxis((_PAULI_MATRICES[pauli] @ tensor).reshape([2] * n), 0, qubit)
    return QuantumState(tensor.reshape(-1), n)
