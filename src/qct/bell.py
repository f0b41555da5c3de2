"""Bell-state labels, Pauli flips, and a symbolic entanglement-swapping engine.

The four Bell states are tracked as two classical bits (hi, lo): hi is the
bit-flip component, lo the phase-flip component.  Under this encoding a Pauli
applied to either particle of a pair is a XOR on the label, and a Bell
measurement that joins two different pairs (entanglement swapping) leaves the
two spectator particles in the state ``b1 ^ b2 ^ outcome`` (`residual`). That
rule and a label's `parity` are the functions every engine and `qct verify`
call. Both facts are certified against a dense statevector simulation in the
test suite; the engine itself never touches amplitudes.

`schedule_outcomes` is the batched form of a whole measurement schedule: a
frame of one ``partner``/``label`` int row per schedule, where one Bell
measurement is fancy indexing plus XOR across every row at once.
`validate_schedule` is the input check it shares with the statevector
kernel `qct.oracle.schedule_outcomes`, so both refuse the same schedules
with the same messages; `validate_labels` is the one integer range check
of label, Pauli and qubit values in both modules.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from functools import reduce
from operator import xor
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "BELL_LABELS",
    "BellLabel",
    "PauliLabel",
    "Party",
    "ParticleId",
    "EntangledMatching",
    "MatchingError",
    "UnknownParticleError",
    "AlreadyMeasuredError",
    "SelfMeasurementError",
    "apply_pauli",
    "parity",
    "residual",
    "schedule_outcomes",
    "total_parity",
    "validate_labels",
    "validate_schedule",
]


def parity(value):
    """hi XOR lo of a label value, or of each value of an int array; for a
    Pauli value, the parity change its flip causes on any Bell label."""
    return ((value >> 1) ^ value) & 1


def residual(b1, b2, outcome):
    """Spectator label after swapping pairs in b1 and b2 with `outcome`."""
    return b1 ^ b2 ^ outcome


class BellLabel(IntEnum):
    """Two-bit Bell-state label: value = (hi << 1) | lo."""

    PHI_PLUS = 0b00
    PHI_MINUS = 0b01
    PSI_PLUS = 0b10
    PSI_MINUS = 0b11

    @property
    def parity(self) -> int:
        return parity(self.value)

    @property
    def bits(self) -> str:
        return f"{self.value:02b}"

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self.value]

    def __str__(self) -> str:
        return self.symbol


_SYMBOLS = ("Phi+", "Phi-", "Psi+", "Psi-")


class PauliLabel(IntEnum):
    """Pauli flip as (x, z) bits, value = (x << 1) | z, phases discarded.

    The Y used throughout is the real matrix X @ Z = [[0, -1], [1, 0]], so
    composition is a plain XOR of labels and no phase bookkeeping is needed.
    """

    I = 0b00  # noqa: E741 - I is the identity flip, the conventional name
    Z = 0b01
    X = 0b10
    Y = 0b11

    @property
    def parity(self) -> int:
        return parity(self.value)


# BELL_LABELS[v] is the BellLabel of value v. The engine keeps plain int
# values and hands out these singletons at its edge.
BELL_LABELS: tuple[BellLabel, ...] = tuple(BellLabel)


def apply_pauli(label: BellLabel, pauli: PauliLabel) -> BellLabel:
    """Label of (pauli on one particle) applied to a pair in `label`.

    Acting on either particle gives the same label; only global/relative
    phase differs, which the label algebra does not track.
    """
    return BellLabel(label.value ^ pauli.value)


def total_parity(outcomes: Iterable[BellLabel]) -> int:
    """XOR of the parities of `outcomes`, which is the parity of their XOR
    (parity is linear); 0 for an empty collection."""
    return parity(reduce(xor, outcomes, 0))


def validate_labels(values, noun: str = "label", stop: int = 4) -> None:
    """Raise ValueError unless every entry of `values` (int or array) is an
    integer in 0..stop-1: a Bell label value, a Pauli value (`noun`
    "Pauli") or a qubit of a `stop`-qubit state (`noun` "qubit")."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":  # one test per call: a float or bool indexes nothing
        raise ValueError(f"{noun}s must be integers, not {values.dtype}")
    bad = values[(values < 0) | (values >= stop)]
    if bad.size and noun == "qubit":
        raise ValueError(f"qubit {bad[0]} out of range for {stop}-qubit state")
    if bad.size:
        kind = "Bell" if noun == "label" else noun
        raise ValueError(f"{noun} {bad[0]} is not a {kind} label value 0..3")


def validate_schedule(labels: np.ndarray, order: np.ndarray, draws: np.ndarray) -> int:
    """Raise ValueError unless row r of `order` is a schedule on the pairs
    ``labels[r]`` with one draw per step in ``draws[r]``; returns the step count.

    A schedule measures particles (qubits) ``order[r, 2k]`` and
    ``order[r, 2k + 1]`` at step k, each particle of the row at most once.
    """
    if labels.ndim != 2 or order.ndim != 2 or draws.ndim != 2:
        raise ValueError("labels, order and draws must be two-dimensional")
    rows, n = labels.shape
    steps = order.shape[1] // 2
    if order.shape != (rows, 2 * steps) or draws.shape[0] != rows or steps > n:
        raise ValueError("labels, order and draws disagree in shape")
    if draws.shape[1] < steps:
        raise ValueError(f"{steps} steps need {steps} draws per schedule, not {draws.shape[1]}")
    validate_labels(labels)
    validate_labels(order, "qubit", 2 * n)
    # each (row, particle) counted once: a repeat within a row counts twice
    if np.bincount((np.arange(rows)[:, None] * (2 * n) + order).ravel(), minlength=1).max() > 1:
        raise ValueError("measurement qubits must be distinct")
    return steps


def schedule_outcomes(
    labels: np.ndarray, order: np.ndarray, swap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of many measurement schedules, run on int arrays at once.

    Row r starts from pairs ``(2i, 2i + 1)`` labelled ``labels[r, i]`` and
    Bell-measures particles ``order[r, 2k]`` and ``order[r, 2k + 1]`` at
    step k. As in `EntangledMatching.measure_pair`, partners return their
    edge label and consume no draw, while non-partners return ``swap[r, k]``
    and rewire the two spectators into an edge labelled
    ``b1 ^ b2 ^ outcome``. After every step, on every row, it checks the
    invariant of `EntangledMatching.conservation_ok`.

    Returns the outcome label values, shape ``(rows, steps)``, and per row
    whether the invariant held after every step. Inputs `validate_schedule`
    refuses, and swap draws that are not label values, raise ValueError.
    """
    steps = validate_schedule(labels, order, swap)
    validate_labels(swap)
    rows, n = labels.shape
    # particle p of row r at r * 2n + p in the raveled frame
    index = np.arange(rows * 2 * n)
    particle = order.astype(np.intp) + (np.arange(rows) * (2 * n))[:, None]
    partner = index ^ 1
    label = np.repeat(labels, 2, axis=1).ravel()
    initial = np.bitwise_xor.reduce(labels, axis=1)
    history = np.zeros(rows, dtype=labels.dtype)
    outcomes = np.empty((rows, steps), dtype=labels.dtype)
    conserved = np.ones(rows, dtype=bool)
    for k in range(steps):
        u, v = particle[:, 2 * k], particle[:, 2 * k + 1]
        pu, pv = partner[u], partner[v]
        b1, b2 = label[u], label[v]
        outcomes[:, k] = outcome = np.where(pu == v, b1, swap[:, k])
        # on partner rows the spectators are v and u themselves, zeroed below
        partner[pu], partner[pv] = pv, pu
        label[pu] = label[pv] = residual(b1, b2, outcome)
        # measured particles keep label 0: no schedule measures them again
        label[u] = label[v] = 0
        history ^= outcomes[:, k]
        # each live edge once: at its lower end
        live = np.where(partner > index, label, 0).reshape(rows, 2 * n)
        conserved &= (np.bitwise_xor.reduce(live, axis=1) ^ history) == initial
    return outcomes, conserved


class Party(str, Enum):
    ALICE = "alice"
    BOB = "bob"

    def __str__(self) -> str:
        return self.value


class ParticleId(NamedTuple):
    """A single particle, addressed as owner + 1-based index.

    Within one party's numbering, pair m consists of particles 2m-1 and 2m;
    odd indices are the halves sent over the channel, even indices stay home.
    """

    owner: Party
    index: int

    def __str__(self) -> str:
        return f"{self.owner.value}:{self.index}"


class MatchingError(ValueError):
    """Base class for invalid operations on an EntangledMatching."""


class UnknownParticleError(MatchingError):
    pass


class AlreadyMeasuredError(MatchingError):
    pass


class SelfMeasurementError(MatchingError):
    pass


class EntangledMatching:
    """Perfect matching of particles into labelled Bell pairs.

    Supports exactly the operations the protocol needs: Pauli flips on a
    single particle and Bell measurements on arbitrary particle pairs.
    Measuring two partners consumes their edge and reports its label
    deterministically (no randomness involved); measuring particles from two
    different edges draws a uniform outcome and rewires the two spectators
    into a fresh edge labelled ``b1 ^ b2 ^ outcome``.

    Edges carry plain int label values; `label_of`, `measure_pair` and
    `history` hand out the `BellLabel` members.

    The XOR of all live edge labels and all recorded outcomes is invariant
    under both operations, which is the conservation law behind the whole
    protocol; `conservation_ok()` checks it in O(edges).
    """

    def __init__(self, edges: Iterable[tuple[ParticleId, ParticleId, BellLabel]] = ()):
        # particle -> (partner, label value); validated as it is filled
        table: dict[ParticleId, tuple[ParticleId, int]] = {}
        initial = 0
        for u, v, label in edges:
            if u == v:
                raise SelfMeasurementError(f"cannot pair {u} with itself")
            value = int(label)
            if u in table:
                raise MatchingError(f"particle {u} already in the matching")
            table[u] = (v, value)
            if v in table:
                raise MatchingError(f"particle {v} already in the matching")
            table[v] = (u, value)
            initial ^= value
        self._edges = table
        self._consumed: set[ParticleId] = set()
        self.history: list[tuple[tuple[ParticleId, ParticleId], BellLabel]] = []
        self.initial_xor = initial

    # -- queries ---------------------------------------------------------

    def is_live(self, u: ParticleId) -> bool:
        return u in self._edges

    def partner_of(self, u: ParticleId) -> ParticleId:
        return self._require_live(u)[0]

    def label_of(self, u: ParticleId) -> BellLabel:
        return BELL_LABELS[self._require_live(u)[1]]

    def live_xor(self) -> int:
        """XOR of the labels of all live edges (each edge counted once)."""
        acc = 0
        seen: set[ParticleId] = set()
        for u, (v, value) in self._edges.items():
            if u not in seen:
                acc ^= value
                seen.add(u)
                seen.add(v)
        return acc

    def history_xor(self) -> int:
        acc = 0
        for _, outcome in self.history:
            acc ^= outcome.value
        return acc

    def conservation_ok(self) -> bool:
        """True iff XOR(live labels) ^ XOR(outcomes) equals the initial XOR."""
        return (self.live_xor() ^ self.history_xor()) == self.initial_xor

    def _require_live(self, u: ParticleId) -> tuple[ParticleId, int]:
        entry = self._edges.get(u)
        if entry is None:
            if u in self._consumed:
                raise AlreadyMeasuredError(f"particle {u} was already measured")
            raise UnknownParticleError(f"particle {u} is not part of the matching")
        return entry

    # -- operations ------------------------------------------------------

    def apply_pauli(self, u: ParticleId, pauli: PauliLabel) -> None:
        """Flip the edge containing `u` by `pauli` (single-particle action)."""
        v, value = self._require_live(u)
        if pauli is not PauliLabel.I:
            flipped = value ^ int(pauli)
            self._edges[u] = (v, flipped)
            self._edges[v] = (u, flipped)

    def measure_pair(
        self, u: ParticleId, v: ParticleId, rng: np.random.Generator | None = None
    ) -> BellLabel:
        """Bell-measure particles `u` and `v`; returns the outcome label.

        Partners: outcome is their edge label, deterministically - `rng` is
        never consulted.  Non-partners: outcome is uniform over the four
        labels and the two spectator particles become a new edge labelled
        ``b1 ^ b2 ^ outcome``.
        """
        if u == v:
            raise SelfMeasurementError(f"cannot measure {u} against itself")
        # one lookup per particle; _require_live only raises for a dead one
        edges = self._edges
        pu, b1 = edges.get(u) or self._require_live(u)
        if pu == v:
            outcome = b1
            del edges[u], edges[v]
        else:
            pv, b2 = edges.get(v) or self._require_live(v)
            if rng is None:
                raise ValueError("rng is required when measuring non-partners")
            outcome = int(rng.integers(4))
            residual = b1 ^ b2 ^ outcome
            del edges[u], edges[v]
            edges[pu] = (pv, residual)
            edges[pv] = (pu, residual)
        self._consumed.add(u)
        self._consumed.add(v)
        label = BELL_LABELS[outcome]
        self.history.append(((u, v), label))
        return label
