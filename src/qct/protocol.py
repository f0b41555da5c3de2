"""The two-party coin-tossing protocol over entangled pairs.

Each party prepares N Phi+ pairs and ships the odd-indexed half of every
pair to the other side: Alice in a secret random order, Bob in plain pair
order. After Alice reveals her order, each party Bell-measures its kept
halves against the received ones, pair index against pair index. Every
measurement is an entanglement swap, so both parties see the same list of
outcomes; the coin is the XOR of the outcome parities. Bob announces his
results first, Alice compares them index by index against her own and
accepts or aborts. Alice never announces her outcomes.

A transcript records the message flow in its fixed phase order and refuses
out-of-order construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence as TypingSequence, Union

import numpy as np

from .bell import BELL_LABELS, AlreadyMeasuredError, BellLabel, ParticleId, Party
from .bell import SelfMeasurementError, total_parity
from .seeding import session_rng

__all__ = [
    "NoiseModel",
    "SessionConfig",
    "Sequence",
    "random_sequence",
    "ParticleBatch",
    "SequenceAnnouncement",
    "ResultsAnnouncement",
    "VerdictAnnouncement",
    "CoinAnnouncement",
    "Message",
    "Verdict",
    "SessionTranscript",
    "ProtocolOrderError",
    "EmptyOutcomesError",
    "LengthMismatchError",
    "run_honest",
    "toss_from_outcomes",
    "alice_verify",
    "apply_noise",
    "travelling",
    "measure_phase",
]


class ProtocolOrderError(RuntimeError):
    """A transcript message arrived outside the fixed phase order."""


class EmptyOutcomesError(ValueError):
    """A coin cannot be tossed from zero outcomes."""


class LengthMismatchError(ValueError):
    """Result lists of different lengths cannot be compared."""


@dataclass(frozen=True)
class NoiseModel:
    """Readout noise: each recorded outcome survives with probability gamma,
    otherwise it is replaced by one of the three other labels uniformly."""

    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")


@dataclass(frozen=True)
class SessionConfig:
    n_pairs: int
    seed: int = 0
    noise: NoiseModel | None = None

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be at least 1")


@dataclass(frozen=True)
class Sequence:
    """Transmission order: order[slot - 1] = 1-based pair index in that slot."""

    order: tuple[int, ...]
    # _slots[pair - 1] = slot of pair: the inverse permutation, for O(1) slot_of
    _slots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.order)
        pairs = range(1, n + 1)
        slots = [0] * n
        try:
            for slot, pair in enumerate(self.order, start=1):
                if pair not in pairs:
                    break
                slots[pair - 1] = slot
        except TypeError:  # a float equal to a pair index is `in` pairs but indexes nothing
            slots = []
        # only n distinct pairs of 1..n fill every slot: a repeat leaves one empty
        if not slots or 0 in slots:
            raise ValueError(f"not a permutation of 1..{n}: {self.order}")
        object.__setattr__(self, "_slots", tuple(slots))

    def __len__(self) -> int:
        return len(self.order)

    def pair_at(self, slot: int) -> int:
        """Pair index carried in 1-based `slot`."""
        return self.order[slot - 1]

    def slot_of(self, pair: int) -> int:
        """1-based slot in which `pair` travels."""
        if not 1 <= pair <= len(self._slots):
            raise ValueError(f"pair {pair} is not in 1..{len(self._slots)}")
        return self._slots[pair - 1]

    @classmethod
    @lru_cache(maxsize=None)  # a Sequence is immutable, so one per n serves every caller
    def identity(cls, n: int) -> "Sequence":
        return cls(tuple(range(1, n + 1)))


def random_sequence(n: int, rng: np.random.Generator) -> Sequence:
    return Sequence(tuple([x + 1 for x in rng.permutation(n).tolist()]))


@dataclass(frozen=True)
class ParticleBatch:
    sender: Party
    particles: tuple[ParticleId, ...]


@dataclass(frozen=True)
class SequenceAnnouncement:
    sender: Party
    sequence: Sequence


@dataclass(frozen=True)
class ResultsAnnouncement:
    sender: Party
    results: tuple[BellLabel, ...]


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class VerdictAnnouncement:
    sender: Party
    verdict: Verdict


@dataclass(frozen=True)
class CoinAnnouncement:
    sender: Party
    coin: int


Message = Union[
    ParticleBatch,
    SequenceAnnouncement,
    ResultsAnnouncement,
    VerdictAnnouncement,
    CoinAnnouncement,
]

# Fixed phase order, as (message type, sender) -> phase index; measurements
# happen between phases 2 and 3 but are not messages. The coin announcement
# comes from either party, and is absent when Alice aborts.
_PHASE_OF: dict[tuple[type, Party], int] = {
    (ParticleBatch, Party.ALICE): 0,
    (ParticleBatch, Party.BOB): 1,
    (SequenceAnnouncement, Party.ALICE): 2,
    (ResultsAnnouncement, Party.BOB): 3,
    (VerdictAnnouncement, Party.ALICE): 4,
    (CoinAnnouncement, Party.ALICE): 5,
    (CoinAnnouncement, Party.BOB): 5,
}

PHASE_NAMES = (
    "alice-particles",
    "bob-particles",
    "sequence-announcement",
    "results-announcement",
    "verdict",
    "coin",
)


def phase_of(message: Message) -> int:
    phase = _PHASE_OF.get((type(message), getattr(message, "sender", None)))
    if phase is None:
        raise ProtocolOrderError(f"message does not fit any protocol phase: {message!r}")
    return phase


@dataclass
class SessionTranscript:
    """Message log plus both parties' private outcome records."""

    config: SessionConfig
    messages: list[Message] = field(default_factory=list)
    alice_outcomes: tuple[BellLabel, ...] = ()
    bob_outcomes: tuple[BellLabel, ...] = ()
    verdict: Verdict | None = None
    coin: int | None = None  # None = aborted (no coin produced)

    def append(self, message: Message) -> None:
        phase = phase_of(message)
        expected = len(self.messages)
        if phase != expected:
            raise ProtocolOrderError(
                f"phase {PHASE_NAMES[phase]} out of order: expected "
                f"{PHASE_NAMES[expected] if expected < len(PHASE_NAMES) else 'nothing further'}"
            )
        self.messages.append(message)

    @property
    def alice_coin(self) -> int | None:
        return toss_from_outcomes(self.alice_outcomes) if self.alice_outcomes else None

    @property
    def bob_coin(self) -> int | None:
        return toss_from_outcomes(self.bob_outcomes) if self.bob_outcomes else None


def toss_from_outcomes(outcomes: Iterable[BellLabel]) -> int:
    """Coin value: XOR of the outcome parities."""
    outcomes = tuple(outcomes)
    if not outcomes:
        raise EmptyOutcomesError("cannot toss a coin from zero outcomes")
    return total_parity(outcomes)


def alice_verify(
    alice_results: Iterable[BellLabel], bob_announced: Iterable[BellLabel]
) -> Verdict:
    """Index-by-index comparison of Alice's outcomes with Bob's announcement."""
    mine = tuple(alice_results)
    theirs = tuple(bob_announced)
    if len(mine) != len(theirs):
        raise LengthMismatchError(f"{len(mine)} results vs {len(theirs)} announced")
    return Verdict.ACCEPT if mine == theirs else Verdict.REJECT


def apply_noise(
    outcome: BellLabel, noise: NoiseModel | None, rng: np.random.Generator
) -> BellLabel:
    """Corrupt a recorded outcome: kept with probability gamma, otherwise
    replaced by a uniformly chosen different label."""
    if noise is None or noise.gamma >= 1.0 or rng.random() < noise.gamma:
        return outcome
    return BELL_LABELS[int(outcome) ^ int(rng.integers(1, 4))]


@lru_cache(maxsize=None)
def travelling(party: Party, n_pairs: int) -> tuple[ParticleId, ...]:
    """The party's odd halves, which travel; pair m's at index m - 1."""
    return tuple([ParticleId(party, 2 * m - 1) for m in range(1, n_pairs + 1)])


# The session drivers measure on plain ints. Alice's particle i is code i - 1
# and Bob's 2N + i - 1, so a source pair's halves are codes c and c ^ 1. The
# state is two lists indexed by code: `partner` (-1 once measured) and `label`,
# the label value of the particle's edge.

# Fewest labels drawn in one batched call: below it the call's fixed cost
# (~6 us) exceeds that of separate scalar draws (~2 us each).
BATCH_MIN = 4


@lru_cache(maxsize=None)
def particle_codes(n_pairs: int) -> tuple[tuple[int, ...], ...]:
    """Every code's source partner, then the codes of Alice's odd and even
    halves and of Bob's, pair m's at index m - 1."""
    bob = 2 * n_pairs
    return (tuple([c ^ 1 for c in range(2 * bob)]),
            tuple(range(0, bob, 2)), tuple(range(1, bob, 2)),
            tuple(range(bob, 2 * bob, 2)), tuple(range(bob + 1, 2 * bob, 2)))


def draw_labels(rng: np.random.Generator, k: int) -> list[int]:
    """k uniform label values, as k successive `int(rng.integers(4))` calls
    would draw them; one batched call consumes the same stream words."""
    if k >= BATCH_MIN:
        return rng.integers(4, size=k).tolist()
    return [int(rng.integers(4)) for _ in range(k)]


def measure_phase(
    partner: list[int],
    label: list[int],
    kept: TypingSequence[int],
    received: TypingSequence[int],
    noise: NoiseModel | None,
    rng: np.random.Generator,
    then: int = 0,
) -> tuple[tuple[BellLabel, ...], list[int]]:
    """Bell-measure kept[i] against received[i] in turn, then draw `then`
    label values; returns the recorded outcomes and those values.

    Outcomes, draws and final state are those of successive `measure_pair`
    calls, each recorded through `apply_noise`. Partnership never depends on
    outcomes, so a first pass over `partner` alone finds the swaps; a
    noiseless phase then draws its swap labels and the `then` labels in one
    call, a noisy one each swap label between the noise draws around it.
    """
    steps = []  # (u, v, pu, pv): pu, pv the spectators of a swap, pu = -1 for partners
    swaps = 0
    for u, v in zip(kept, received):
        pu, pv = partner[u], partner[v]
        if (pu | pv) < 0:
            raise AlreadyMeasuredError(f"particle code {u if pu < 0 else v} was already measured")
        if pu == v:
            pu = -1
        elif u == v:
            raise SelfMeasurementError(f"cannot measure particle code {u} against itself")
        else:
            partner[pu], partner[pv] = pv, pu
            swaps += 1
        partner[u] = partner[v] = -1
        steps.append((u, v, pu, pv))
    noisy = noise is not None and noise.gamma < 1.0
    drawn = [] if noisy else draw_labels(rng, swaps + then)
    draws = iter(drawn)
    out = []
    for u, v, pu, pv in steps:
        if pu < 0:
            outcome = label[u]
        else:
            outcome = int(rng.integers(4)) if noisy else next(draws)
            label[pu] = label[pv] = label[u] ^ label[v] ^ outcome
        if noisy and rng.random() >= noise.gamma:
            outcome ^= int(rng.integers(1, 4))
        out.append(BELL_LABELS[outcome])
    return tuple(out), draw_labels(rng, then) if noisy else drawn[swaps:]


def run_honest(
    config: SessionConfig, rng: np.random.Generator | None = None
) -> SessionTranscript:
    """One honest session; returns the full transcript.

    Both parties' outcome lists are identical in the noiseless case, the
    verdict is Accept, and the coin is the XOR of the outcome parities.
    Without `rng` the session draws from `session_rng(config.seed)`.
    """
    if rng is None:
        rng = session_rng(config.seed)
    n = config.n_pairs
    source, alice_odd, alice_even, bob_odd, bob_even = particle_codes(n)
    partner, label = list(source), [0] * (4 * n)
    transcript = SessionTranscript(config)

    alice_seq = random_sequence(n, rng)
    alice_sent = travelling(Party.ALICE, n)
    transcript.append(
        ParticleBatch(Party.ALICE, tuple([alice_sent[m - 1] for m in alice_seq.order]))
    )
    transcript.append(ParticleBatch(Party.BOB, travelling(Party.BOB, n)))
    transcript.append(SequenceAnnouncement(Party.ALICE, alice_seq))

    # Alice: her kept half of pair m against Bob's odd half of pair m (Bob
    # ships in pair order, so slot m is his pair m). Bob: his kept half of
    # pair m against Alice's odd half of pair m, located through the
    # announced sequence.
    alice_results = measure_phase(partner, label, alice_even, bob_odd, config.noise, rng)[0]
    bob_results = measure_phase(partner, label, bob_even, alice_odd, config.noise, rng)[0]

    transcript.alice_outcomes = alice_results
    transcript.bob_outcomes = bob_results
    transcript.append(ResultsAnnouncement(Party.BOB, bob_results))

    verdict = alice_verify(alice_results, bob_results)
    transcript.verdict = verdict
    transcript.append(VerdictAnnouncement(Party.ALICE, verdict))
    if verdict is Verdict.ACCEPT:
        coin = toss_from_outcomes(alice_results)
        transcript.coin = coin
        transcript.append(CoinAnnouncement(Party.ALICE, coin))
    return transcript
