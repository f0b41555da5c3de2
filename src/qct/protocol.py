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

`run_session` runs one session under any `Strategy`: honest play, or one
party deviating inside the same exchange (Bob's reflection attack, Alice's
fake-sequence attack); `qct.adversary` evaluates the attacks by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence as TypingSequence, Union

import numpy as np

from .bell import BELL_LABELS, AlreadyMeasuredError, BellLabel, ParticleId, Party, PauliLabel
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
    "toss_from_outcomes",
    "alice_verify",
    "apply_noise",
    "travelling",
    "measure_phase",
    "StrategyKind",
    "Strategy",
    "cycle_structure",
    "best_guess_results",
    "SessionRun",
    "run_session",
    "run_honest",
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
        # a float would fail deep in the engine and True would run one pair
        if type(self.n_pairs) is not int:
            raise ValueError(f"n_pairs must be an int, not {self.n_pairs!r}")
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

    def slot_of(self, pair: int) -> int:
        """1-based slot in which `pair` travels."""
        if not 1 <= pair <= len(self._slots):
            raise ValueError(f"pair {pair} is not in 1..{len(self._slots)}")
        return self._slots[pair - 1]


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


# Enum members the per-session path reads, bound once: each attribute lookup
# on an Enum class costs about as much as a small tuple.
_ALICE, _BOB, _ACCEPT = Party.ALICE, Party.BOB, Verdict.ACCEPT


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

    def extend(self, messages: TypingSequence[Message]) -> None:
        """`append` each of `messages` in turn, raising what `append` would;
        checks their phases in one pass."""
        start = len(self.messages)
        phases = [_PHASE_OF.get((type(m), getattr(m, "sender", None))) for m in messages]
        if phases == list(range(start, start + len(phases))):
            self.messages.extend(messages)
        else:
            for message in messages:
                self.append(message)

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
    return _ACCEPT if mine == theirs else Verdict.REJECT


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


class StrategyKind(str, Enum):
    HONEST = "honest"
    REFLECT = "reflect"
    FAKE_SEQUENCE = "fake-seq"


_REFLECT, _FAKE_SEQUENCE = StrategyKind.REFLECT, StrategyKind.FAKE_SEQUENCE


@dataclass(frozen=True)
class Strategy:
    """What the deviating party does; the kind fixes the party. REFLECT is
    Bob's, with a Pauli `flip` choosing the forced coin; FAKE_SEQUENCE is
    Alice's, with the coin value she wants (`desired`, the int 0 or 1)."""

    kind: StrategyKind
    flip: PauliLabel = PauliLabel.I
    desired: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, StrategyKind):
            raise ValueError(f"kind must be a StrategyKind, not {self.kind!r}")
        if not isinstance(self.flip, PauliLabel):
            raise ValueError(f"flip must be a PauliLabel, not {self.flip!r}")
        if type(self.desired) is not int or self.desired not in (0, 1):
            raise ValueError(f"desired coin must be the int 0 or 1, not {self.desired!r}")

    def describe(self) -> str:
        if self.kind is StrategyKind.REFLECT:
            return f"reflect(flip={self.flip.name})"
        if self.kind is StrategyKind.FAKE_SEQUENCE:
            return f"fake-seq(desired={self.desired})"
        return "honest"

    # A Strategy is immutable, so the constructors hand out one per argument;
    # typed, so that an int equal to a PauliLabel, or a bool equal to a coin,
    # is validated rather than served the valid argument's Strategy.
    @classmethod
    @lru_cache(maxsize=None)
    def honest(cls) -> "Strategy":
        return cls(StrategyKind.HONEST)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def reflect(cls, flip: PauliLabel = PauliLabel.I) -> "Strategy":
        return cls(StrategyKind.REFLECT, flip=flip)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def fake_sequence(cls, desired: int) -> "Strategy":
        return cls(StrategyKind.FAKE_SEQUENCE, desired=desired)


def cycle_structure(seq: Sequence) -> tuple[tuple[int, ...], ...]:
    """Cycles of the permutation m -> seq.order[m - 1] over pair indices, each
    a tuple of 1-based pair indices starting at its smallest member, listed
    in ascending order of that member.

    For the order in which Bob returns Alice's pairs, the measurement at
    index m consumes pair seq.order[m - 1]'s travelling half. The identity
    order gives N fixed points; a swap of two slots gives one 2-cycle.
    """
    order = seq.order
    n = len(order)
    seen = [False] * (n + 1)
    cycles: list[tuple[int, ...]] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = order[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = order[nxt - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def best_guess_results(
    cycles: tuple[tuple[int, ...], ...],
    rng: np.random.Generator,
    targets: dict[int, BellLabel] | None = None,
) -> list[BellLabel]:
    """Optimal fabricated results for the verifier's check, indexed by pair,
    for the cycles `cycle_structure` returns.

    Within each cycle the verifier's outcomes are uniform over the
    assignments whose XOR equals the XOR of the cycle's initial edge labels
    (all Phi+ unless `targets` overrides a cycle, keyed by its smallest
    member). Sampling uniformly from that consistent set maximises the
    per-cycle match probability at 4**(1 - length); a fixed point is
    guessed exactly.
    """
    return _guesses(cycles, draw_labels(rng, sum(len(c) - 1 for c in cycles)), targets)


def _guesses(
    cycles: tuple[tuple[int, ...], ...], labels: list[int], targets: dict[int, int] | None
) -> list[BellLabel]:
    """`best_guess_results` with its free guesses taken from `labels`, one
    per cycle member after the first, cycle by cycle in orbit order."""
    guess = [0] * sum(map(len, cycles))  # guess[m - 1] for pair m
    free = iter(labels)
    for cycle in cycles:
        acc = int(targets.get(cycle[0], 0)) if targets else 0
        for m in cycle[1:]:
            lab = next(free)
            acc ^= lab
            guess[m - 1] = lab
        guess[cycle[0] - 1] = acc
    return [BELL_LABELS[g] for g in guess]


class SessionRun(NamedTuple):
    """A session's transcript, whether Alice's check passed, and its coin."""

    transcript: SessionTranscript
    passed: bool
    coin: int


def run_session(
    config: SessionConfig, strategy: Strategy, rng: np.random.Generator
) -> SessionRun:
    """One session in which one party plays `strategy` (Bob for REFLECT,
    Alice for FAKE_SEQUENCE) and the other party plays honestly.

    Honest: without noise both parties record the same outcomes, Alice
    accepts, and the coin is the XOR of their parities. Reflect: Bob
    returns Alice's particles in a uniformly random order as his own,
    applies `strategy.flip` to the one in return slot 1 and announces
    best-guess results; Alice's coin is then parity(flip). Fake-sequence:
    Alice measures first and, when her coin is not `strategy.desired`,
    announces a uniformly random different sequence (with one pair there is
    none); Bob's coin equals hers either way, so `coin` is his.

    Draws, in order: Alice's sequence; Bob's return order (reflect); Alice's
    measurements, then Bob's guesses (reflect); the lie's candidate
    sequences; Bob's measurements.
    """
    n = config.n_pairs
    source, alice_odd, alice_even, bob_odd, bob_even = particle_codes(n)
    partner, label = list(source), [0] * (4 * n)
    alice_ids = travelling(_ALICE, n)
    kind = strategy.kind
    fake = kind is _FAKE_SEQUENCE

    alice_seq = announced = random_sequence(n, rng)
    if kind is _REFLECT:
        return_order = rng.permutation(n)  # return slot s holds received slot return_order[s-1]+1
        # True pair content of each return slot: Alice's pair alice_seq(rho(s)).
        arrived = Sequence(tuple([alice_seq.order[r] for r in return_order.tolist()]))
        cycles = cycle_structure(arrived)
        bob_batch = tuple([alice_ids[m - 1] for m in arrived.order])
        returned = [alice_odd[m - 1] for m in arrived.order]  # returned[s - 1] in return slot s
        # the flip acts on return slot 1's source pair, whose halves are c and c ^ 1
        label[returned[0]] = label[returned[0] ^ 1] = flip = int(strategy.flip)

        # Alice measures her kept half of pair m against return slot m, which
        # carries pair arrived.order[m - 1]. Bob knows the cycles this makes and
        # fabricates his results, one free guess per measurement that swaps.
        alice_results, guesses = measure_phase(
            partner, label, alice_even, returned, config.noise, rng, then=n - len(cycles))
        # the flip sets the target XOR of the cycle holding return slot 1's pair
        targets = {c[0]: flip for c in cycles if arrived.order[0] in c}
        bob_results = tuple(_guesses(cycles, guesses, targets))
    else:
        bob_batch = travelling(_BOB, n)
        # Alice: her kept half of pair m against Bob's odd half of pair m (Bob
        # ships in pair order, so slot m is his pair m).
        alice_results = measure_phase(partner, label, alice_even, bob_odd, config.noise, rng)[0]
        if fake and n > 1 and toss_from_outcomes(alice_results) != strategy.desired:
            while announced == alice_seq:
                announced = random_sequence(n, rng)
        # Bob: his kept half of pair m against the slot announced to carry
        # Alice's pair m, which under the true order is her odd half of pair m.
        claimed = alice_odd
        if announced is not alice_seq:
            sent = [alice_odd[m - 1] for m in alice_seq.order]  # sent[t - 1] travels in slot t
            claimed = [sent[t - 1] for t in announced._slots]  # pair m's slot at m - 1
        bob_results = measure_phase(partner, label, bob_even, claimed, config.noise, rng)[0]

    if fake:
        # A cheating Alice has nothing to gain from aborting her own attack.
        verdict, coin, coin_sender = _ACCEPT, toss_from_outcomes(bob_results), _BOB
    else:
        verdict = alice_verify(alice_results, bob_results)
        coin, coin_sender = toss_from_outcomes(alice_results), _ALICE
    passed = verdict is _ACCEPT

    messages = [
        ParticleBatch(_ALICE, tuple([alice_ids[m - 1] for m in alice_seq.order])),
        ParticleBatch(_BOB, bob_batch),
        SequenceAnnouncement(_ALICE, announced),
        ResultsAnnouncement(_BOB, bob_results),
        VerdictAnnouncement(_ALICE, verdict),
    ]
    if passed:
        messages.append(CoinAnnouncement(coin_sender, coin))
    transcript = SessionTranscript(  # positional: keywords cost more on this per-session path
        config, [], alice_results, bob_results, verdict, coin if passed else None)
    transcript.extend(messages)
    return SessionRun(transcript, passed, coin)


def run_honest(
    config: SessionConfig, rng: np.random.Generator | None = None
) -> SessionTranscript:
    """One honest session's transcript; without `rng` it draws from
    `session_rng(config.seed)`."""
    rng = session_rng(config.seed) if rng is None else rng
    return run_session(config, Strategy.honest(), rng).transcript
