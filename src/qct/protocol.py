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
It tracks no particles: each phase measures along a permutation of the
pairs, and `cycle_outcomes` gives its outcomes from the permutation's
cycles, where every measurement swaps with a fresh outcome except the
last in each cycle, which the cycle's XOR fixes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence as TypingSequence, Union

import numpy as np

from .bell import BELL_LABELS, BellLabel, ParticleId, Party, PauliLabel, residual, total_parity
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
    "cycle_outcomes",
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
        # a float would fail in `seeding` and True would run as seed 1
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, not {self.seed!r}")
        # a bare gamma would fail deep in `apply_noise`
        if self.noise is not None and not isinstance(self.noise, NoiseModel):
            raise ValueError(f"noise must be a NoiseModel or None, not {self.noise!r}")


@dataclass(frozen=True)
class Sequence:
    """Transmission order: order[slot - 1] = 1-based pair index in that slot."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        try:  # operator.index refuses a float equal to a pair index
            pairs = sorted(map(operator.index, self.order))
        except TypeError:
            pairs = None
        if not n or pairs != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.order}")


def random_sequence(n: int, rng: np.random.Generator) -> Sequence:
    order = tuple([x + 1 for x in rng.permutation(n).tolist()])
    # numpy drew a permutation: no second check, but of the empty one, which it refuses
    seq = object.__new__(Sequence) if order else Sequence(order)
    object.__setattr__(seq, "order", order)
    return seq


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

# Fixed phase order, one (message type, sender, phase name) row per message
# kind; measurements happen between phases 2 and 3 but are not messages. The
# coin announcement comes from either party, and is absent when Alice aborts.
_PHASES = (
    (ParticleBatch, Party.ALICE, "alice-particles"),
    (ParticleBatch, Party.BOB, "bob-particles"),
    (SequenceAnnouncement, Party.ALICE, "sequence-announcement"),
    (ResultsAnnouncement, Party.BOB, "results-announcement"),
    (VerdictAnnouncement, Party.ALICE, "verdict"),
    (CoinAnnouncement, Party.ALICE, "coin"),
    (CoinAnnouncement, Party.BOB, "coin"),
)
PHASE_NAMES = tuple(dict.fromkeys(name for _, _, name in _PHASES))
# (type, sender) -> phase index
_PHASE_OF = {(kind, sender): PHASE_NAMES.index(name) for kind, sender, name in _PHASES}


def phase_of(message: Message) -> int:
    sender = getattr(message, "sender", None)  # a str equal to a Party member fits no phase
    phase = _PHASE_OF.get((type(message), sender if type(sender) is Party else None))
    if phase is None:
        raise ProtocolOrderError(f"message does not fit any protocol phase: {message!r}")
    return phase


@dataclass
class SessionTranscript:
    """Message log plus both parties' private outcome records; the given
    messages are admitted or refused by successive `append` calls."""

    config: SessionConfig
    messages: list[Message] = field(default_factory=list)
    alice_outcomes: tuple[BellLabel, ...] = ()
    bob_outcomes: tuple[BellLabel, ...] = ()
    verdict: Verdict | None = None
    coin: int | None = None  # None = aborted (no coin produced)

    def __post_init__(self) -> None:
        messages, self.messages = self.messages, []
        for message in messages:
            self.append(message)

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


def draw_labels(rng: np.random.Generator, k: int) -> list[int]:
    """k uniform label values, from the words k `int(rng.integers(4))` calls
    would read (see `seeding`), or none at k = 0 (then `rng` is not touched)."""
    return (rng.random(k, dtype=np.float32) * 4).astype(int).tolist() if k else []


def cycle_outcomes(
    cycles: tuple[tuple[int, ...], ...],
    labels: TypingSequence[int],
    rng: np.random.Generator,
    then: int = 0,
) -> tuple[list[int], list[int]]:
    """Outcome values of a phase of N Bell measurements along a permutation
    sigma with the given `cycles` (as `cycle_structure` returns them), then
    `then` further label values.

    Measurement m joins link m to link sigma(m); link m starts in label
    value labels[m - 1]. In each cycle every measurement but the one at the
    cycle's largest index is a swap with a uniform outcome; that one closes
    the cycle and reads the label the swaps left: its own link's label with
    `residual` folded in once per swap, on that swap's label and outcome.
    One `draw_labels` call serves the swaps in index order, then the `then`
    labels.
    """
    swaps = len(labels) - len(cycles)
    drawn = draw_labels(rng, swaps + then)
    lasts = [max(cycle) for cycle in cycles]
    closing = [False] * len(labels)
    for last in lasts:
        closing[last - 1] = True
    draws = iter(drawn)
    out = [0 if c else next(draws) for c in closing]
    for cycle, last in zip(cycles, lasts):
        acc = labels[last - 1]
        for m in cycle:
            if m != last:  # the closing measurement is no swap
                acc = residual(acc, labels[m - 1], out[m - 1])
        out[last - 1] = acc
    return out, drawn[swaps:]


def _records(
    raw: TypingSequence[int], noise: NoiseModel | None, rng: np.random.Generator
) -> tuple[BellLabel, ...]:
    """A party's recorded outcomes: `apply_noise`, in index order, on each raw outcome."""
    out = [BELL_LABELS[o] for o in raw]
    if noise is not None:
        out = [apply_noise(outcome, noise, rng) for outcome in out]
    return tuple(out)


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


def cycle_structure(order: TypingSequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of the permutation m -> order[m - 1] of the pair indices 1..N,
    each a tuple of 1-based pair indices starting at its smallest member,
    listed in ascending order of that member.

    For the order in which Bob returns Alice's pairs, the measurement at
    index m consumes pair order[m - 1]'s travelling half. The identity
    order gives N fixed points; swapping two of its entries gives one
    2-cycle. An order that is no permutation raises ValueError, or
    IndexError or TypeError at an entry that indexes no pair.
    """
    n = len(order)
    seen = [False] * (n + 1)
    cycles: list[tuple[int, ...]] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle, m = [], start
        while not seen[m]:
            seen[m] = True
            cycle.append(m)
            m = order[m - 1]
        if m != start:  # the walk did not close: order is no permutation
            raise ValueError(f"not a permutation of 1..{n}: {tuple(order)}")
        cycles.append(tuple(cycle))
    return tuple(cycles)


def best_guess_results(
    cycles: tuple[tuple[int, ...], ...],
    labels: TypingSequence[int],
    targets: dict[int, int] | None = None,
) -> list[BellLabel]:
    """Optimal fabricated results for the verifier's check, indexed by pair,
    for the cycles `cycle_structure` returns.

    Within each cycle the verifier's outcomes are uniform over the
    assignments whose XOR equals the XOR of the cycle's initial edge labels
    (all Phi+ unless `targets` overrides a cycle, keyed by its smallest
    member). Sampling uniformly from that consistent set maximises the
    per-cycle match probability at 4**(1 - length); a fixed point is
    guessed exactly. The free guesses are `labels`, uniform label values,
    one per cycle member after the first, cycle by cycle in orbit order.
    """
    n = sum(map(len, cycles))
    if len(labels) != n - len(cycles):
        raise ValueError(f"{len(labels)} labels for {n - len(cycles)} free guesses")
    guess = [0] * n  # guess[m - 1] for pair m
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

    Draws, in order: Alice's sequence; Bob's return order (reflect); the
    labels of Alice's swaps, then Bob's guesses (reflect), then the noise on
    Alice's records; the lie's candidate sequences; the labels of Bob's
    swaps, then the noise on his records.
    """
    n, noise = config.n_pairs, config.noise
    alice_ids = travelling(_ALICE, n)
    kind = strategy.kind
    fake = kind is _FAKE_SEQUENCE

    alice_seq = announced = random_sequence(n, rng)
    if kind is _REFLECT:
        return_order = rng.permutation(n)  # return slot s holds received slot return_order[s-1]+1
        # True pair content of each return slot: Alice's pair alice_seq(rho(s)).
        arrived = [alice_seq.order[r] for r in return_order.tolist()]
        cycles = cycle_structure(arrived)
        bob_batch = tuple([alice_ids[m - 1] for m in arrived])
        # Alice measures her kept half of pair m against return slot m, which
        # carries pair arrived[m - 1]: all her pairs are Phi+ but the one in
        # return slot 1, which carries the flip. Bob knows the cycles this
        # makes and fabricates his results, one free guess per swap.
        edges = [0] * n
        edges[arrived[0] - 1] = flip = int(strategy.flip)
        raw, guesses = cycle_outcomes(cycles, edges, rng, then=n - len(cycles))
        alice_results = _records(raw, noise, rng)
        # the flipped pair arrived[0] is in the cycle of index 1, cycles[0]
        bob_results = tuple(best_guess_results(cycles, guesses, {1: flip}))
    else:
        bob_batch = travelling(_BOB, n)
        # Alice: her kept half of pair m against Bob's odd half of pair m (Bob
        # ships in pair order, so slot m is his pair m): N swaps of Phi+ pairs,
        # each leaving her odd half of pair m linked to Bob's even half in the
        # outcome's label.
        raw = draw_labels(rng, n)
        alice_results = _records(raw, noise, rng)
        if fake and n > 1 and toss_from_outcomes(alice_results) != strategy.desired:
            while announced == alice_seq:
                announced = random_sequence(n, rng)
        # Bob: his kept half of pair m against the slot announced to carry
        # Alice's pair m, which holds her odd half of pair sigma(m); under the
        # true order sigma is the identity and every measurement reads a link.
        if announced is not alice_seq:
            sigma = [0] * n
            for claimed, true in zip(announced.order, alice_seq.order):
                sigma[claimed - 1] = true
            raw = cycle_outcomes(cycle_structure(sigma), raw, rng)[0]
        bob_results = _records(raw, noise, rng)

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
        config, messages, alice_results, bob_results, verdict, coin if passed else None)
    return SessionRun(transcript, passed, coin)


def run_honest(
    config: SessionConfig, rng: np.random.Generator | None = None
) -> SessionTranscript:
    """One honest session's transcript; without `rng` it draws from
    `session_rng(config.seed)`."""
    rng = session_rng(config.seed) if rng is None else rng
    return run_session(config, Strategy.honest(), rng).transcript
