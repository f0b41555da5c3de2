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
out-of-order construction. Bob's plain-order batch, the verdicts and the
coins are shared frozen instances; messages, sequences and transcripts are
slotted and refuse an ad-hoc attribute.

`run_session` runs one session under any `Strategy`: honest play, or one
party deviating inside the same exchange (Bob's reflection attack, Alice's
fake-sequence attack); `qct.adversary` evaluates the attacks by Monte Carlo.
It tracks no particles: each phase measures along a permutation of the
pairs, and `cycle_outcomes` gives its outcomes from the permutation's
cycles and the phase's drawn swap outcomes: every measurement swaps with
a fresh outcome except the last in each cycle, which the cycle's XOR fixes.
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
    "cycle_kernel",
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


@dataclass(frozen=True, slots=True)
class Sequence:
    """Transmission order: order[slot - 1] = 1-based pair index in that slot."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        try:  # operator.index refuses a float equal to a pair index
            order = tuple(map(operator.index, self.order))
        except TypeError:
            order = None
        if not n or order is None or sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.order}")
        # plain ints, so that a numpy int's entry reprs and serialises as one
        object.__setattr__(self, "order", order)


def random_sequence(n: int, rng: np.random.Generator) -> Sequence:
    order = list(range(1, n + 1))
    rng.shuffle(order)  # numpy's Fisher-Yates: the words and the order of `permutation(n)`
    # a shuffle of 1..n is a permutation: no second check, but of the empty one, which it refuses
    seq = object.__new__(Sequence) if order else Sequence(())
    object.__setattr__(seq, "order", tuple(order))
    return seq


@dataclass(frozen=True, slots=True)
class ParticleBatch:
    sender: Party
    particles: tuple[ParticleId, ...]


@dataclass(frozen=True, slots=True)
class SequenceAnnouncement:
    sender: Party
    sequence: Sequence


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class VerdictAnnouncement:
    sender: Party
    verdict: Verdict


@dataclass(frozen=True, slots=True)
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
# Both verdicts and the four coins, each built once and shared by every session.
_VERDICTS = {verdict: VerdictAnnouncement(_ALICE, verdict) for verdict in Verdict}
_COINS = {party: (CoinAnnouncement(party, 0), CoinAnnouncement(party, 1)) for party in Party}


def phase_of(message: Message) -> int:
    sender = getattr(message, "sender", None)  # a str equal to a Party member fits no phase
    phase = _PHASE_OF.get((type(message), sender if type(sender) is Party else None))
    if phase is None:
        raise ProtocolOrderError(f"message does not fit any protocol phase: {message!r}")
    return phase


@dataclass(slots=True)
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
        if PHASE_NAMES[phase] == "coin" and self.messages[-1].verdict is not _ACCEPT:
            raise ProtocolOrderError("no coin after a reject verdict: Alice aborted")
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


@lru_cache(maxsize=None)
def _plain_batch(n_pairs: int) -> ParticleBatch:
    """Bob's batch in plain pair order: one shared frozen instance per N."""
    return ParticleBatch(_BOB, travelling(_BOB, n_pairs))


def draw_labels(rng: np.random.Generator, k: int) -> list[int]:
    """k uniform label values, from the words k `int(rng.integers(4))` calls
    would read (see `seeding`), or none at k = 0 (then `rng` is not touched)."""
    return (rng.random(k, dtype=np.float32) * 4).astype(int).tolist() if k else []


def cycle_outcomes(
    cycles: tuple[tuple[int, ...], ...],
    labels: TypingSequence[int],
    swaps: TypingSequence[int],
) -> list[int]:
    """Outcome values of a phase of N Bell measurements along a permutation
    sigma with the given `cycles` (as `cycle_structure` returns them).

    Measurement m joins link m to link sigma(m); link m starts in label
    value labels[m - 1]. In each cycle every measurement but the one at the
    cycle's largest index is a swap, whose outcome `swaps` gives: one
    uniform label value per swap, N - len(cycles) of them, in index order.
    The closing measurement reads the label the swaps left: its own link's
    label with `residual` folded in once per swap, on that swap's label and
    outcome. The rule is bitwise, so it runs packed labels field by field.
    """
    if len(swaps) != len(labels) - len(cycles):
        raise ValueError(f"{len(swaps)} outcomes for {len(labels) - len(cycles)} swaps")
    lasts = [max(cycle) for cycle in cycles]
    closing = [False] * len(labels)
    for last in lasts:
        closing[last - 1] = True
    draws = iter(swaps)
    out = [0 if c else next(draws) for c in closing]
    for cycle, last in zip(cycles, lasts):
        acc = labels[last - 1]
        for m in cycle:
            if m != last:  # the closing measurement is no swap
                acc = residual(acc, labels[m - 1], out[m - 1])
        out[last - 1] = acc
    return out


def cycle_kernel(tau: np.ndarray, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`cycle_outcomes` with every label Phi+, for B permutations at once.

    Index-major: column t of the (N, B) arrays is one trial, tau[:, t] a
    permutation of 0..N-1. Returns `closes`, true at each cycle's largest
    index, and `out`: `packed` at a swap, the XOR of the cycle's other
    values where it closes. Pointer doubling (Hillis & Steele, CACM 1986)
    finds the largest indices, then the suffix XORs along each cycle cut
    after its largest index; `out` is a slot's suffix XOR its successor's.

    Labels fold in by XOR: ``cycle_kernel(tau, swaps ^ labels)[1] ^ labels``
    is `cycle_outcomes` on `labels`, its swaps read at the indices that do
    not close: a swap gets its value back, a closer its cycle's labels' and swaps' XOR.
    """
    n, b = tau.shape
    nxt = tau.ravel() * b
    nxt.reshape(n, b)[...] += np.arange(b)  # flat position m * B + t of each successor
    # hi: the largest index among 2**r successive members, in a narrow signed int
    hi, jump = np.maximum(tau, np.arange(n)[:, None], dtype=np.min_scalar_type(-n - 1)).ravel(), nxt
    for _ in range(1, (n - 1).bit_length()):
        jump = jump[jump]
        np.maximum(hi, hi[jump], out=hi)
    closes = hi.reshape(n, b) == np.arange(n)[:, None]
    # The cut: closing slots hold 0 and point at index N - 1's, which closes in every trial.
    out, jump = np.where(closes, np.int8(0), packed).ravel(), None
    for _ in range(max(n - 2, 0).bit_length()):  # a cut cycle has at most N - 1 swaps
        jump = jump[jump] if jump is not None else np.where(
            closes, np.arange((n - 1) * b, n * b), nxt.reshape(n, b)).ravel()
        out ^= out[jump]
    return closes, (out ^ out[nxt]).reshape(n, b)


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
        # each option belongs to one kind: elsewhere it would go unread
        if self.flip is not PauliLabel.I and self.kind is not _REFLECT:
            raise ValueError(f"flip applies to the reflect strategy, not {self.kind.value}")
        if self.desired and self.kind is not _FAKE_SEQUENCE:
            raise ValueError(f"desired applies to the fake-seq strategy, not {self.kind.value}")

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
    flip: int = 0,
) -> list[BellLabel]:
    """Optimal fabricated results for the verifier's check, indexed by pair,
    for the cycles `cycle_structure` returns: the verifier's phase rule
    `cycle_outcomes` run on `labels`, uniform guesses in place of her swaps,
    with Phi+ edge labels but the one of pair 1, which the Pauli value
    `flip` sets (see `qct.adversary` for why this is optimal).
    """
    n = sum(map(len, cycles))
    if len(labels) != n - len(cycles):
        raise ValueError(f"{len(labels)} labels for {n - len(cycles)} free guesses")
    edges = [int(flip)] + [0] * (n - 1) if n else []  # pair 1 lies on cycles[0]
    return [BELL_LABELS[g] for g in cycle_outcomes(cycles, edges, labels)]


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
    accepts, and the coin is the XOR of their parities. Reflect: Bob returns
    Alice's particles in a uniformly random order as his own, applies
    `strategy.flip` to the one in return slot 1 and announces what her phase
    rule gives on his guesses; her coin is then parity(flip). Fake-sequence:
    Alice measures first and, when her coin is not `strategy.desired`,
    announces a uniformly random different sequence (with one pair there is
    none); Bob's coin equals hers either way, so `coin` is his.

    Draws, in order: Alice's sequence; Bob's return order (reflect); one
    `draw_labels` call for Alice's phase, the outcomes of her swaps, then
    Bob's guesses (reflect); the noise on Alice's records; the lie's
    candidate sequences; one `draw_labels` call for the outcomes of Bob's
    swaps; the noise on his records.
    """
    n, noise = config.n_pairs, config.noise
    alice_ids = travelling(_ALICE, n)
    kind = strategy.kind
    fake = kind is _FAKE_SEQUENCE

    alice_seq = announced = random_sequence(n, rng)
    if kind is _REFLECT:
        # True pair content of each return slot: Alice's pair alice_seq(rho(s)),
        # for Bob's return order rho, which the shuffle draws as `permutation(n)` would.
        arrived = list(alice_seq.order)
        rng.shuffle(arrived)
        cycles = cycle_structure(arrived)
        bob_batch = ParticleBatch(_BOB, tuple([alice_ids[m - 1] for m in arrived]))
        # Alice measures her kept half of pair m against return slot m, which
        # carries pair arrived[m - 1]: all her pairs are Phi+ but the one in
        # return slot 1, which carries the flip. Bob runs her rule on his
        # guesses, one per swap: one call on labels packed hers | his << 2.
        edges = [0] * n
        edges[arrived[0] - 1] = 5 * int(strategy.flip)  # in both halves of a packed label
        swaps = n - len(cycles)
        drawn = draw_labels(rng, 2 * swaps)  # Alice's swap outcomes, then Bob's guesses
        both = cycle_outcomes(cycles, edges, [s | g << 2 for s, g in zip(drawn, drawn[swaps:])])
        alice_results = _records([o & 3 for o in both], noise, rng)
        bob_results = tuple([BELL_LABELS[o >> 2] for o in both])
    else:
        bob_batch = _plain_batch(n)
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
            cycles = cycle_structure(sigma)
            raw = cycle_outcomes(cycles, raw, draw_labels(rng, n - len(cycles)))
        bob_results = (alice_results if noise is None and announced is alice_seq
                       else _records(raw, noise, rng))  # no noise, no lie: her records

    if fake:
        # A cheating Alice has nothing to gain from aborting her own attack.
        verdict, coin, coins = _ACCEPT, toss_from_outcomes(bob_results), _COINS[_BOB]
    else:
        verdict = alice_verify(alice_results, bob_results)
        coin, coins = toss_from_outcomes(alice_results), _COINS[_ALICE]
    passed = verdict is _ACCEPT

    messages = [
        ParticleBatch(_ALICE, tuple([alice_ids[m - 1] for m in alice_seq.order])),
        bob_batch,
        SequenceAnnouncement(_ALICE, announced),
        ResultsAnnouncement(_BOB, bob_results),
        _VERDICTS[verdict],
    ]
    if passed:
        messages.append(coins[coin])
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
