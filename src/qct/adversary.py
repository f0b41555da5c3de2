"""Cheating strategies and their Monte Carlo evaluation.

Bob's reflection attack: instead of shipping his own pairs he returns
Alice's particles in a random order, claiming they are his. Every
measurement Alice performs then joins two of her own pairs, so he controls
her coin completely - an optional Pauli flip on one returned particle sets
the total parity. What he cannot control is her results check: after the
sequence announcement he knows only which measurements fell into common
cycles, and within a cycle of length L her outcomes are uniform over the
4**(L-1) assignments with fixed XOR. Guessing uniformly inside each
consistent set is his best play, and it succeeds with probability
4**(m - N) for m cycles.

Monte Carlo runs of the reflection attack go through `reflect_kernel`,
which evaluates a block of sessions at once from explicit random draws in
int8/int64 arrays. `run_reflect_attack` stays the per-session reference
with a transcript; fed the same draws, the two agree bit for bit.

Alice's fake-sequence attack: she measures before announcing and, when the
coin is not to her liking, announces a different sequence. The parity
conservation of Bell measurements makes this futile - Bob's total parity
equals hers no matter which sequence she names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .bell import BELL_LABELS, BellLabel, Party, PauliLabel
from .protocol import (
    CoinAnnouncement,
    ParticleBatch,
    ResultsAnnouncement,
    Sequence,
    SequenceAnnouncement,
    SessionConfig,
    SessionTranscript,
    Verdict,
    VerdictAnnouncement,
    alice_verify,
    draw_labels,
    measure_phase,
    particle_codes,
    random_sequence,
    toss_from_outcomes,
    travelling,
)
from .seeding import BLOCK_TRIALS, block_rng, trial_rng

__all__ = [
    "StrategyKind",
    "Strategy",
    "CycleStructure",
    "cycle_structure",
    "best_guess_results",
    "ReflectRun",
    "FakeSequenceRun",
    "run_reflect_attack",
    "run_fake_sequence_attack",
    "ReflectDraws",
    "ReflectBlock",
    "draw_reflect_block",
    "reflect_kernel",
    "reflect_blocks",
    "ExperimentReport",
    "run_cheat_experiment",
    "wilson_interval",
]

# 97.5% standard normal quantile, for two-sided 95% intervals.
_Z95 = 1.959963984540054


class StrategyKind(str, Enum):
    HONEST = "honest"
    REFLECT = "reflect"
    FAKE_SEQUENCE = "fake-seq"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Strategy:
    """A party plus what it does. REFLECT is Bob-only (with a Pauli flip
    choosing the forced coin); FAKE_SEQUENCE is Alice-only (with the coin
    value she wants)."""

    kind: StrategyKind
    party: Party
    flip: PauliLabel = PauliLabel.I
    desired: int = 0

    def __post_init__(self) -> None:
        if self.kind is StrategyKind.REFLECT and self.party is not Party.BOB:
            raise ValueError("the reflection attack is Bob's strategy")
        if self.kind is StrategyKind.FAKE_SEQUENCE and self.party is not Party.ALICE:
            raise ValueError("the fake-sequence attack is Alice's strategy")
        if self.desired not in (0, 1):
            raise ValueError("desired coin must be 0 or 1")

    def describe(self) -> str:
        if self.kind is StrategyKind.REFLECT:
            return f"reflect(flip={self.flip.name})"
        if self.kind is StrategyKind.FAKE_SEQUENCE:
            return f"fake-seq(desired={self.desired})"
        return "honest"

    @classmethod
    def reflect(cls, flip: PauliLabel = PauliLabel.I) -> "Strategy":
        return cls(StrategyKind.REFLECT, Party.BOB, flip=flip)

    @classmethod
    def fake_sequence(cls, desired: int) -> "Strategy":
        return cls(StrategyKind.FAKE_SEQUENCE, Party.ALICE, desired=desired)


@dataclass(frozen=True)
class CycleStructure:
    """Cycles of the pairing permutation, each a tuple of 1-based pair
    indices starting at its smallest member, listed in ascending order of
    that member."""

    cycles: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)

    @property
    def group_count(self) -> int:
        return len(self.cycles)

    @property
    def total(self) -> int:
        return sum(len(c) for c in self.cycles)


def cycle_structure(true_seq: Sequence, claimed_seq: Sequence) -> CycleStructure:
    """Cycles of tau = true_seq o claimed_seq^-1 over pair indices.

    tau(m) is the pair that actually sits where pair m is claimed to be: the
    measurement at index m really consumes pair tau(m)'s travelling half.
    Identical sequences give N fixed points; a claimed swap of two slots
    gives one 2-cycle.
    """
    n = len(true_seq)
    if len(claimed_seq) != n:
        raise ValueError("sequences must have equal length")
    order, slot_of = true_seq.order, claimed_seq.slot_of
    tau = [0] + [order[slot_of(m) - 1] for m in range(1, n + 1)]  # tau[m] = tau(m)
    seen = [False] * (n + 1)
    cycles: list[tuple[int, ...]] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = tau[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = tau[nxt]
        cycles.append(tuple(cycle))
    return CycleStructure(tuple(cycles))


def best_guess_results(
    cycles: CycleStructure,
    rng: np.random.Generator,
    targets: dict[int, BellLabel] | None = None,
) -> list[BellLabel]:
    """Optimal fabricated results for the verifier's check, indexed by pair.

    Within each cycle the verifier's outcomes are uniform over the
    assignments whose XOR equals the XOR of the cycle's initial edge labels
    (all Phi+ unless `targets` overrides a cycle, keyed by its smallest
    member). Sampling uniformly from that consistent set maximises the
    per-cycle match probability at 4**(1 - length); a fixed point is
    guessed exactly.
    """
    return _guesses(cycles, draw_labels(rng, cycles.total - cycles.group_count), targets)


def _guesses(
    cycles: CycleStructure, labels: list[int], targets: dict[int, int] | None
) -> list[BellLabel]:
    """`best_guess_results` with its free guesses taken from `labels`."""
    guess = [0] * cycles.total  # guess[m - 1] for pair m
    free = iter(labels)
    for cycle in cycles.cycles:
        acc = int(targets.get(cycle[0], 0)) if targets else 0
        for m in cycle[1:]:
            lab = next(free)
            acc ^= lab
            guess[m - 1] = lab
        guess[cycle[0] - 1] = acc
    return [BELL_LABELS[g] for g in guess]


class ReflectRun(NamedTuple):
    transcript: SessionTranscript
    passed: bool
    coin: int


class FakeSequenceRun(NamedTuple):
    transcript: SessionTranscript
    bob_coin: int


def run_reflect_attack(
    config: SessionConfig,
    flip: PauliLabel,
    rng: np.random.Generator,
    record_transcript: bool = True,
) -> ReflectRun:
    """One session in which Bob reflects Alice's particles.

    Bob returns the received particles in a uniformly random order, claims
    pair-order identification, applies `flip` to the particle in return
    slot 1 (any single particle works the same), and fabricates his
    announced results by the best-guess rule. Returns Alice's verdict
    (passed) and the coin she computes, which equals parity(flip) whenever
    the flip is what set the total parity - i.e. always.
    """
    n = config.n_pairs
    source, odd, even = particle_codes(n)[:3]
    partner, label = list(source), [0] * (4 * n)

    alice_seq = random_sequence(n, rng)
    return_order = rng.permutation(n)  # return slot s holds received slot return_order[s-1]+1

    # True pair content of each return slot: Alice's pair alice_seq(rho(s)).
    arrived = Sequence(tuple([alice_seq.order[r] for r in return_order.tolist()]))
    cycles = cycle_structure(arrived, Sequence.identity(n))

    returned = [odd[m - 1] for m in arrived.order]  # returned[s - 1] in return slot s
    # the flip acts on return slot 1's source pair, whose halves are c and c ^ 1
    label[returned[0]] = label[returned[0] ^ 1] = flip_value = int(flip)

    # Alice measures her kept half of pair m against return slot m. Bob then
    # knows tau = arrived o claimed^-1 (claimed: pair order) and fabricates
    # his results, drawing one free guess per measurement that swapped.
    alice_results, guesses = measure_phase(
        partner, label, even, returned, config.noise, rng, then=n - cycles.group_count)
    # the flip sets the target XOR of the cycle holding return slot 1's pair
    targets = {c[0]: flip_value for c in cycles.cycles if arrived.order[0] in c}
    bob_announced = tuple(_guesses(cycles, guesses, targets))

    verdict = alice_verify(alice_results, bob_announced)
    coin = toss_from_outcomes(alice_results)
    passed = verdict is Verdict.ACCEPT

    transcript = SessionTranscript(
        config, alice_outcomes=alice_results, bob_outcomes=bob_announced, verdict=verdict)
    if record_transcript:
        sent = travelling(Party.ALICE, n)
        transcript.append(ParticleBatch(Party.ALICE, tuple([sent[m - 1] for m in alice_seq.order])))
        transcript.append(ParticleBatch(Party.BOB, tuple([sent[m - 1] for m in arrived.order])))
        transcript.append(SequenceAnnouncement(Party.ALICE, alice_seq))
        transcript.append(ResultsAnnouncement(Party.BOB, bob_announced))
        transcript.append(VerdictAnnouncement(Party.ALICE, verdict))
    if passed:
        transcript.coin = coin
        if record_transcript:
            transcript.append(CoinAnnouncement(Party.ALICE, coin))
    return ReflectRun(transcript, passed, coin)


def run_fake_sequence_attack(
    config: SessionConfig,
    desired: int,
    rng: np.random.Generator,
) -> FakeSequenceRun:
    """One session in which Alice measures first and may lie about her order.

    If her coin already equals `desired` she announces truthfully; otherwise
    she announces a uniformly random different sequence (for a single pair
    there is none, so she stays truthful). Bob's total outcome parity equals
    hers either way, so his coin is returned unchanged by the lie.
    """
    if desired not in (0, 1):
        raise ValueError("desired coin must be 0 or 1")
    n = config.n_pairs
    source, alice_odd, alice_even, bob_odd, bob_even = particle_codes(n)
    partner, label = list(source), [0] * (4 * n)
    transcript = SessionTranscript(config)

    alice_seq = random_sequence(n, rng)
    sent = [alice_odd[m - 1] for m in alice_seq.order]  # sent[t - 1] travels in slot t
    alice_ids = travelling(Party.ALICE, n)
    transcript.append(
        ParticleBatch(Party.ALICE, tuple([alice_ids[m - 1] for m in alice_seq.order])))
    transcript.append(ParticleBatch(Party.BOB, travelling(Party.BOB, n)))

    # Alice measures before announcing anything.
    alice_results = measure_phase(partner, label, alice_even, bob_odd, config.noise, rng)[0]
    alice_coin = toss_from_outcomes(alice_results)

    announced_seq = alice_seq
    if alice_coin != desired and n > 1:
        while True:
            candidate = random_sequence(n, rng)
            if candidate != alice_seq:
                announced_seq = candidate
                break
    transcript.append(SequenceAnnouncement(Party.ALICE, announced_seq))

    # Bob trusts the announcement: his kept half of pair m goes against the
    # slot claimed to carry Alice's pair m.
    claimed = [sent[announced_seq.slot_of(m) - 1] for m in range(1, n + 1)]
    bob_results = measure_phase(partner, label, bob_even, claimed, config.noise, rng)[0]
    bob_coin = toss_from_outcomes(bob_results)

    transcript.alice_outcomes = alice_results
    transcript.bob_outcomes = bob_results
    transcript.append(ResultsAnnouncement(Party.BOB, bob_results))
    # A cheating Alice has nothing to gain from aborting her own attack.
    transcript.verdict = Verdict.ACCEPT
    transcript.append(VerdictAnnouncement(Party.ALICE, Verdict.ACCEPT))
    transcript.coin = bob_coin
    transcript.append(CoinAnnouncement(Party.BOB, bob_coin))
    return FakeSequenceRun(transcript, bob_coin)


class ReflectDraws(NamedTuple):
    """Random draws of B reflection-attack trials at N pairs, one row each.

    Indices are 0-based. Slot t of Alice's sequence carries her pair
    alice_order[t]; Bob's return slot s holds the particle he received in
    slot return_order[s]. At index m, swap[m] is the outcome of Alice's
    measurement when it swaps, noise[m] < gamma keeps her record and
    corrupt[m] (1..3) is XORed into it otherwise, and guess[m] is Bob's
    free guess. Draws a trial never reaches are ignored.
    """

    alice_order: np.ndarray  # (B, N) int64 permutations of 0..N-1
    return_order: np.ndarray  # (B, N) int64 permutations of 0..N-1
    swap: np.ndarray  # (B, N) int8 labels
    noise: np.ndarray  # (B, N) float64 uniforms in [0, 1)
    corrupt: np.ndarray  # (B, N) int8 in 1..3
    guess: np.ndarray  # (B, N) int8 labels


class ReflectBlock(NamedTuple):
    """Kernel output per trial: Alice's recorded outcomes and Bob's announced
    results as (B, N) int8 label values, the pass bit and Alice's coin."""

    alice: np.ndarray
    bob: np.ndarray
    passed: np.ndarray  # (B,) bool
    coin: np.ndarray  # (B,) int64


def draw_reflect_block(rng: np.random.Generator, n: int) -> ReflectDraws:
    """BLOCK_TRIALS rows of draws, taken from `rng` field by field in order."""
    shape = (BLOCK_TRIALS, n)
    pairs = np.broadcast_to(np.arange(n), shape)
    return ReflectDraws(
        alice_order=rng.permuted(pairs, axis=1),
        return_order=rng.permuted(pairs, axis=1),
        swap=rng.integers(0, 4, size=shape, dtype=np.int8),
        noise=rng.random(shape),
        corrupt=rng.integers(1, 4, size=shape, dtype=np.int8),
        guess=rng.integers(0, 4, size=shape, dtype=np.int8),
    )


def reflect_kernel(draws: ReflectDraws, flip: int, gamma: float = 1.0) -> ReflectBlock:
    """`run_reflect_attack` for every row of `draws` at once, in int arrays.

    Alice's pairs arrive in the order tau = alice_order o return_order. In
    each cycle of tau her measurements swap with the drawn outcome, except
    the one at the cycle's largest index: it closes the cycle, so its
    outcome is the XOR of the cycle's edge labels (the flip on the cycle
    holding index 0, Phi+ elsewhere) with the cycle's other outcomes. Bob
    announces his guesses, except at each cycle's smallest index, which
    takes the same target XOR. A trial passes when Alice's possibly
    corrupted records equal Bob's announcement; her coin is the XOR of
    their parities.
    """
    b, n = draws.swap.shape
    index = np.arange(b * n).reshape(b, n)  # flat position of (trial, m)
    row_start = index[:, :1]
    tau = (np.take_along_axis(draws.alice_order, draws.return_order, axis=1) + row_start).ravel()
    packed = (draws.swap | (draws.guess << 2)).ravel()
    # Walk every index round its cycle once: lo and hi end at the cycle's
    # smallest and largest member, acc at the XOR of its members' packed draws.
    start = index.ravel()
    cur, lo, hi, acc = start, start, start, packed
    alive = np.ones(b * n, dtype=bool)
    for _ in range(n - 1):
        cur = tau[cur]
        alive &= cur != start
        acc = acc ^ packed[cur] * alive
        lo = np.minimum(lo, cur)
        hi = np.maximum(hi, cur)
    lo, hi, acc = lo.reshape(b, n), hi.reshape(b, n), acc.reshape(b, n)

    edge = np.where(lo == row_start, np.int8(flip), np.int8(0))
    alice = np.where(hi == index, edge ^ (acc & 3) ^ draws.swap, draws.swap)
    alice ^= np.where(draws.noise >= gamma, draws.corrupt, np.int8(0))
    bob = np.where(lo == index, edge ^ (acc >> 2) ^ draws.guess, draws.guess)
    passed = (alice == bob).all(axis=1)
    coin = ((alice ^ (alice >> 1)) & 1).sum(axis=1) & 1
    return ReflectBlock(alice, bob, passed, coin)


def reflect_blocks(
    config: SessionConfig, flip: PauliLabel, trials: int
) -> Iterator[ReflectBlock]:
    """Kernel output for trials 0..trials-1 under config.seed, block by block.

    Block k is `draw_reflect_block(block_rng(seed, k), N)` run through the
    kernel; the last block is cut to the trials asked for.
    """
    gamma = config.noise.gamma if config.noise is not None else 1.0
    for k in range(-(-trials // BLOCK_TRIALS)):
        draws = draw_reflect_block(block_rng(config.seed, k), config.n_pairs)
        keep = min(BLOCK_TRIALS, trials - k * BLOCK_TRIALS)
        yield ReflectBlock(*(a[:keep] for a in reflect_kernel(draws, flip.value, gamma)))


@dataclass(frozen=True)
class ExperimentReport:
    """Monte Carlo summary of repeated attack sessions."""

    strategy: Strategy
    n_pairs: int
    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    forced_coin_rate: float
    seed: int

    def __post_init__(self) -> None:
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise ValueError("confidence interval must bracket the estimate")


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default).

    At zero successes the lower bound is exactly 0 and at all successes the
    upper bound is exactly 1; rounding in center -/+ half would otherwise
    leave them a few ulps inside, so the interval would miss the estimate.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def run_cheat_experiment(
    config: SessionConfig, strategy: Strategy, trials: int
) -> ExperimentReport:
    """Repeat a strategy over `trials` independent trials.

    Reflect trials run through the batched kernel on block streams
    (`reflect_blocks`); fake-sequence trials run one session each on its
    own per-trial stream.

    Success means: the session passed verification (reflect) or Bob's coin
    came out as desired (fake-seq). forced_coin_rate tracks how often the
    strategist's preferred coin value was produced.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    successes = 0
    forced = 0
    if strategy.kind is StrategyKind.REFLECT:
        want = strategy.flip.parity
        for block in reflect_blocks(config, strategy.flip, trials):
            successes += int(np.count_nonzero(block.passed))
            forced += int(np.count_nonzero(block.coin == want))
    elif strategy.kind is StrategyKind.FAKE_SEQUENCE:
        for i in range(trials):
            run = run_fake_sequence_attack(config, strategy.desired, trial_rng(config.seed, i))
            if run.bob_coin == strategy.desired:
                successes += 1
        forced = successes
    else:
        raise ValueError("honest play is not a cheat experiment")
    lo, hi = wilson_interval(successes, trials)
    return ExperimentReport(
        strategy=strategy,
        n_pairs=config.n_pairs,
        trials=trials,
        successes=successes,
        estimate=successes / trials,
        ci_low=lo,
        ci_high=hi,
        forced_coin_rate=forced / trials,
        seed=config.seed,
    )
