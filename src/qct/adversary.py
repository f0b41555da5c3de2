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

Alice's fake-sequence attack: she measures before announcing and, when the
coin is not to her liking, announces a different sequence. The parity
conservation of Bell measurements makes this futile - Bob's total parity
equals hers no matter which sequence she names.

One session under either attack is `protocol.run_session`; this module
evaluates the attacks over many trials. Reflect trials go through
`reflect_kernel`, which evaluates a block of sessions at once from explicit
random draws in int8/int64 arrays; fed the same draws, it and
`run_reflect_attack` agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .bell import PauliLabel
from .protocol import (
    SessionConfig,
    SessionRun,
    SessionTranscript,
    Strategy,
    StrategyKind,
    best_guess_results,
    cycle_structure,
    run_session,
)
from .seeding import BLOCK_TRIALS, block_rng, trial_rng

__all__ = [
    "StrategyKind",
    "Strategy",
    "cycle_structure",
    "best_guess_results",
    "SessionRun",
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


class FakeSequenceRun(NamedTuple):
    transcript: SessionTranscript
    bob_coin: int


def run_reflect_attack(
    config: SessionConfig,
    flip: PauliLabel,
    rng: np.random.Generator,
    record_transcript: bool = True,
) -> SessionRun:
    """One session in which Bob reflects Alice's particles with `flip`; see
    `run_session`. Without `record_transcript` the messages are dropped."""
    run = run_session(config, Strategy.reflect(flip), rng)
    if not record_transcript:
        run.transcript.messages.clear()
    return run


def run_fake_sequence_attack(
    config: SessionConfig,
    desired: int,
    rng: np.random.Generator,
) -> FakeSequenceRun:
    """One session in which Alice measures first and may lie about her order
    to get `desired`; see `run_session`. Returns Bob's coin."""
    run = run_session(config, Strategy.fake_sequence(desired), rng)
    return FakeSequenceRun(run.transcript, run.coin)


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
    kernel. Every block draws all its rows, so the streams do not depend on
    the trial count, but the kernel evaluates only the trials asked for.
    """
    gamma = config.noise.gamma if config.noise is not None else 1.0
    for k in range(-(-trials // BLOCK_TRIALS)):
        draws = draw_reflect_block(block_rng(config.seed, k), config.n_pairs)
        keep = min(BLOCK_TRIALS, trials - k * BLOCK_TRIALS)
        yield reflect_kernel(ReflectDraws(*(a[:keep] for a in draws)), flip.value, gamma)


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
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in 0..{trials}, not {successes}")
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
            if run_session(config, strategy, trial_rng(config.seed, i)).coin == strategy.desired:
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
