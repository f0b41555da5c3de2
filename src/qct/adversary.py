"""Cheating strategies and their Monte Carlo evaluation.

Bob's reflection attack: instead of shipping his own pairs he returns
Alice's particles in a random order, claiming they are his. Every
measurement Alice performs then joins two of her own pairs, so he controls
her coin completely - an optional Pauli flip on one returned particle sets
the total parity. What he cannot control is her results check: after the
sequence announcement he knows only which measurements fell into common
cycles, and within a cycle of length L her outcomes are uniform over the
4**(L-1) assignments with fixed XOR. Guessing uniformly inside each
consistent set, as her own phase rule run on his uniform guesses does, is
his best play; it succeeds with probability 4**(m - N) for m cycles.

Alice's fake-sequence attack: she measures before announcing and, when the
coin is not to her liking, announces a different sequence. The parity
conservation of Bell measurements makes this futile - Bob's total parity
equals hers no matter which sequence she names.

One session under either attack is `protocol.run_session`; this module
evaluates the attacks over many trials. Reflect trials go through
`reflect_kernel`: from explicit draws (tau, packed labels, any noise) it
evaluates a block of sessions at once by `protocol.cycle_kernel`'s pointer
doubling, O(N log N) per trial; fed the same draws, it and
`run_reflect_attack` agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .bell import PauliLabel, parity, validate_labels
from .protocol import (
    NoiseModel,
    SessionConfig,
    SessionRun,
    SessionTranscript,
    Strategy,
    StrategyKind,
    best_guess_results,
    cycle_kernel,
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

    Indices are 0-based. Bob's return slot m holds Alice's pair tau[m]:
    alice_order[return_order[m]], her secret order composed with his return
    order, so tau is uniform as they are. At index m, bits 0-1 of labels[m]
    are Alice's outcome when her measurement swaps and bits 2-3 Bob's free
    guess where he uses one. Under noise, noise[m] < gamma keeps her record
    and corrupt[m] (1..3) is XORed into it otherwise; a noiseless block has
    neither. Draws a trial never reaches are ignored."""

    tau: np.ndarray  # (B, N) int64 permutations of 0..N-1
    labels: np.ndarray  # (B, N) int8 in 0..15: swap | guess << 2
    noise: np.ndarray | None  # (B, N) float64 uniforms in [0, 1), or None
    corrupt: np.ndarray | None  # (B, N) int8 in 1..3, or None


class ReflectBlock(NamedTuple):
    """Kernel output per trial: Alice's recorded outcomes and Bob's announced
    results as (B, N) int8 label values, the pass bit and Alice's coin."""

    alice: np.ndarray
    bob: np.ndarray
    passed: np.ndarray  # (B,) bool
    coin: np.ndarray  # (B,) int8


def draw_reflect_block(rng: np.random.Generator, n: int, gamma: float = 1.0) -> ReflectDraws:
    """BLOCK_TRIALS rows of draws, taken from `rng` field by field in order;
    noise and corrupt only when `gamma` < 1."""
    shape = (BLOCK_TRIALS, n)
    tau = rng.permuted(np.broadcast_to(np.arange(n), shape), axis=1)
    labels = rng.integers(0, 16, size=shape, dtype=np.int8)
    noise = rng.random(shape) if gamma < 1.0 else None
    corrupt = rng.integers(1, 4, size=shape, dtype=np.int8) if gamma < 1.0 else None
    return ReflectDraws(tau, labels, noise, corrupt)


def reflect_kernel(draws: ReflectDraws, flip: int, gamma: float = 1.0) -> ReflectBlock:
    """`run_reflect_attack` for every row of `draws` at once, in int arrays.

    In each cycle of tau Alice's measurements swap with the drawn outcome,
    except the one at the cycle's largest index: it closes the cycle, so
    its outcome is the XOR of the cycle's edge labels (the flip on the
    cycle holding index 0, Phi+ elsewhere) with the cycle's other outcomes.
    Bob runs the same rule on his guesses; one index-major `cycle_kernel`
    call runs both on the packed labels. A trial passes when Alice's records,
    corrupted only when `gamma` < 1, equal Bob's announcement; her coin is
    the XOR of their parities. Fields present must share tau's (B, N) shape,
    noise and corrupt be present when `gamma` < 1, `flip` be a Pauli value
    0..3 and `gamma` lie in (0, 1], as a `NoiseModel`'s. Each row of tau
    must be a permutation of 0..N-1, as drawn; that goes unchecked, since a
    check costs more than the kernel, and rows that are no permutation give
    meaningless trials (with an all-zero tau every trial passes).
    """
    validate_labels(flip, "Pauli")
    NoiseModel(gamma)
    shape = draws.tau.shape
    if bad := [k for k, a in zip(draws._fields, draws) if a is not None and a.shape != shape]:
        raise ValueError(f"draws fields {', '.join(bad)} differ from tau's shape {shape}")
    noisy = gamma < 1.0
    if noisy and (missing := [f for f in ("noise", "corrupt") if getattr(draws, f) is None]):
        raise ValueError(f"draws fields {', '.join(missing)} are None at gamma {gamma}")
    packed = draws.labels.T.copy()  # index-major, and the draws stay unchanged
    edge = np.int8(5 * flip)  # index 0's edge label in both halves; see cycle_kernel's fold
    packed[:1] ^= edge
    _, out = cycle_kernel(draws.tau.T, packed)
    out[:1] ^= edge

    alice = out & 3
    if noisy:
        alice ^= (draws.noise.T >= gamma) * draws.corrupt.T
    bob = out >> 2
    passed = (alice == bob).all(axis=0)
    coin = parity(np.bitwise_xor.reduce(alice, axis=0))
    return ReflectBlock(alice.T, bob.T, passed, coin)


def reflect_blocks(
    config: SessionConfig, flip: PauliLabel, trials: int
) -> Iterator[ReflectBlock]:
    """Kernel output for trials 0..trials-1 under config.seed, block by block.

    Block k is `draw_reflect_block(block_rng(seed, k), N, gamma)` run
    through the kernel. Every block draws all its rows, so the streams do
    not depend on the trial count; the kernel runs only the trials asked for.
    """
    gamma = config.noise.gamma if config.noise is not None else 1.0
    for k in range(-(-trials // BLOCK_TRIALS)):
        draws = draw_reflect_block(block_rng(config.seed, k), config.n_pairs, gamma)
        keep = min(BLOCK_TRIALS, trials - k * BLOCK_TRIALS)
        rows = ReflectDraws(*(a if a is None else a[:keep] for a in draws))
        yield reflect_kernel(rows, flip.value, gamma)


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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    At zero successes the lower bound is exactly 0 and at all successes the
    upper bound is exactly 1; rounding in center -/+ half would otherwise
    leave them a few ulps inside, so the interval would miss the estimate.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in 0..{trials}, not {successes}")
    p, z = successes / trials, _Z95
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
