"""Engine-versus-oracle equivalence checks.

The symbolic matching engine claims two algebraic facts: a one-sided Pauli
XORs the pair label, and an entanglement swap leaves the spectators in
``b1 ^ b2 ^ outcome`` with a uniform outcome. The checks here re-derive
both from raw statevector simulation, compare exact distributions, compare
sampled distributions (total-variation distance), and confirm on random
maximal measurement schedules, in engine and oracle alike, that the XOR of
the outcomes is the XOR of the labels on both label bits, one comparison
for both checks. `run_all` powers the `verify` CLI subcommand.

The sampled-distribution check tests numpy's sampler against the oracle's,
not an engine: its "engine" outcomes are a bare ``rng.integers(4,
size=k)``, the words k `EntangledMatching.measure_pair` swaps would draw,
and the oracle's from `oracle.bell_sample` on one Born distribution, read
by `bell_distributions` from a one-row `prepare_states` batch. The
engine's parity check runs its schedules through `protocol.cycle_kernel`,
the kernel behind every `qct cheat` number, and the oracle's through
`oracle.schedule_outcomes`; the tests replay each against `measure_pair`
or `oracle.bell_measure_collapse` on identical draws. The residual check
takes its engine answer from `bell.residual`, the sessions' swap rule.

The three exhaustive checks, `pauli-action-16`, `residual-rule-64` and
`swap-distribution-exact`, build all their cases as one batch of states
through the oracle's batched entry points (`oracle.prepare_states`,
`apply_pauli_gates`, `schedule_outcomes`, `bell_distributions`) and read
one Born distribution per measured pair. The oracle's probabilities are
exact, so they are compared with no tolerance: a point mass is a
probability of exactly 1, and a uniform swap is 1/4 to the last bit. The
residual check's oracle answer is one `oracle.schedule_outcomes` call that
swaps qubits (1, 2) of every case with the uniform (o + 1/2)/4, which
lands in the case's outcome o, and reads the qubits left, (0, 3). So
`verify` runs only the batched oracle and builds no `QuantumState`; the
tests hold every case to the scalar `prepare_pairs`, `apply_pauli_gate`,
`bell_distribution` and `bell_measure_collapse`, bit for bit. This module
keeps the cases' order, the comparisons and the detail texts.

Stream contract of the parity checks: each draws from ``session_rng(seed)``,
pair count n = 1, 2, ... in turn, in chunks of S schedules. A kernel call
takes about CHUNK values, so S is CHUNK // 2n for the engine (2n particle
slots per schedule), at least 1. The oracle prepares its 4**n amplitudes
per schedule as int8 signs, one byte against a float64 value's eight, so
S is 8 * CHUNK // 4**n for it, at least 1: `verify`'s default 250 oracle
schedules run in one call per pair count up to 4. Per chunk it draws the
labels, ``(S, n)`` int8; then the
schedules, one ``rng.permuted`` row of 0..2n-1 per schedule, read as
consecutive (min, max) pairs; then the engine's swap outcomes, ``(S, n)``
int8, or the oracle's collapse uniforms, ``(S, n)`` float64. A uniform
random permutation read in pairs is a uniform random maximal schedule.
A passing check prints nothing that depends on the chunk sizes.

The residual-rule check accepts a fault injection that corrupts the
engine's answer on purpose; it must then fail, proving the suite can catch
a wrong XOR rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import BELL_LABELS, BellLabel, PauliLabel, apply_pauli, residual
from .oracle import (
    MAX_QUBITS,
    apply_pauli_gates,
    bell_distributions,
    bell_sample,
    prepare_states,
)
from .oracle import schedule_outcomes as oracle_schedule_outcomes
from .protocol import cycle_kernel
from .seeding import session_rng

# Values per kernel call, from which each check derives its rows: memory
# stays flat in the sample and schedule counts.
CHUNK = 8192

__all__ = [
    "CheckResult",
    "check_pauli_action",
    "check_residual_rule",
    "check_swap_distribution_exact",
    "check_swap_distribution_sampled",
    "check_parity_conservation_engine",
    "check_parity_conservation_oracle",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _point_masses(dists: np.ndarray) -> np.ndarray:
    """Per row, the label value holding all probability mass, exactly, or -1
    if the row is spread out."""
    best = np.argmax(dists, axis=1)
    return np.where(dists[np.arange(len(dists)), best] == 1.0, best, -1)


def _label(value: int) -> BellLabel | None:
    return BELL_LABELS[value] if value >= 0 else None


def check_pauli_action() -> CheckResult:
    """All 16 (label, pauli) cases: XOR rule vs statevector, on either qubit."""
    # case c is label c >> 3, pauli (c >> 1) & 3 and qubit c & 1, in the
    # order failures are listed
    case = np.arange(32)
    labels, paulis, qubits = case >> 3, (case >> 1) & 3, case & 1
    states = apply_pauli_gates(prepare_states(labels[:, None]), paulis, qubits)
    oracle = _point_masses(bell_distributions(states, 0, 1))
    failures = []
    for c in range(32):
        label, pauli = BELL_LABELS[labels[c]], PauliLabel(paulis[c])
        expected = apply_pauli(label, pauli)
        got = _label(oracle[c])
        if got is not expected:
            failures.append(f"{label.symbol},{pauli.name},q{qubits[c]}->{got}")
    return CheckResult(
        "pauli-action-16",
        not failures,
        "16 cases x 2 qubits agree" if not failures else "; ".join(failures),
    )


def check_residual_rule(fault_injection: bool = False) -> CheckResult:
    """All 64 (b1, b2, outcome) swap cases: the swap rule `bell.residual` vs oracle.

    The oracle swaps qubits (1, 2) of each (b1, b2) state with a uniform
    that forces the case's outcome, every branch having probability 1/4,
    and reads the residual on (0, 3): a point mass, or none for a
    spread-out residual or a row whose swap drew another outcome.
    With fault_injection the engine's residual is deliberately corrupted,
    so a passing suite must report this check as failed.
    """
    # case c is b1 = c >> 4, b2 = (c >> 2) & 3 and outcome c & 3, in the
    # order failures are listed
    case = np.arange(64)
    b1, b2, outcome = case >> 4, (case >> 2) & 3, case & 3
    engine = residual(b1, b2, outcome)
    if fault_injection:
        engine = engine ^ 0b01
    got, left = oracle_schedule_outcomes(
        np.stack([b1, b2], axis=1), np.array([[1, 2]]), (outcome[:, None] + 0.5) / 4)
    oracle = np.where(got[:, 0] == outcome, _point_masses(bell_distributions(left, 0, 1)), -1)
    failures = np.flatnonzero(oracle != engine)
    shown = []
    for c in failures[:4]:
        pair = "x".join(BELL_LABELS[b].symbol for b in (b1[c], b2[c]))
        got = _label(oracle[c])
        shown.append(f"{pair}|{BELL_LABELS[outcome[c]].symbol}: "
                     f"engine {BellLabel(engine[c]).symbol} oracle {got and got.symbol}")
    return CheckResult(
        "residual-rule-64",
        not failures.size,
        f"{failures.size} mismatches: " + "; ".join(shown) if failures.size else "64 cases agree",
    )


def check_swap_distribution_exact() -> CheckResult:
    """Cross-pair Bell outcome distribution is uniform for all 16 label pairs."""
    pair = np.arange(16)
    states = prepare_states(np.stack([pair >> 2, pair & 3], axis=1))
    worst = float(np.max(np.abs(bell_distributions(states, 1, 2) - 0.25)))
    return CheckResult(
        "swap-distribution-exact",
        worst == 0.0,
        f"max |p - 1/4| = {worst:.3e} over 16 label pairs",
    )


def _tv(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    pa = counts_a / counts_a.sum()
    pb = counts_b / counts_b.sum()
    return 0.5 * float(np.abs(pa - pb).sum())


def _sampled_swap_counts(samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Engine and oracle outcome counts of `samples` swaps on a Psi- (x)
    Phi- input, drawn CHUNK at a time from streams seed, seed + 1."""
    labels = np.array([[BellLabel.PSI_MINUS, BellLabel.PHI_MINUS]])
    probs = bell_distributions(prepare_states(labels), 1, 2)[0]
    rng_engine, rng_oracle = session_rng(seed), session_rng(seed + 1)
    engine_counts = np.zeros(4, dtype=np.int64)
    oracle_counts = np.zeros(4, dtype=np.int64)
    for start in range(0, samples, CHUNK):
        size = min(CHUNK, samples - start)
        engine_counts += np.bincount(rng_engine.integers(4, size=size), minlength=4)
        oracle_counts += np.bincount(bell_sample(probs, rng_oracle, size), minlength=4)
    return engine_counts, oracle_counts


def check_swap_distribution_sampled(samples: int = 100_000, seed: int = 20_26) -> CheckResult:
    """Sampled swap outcomes: numpy's sampler vs oracle vs exact, TV below t.

    Both sides sample a swap on a Psi- (x) Phi- input (any labels work -
    outcomes are uniform) in batches: the "engine" side as ``rng.integers(4,
    size=k)``, the oracle through `bell_sample` on the one Born distribution
    `bell_distributions` reads from the input state. Each consumes its
    stream as `samples` scalar `measure_pair` or `bell_measure_collapse`
    calls would, so the counts are those of the scalar loops. No engine and
    no scalar oracle function runs here.

    t = sqrt(2 ln(64 / 1e-6) / n) for n samples, 0.019 at 100,000: by the
    Bretagnolle-Huber-Carol bound, one sample's L1 distance from uniform
    over the 4 labels reaches x with probability at most 16 exp(-n x^2 / 2),
    so correct samplers fail with probability at most (16 + 16 + 32)
    exp(-n t^2 / 2) = 1e-6 (L1 >= 2t for a TV against exact, L1 >= t on
    one side for the TV between them).
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1 (got {samples})")
    engine_counts, oracle_counts = _sampled_swap_counts(samples, seed)

    exact = np.full(4, samples / 4.0)
    tvs = {
        "engine-vs-oracle": _tv(engine_counts, oracle_counts),
        "engine-vs-exact": _tv(engine_counts, exact),
        "oracle-vs-exact": _tv(oracle_counts, exact),
    }
    threshold = float(2 * np.log(64 / 1e-6) / samples) ** 0.5
    worst = max(tvs.values())
    detail = ", ".join(f"{k} TV={v:.4f}" for k, v in tvs.items())
    return CheckResult(
        "swap-distribution-sampled", worst < threshold, f"{detail} ({samples} samples)"
    )


def _schedule_check(
    name: str,
    max_pairs: int,
    sequences: int,
    seed: int,
    chunk_rows,
    run,
) -> CheckResult | None:
    """Draw ``chunk_rows(n)`` schedules at a time per pair count n, as the
    module's stream contract says, and run each chunk through ``run(rng,
    labels, order)``, which draws what its kernel needs next and returns the
    ``(S, n)`` outcomes. The first schedule whose outcomes' XOR is not its
    labels' XOR, on either bit, fails the check; None if every schedule
    conserves it."""
    if not 1 <= max_pairs <= MAX_QUBITS // 2:
        raise ValueError(f"max_pairs must lie in 1..{MAX_QUBITS // 2} (got {max_pairs})")
    if sequences < 1:
        raise ValueError(f"sequences must be at least 1 (got {sequences})")
    rng = session_rng(seed)
    for n in range(1, max_pairs + 1):
        rows = chunk_rows(n)
        for start in range(0, sequences, rows):
            size = min(rows, sequences - start)
            labels = rng.integers(4, size=(size, n), dtype=np.int8)
            drawn = rng.permuted(np.tile(np.arange(2 * n, dtype=np.int8), (size, 1)), axis=1)
            order = np.empty_like(drawn)  # each pair as (min, max)
            np.minimum(drawn[:, 0::2], drawn[:, 1::2], out=order[:, 0::2])
            np.maximum(drawn[:, 0::2], drawn[:, 1::2], out=order[:, 1::2])
            mismatch = run(rng, labels, order) ^ labels
            for k in range(1, n):  # XOR the columns into the first
                mismatch[:, 0] ^= mismatch[:, k]
            failed = np.flatnonzero(mismatch[:, 0])
            if failed.size:
                row = [BellLabel(int(x)) for x in labels[failed[0]]]
                return CheckResult(name, False, f"XOR mismatch at n={n}: {row}")
    return None


def engine_schedule_outcomes(
    labels: np.ndarray, order: np.ndarray, swap: np.ndarray
) -> np.ndarray:
    """`protocol.cycle_kernel`'s outcomes of the engine check's maximal
    schedules, ``(S, n)``.

    tau sends slot 2k + j (step k's j-th particle) to the slot of its step
    mate's initial partner. A cycle of pairs and steps is two orbits of tau,
    both largest at its last step, which measures partners; every other
    step swaps with ``swap[:, k]``. Labels fold in as `cycle_kernel` says.
    """
    measured = order.T.astype(np.intp)  # (2n, S), index-major as the kernel takes it
    slots, column = np.arange(len(measured)), np.arange(measured.shape[1])
    slot_of = np.empty_like(measured)
    slot_of[measured, column] = slots[:, None]
    tau = slot_of[measured[slots ^ 1] ^ 1, column]
    label = labels.T[measured >> 1, column]
    _, out = cycle_kernel(tau, np.repeat(swap.T, 2, axis=0) ^ label)
    return (out[::2] ^ label[::2]).T


def check_parity_conservation_engine(
    max_pairs: int = 4, sequences: int = 1000, seed: int = 20_26
) -> CheckResult:
    """Random maximal measurement schedules on random labels: the XOR of
    the outcomes must equal the XOR of the labels, on both bits, exactly.

    Runs `engine_schedule_outcomes` on chunks of CHUNK // 2n schedules; each
    chunk's swap outcomes, ``(S, n)`` int8, follow its schedules in the
    stream.
    """

    def run(rng, labels, order):
        return engine_schedule_outcomes(
            labels, order, rng.integers(4, size=labels.shape, dtype=np.int8)
        )

    failure = _schedule_check(
        "parity-conservation-engine", max_pairs, sequences, seed,
        lambda n: max(1, CHUNK // (2 * n)), run,
    )
    return failure or CheckResult(
        "parity-conservation-engine",
        True,
        f"{max_pairs * sequences} random maximal schedules up to {max_pairs} pairs, exact",
    )


def check_parity_conservation_oracle(
    max_pairs: int = 4, sequences: int = 250, seed: int = 20_26
) -> CheckResult:
    """Same conservation law on the statevector: measure random disjoint
    qubit pairs to exhaustion; the sampled branch outcomes' XOR must equal
    the labels' on both bits.

    Runs `oracle.schedule_outcomes` on chunks of 8 * CHUNK // 4**n
    schedules: the kernel holds its prepared amplitudes as int8 signs, so 8
    of them take a float64 value's bytes. Each chunk's collapse uniforms,
    ``(S, n)`` float64, follow its schedules in the stream.
    """

    def run(rng, labels, order):
        return oracle_schedule_outcomes(labels, order, rng.random(labels.shape))[0]

    failure = _schedule_check(
        "parity-conservation-oracle", max_pairs, sequences, seed,
        lambda n: max(1, 8 * CHUNK >> 2 * n), run,
    )
    return failure or CheckResult(
        "parity-conservation-oracle",
        True,
        f"{max_pairs * sequences} random maximal schedules up to {max_pairs} pairs, exact per branch",
    )


def run_all(
    samples: int = 100_000,
    sequences: int = 1000,
    max_pairs: int = 4,
    seed: int = 20_26,
    fault_injection: bool = False,
) -> list[CheckResult]:
    return [
        check_pauli_action(),
        check_residual_rule(fault_injection=fault_injection),
        check_swap_distribution_exact(),
        check_swap_distribution_sampled(samples=samples, seed=seed),
        check_parity_conservation_engine(max_pairs=max_pairs, sequences=sequences, seed=seed),
        check_parity_conservation_oracle(
            max_pairs=max_pairs, sequences=max(1, sequences // 4), seed=seed
        ),
    ]
