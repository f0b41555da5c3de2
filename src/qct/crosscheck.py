"""Engine-versus-oracle equivalence checks.

The symbolic matching engine claims two algebraic facts: a one-sided Pauli
XORs the pair label, and an entanglement swap leaves the spectators in
``b1 ^ b2 ^ outcome`` with a uniform outcome. The checks here re-derive
both from raw statevector simulation, compare exact distributions, compare
sampled distributions (total-variation distance), and confirm parity
conservation on random maximal measurement schedules in engine and oracle
alike. `run_all` powers the `verify` CLI subcommand.

The sampled-distribution check draws through the batched samplers
`bell.swap_outcomes` and `oracle.bell_sample`, which the tests replay
against `EntangledMatching.measure_pair` and `oracle.bell_measure_collapse`
on identical draws. The residual and parity-conservation checks run
through those scalar reference paths themselves.

The residual-rule check accepts a fault injection that corrupts the
engine's answer on purpose; it must then fail, proving the suite can catch
a wrong XOR rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import (
    BellLabel,
    EntangledMatching,
    ParticleId,
    Party,
    PauliLabel,
    apply_pauli,
    swap_outcomes,
    total_parity,
)
from .oracle import (
    MAX_QUBITS,
    apply_pauli_gate,
    bell_distribution,
    bell_measure_collapse,
    bell_sample,
    prepare_pairs,
)
from .seeding import session_rng

# Draws per batched sampler call in the sampled swap check: memory stays
# flat in the sample count.
SAMPLE_CHUNK = 8192

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


def _point_mass(dist: np.ndarray, tol: float = 1e-9) -> BellLabel | None:
    """The label holding all probability mass, or None if spread out."""
    idx = int(np.argmax(dist))
    return BellLabel(idx) if abs(dist[idx] - 1.0) <= tol else None


def check_pauli_action(tol: float = 1e-9) -> CheckResult:
    """All 16 (label, pauli) cases: XOR rule vs statevector, on either qubit."""
    failures = []
    for label in BellLabel:
        for pauli in PauliLabel:
            expected = apply_pauli(label, pauli)
            for qubit in (0, 1):
                state = apply_pauli_gate(prepare_pairs([label]), pauli, qubit)
                got = _point_mass(bell_distribution(state, 0, 1), tol)
                if got is not expected:
                    failures.append(f"{label.symbol},{pauli.name},q{qubit}->{got}")
    return CheckResult(
        "pauli-action-16",
        not failures,
        "16 cases x 2 qubits agree" if not failures else "; ".join(failures),
    )


def _oracle_residual(
    b1: BellLabel, b2: BellLabel, outcome: BellLabel
) -> BellLabel | None:
    """Residual label after measuring qubits (1, 2) of b1 (x) b2 with the
    given outcome, from the collapsed statevector; None if not a point mass
    or the outcome has zero probability."""
    state = prepare_pairs([b1, b2])
    probs = bell_distribution(state, 1, 2)
    if probs[outcome.value] <= 1e-12:
        return None
    # project deterministically on the requested branch
    rng = _ForcedBranch(probs, outcome.value)
    got, post = bell_measure_collapse(state, 1, 2, rng)
    assert got is outcome
    return _point_mass(bell_distribution(post, 0, 3))


class _ForcedBranch:
    """Minimal rng stand-in whose single uniform draw lands in a chosen
    branch of a cumulative distribution (for deterministic collapse)."""

    def __init__(self, probs: np.ndarray, index: int):
        cumulative = np.cumsum(probs)
        low = cumulative[index - 1] if index else 0.0
        self._value = (low + cumulative[index]) / 2.0 / cumulative[-1]

    def random(self) -> float:
        return self._value


def check_residual_rule(fault_injection: bool = False) -> CheckResult:
    """All 64 (b1, b2, outcome) swap cases: engine XOR rule vs oracle.

    With fault_injection the engine's residual is deliberately corrupted,
    so a passing suite must report this check as failed.
    """
    failures = []
    for b1 in BellLabel:
        for b2 in BellLabel:
            for outcome in BellLabel:
                engine = BellLabel(b1.value ^ b2.value ^ outcome.value)
                if fault_injection:
                    engine = BellLabel(engine.value ^ 0b01)
                oracle = _oracle_residual(b1, b2, outcome)
                if oracle is not engine:
                    failures.append(
                        f"{b1.symbol}x{b2.symbol}|{outcome.symbol}: "
                        f"engine {engine.symbol} oracle {oracle and oracle.symbol}"
                    )
    return CheckResult(
        "residual-rule-64",
        not failures,
        "64 cases agree" if not failures else f"{len(failures)} mismatches: " + "; ".join(failures[:4]),
    )


def check_swap_distribution_exact(tol: float = 1e-9) -> CheckResult:
    """Cross-pair Bell outcome distribution is uniform for all 16 label pairs."""
    worst = 0.0
    for b1 in BellLabel:
        for b2 in BellLabel:
            probs = bell_distribution(prepare_pairs([b1, b2]), 1, 2)
            worst = max(worst, float(np.max(np.abs(probs - 0.25))))
    return CheckResult(
        "swap-distribution-exact",
        worst <= tol,
        f"max |p - 1/4| = {worst:.3e} over 16 label pairs",
    )


def _tv(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    pa = counts_a / counts_a.sum()
    pb = counts_b / counts_b.sum()
    return 0.5 * float(np.abs(pa - pb).sum())


def _sampled_swap_counts(samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Engine and oracle outcome counts of `samples` swaps on a Psi- (x)
    Phi- input, drawn SAMPLE_CHUNK at a time from streams seed, seed + 1."""
    b1, b2 = BellLabel.PSI_MINUS, BellLabel.PHI_MINUS
    base = prepare_pairs([b1, b2])
    rng_engine, rng_oracle = session_rng(seed), session_rng(seed + 1)
    engine_counts = np.zeros(4, dtype=np.int64)
    oracle_counts = np.zeros(4, dtype=np.int64)
    for start in range(0, samples, SAMPLE_CHUNK):
        size = min(SAMPLE_CHUNK, samples - start)
        engine_counts += np.bincount(swap_outcomes(b1, b2, rng_engine, size)[0], minlength=4)
        oracle_counts += np.bincount(bell_sample(base, 1, 2, rng_oracle, size), minlength=4)
    return engine_counts, oracle_counts


def check_swap_distribution_sampled(
    samples: int = 100_000, seed: int = 20_26, threshold: float = 0.02
) -> CheckResult:
    """Sampled swap outcomes: engine vs oracle vs exact, TV below threshold.

    Both sides sample a swap on a Psi- (x) Phi- input (any labels work -
    outcomes are uniform) in batches: the engine through `swap_outcomes`,
    the oracle through `bell_sample`. Each consumes its stream as `samples`
    scalar `measure_pair` or `bell_measure_collapse` calls would, so the
    counts are those of the scalar loops.
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
    worst = max(tvs.values())
    detail = ", ".join(f"{k} TV={v:.4f}" for k, v in tvs.items())
    return CheckResult(
        "swap-distribution-sampled", worst < threshold, f"{detail} ({samples} samples)"
    )


def _require_schedules(max_pairs: int, sequences: int) -> None:
    if not 1 <= max_pairs <= MAX_QUBITS // 2:
        raise ValueError(f"max_pairs must lie in 1..{MAX_QUBITS // 2} (got {max_pairs})")
    if sequences < 1:
        raise ValueError(f"sequences must be at least 1 (got {sequences})")


def _random_labels(rng: np.random.Generator, n: int) -> list[BellLabel]:
    return [BellLabel(int(x)) for x in rng.integers(4, size=n)]


def check_parity_conservation_engine(
    max_pairs: int = 4, sequences: int = 1000, seed: int = 20_26
) -> CheckResult:
    """Random maximal measurement schedules on random labels: the XOR of
    outcome parities must equal the XOR of initial parities, exactly."""
    _require_schedules(max_pairs, sequences)
    rng = session_rng(seed)
    checked = 0
    for n in range(1, max_pairs + 1):
        for _ in range(sequences):
            labels = _random_labels(rng, n)
            particles = [ParticleId(Party.ALICE, i) for i in range(1, 2 * n + 1)]
            matching = EntangledMatching(
                [(particles[2 * i], particles[2 * i + 1], labels[i]) for i in range(n)]
            )
            initial = total_parity(labels)
            live = list(particles)
            outcomes = []
            while live:
                i, j = sorted(rng.choice(len(live), size=2, replace=False))
                u, v = live[i], live[j]
                outcomes.append(matching.measure_pair(u, v, rng))
                del live[j], live[i]
                if not matching.conservation_ok():
                    return CheckResult(
                        "parity-conservation-engine", False, f"invariant broke at n={n}"
                    )
            if total_parity(outcomes) != initial:
                return CheckResult(
                    "parity-conservation-engine",
                    False,
                    f"parity mismatch at n={n}: {labels}",
                )
            checked += 1
    return CheckResult(
        "parity-conservation-engine",
        True,
        f"{checked} random maximal schedules up to {max_pairs} pairs, exact",
    )


def check_parity_conservation_oracle(
    max_pairs: int = 4, sequences: int = 250, seed: int = 20_26
) -> CheckResult:
    """Same conservation law on the statevector: measure random disjoint
    qubit pairs to exhaustion; sampled branch outcomes must satisfy it."""
    _require_schedules(max_pairs, sequences)
    rng = session_rng(seed)
    checked = 0
    for n in range(1, max_pairs + 1):
        for _ in range(sequences):
            labels = _random_labels(rng, n)
            state = prepare_pairs(labels)
            initial = total_parity(labels)
            live = list(range(2 * n))
            outcomes = []
            while live:
                i, j = sorted(rng.choice(len(live), size=2, replace=False))
                q1, q2 = live[i], live[j]
                outcome, state = bell_measure_collapse(state, q1, q2, rng)
                outcomes.append(outcome)
                del live[j], live[i]
            if total_parity(outcomes) != initial:
                return CheckResult(
                    "parity-conservation-oracle",
                    False,
                    f"parity mismatch at n={n}: {labels}",
                )
            checked += 1
    return CheckResult(
        "parity-conservation-oracle",
        True,
        f"{checked} random maximal schedules up to {max_pairs} pairs, exact per branch",
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
