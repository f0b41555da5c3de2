"""Acceptance suite: one check per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines with measured values and runtimes (with default capture the
lines still appear for any failing criterion, and ``-rA`` shows all of them).
The heaviest criterion (Monte Carlo pass probability at a million trials per
pair count) takes a few minutes; everything else finishes in seconds.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

from qct.adversary import Strategy, run_cheat_experiment, run_fake_sequence_attack
from qct.analysis import (
    MODEL_DISCREPANCY_NOTE,
    min_gamma,
    pass_prob_closed_form,
    pass_prob_composition_sum,
    pass_prob_permutation_model,
    pass_prob_permutation_model_exact,
)
from qct.bell import PauliLabel, total_parity
from qct.crosscheck import (
    check_parity_conservation_engine,
    check_parity_conservation_oracle,
    check_residual_rule,
    check_swap_distribution_exact,
    check_swap_distribution_sampled,
)
from qct.protocol import SessionConfig, Verdict, run_honest
from qct.seeding import session_rng, trial_rng


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, cap: float) -> None:
    status = "PASS" if ok and elapsed < cap else "FAIL"
    print(
        f"[{status}] criterion {num} {name}: {detail} ({elapsed:.2f}s < {cap:.0f}s)",
        flush=True,
    )
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < cap, f"criterion {num} ran {elapsed:.2f}s, cap {cap:.0f}s"


def test_criterion_1_composition_sum_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 65):
        reference = pass_prob_closed_form(n)
        worst = max(worst, abs(pass_prob_composition_sum(n) - reference) / reference)
    ok = worst <= 1e-12
    _report(
        1,
        "composition-sum identity",
        ok,
        f"sum equals (5/8)^(N-1) for N=1..64, max rel err {worst:.2e} <= 1e-12",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_2_eleven_pair_design_point():
    start = time.perf_counter()
    p11 = pass_prob_closed_form(11)
    g11 = min_gamma(11, 0.01)
    ok = abs(p11 - 0.009095) <= 1e-6 and abs(g11 - 0.9991) <= 5e-5
    _report(
        2,
        "eleven-pair design point",
        ok,
        f"P(11)={p11!r} (0.009095 +/- 1e-6), min_gamma(11, 0.01)={g11!r} (0.9991 +/- 5e-5)",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_3_parity_conservation():
    start = time.perf_counter()
    engine = check_parity_conservation_engine(max_pairs=4, sequences=1000, seed=2026)
    oracle = check_parity_conservation_oracle(max_pairs=4, sequences=1000, seed=2026)
    ok = engine.passed and oracle.passed
    _report(
        3,
        "total-parity conservation",
        ok,
        f"engine[{engine.detail}]; oracle[{oracle.detail}]",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_4_engine_oracle_equivalence():
    start = time.perf_counter()
    residual = check_residual_rule()
    exact = check_swap_distribution_exact()
    sampled = check_swap_distribution_sampled(samples=100_000, seed=2026)
    ok = residual.passed and exact.passed and sampled.passed
    _report(
        4,
        "engine/oracle equivalence",
        ok,
        f"residual[{residual.detail}]; exact[{exact.detail}]; sampled[{sampled.detail}]",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_5_honest_protocol():
    start = time.perf_counter()
    sessions = 100_000
    rng = session_rng(2026)
    config = SessionConfig(n_pairs=4, seed=2026)
    accepts = heads = coins_equal = 0
    for _ in range(sessions):
        transcript = run_honest(config, rng)
        if transcript.verdict is Verdict.ACCEPT:
            accepts += 1
        heads += transcript.coin == 1
        coins_equal += transcript.alice_coin == transcript.bob_coin
    freq = heads / sessions
    ok = accepts == sessions and abs(freq - 0.5) <= 0.005 and coins_equal == sessions
    _report(
        5,
        "honest protocol",
        ok,
        f"accepts={accepts}/{sessions}, coin freq={freq!r} (0.5 +/- 0.005), "
        f"coins equal in {coins_equal}/{sessions}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_6_coin_forcing():
    start = time.perf_counter()
    trials = 10_000
    rates = []
    ok = True
    for n in (2, 5):
        for flip in PauliLabel:
            report = run_cheat_experiment(
                SessionConfig(n_pairs=n, seed=2026), Strategy.reflect(flip), trials
            )
            rates.append(f"N={n},{flip.name}:{report.forced_coin_rate:g}")
            ok = ok and report.forced_coin_rate == 1.0
    _report(
        6,
        "reflect coin forcing",
        ok,
        f"coin = flip parity in 100% of {trials} runs for " + " ".join(rates),
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_7_simulated_pass_probability():
    start = time.perf_counter()
    trials = 1_000_000
    lines, ok = [], True
    for n in (2, 3, 4):
        report = run_cheat_experiment(
            SessionConfig(n_pairs=n, seed=2026), Strategy.reflect(PauliLabel.I), trials
        )
        simulated_model = pass_prob_permutation_model(n)
        reference_curve = pass_prob_closed_form(n)
        ok = ok and report.ci_low <= simulated_model <= report.ci_high
        lines.append(
            f"    N={n}: estimate={report.estimate!r} "
            f"CI=[{report.ci_low!r}, {report.ci_high!r}] "
            f"permutation-model={simulated_model!r} "
            f"(exact {pass_prob_permutation_model_exact(n)}) "
            f"reference-curve={reference_curve!r}"
        )
    detail = (
        f"95% CI brackets the permutation model at {trials} trials for N=2,3,4; "
        f"note: {MODEL_DISCREPANCY_NOTE}"
    )
    print("\n".join(lines), flush=True)
    _report(7, "simulated pass probability", ok, detail, time.perf_counter() - start, 300.0)
    assert pass_prob_permutation_model_exact(2) == Fraction(5, 8)  # N=2 agrees with the curve
    assert pass_prob_permutation_model_exact(4) == Fraction(35, 256)


def test_criterion_8_fake_sequence_futility():
    start = time.perf_counter()
    trials = 100_000
    desired = 1
    config = SessionConfig(n_pairs=2, seed=2026)
    wins = parity_equal = 0
    for i in range(trials):
        run = run_fake_sequence_attack(config, desired, trial_rng(config.seed, i))
        wins += run.bob_coin == desired
        parity_equal += total_parity(run.transcript.alice_outcomes) == total_parity(
            run.transcript.bob_outcomes
        )
    freq = wins / trials
    ok = abs(freq - 0.5) <= 0.005 and parity_equal == trials
    _report(
        8,
        "fake-sequence futility",
        ok,
        f"desired-coin freq={freq!r} (0.5 +/- 0.005), "
        f"party parities equal in {parity_equal}/{trials} runs",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    env = {k: v for k, v in os.environ.items() if k != "QCT_SEED"}
    commands = [
        ["toss", "--n-pairs", "4", "--seed", "6", "--format", "json"],
        ["cheat", "--n-pairs", "2", "--trials", "500", "--seed", "6", "--format", "csv"],
        ["cheat", "--strategy", "fake-seq", "--n-pairs", "3", "--trials", "500",
         "--seed", "6", "--format", "json"],
        ["analyze", "--n-pairs", "5", "--seed", "6", "--format", "csv"],
        ["verify", "--samples", "20000", "--sequences", "8", "--max-pairs", "2",
         "--seed", "6", "--format", "json"],
    ]
    ok = True
    for k, argv in enumerate(commands):
        outs, files = [], []
        for i in range(2):
            path = tmp_path / f"c{k}-run{i}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "qct", *argv, "--out", str(path)],
                capture_output=True,
                env=env,
            )
            ok = ok and proc.returncode == 0
            outs.append(proc.stdout)
            files.append(path.read_bytes())
        ok = ok and outs[0] == outs[1] and files[0] == files[1]
    _report(
        9,
        "CLI determinism",
        ok,
        f"{len(commands)} commands x 2 runs: stdout and --out files byte-identical",
        time.perf_counter() - start,
        120.0,
    )
