"""Correctness references and checks for the qct benchmark.

The references are computed here, apart from ``qct.analysis``: the reflect
attack's pass probability by enumerating every permutation and counting its
cycles, and the noisy honest accept rate from the per-index corruption
model. Every check returns ``None`` when the program's output agrees with
its reference and a one-line description of the disagreement otherwise, so
that a test can feed each check a wrong reference or a wrong output and see
it fail.

Outcomes are compared through their two-bit label values ``(hi << 1) | lo``;
the coin is the XOR of ``hi ^ lo`` over the outcomes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# Protocol messages in their fixed order as (class name, sender); the coin
# announcement may come from either party and is absent when Alice aborts.
PHASES = (
    ("ParticleBatch", "alice"),
    ("ParticleBatch", "bob"),
    ("SequenceAnnouncement", "alice"),
    ("ResultsAnnouncement", "bob"),
    ("VerdictAnnouncement", "alice"),
    ("CoinAnnouncement", None),
)

VERIFY_CHECKS = (
    "pauli-action-16",
    "residual-rule-64",
    "swap-distribution-exact",
    "swap-distribution-sampled",
    "parity-conservation-engine",
    "parity-conservation-oracle",
)
# The check the fault injection corrupts; every other check still passes.
FAULTED_CHECK = "residual-rule-64"

# Width of the statistical checks: a count may stray SIGMAS standard
# deviations plus SLACK from its mean. Wide on purpose, so that a correct
# program fed a different random stream still passes; SLACK keeps the bound
# honest when the expected count is near zero.
SIGMAS = 5.0
SLACK = 2.0


def cycle_count(perm: tuple[int, ...]) -> int:
    """Number of cycles of a permutation of 0..n-1."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return cycles


def enumerated_pass_probability(n: int) -> Fraction:
    """Reflect pass probability by enumerating all n! claimed-order errors.

    A permutation with m cycles is survived with probability 4**(m - n).
    """
    by_cycles = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        by_cycles[cycle_count(perm)] += 1
    passes = sum(count * 4**m for m, count in enumerate(by_cycles))
    return Fraction(passes, math.factorial(n) * 4**n)


def permutation_model(n: int) -> Fraction:
    """Closed form of the same average: (n+1)(n+2)(n+3) / (6 * 4**n)."""
    return Fraction((n + 1) * (n + 2) * (n + 3), 6 * 4**n)


def reflect_pass_probability(n: int) -> Fraction:
    """Enumerated pass probability, cross-checked against the closed form."""
    enumerated = enumerated_pass_probability(n)
    if enumerated != permutation_model(n):
        raise ArithmeticError(f"N={n}: enumeration {enumerated} != closed form")
    return enumerated


def noisy_accept_probability(n: int, gamma: float) -> float:
    """Honest accept rate when both parties' records are corrupted.

    Each record survives with probability gamma, otherwise it becomes one of
    the three other labels; an index matches when both survive or both turn
    into the same label.
    """
    return (gamma**2 + (1.0 - gamma) ** 2 / 3.0) ** n


def coin_of(outcomes) -> int:
    acc = 0
    for label in outcomes:
        value = int(label)
        acc ^= (value >> 1) ^ (value & 1)
    return acc


def flip_parity(flip) -> int:
    value = int(flip)
    return (value >> 1) ^ (value & 1)


def binomial(what: str, successes: int, trials: int, p: float) -> str | None:
    """The count lies within SIGMAS standard deviations (plus SLACK) of trials * p."""
    mean = trials * p
    bound = SIGMAS * math.sqrt(trials * p * (1.0 - p)) + SLACK
    if abs(successes - mean) <= bound:
        return None
    return f"{what}: {successes}/{trials}, expected {mean:.2f} +/- {bound:.2f}"


def phase_order(messages, coin_expected: bool) -> str | None:
    expected = PHASES if coin_expected else PHASES[:-1]
    got = [(type(m).__name__, str(m.sender)) for m in messages]
    if len(got) == len(expected) and all(
        kind == want_kind and (want_sender is None or sender == want_sender)
        for (kind, sender), (want_kind, want_sender) in zip(got, expected)
    ):
        return None
    return f"messages out of the six-phase order: {got}"


def _announced(transcript) -> str | None:
    """The announced results, verdict and coin agree with the records."""
    by_kind = {type(m).__name__: m for m in transcript.messages}
    results = by_kind.get("ResultsAnnouncement")
    if results is not None and tuple(results.results) != tuple(transcript.bob_outcomes):
        return "announced results differ from Bob's record"
    verdict = by_kind.get("VerdictAnnouncement")
    if verdict is not None and verdict.verdict != transcript.verdict:
        return "announced verdict differs from the transcript's"
    coin = by_kind.get("CoinAnnouncement")
    if coin is not None and coin.coin != transcript.coin:
        return "announced coin differs from the transcript's"
    return None


def honest(transcript, noiseless: bool) -> str | None:
    """An honest session: accepted exactly when both records agree index by
    index (always, without noise), and then its coin is the outcomes' XOR."""
    alice = tuple(int(o) for o in transcript.alice_outcomes)
    bob = tuple(int(o) for o in transcript.bob_outcomes)
    n = transcript.config.n_pairs
    if len(alice) != n or len(bob) != n:
        return f"expected {n} outcomes per party, got {len(alice)} and {len(bob)}"
    if noiseless and alice != bob:
        return f"noiseless outcomes differ: {alice} vs {bob}"
    accepted = str(transcript.verdict) == "accept"
    if accepted != (alice == bob):
        return f"verdict {transcript.verdict} with outcomes {alice} vs {bob}"
    want_coin = coin_of(alice) if accepted else None
    if transcript.coin != want_coin:
        return f"coin {transcript.coin}, expected {want_coin}"
    return phase_order(transcript.messages, accepted) or _announced(transcript)


def reflect(run, flip) -> str | None:
    """A reflect session: the coin is the flip's parity and Alice passes Bob
    exactly when his fabricated results equal hers."""
    want = flip_parity(flip)
    if run.coin != want:
        return f"reflect coin {run.coin}, flip parity {want}"
    transcript = run.transcript
    if coin_of(transcript.alice_outcomes) != want:
        return "reflect coin differs from the XOR of Alice's outcomes"
    matched = tuple(map(int, transcript.alice_outcomes)) == tuple(map(int, transcript.bob_outcomes))
    if run.passed != matched:
        return f"passed={run.passed} but results matched={matched}"
    if transcript.coin != (want if run.passed else None):
        return f"transcript coin {transcript.coin} with passed={run.passed}"
    return phase_order(transcript.messages, run.passed) or _announced(transcript)


def fake_sequence(run) -> str | None:
    """A fake-sequence session: both parties' outcome parities agree whatever
    order Alice announced, and Bob's coin is the XOR of his outcomes."""
    transcript = run.transcript
    alice, bob = coin_of(transcript.alice_outcomes), coin_of(transcript.bob_outcomes)
    if alice != bob:
        return f"party parities differ: alice {alice}, bob {bob}"
    if run.bob_coin != bob or transcript.coin != bob:
        return f"Bob's coin {run.bob_coin}, XOR of his outcomes {bob}"
    return phase_order(transcript.messages, True) or _announced(transcript)


def cheat_report(report: dict, n: int, flip: str, trials: int, p: Fraction) -> str | None:
    """`qct cheat --strategy reflect --format json` output for one invocation."""
    if report.get("strategy") != f"reflect(flip={flip})":
        return f"strategy {report.get('strategy')!r}, expected reflect(flip={flip})"
    if report.get("forced_coin_rate") != 1.0:
        return f"N={n} flip={flip}: forced-coin rate {report.get('forced_coin_rate')}, expected 1"
    rows = {row["model"]: row for row in report.get("rows", [])}
    mc = rows.get("monte-carlo", {})
    if mc.get("trials") != trials or mc.get("n_pairs") != n:
        return f"monte-carlo row {mc}, expected N={n} and {trials} trials"
    if mc.get("value") != report.get("successes", -1) / trials:
        return f"estimate {mc.get('value')} != successes/trials"
    model = rows.get("permutation-exact", {}).get("value")
    if model is None or not math.isclose(model, float(p), rel_tol=1e-12):
        return f"N={n}: permutation-exact {model}, enumerated {float(p)!r}"
    return None


def verify_report(exit_code: int, report: dict, fault: bool) -> str | None:
    """`qct verify --format json`: all six checks pass and it exits 0, or,
    with the fault injected, only the residual rule fails and it exits 3."""
    want_code = 3 if fault else 0
    if exit_code != want_code:
        return f"verify (fault={fault}) exited {exit_code}, expected {want_code}"
    checks = {c["name"]: c["passed"] for c in report.get("checks", [])}
    if tuple(checks) != VERIFY_CHECKS:
        return f"verify ran checks {tuple(checks)}, expected {VERIFY_CHECKS}"
    failing = tuple(name for name, passed in checks.items() if not passed)
    want_failing = (FAULTED_CHECK,) if fault else ()
    if failing != want_failing or report.get("passed") != (not fault):
        return f"verify (fault={fault}) failed {failing}, expected {want_failing}"
    return None
