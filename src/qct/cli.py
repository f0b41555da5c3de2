"""Command-line harness: toss, cheat, analyze, verify.

All output is deterministic for a given seed: floats are printed in
shortest round-trip form, rows are canonically sorted, and nothing
time- or machine-dependent is emitted. The seed comes from --seed, then
the QCT_SEED environment variable, then 0, and must lie in 0..2**64 - 1.

Exit codes: 0 success, 2 invalid configuration, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import operator
import os
import sys
from typing import Any, Callable, Iterable, Sequence as TypingSequence

from . import analysis
from .adversary import Strategy, run_cheat_experiment
from .bell import PauliLabel
from .crosscheck import run_all
from .oracle import MAX_QUBITS
from .protocol import (
    CoinAnnouncement,
    Message,
    NoiseModel,
    ParticleBatch,
    PHASE_NAMES,
    ResultsAnnouncement,
    SequenceAnnouncement,
    SessionConfig,
    SessionTranscript,
    VerdictAnnouncement,
    phase_of,
    run_honest,
)

__all__ = ["main", "transcript_to_jsonl"]

_FORMATS = ("text", "json", "csv")
_ROW_FIELDS = ("n_pairs", "model", "value", "ci_low", "ci_high", "trials", "seed")
_ROW_ORDER = operator.itemgetter("n_pairs", "model")  # sort key of model rows
# Largest --n-pairs per command, from the time and memory measured there (README)
_MAX_PAIRS = {"toss": 100_000, "cheat": 1024, "analyze": 256}
# Largest --trials times --n-pairs of `cheat`, from the time measured at it (README)
_MAX_CHEAT_TRIAL_PAIRS = 1 << 22
# Largest --samples and --sequences of `verify`, from the time measured at them (README)
_MAX_VERIFY = {"samples": 10**9, "sequences": 10**5}


def _payload(message: Message) -> dict[str, Any]:
    if isinstance(message, ParticleBatch):
        return {"particles": [str(p) for p in message.particles]}
    if isinstance(message, SequenceAnnouncement):
        return {"order": list(message.sequence.order)}
    if isinstance(message, ResultsAnnouncement):
        return {"results": [r.bits for r in message.results]}
    if isinstance(message, VerdictAnnouncement):
        return {"verdict": message.verdict.value}
    if isinstance(message, CoinAnnouncement):
        return {"coin": message.coin}
    raise TypeError(f"unknown message type: {message!r}")


def transcript_to_jsonl(transcript: SessionTranscript) -> str:
    """One JSON record per protocol message: {index, phase, sender, payload}."""
    lines = []
    for index, message in enumerate(transcript.messages):
        record = {
            "index": index,
            "phase": PHASE_NAMES[phase_of(message)],
            "sender": message.sender.value,
            "payload": _payload(message),
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def _row(n: int, model: str, value: float, seed: int, ci_low: float | None = None,
         ci_high: float | None = None, trials: int | None = None) -> dict[str, Any]:
    return {"n_pairs": n, "model": model, "value": value, "ci_low": ci_low,
            "ci_high": ci_high, "trials": trials, "seed": seed}


def _reference_rows(n: int, seed: int, p_threshold: float | None = None) -> list[dict[str, Any]]:
    rows = [
        _row(n, "closed-form", analysis.pass_prob_closed_form(n), seed),
        _row(n, "composition-sum", analysis.pass_prob_composition_sum(n), seed),
        _row(n, "permutation-exact", analysis.pass_prob_permutation_model(n), seed),
    ]
    if p_threshold is not None:
        rows.append(_row(n, "min-gamma", analysis.min_gamma(n, p_threshold), seed))
    return rows


def _render(
    fmt: str,
    body: Callable[[], dict[str, Any]],
    header: TypingSequence[str],
    rows: Callable[[], Iterable[TypingSequence[Any]]],
    text: Callable[[], list[str]],
) -> str:
    """A command's output in `fmt`: JSON of `body()`, CSV of `header` over
    `rows()`, or the lines of `text()`. Only the requested one is built.

    The csv module writes None as '' and a float as its repr, the shortest
    round-trip form, which is also what str() and format() give a float."""
    if fmt == "json":
        return json.dumps(body(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
        return buf.getvalue()
    return "\n".join(text()) + "\n"


def _emit(text: str, out_path: str | None, out_text: str | None = None) -> None:
    """Write `out_text` (default `text`) to `out_path`, then `text` to stdout,
    so that a path that cannot be opened fails with nothing on stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text if out_text is None else out_text)
    sys.stdout.write(text)


def _resolve_seed(value: int | None) -> int:
    source, text = (("--seed", value) if value is not None
                    else ("QCT_SEED", os.environ.get("QCT_SEED", "0")))
    try:
        seed = int(text)
    except ValueError:
        raise ValueError(f"QCT_SEED must be an integer, got {text!r}") from None
    if not 0 <= seed < 1 << 64:  # the streams would reduce it to another seed
        raise ValueError(f"{source} must lie in 0..2**64 - 1, got {seed}")
    return seed


# -- subcommands ----------------------------------------------------------


def cmd_toss(args: argparse.Namespace) -> int:
    config = SessionConfig(args.n_pairs, _resolve_seed(args.seed), NoiseModel(args.gamma))
    transcript = run_honest(config)
    coin = "abort" if transcript.coin is None else transcript.coin
    verdict = transcript.verdict.value
    text = _render(
        args.format,
        lambda: {"n_pairs": config.n_pairs, "seed": config.seed, "gamma": args.gamma,
                 "coin": transcript.coin, "verdict": verdict},
        ("n_pairs", "seed", "gamma", "coin", "verdict"),
        lambda: [(config.n_pairs, config.seed, args.gamma, coin, verdict)],
        lambda: [f"n_pairs: {config.n_pairs}", f"seed: {config.seed}",
                 f"verdict: {verdict}", f"coin: {coin}"],
    )
    _emit(text, args.out, transcript_to_jsonl(transcript) if args.out else None)
    return 0


def cmd_cheat(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    config = SessionConfig(args.n_pairs, seed, NoiseModel(args.gamma))
    if args.strategy == "reflect":
        if args.desired is not None:
            raise ValueError("--desired applies to --strategy fake-seq")
        strategy = Strategy.reflect(PauliLabel[args.flip or "I"])
    else:
        if args.flip is not None:
            raise ValueError("--flip applies to --strategy reflect")
        strategy = Strategy.fake_sequence(args.desired or 0)
    report = run_cheat_experiment(config, strategy, args.trials)

    rows = sorted([
        *_reference_rows(config.n_pairs, seed),
        _row(config.n_pairs, "monte-carlo", report.estimate, seed,
             report.ci_low, report.ci_high, report.trials),
    ], key=_ROW_ORDER)
    note = None  # the note compares models of the reflect attack's pass rate
    if args.strategy == "reflect" and config.n_pairs >= 3:
        note = analysis.MODEL_DISCREPANCY_NOTE
    described = report.strategy.describe()
    text = _render(
        args.format,
        lambda: {"strategy": described, "successes": report.successes,
                 "forced_coin_rate": report.forced_coin_rate, "note": note, "rows": rows},
        _ROW_FIELDS,
        lambda: [[row[f] for f in _ROW_FIELDS] for row in rows],
        lambda: [
            f"strategy: {described}  n_pairs: {config.n_pairs}  "
            f"trials: {report.trials}  seed: {seed}",
            f"successes: {report.successes}",
            f"estimate: {report.estimate}  95% CI: [{report.ci_low}, {report.ci_high}]",
            f"forced-coin rate: {report.forced_coin_rate}",
            "",
            f"{'model':<18} {'value':<22}",
            *[f"{row['model']:<18} {row['value']:<22}" for row in rows],
            *([f"note: {note}"] if note else []),
        ],
    )
    _emit(text, args.out)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    seed = _resolve_seed(args.seed)
    # table[n - 1]: the rows of N = n, in column order
    table = [_reference_rows(n, seed, args.p_threshold) for n in range(1, args.n_pairs + 1)]
    rows = sorted([row for n_rows in table for row in n_rows], key=_ROW_ORDER)
    note = analysis.MODEL_DISCREPANCY_NOTE
    text = _render(
        args.format,
        lambda: {"p_threshold": args.p_threshold, "note": note, "rows": rows},
        _ROW_FIELDS,
        lambda: [[row[f] for f in _ROW_FIELDS] for row in rows],
        lambda: [
            f"p_threshold: {args.p_threshold}",
            f"{'N':>3} " + " ".join(f"{row['model']:<22}" for row in table[0]),
            *[f"{n:>3} " + " ".join(f"{row['value']:<22}" for row in n_rows)
              for n, n_rows in enumerate(table, start=1)],
            f"note: {note}",
        ],
    )
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    for option, limit in _MAX_VERIFY.items():
        if getattr(args, option) > limit:
            raise ValueError(f"verify takes at most {limit} {option}, not {getattr(args, option)}")
    results = run_all(
        samples=args.samples,
        sequences=args.sequences,
        max_pairs=args.max_pairs,
        seed=_resolve_seed(args.seed),
        fault_injection=args.inject_fault,
    )
    all_passed = all(r.passed for r in results)
    text = _render(
        args.format,
        lambda: {"passed": all_passed, "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]},
        ("name", "passed", "detail"),
        lambda: [(r.name, "true" if r.passed else "false", r.detail) for r in results],
        lambda: [
            *[f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results],
            "all checks passed" if all_passed else "VERIFICATION FAILED",
        ],
    )
    _emit(text, args.out)
    return 0 if all_passed else 3


# -- parser ---------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `qct` parser, built on first use and shared by later `main` calls
    (parsing keeps no state between calls; seeds resolve at run time)."""
    parser = argparse.ArgumentParser(
        prog="qct",
        description="Two-party quantum coin tossing over entanglement swapping: "
        "simulate honest sessions, evaluate cheating strategies, tabulate "
        "analytical bounds, and cross-check the engine against a statevector oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, n_pairs: bool, gamma: bool) -> None:
        """Options shared by the commands, --n-pairs and --gamma where read."""
        if n_pairs:
            p.add_argument("--n-pairs", type=int, default=4, help="pairs per party (default 4)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed in 0..2**64-1 (default: QCT_SEED, else 0)")
        if gamma:
            p.add_argument("--gamma", type=float, default=1.0,
                           help="per-measurement readout survival rate in (0, 1] "
                           "(default 1 = noiseless)")
        p.add_argument("--format", choices=_FORMATS, default="text")
        p.add_argument("--out", default=None, help="also write the output to this path")

    toss = sub.add_parser("toss", help="run one honest session")
    common(toss, n_pairs=True, gamma=True)
    toss.set_defaults(func=cmd_toss)

    cheat = sub.add_parser("cheat", help="Monte Carlo evaluation of a cheating strategy")
    common(cheat, n_pairs=True, gamma=True)
    cheat.add_argument("--trials", type=int, default=10_000)
    cheat.add_argument("--strategy", choices=("reflect", "fake-seq"), default="reflect")
    # None marks an option not given: the other strategy refuses it
    cheat.add_argument("--flip", choices=tuple(p.name for p in PauliLabel), default=None,
                       help="Pauli flip for the reflect strategy (forces coin = flip "
                       "parity; default I)")
    cheat.add_argument("--desired", type=int, choices=(0, 1), default=None,
                       help="coin value the fake-seq strategy aims for (default 0)")
    cheat.set_defaults(func=cmd_cheat)

    analyze = sub.add_parser("analyze", help="tabulate analytical models for N = 1..n-pairs")
    common(analyze, n_pairs=True, gamma=False)
    analyze.add_argument("--p-threshold", type=float, default=0.01,
                         help="pass-probability bound used for the min-gamma column")
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify", help="engine-vs-oracle equivalence suite")
    common(verify, n_pairs=False, gamma=False)
    verify.add_argument("--samples", type=int, default=100_000,
                        help="samples for the TV distribution check "
                        f"(1..{_MAX_VERIFY['samples']:,})")
    verify.add_argument("--sequences", type=int, default=1000,
                        help="random maximal schedules per pair count "
                        f"(1..{_MAX_VERIFY['sequences']:,})")
    verify.add_argument("--max-pairs", type=int, default=4,
                        help=f"largest pair count in the schedules (1..{MAX_QUBITS // 2})")
    verify.add_argument("--inject-fault", action="store_true",
                        help="negative control: corrupt the swap rule on purpose "
                        "and confirm the suite fails")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: TypingSequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    limit = _MAX_PAIRS.get(args.command)
    try:
        if limit is not None and args.n_pairs > limit:
            raise ValueError(f"{args.command} takes at most {limit} pairs, not {args.n_pairs}")
        trial_pairs = args.trials * args.n_pairs if args.command == "cheat" else 0
        if trial_pairs > _MAX_CHEAT_TRIAL_PAIRS and args.trials > 0:  # not two negatives
            raise ValueError(f"cheat takes at most {_MAX_CHEAT_TRIAL_PAIRS} trials x pairs, "
                             f"not {args.trials} x {args.n_pairs}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
