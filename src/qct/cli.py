"""Command-line harness: toss, cheat, analyze, verify.

All output is deterministic for a given seed: floats are printed in
shortest round-trip form, rows are canonically sorted, and nothing
time- or machine-dependent is emitted. The seed comes from --seed, then
the QCT_SEED environment variable, then 0.

Exit codes: 0 success, 2 invalid configuration, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Any, Sequence as TypingSequence

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
from .seeding import session_rng

__all__ = ["main", "transcript_to_jsonl"]

_FORMATS = ("text", "json", "csv")
_ROW_FIELDS = ("n_pairs", "model", "value", "ci_low", "ci_high", "trials", "seed")


def _fmt(value: Any) -> str:
    """Shortest round-trip for floats, plain str otherwise, '' for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    return "\n".join(lines) + "\n"


def _reference_rows(n: int, seed: int, p_threshold: float | None = None) -> list[dict[str, Any]]:
    rows = [
        {"n_pairs": n, "model": "closed-form", "value": analysis.pass_prob_closed_form(n),
         "ci_low": None, "ci_high": None, "trials": None, "seed": seed},
        {"n_pairs": n, "model": "composition-sum", "value": analysis.pass_prob_composition_sum(n),
         "ci_low": None, "ci_high": None, "trials": None, "seed": seed},
        {"n_pairs": n, "model": "permutation-exact", "value": analysis.pass_prob_permutation_model(n),
         "ci_low": None, "ci_high": None, "trials": None, "seed": seed},
    ]
    if p_threshold is not None:
        rows.append(
            {"n_pairs": n, "model": "min-gamma", "value": analysis.min_gamma(n, p_threshold),
             "ci_low": None, "ci_high": None, "trials": None, "seed": seed}
        )
    return rows


def _rows_to_csv(rows: list[dict[str, Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_ROW_FIELDS)
    for row in sorted(rows, key=lambda r: (r["n_pairs"], r["model"])):
        writer.writerow([_fmt(row[f]) for f in _ROW_FIELDS])
    return buf.getvalue()


def _rows_to_json(rows: list[dict[str, Any]], extra: dict[str, Any]) -> str:
    body = dict(extra)
    body["rows"] = sorted(rows, key=lambda r: (r["n_pairs"], r["model"]))
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path: str | None, out_text: str | None = None) -> None:
    """Write `out_text` (default `text`) to `out_path`, then `text` to stdout,
    so that a path that cannot be opened fails with nothing on stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text if out_text is None else out_text)
    sys.stdout.write(text)


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("QCT_SEED")
    if env is None:
        return 0
    return int(env)


def _noise(gamma: float) -> NoiseModel | None:
    """No noise at exactly 1; NoiseModel rejects anything outside (0, 1]."""
    return None if gamma == 1.0 else NoiseModel(gamma)


# -- subcommands ----------------------------------------------------------


def cmd_toss(args: argparse.Namespace) -> int:
    config = SessionConfig(args.n_pairs, _resolve_seed(args.seed), _noise(args.gamma))
    transcript = run_honest(config, session_rng(config.seed))
    coin = "abort" if transcript.coin is None else transcript.coin
    if args.format == "json":
        body = {
            "n_pairs": config.n_pairs,
            "seed": config.seed,
            "gamma": args.gamma,
            "coin": transcript.coin,
            "verdict": transcript.verdict.value,
        }
        text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n_pairs", "seed", "gamma", "coin", "verdict"])
        writer.writerow(
            [config.n_pairs, config.seed, _fmt(args.gamma), coin, transcript.verdict.value]
        )
        text = buf.getvalue()
    else:
        text = (
            f"n_pairs: {config.n_pairs}\nseed: {config.seed}\n"
            f"verdict: {transcript.verdict.value}\ncoin: {coin}\n"
        )
    _emit(text, args.out, transcript_to_jsonl(transcript) if args.out else None)
    return 0


def cmd_cheat(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    config = SessionConfig(args.n_pairs, seed, _noise(args.gamma))
    if args.strategy == "reflect":
        strategy = Strategy.reflect(PauliLabel[args.flip])
    else:
        strategy = Strategy.fake_sequence(args.desired)
    report = run_cheat_experiment(config, strategy, args.trials)

    rows = _reference_rows(config.n_pairs, seed)
    rows.append(
        {"n_pairs": config.n_pairs, "model": "monte-carlo", "value": report.estimate,
         "ci_low": report.ci_low, "ci_high": report.ci_high,
         "trials": report.trials, "seed": seed}
    )
    note = analysis.MODEL_DISCREPANCY_NOTE if config.n_pairs >= 3 else None

    if args.format == "csv":
        text = _rows_to_csv(rows)
    elif args.format == "json":
        extra = {
            "strategy": report.strategy.describe(),
            "successes": report.successes,
            "forced_coin_rate": report.forced_coin_rate,
            "note": note,
        }
        text = _rows_to_json(rows, extra)
    else:
        lines = [
            f"strategy: {report.strategy.describe()}  n_pairs: {config.n_pairs}  "
            f"trials: {report.trials}  seed: {seed}",
            f"successes: {report.successes}",
            f"estimate: {_fmt(report.estimate)}  "
            f"95% CI: [{_fmt(report.ci_low)}, {_fmt(report.ci_high)}]",
            f"forced-coin rate: {_fmt(report.forced_coin_rate)}",
            "",
            f"{'model':<18} {'value':<22}",
        ]
        for row in sorted(rows, key=lambda r: (r["n_pairs"], r["model"])):
            lines.append(f"{row['model']:<18} {_fmt(row['value']):<22}")
        if note:
            lines.append(f"note: {note}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    seed = _resolve_seed(args.seed)
    rows: list[dict[str, Any]] = []
    for n in range(1, args.n_pairs + 1):
        rows.extend(_reference_rows(n, seed, p_threshold=args.p_threshold))
    note = analysis.MODEL_DISCREPANCY_NOTE

    if args.format == "csv":
        text = _rows_to_csv(rows)
    elif args.format == "json":
        text = _rows_to_json(rows, {"p_threshold": args.p_threshold, "note": note})
    else:
        by_n: dict[int, dict[str, float]] = {}
        for row in rows:
            by_n.setdefault(row["n_pairs"], {})[row["model"]] = row["value"]
        header = (
            f"{'N':>3} {'closed-form':<22} {'composition-sum':<22} "
            f"{'permutation-exact':<22} {'min-gamma':<22}"
        )
        lines = [f"p_threshold: {_fmt(args.p_threshold)}", header]
        for n in sorted(by_n):
            vals = by_n[n]
            lines.append(
                f"{n:>3} {_fmt(vals['closed-form']):<22} {_fmt(vals['composition-sum']):<22} "
                f"{_fmt(vals['permutation-exact']):<22} {_fmt(vals['min-gamma']):<22}"
            )
        lines.append(f"note: {note}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(
        samples=args.samples,
        sequences=args.sequences,
        max_pairs=args.max_pairs,
        seed=_resolve_seed(args.seed),
        fault_injection=args.inject_fault,
    )
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        body = {
            "passed": all_passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        }
        text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "passed", "detail"])
        for r in results:
            writer.writerow([r.name, str(r.passed).lower(), r.detail])
        text = buf.getvalue()
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
        lines.append("all checks passed" if all_passed else "VERIFICATION FAILED")
        text = "\n".join(lines) + "\n"
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
                       help="master seed (default: QCT_SEED env var, else 0)")
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
    cheat.add_argument("--flip", choices=tuple(p.name for p in PauliLabel), default="I",
                       help="Pauli flip for the reflect strategy (forces coin = flip parity)")
    cheat.add_argument("--desired", type=int, choices=(0, 1), default=0,
                       help="coin value the fake-seq strategy aims for")
    cheat.set_defaults(func=cmd_cheat)

    analyze = sub.add_parser("analyze", help="tabulate analytical models for N = 1..n-pairs")
    common(analyze, n_pairs=True, gamma=False)
    analyze.add_argument("--p-threshold", type=float, default=0.01,
                         help="pass-probability bound used for the min-gamma column")
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify", help="engine-vs-oracle equivalence suite")
    common(verify, n_pairs=False, gamma=False)
    verify.add_argument("--samples", type=int, default=100_000,
                        help="samples for the TV distribution check (at least 1)")
    verify.add_argument("--sequences", type=int, default=1000,
                        help="random maximal schedules per pair count (at least 1)")
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
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
