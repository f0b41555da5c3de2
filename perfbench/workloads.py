"""The benchmark's three workloads.

Each workload runs in whole rounds: a round is a fixed mix of operations
whose inputs follow from the workload seed and the round index. A round
counts the operations it attempted and the ones that failed (raised, or
exited with an error code) and times the sessions it ran per pair count.
An operation only calls the program; its output is checked against
`checks` by `check`, after the round's clock has stopped. Statistical
checks pool the whole run and are made by `finish`.

Program functions are looked up on their module at call time
(``protocol.run_honest``), so that a `tracing.Tracer` installed between
rounds sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from collections import Counter

from qct import adversary, cli, protocol, seeding
from qct.bell import PauliLabel

import checks

FLIPS = ("I", "X", "Y", "Z")


def derive(seed: int, *parts) -> int:
    """A 63-bit seed for one stream or invocation, from the workload seed."""
    digest = hashlib.blake2b(repr((seed, *parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run `qct <argv>` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _keep(log: list[str], text: str) -> None:
    # The first few are enough for the report; a broken program repeats itself.
    if len(log) < 20:
        log.append(text)


class Workload:
    name = ""
    pair_counts: tuple[int, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # outputs that failed a check
        self.errors: list[str] = []  # operations that failed
        self.sessions: Counter[int] = Counter()  # sessions run, by pair count
        self.busy: Counter[int] = Counter()  # seconds spent on them, by pair count
        self._unchecked: list[tuple] = []

    def round(self) -> None:
        self._round(self.rounds)
        self.rounds += 1

    def _round(self, index: int) -> None:
        raise NotImplementedError

    def _operation(self, op, check, *args) -> None:
        """Run op(*args) and keep its output for check(output, *args). An
        operation that raises is counted as failed, and the correctness
        verdict speaks only of the operations that did not."""
        self.attempted += 1
        try:
            output = op(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            _keep(self.errors, f"{op.__name__}{args}: {type(exc).__name__}: {exc}")
            return
        self._unchecked.append((check, output, args))

    def check(self) -> None:
        """Check the outputs of the operations run since the last call."""
        for check, output, args in self._unchecked:
            try:
                check(output, *args)
            except (KeyError, TypeError, ValueError) as exc:  # malformed output
                _keep(self.problems, f"{check.__name__}{args}: {type(exc).__name__}: {exc}")
        self._unchecked.clear()

    def _expect(self, problem: str | None) -> None:
        if problem is not None:
            _keep(self.problems, problem)

    def finish(self) -> None:
        """Statistical checks over the whole run."""


class ReflectMC(Workload):
    """`qct cheat --strategy reflect` at the pair counts acceptance criterion
    7 gates, every flip in each round."""

    name = "reflect-mc"
    pair_counts = (2, 3, 4)
    trials = 1000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pass_prob = {n: checks.reflect_pass_probability(n) for n in self.pair_counts}
        self.successes: Counter[tuple[int, str]] = Counter()
        self.runs: Counter[tuple[int, str]] = Counter()

    def _round(self, index: int) -> None:
        for n in self.pair_counts:
            for flip in FLIPS:
                start = time.perf_counter()
                self._operation(self._cheat, self._check_cheat, n, flip,
                                derive(self.seed, index, n, flip))
                self.busy[n] += time.perf_counter() - start
                self.sessions[n] += self.trials

    def _cheat(self, n: int, flip: str, seed: int) -> str:
        code, out, err = call_cli([
            "cheat", "--strategy", "reflect", "--n-pairs", str(n), "--trials", str(self.trials),
            "--flip", flip, "--seed", str(seed), "--format", "json",
        ])
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.strip()}")
        return out

    def _check_cheat(self, out: str, n: int, flip: str, seed: int) -> None:
        report = json.loads(out)
        self.successes[n, flip] += report["successes"]
        self.runs[n, flip] += 1
        self._expect(checks.cheat_report(report, n, flip, self.trials, self.pass_prob[n]))

    def finish(self) -> None:
        for (n, flip), runs in sorted(self.runs.items()):
            self._expect(checks.binomial(
                f"reflect pass rate N={n} flip={flip}", self.successes[n, flip],
                runs * self.trials, float(self.pass_prob[n]),
            ))


class Sessions(Workload):
    """Whole sessions with transcripts through the per-session functions:
    at each pair count honest, reflect and fake-sequence sessions, plus
    honest sessions under readout noise at the README's design point."""

    name = "sessions"
    pair_counts = (4, 11, 32)
    per_kind = 300  # sessions of each kind per pair count and round
    noisy_n, gamma = 11, 0.9991

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.honest_rng = seeding.session_rng(derive(seed, "honest"))
        self.stream_seed = {
            (kind, n): derive(seed, kind, n)
            for kind in ("reflect", "fake-seq") for n in self.pair_counts
        }
        self.configs = {n: protocol.SessionConfig(n, seed) for n in self.pair_counts}
        self.noisy_config = protocol.SessionConfig(
            self.noisy_n, seed, protocol.NoiseModel(self.gamma))
        self.noisy_accept = checks.noisy_accept_probability(self.noisy_n, self.gamma)
        # The closed form stands in for enumeration where n! is out of reach;
        # the benchmark's tests cross-check the two for small n.
        self.pass_prob = {n: float(checks.permutation_model(n)) for n in self.pair_counts}
        self.pass_prob[4] = float(checks.reflect_pass_probability(4))
        self.tally: Counter[str] = Counter()

    def _round(self, index: int) -> None:
        for n in self.pair_counts:
            config = self.configs[n]
            start = time.perf_counter()
            for k in range(self.per_kind):
                trial = index * self.per_kind + k
                self._operation(self._honest, self._check_honest, config)
                if n == self.noisy_n:
                    self._operation(self._honest, self._check_honest, self.noisy_config)
                self._operation(self._reflect, self._check_reflect, config,
                                PauliLabel[FLIPS[trial % 4]], trial)
                self._operation(self._fake, self._check_fake, config, trial % 2, trial)
            self.busy[n] += time.perf_counter() - start
            self.sessions[n] += self.per_kind * (4 if n == self.noisy_n else 3)

    def _honest(self, config):
        return protocol.run_honest(config, self.honest_rng)

    def _check_honest(self, transcript, config) -> None:
        noiseless = config.noise is None
        if noiseless:
            self.tally["honest"] += 1
            self.tally["honest-heads"] += transcript.coin == 1
        else:
            self.tally["noisy"] += 1
            self.tally["noisy-accepts"] += str(transcript.verdict) == "accept"
        self._expect(checks.honest(transcript, noiseless))

    def _reflect(self, config, flip, trial: int):
        rng = seeding.trial_rng(self.stream_seed["reflect", config.n_pairs], trial)
        return adversary.run_reflect_attack(config, flip, rng, record_transcript=True)

    def _check_reflect(self, run, config, flip, trial: int) -> None:
        n = config.n_pairs
        self.tally[f"reflect-{n}"] += 1
        self.tally[f"reflect-{n}-passes"] += run.passed
        self._expect(checks.reflect(run, flip))

    def _fake(self, config, desired: int, trial: int):
        rng = seeding.trial_rng(self.stream_seed["fake-seq", config.n_pairs], trial)
        return adversary.run_fake_sequence_attack(config, desired, rng)

    def _check_fake(self, run, config, desired: int, trial: int) -> None:
        self.tally["fake"] += 1
        self.tally["fake-wins"] += run.bob_coin == desired
        self._expect(checks.fake_sequence(run))

    def finish(self) -> None:
        t = self.tally
        self._expect(checks.binomial("honest coin = 1", t["honest-heads"], t["honest"], 0.5))
        self._expect(checks.binomial(
            f"noisy accepts N={self.noisy_n} gamma={self.gamma}",
            t["noisy-accepts"], t["noisy"], self.noisy_accept,
        ))
        self._expect(checks.binomial("fake-seq desired coin", t["fake-wins"], t["fake"], 0.5))
        for n in self.pair_counts:
            self._expect(checks.binomial(
                f"reflect pass rate N={n}", t[f"reflect-{n}-passes"], t[f"reflect-{n}"],
                self.pass_prob[n],
            ))


class Verify(Workload):
    """`qct verify` at its defaults, then the same with the fault injected."""

    name = "verify"

    def _round(self, index: int) -> None:
        seed = derive(self.seed, index)
        self._operation(self._verify, self._check_verify, seed, False)
        self._operation(self._verify, self._check_verify, seed, True)

    def _verify(self, seed: int, fault: bool) -> tuple[int, str]:
        argv = ["verify", "--seed", str(seed), "--format", "json"]
        code, out, err = call_cli(argv + ["--inject-fault"] if fault else argv)
        if code not in (0, 3):
            raise RuntimeError(f"exit {code}: {err.strip()}")
        return code, out

    def _check_verify(self, output: tuple[int, str], seed: int, fault: bool) -> None:
        code, out = output
        self._expect(checks.verify_report(code, json.loads(out), fault))


WORKLOADS = {w.name: w for w in (ReflectMC, Sessions, Verify)}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
