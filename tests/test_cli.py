"""CLI behaviour: formats, determinism, seeds, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qct import cli
from qct.cli import main
from qct.bell import Party
from qct.protocol import (
    Sequence,
    SequenceAnnouncement,
    SessionConfig,
    SessionTranscript,
    run_honest,
)

GOLDEN = Path(__file__).parent / "golden"

_SENDERS = ["alice", "bob", "alice", "bob", "alice", "alice"]
_PHASES = [
    "alice-particles",
    "bob-particles",
    "sequence-announcement",
    "results-announcement",
    "verdict",
    "coin",
]


def _run_inproc(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_subprocess(argv, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "QCT_SEED"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qct", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestToss:
    def test_text_fields(self, capsys):
        code, out, _ = _run_inproc(["toss", "--n-pairs", "3", "--seed", "5"], capsys)
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        assert fields["n_pairs"] == "3"
        assert fields["seed"] == "5"
        assert fields["verdict"] == "accept"
        assert fields["coin"] in {"0", "1"}

    def test_json_parses(self, capsys):
        code, out, _ = _run_inproc(
            ["toss", "--n-pairs", "2", "--seed", "1", "--format", "json"], capsys
        )
        assert code == 0
        body = json.loads(out)
        assert body["verdict"] == "accept"
        assert body["coin"] in (0, 1)
        assert body["gamma"] == 1.0

    def test_csv_parses(self, capsys):
        code, out, _ = _run_inproc(
            ["toss", "--n-pairs", "2", "--seed", "1", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["verdict"] == "accept"
        assert rows[0]["gamma"] == "1.0"

    def test_transcript_jsonl(self, capsys, tmp_path):
        path = tmp_path / "session.jsonl"
        code, _, _ = _run_inproc(
            ["toss", "--n-pairs", "4", "--seed", "9", "--out", str(path)], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["index"] for r in records] == list(range(6))
        assert [r["phase"] for r in records] == _PHASES
        assert [r["sender"] for r in records] == _SENDERS
        order = records[2]["payload"]["order"]
        assert sorted(order) == [1, 2, 3, 4]
        # Alice ships odd halves in her secret order; Bob ships in pair order
        assert records[0]["payload"]["particles"] == [f"alice:{2 * m - 1}" for m in order]
        assert records[1]["payload"]["particles"] == ["bob:1", "bob:3", "bob:5", "bob:7"]
        results = records[3]["payload"]["results"]
        assert len(results) == 4 and all(len(b) == 2 for b in results)
        assert records[5]["payload"]["coin"] in (0, 1)

    def test_transcript_jsonl_lines_are_records(self):
        # a transcript with no messages is no line at all, not one blank line
        assert cli.transcript_to_jsonl(SessionTranscript(SessionConfig(2))) == ""
        text = cli.transcript_to_jsonl(run_honest(SessionConfig(4, seed=9)))
        lines = text.splitlines(keepends=True)
        assert len(lines) == 6 and all(line.endswith("\n") for line in lines)
        assert [json.loads(line)["index"] for line in lines] == list(range(6))

    def test_numpy_int_sequence_serialises(self):
        # the announced order's numpy entries are stored as ints
        messages = run_honest(SessionConfig(2, seed=1)).messages[:2]
        order = Sequence((np.int64(2), np.int64(1)))
        transcript = SessionTranscript(
            SessionConfig(2), [*messages, SequenceAnnouncement(Party.ALICE, order)])
        records = [json.loads(line) for line in cli.transcript_to_jsonl(transcript).splitlines()]
        assert len(records) == 3 and records[2]["payload"]["order"] == [2, 1]

    def test_rejected_noisy_session_aborts(self, capsys):
        # gamma far below 1 makes a mismatch overwhelmingly likely at N=8
        code, out, _ = _run_inproc(
            ["toss", "--n-pairs", "8", "--seed", "2", "--gamma", "0.5"], capsys
        )
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        assert fields["verdict"] == "reject"
        assert fields["coin"] == "abort"


class TestCheat:
    ARGS = ["cheat", "--n-pairs", "2", "--trials", "300", "--seed", "11"]

    def test_text_contains_models(self, capsys):
        code, out, _ = _run_inproc(self.ARGS, capsys)
        assert code == 0
        for model in ("closed-form", "composition-sum", "permutation-exact", "monte-carlo"):
            assert model in out
        assert "forced-coin rate: 1.0" in out

    def test_json_rows_sorted_and_bracketing(self, capsys):
        code, out, _ = _run_inproc([*self.ARGS, "--format", "json"], capsys)
        assert code == 0
        body = json.loads(out)
        models = [r["model"] for r in body["rows"] ]
        assert models == sorted(models)
        mc = next(r for r in body["rows"] if r["model"] == "monte-carlo")
        assert mc["ci_low"] <= 0.625 <= mc["ci_high"]
        assert mc["trials"] == 300
        assert body["forced_coin_rate"] == 1.0
        assert body["note"] is None  # discrepancy note only appears for N >= 3

    def test_note_flagged_from_three_pairs(self, capsys):
        code, out, _ = _run_inproc(
            ["cheat", "--n-pairs", "3", "--trials", "50", "--seed", "1",
             "--format", "json"], capsys
        )
        assert code == 0
        assert "permutation-exact" in json.loads(out)["note"]

    def test_no_note_for_fake_sequence(self, capsys):
        # the note speaks of the reflect attack's models, not P(coin = desired)
        argv = ["cheat", "--strategy", "fake-seq", "--n-pairs", "3", "--trials", "50"]
        code, out, _ = _run_inproc([*argv, "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["note"] is None
        code, out, _ = _run_inproc([*argv, "--format", "text"], capsys)
        assert code == 0 and "note:" not in out

    def test_csv_json_numeric_identity(self, capsys):
        code, csv_out, _ = _run_inproc([*self.ARGS, "--format", "csv"], capsys)
        assert code == 0
        code, json_out, _ = _run_inproc([*self.ARGS, "--format", "json"], capsys)
        assert code == 0
        csv_rows = {r["model"]: r for r in csv.DictReader(io.StringIO(csv_out))}
        for row in json.loads(json_out)["rows"]:
            csv_row = csv_rows[row["model"]]
            assert csv_row["value"] == repr(row["value"])
            for field in ("ci_low", "ci_high", "trials"):
                expected = "" if row[field] is None else repr(row[field]) \
                    if isinstance(row[field], float) else str(row[field])
                assert csv_row[field] == expected

    def test_fake_sequence_strategy(self, capsys):
        code, out, _ = _run_inproc(
            ["cheat", "--strategy", "fake-seq", "--desired", "1", "--n-pairs", "2",
             "--trials", "400", "--seed", "3", "--format", "json"], capsys
        )
        assert code == 0
        body = json.loads(out)
        assert "fake-seq" in body["strategy"]
        mc = next(r for r in body["rows"] if r["model"] == "monte-carlo")
        assert 0.35 < mc["value"] < 0.65  # lying never forces the coin

    @pytest.mark.parametrize(
        "argv",
        [["--n-pairs", "11", "--trials", "5000", "--seed", "1"],
         ["--n-pairs", "32", "--trials", "2000", "--seed", "1"],  # no successes
         ["--n-pairs", "1", "--trials", "10"]],  # all successes
        ids=["n11-design-point", "n32-none-pass", "n1-all-pass"],
    )
    def test_interval_brackets_estimate(self, capsys, argv):
        code, out, err = _run_inproc(["cheat", *argv, "--format", "json"], capsys)
        assert code == 0, err
        mc = next(r for r in json.loads(out)["rows"] if r["model"] == "monte-carlo")
        assert mc["ci_low"] <= mc["value"] <= mc["ci_high"]
        if mc["value"] == 0.0:
            assert mc["ci_low"] == 0.0
        if mc["value"] == 1.0:
            assert mc["ci_high"] == 1.0

    @pytest.mark.parametrize("argv, option, strategy", [
        (["--strategy", "reflect", "--desired", "1"], "--desired", "fake-seq"),
        (["--desired", "0"], "--desired", "fake-seq"),
        (["--strategy", "fake-seq", "--flip", "X"], "--flip", "reflect"),
        (["--strategy", "fake-seq", "--flip", "I", "--desired", "1"], "--flip", "reflect"),
    ])
    def test_option_of_the_other_strategy_exits_two(self, capsys, argv, option, strategy):
        code, out, err = _run_inproc(["cheat", *argv, "--trials", "10"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {option} applies to --strategy {strategy}\n"

    def test_flip_choices_validated(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cheat", "--flip", "W"])
        assert exc.value.code == 2


class TestAnalyze:
    ARGS = ["analyze", "--n-pairs", "3", "--seed", "0"]

    def test_text_table(self, capsys):
        code, out, _ = _run_inproc(self.ARGS, capsys)
        assert code == 0
        assert "p_threshold: 0.01" in out
        assert "min-gamma" in out
        assert "note:" in out

    def test_rows_sorted_canonically(self, capsys):
        code, out, _ = _run_inproc([*self.ARGS, "--format", "json"], capsys)
        assert code == 0
        body = json.loads(out)
        keys = [(r["n_pairs"], r["model"]) for r in body["rows"]]
        assert keys == sorted(keys)
        assert len(body["rows"]) == 12  # four models per pair count
        assert body["p_threshold"] == 0.01

    def test_known_values_in_csv(self, capsys):
        code, out, _ = _run_inproc([*self.ARGS, "--format", "csv"], capsys)
        assert code == 0
        rows = {(int(r["n_pairs"]), r["model"]): r["value"]
                for r in csv.DictReader(io.StringIO(out))}
        assert rows[(2, "closed-form")] == "0.625"
        assert rows[(3, "permutation-exact")] == "0.3125"
        assert float(rows[(3, "min-gamma")]) == pytest.approx(0.99 ** (1 / 3), rel=1e-12)

    def test_csv_json_numeric_identity(self, capsys):
        code, csv_out, _ = _run_inproc([*self.ARGS, "--format", "csv"], capsys)
        assert code == 0
        code, json_out, _ = _run_inproc([*self.ARGS, "--format", "json"], capsys)
        assert code == 0
        csv_rows = {(int(r["n_pairs"]), r["model"]): r
                    for r in csv.DictReader(io.StringIO(csv_out))}
        for row in json.loads(json_out)["rows"]:
            assert csv_rows[(row["n_pairs"], row["model"])]["value"] == repr(row["value"])


class TestVerify:
    # 20k samples keeps these fast; the sampled check's TV threshold, derived
    # from the sample count (0.042 here), fails a correct sampler at rate 1e-6
    FAST = ["verify", "--samples", "20000", "--sequences", "8", "--max-pairs", "2"]

    def test_passes_with_exit_zero(self, capsys):
        code, out, _ = _run_inproc([*self.FAST, "--seed", "0"], capsys)
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_fault_injection_fails_with_exit_three(self, capsys):
        code, out, _ = _run_inproc([*self.FAST, "--seed", "0", "--inject-fault"], capsys)
        assert code == 3
        assert "FAIL" in out
        assert "VERIFICATION FAILED" in out

    def test_json_check_names(self, capsys):
        code, out, _ = _run_inproc([*self.FAST, "--seed", "0", "--format", "json"], capsys)
        assert code == 0
        body = json.loads(out)
        assert body["passed"] is True
        assert len(body["checks"]) == 6
        assert all(c["passed"] for c in body["checks"])

    @pytest.mark.parametrize(
        "extra, golden, want_code",
        [([], "verify_seed2026.json", 0),
         (["--inject-fault"], "verify_seed2026_fault.json", 3)],
        ids=["clean", "fault"],
    )
    def test_default_output_pinned(self, capsys, extra, golden, want_code):
        # bytes of the scalar collapse-loop implementation at its defaults;
        # the batched samplers draw the same stream and pass details do not
        # depend on the draws, so nothing may move
        code, out, _ = _run_inproc(["verify", "--seed", "2026", "--format", "json", *extra],
                                   capsys)
        assert code == want_code
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_sixteen_qubit_schedules_exit_zero(self, capsys):
        code, out, _ = _run_inproc(["verify", "--seed", "0", "--samples", "20000",
                                    "--max-pairs", "8", "--sequences", "4"], capsys)
        assert code == 0
        assert "PASS parity-conservation-oracle: 8 random maximal schedules up to 8 pairs" in out

    @pytest.mark.parametrize(
        "argv, message",
        [(["--samples", "0"], "samples must be at least 1"),
         (["--samples", "-5"], "samples must be at least 1"),
         (["--sequences", "0"], "sequences must be at least 1"),
         (["--sequences", "-1"], "sequences must be at least 1"),
         (["--max-pairs", "0"], "max_pairs must lie in 1..8"),
         (["--max-pairs", "9"], "max_pairs must lie in 1..8")],
        ids=["samples-0", "samples-neg", "sequences-0", "sequences-neg",
             "max-pairs-0", "max-pairs-9"],
    )
    def test_vacuous_or_invalid_sizes_exit_two(self, capsys, argv, message):
        code, out, err = _run_inproc(["verify", "--seed", "0", *argv], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message} (got {argv[1]})\n"


class TestSeedResolution:
    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QCT_SEED", "7")
        _, out_env, _ = _run_inproc(["toss", "--n-pairs", "2", "--format", "json"], capsys)
        monkeypatch.delenv("QCT_SEED")
        _, out_flag, _ = _run_inproc(
            ["toss", "--n-pairs", "2", "--seed", "7", "--format", "json"], capsys
        )
        assert out_env == out_flag
        assert json.loads(out_env)["seed"] == 7

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QCT_SEED", "7")
        _, out, _ = _run_inproc(["toss", "--n-pairs", "2", "--seed", "3",
                                 "--format", "json"], capsys)
        assert json.loads(out)["seed"] == 3

    def test_default_is_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("QCT_SEED", raising=False)
        _, out, _ = _run_inproc(["toss", "--n-pairs", "2", "--format", "json"], capsys)
        assert json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("env", [" 7", "7\n"], ids=["padded", "newline"])
    def test_whitespace_around_env_seed_accepted(self, capsys, monkeypatch, env):
        monkeypatch.setenv("QCT_SEED", env)
        code, out, _ = _run_inproc(["toss", "--n-pairs", "2", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["seed"] == 7

    @pytest.mark.parametrize("env", ["abc", "7.5", ""])
    def test_non_integer_env_names_the_variable(self, capsys, monkeypatch, env):
        monkeypatch.setenv("QCT_SEED", env)
        code, out, err = _run_inproc(["toss", "--n-pairs", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: QCT_SEED must be an integer, got {env!r}\n"

    @pytest.mark.parametrize("command", ["toss", "cheat", "analyze", "verify"])
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("source", ["--seed", "QCT_SEED"])
    def test_seed_outside_64_bits_exits_two(self, capsys, monkeypatch, command, seed, source):
        # the streams reduce a seed mod 2**64: -1 would run as 2**64 - 1, 2**64 as 0
        monkeypatch.setenv("QCT_SEED", str(seed) if source == "QCT_SEED" else "5")
        argv = [command, *(["--seed", str(seed)] if source == "--seed" else [])]
        code, out, err = _run_inproc(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {source} must lie in 0..2**64 - 1, got {seed}\n"

    @pytest.mark.parametrize("source", ["--seed", "QCT_SEED"])
    def test_largest_seed_runs(self, capsys, monkeypatch, source):
        seed = 2 ** 64 - 1
        monkeypatch.setenv("QCT_SEED", str(seed) if source == "QCT_SEED" else "5")
        argv = ["cheat", "--n-pairs", "2", "--trials", "50", "--format", "json",
                *(["--seed", str(seed)] if source == "--seed" else [])]
        code, out, _ = _run_inproc(argv, capsys)
        assert code == 0 and json.loads(out)["rows"][0]["seed"] == seed


class TestErrors:
    def test_invalid_pairs_exits_two(self, capsys):
        code, out, err = _run_inproc(["toss", "--n-pairs", "0"], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_invalid_gamma_exits_two(self, capsys):
        code, _, err = _run_inproc(["toss", "--gamma", "0.0"], capsys)
        assert code == 2
        assert "gamma" in err

    @pytest.mark.parametrize(
        "argv",
        [["toss", "--gamma", "1.5"],
         ["toss", "--gamma", "inf"],
         ["cheat", "--gamma", "2", "--trials", "10"]],
        ids=["1.5", "inf", "cheat-2"],
    )
    def test_gamma_above_one_exits_two(self, capsys, argv):
        # an error, not a noiseless run
        code, out, err = _run_inproc(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: gamma must lie in (0, 1]\n"

    def test_gamma_one_is_noiseless(self, capsys):
        noiseless = _run_inproc(["toss", "--n-pairs", "6", "--seed", "3"], capsys)
        assert _run_inproc(["toss", "--n-pairs", "6", "--seed", "3", "--gamma", "1.0"],
                           capsys) == noiseless
        assert noiseless[0] == 0

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_analyze_without_pairs_exits_two(self, capsys, n):
        code, out, err = _run_inproc(["analyze", "--n-pairs", n], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: n_pairs must be at least 1\n"

    @pytest.mark.parametrize("command", ["toss", "cheat", "analyze"])
    def test_pairs_above_the_limit_exit_two_before_any_work(self, capsys, monkeypatch, command):
        def no_work(*args):
            raise AssertionError("an oversized run started")

        for name in ("run_honest", "run_cheat_experiment", "_reference_rows"):
            monkeypatch.setattr(cli, name, no_work)
        limit = cli._MAX_PAIRS[command]
        for n in (limit + 1, 10**9):
            code, out, err = _run_inproc([command, "--n-pairs", str(n)], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: {command} takes at most {limit} pairs, not {n}\n"
        # below 1 the message is the one it was before the limits
        assert _run_inproc([command, "--n-pairs", "0"], capsys) == (
            2, "", "error: n_pairs must be at least 1\n")

    @pytest.mark.parametrize(
        "argv", [["toss"], ["cheat", "--trials", "20"], ["analyze"]], ids=["toss", "cheat", "analyze"])
    def test_pairs_at_the_limit_run(self, capsys, monkeypatch, argv):
        monkeypatch.setitem(cli._MAX_PAIRS, argv[0], 3)
        assert _run_inproc(argv + ["--n-pairs", "3"], capsys)[0] == 0
        assert _run_inproc(argv + ["--n-pairs", "4"], capsys)[:2] == (2, "")

    @pytest.mark.parametrize("n, trials", [(1, 2**22 + 1), (4, 2**20 + 1), (1024, 4097), (3, 10**9)])
    def test_cheat_trials_above_the_limit_exit_two_before_any_work(self, capsys, monkeypatch,
                                                                   n, trials):
        def no_work(*args):
            raise AssertionError("an oversized run started")

        for name in ("run_cheat_experiment", "_reference_rows"):
            monkeypatch.setattr(cli, name, no_work)
        limit = cli._MAX_CHEAT_TRIAL_PAIRS
        assert limit == 2**22
        code, out, err = _run_inproc(
            ["cheat", "--n-pairs", str(n), "--trials", str(trials)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cheat takes at most {limit} trials x pairs, not {trials} x {n}\n"

    def test_cheat_trials_and_pairs_below_one_keep_their_messages(self, capsys):
        # two negatives multiply to a large product; the pair count is refused first
        assert _run_inproc(["cheat", "--n-pairs", "-5", "--trials", str(-10**9)], capsys) == (
            2, "", "error: n_pairs must be at least 1\n")

    @pytest.mark.parametrize("n, trials", [(4, 1_000_000), (1024, 1024), (3, 100_000), (1024, 4096)])
    def test_cheat_trials_at_or_below_the_limit_start_the_run(self, monkeypatch, n, trials):
        # criterion 7's million trials at N = 4, the 1024 x 1024 run and the
        # README's 100,000 trials fit; the run itself is stopped as it starts
        class Started(Exception):
            pass

        def started(config, strategy, count):
            assert (config.n_pairs, count) == (n, trials)
            raise Started

        monkeypatch.setattr(cli, "run_cheat_experiment", started)
        with pytest.raises(Started):
            main(["cheat", "--n-pairs", str(n), "--trials", str(trials)])

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--n-pairs", "7"], ["verify", "--gamma", "5"], ["analyze", "--gamma", "0.5"]],
        ids=["verify-n-pairs", "verify-gamma", "analyze-gamma"],
    )
    def test_options_a_command_does_not_read_are_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["toss", "--bogus"])
        assert exc.value.code == 2

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.csv"
        code, out, err = _run_inproc(
            ["analyze", "--n-pairs", "2", "--out", str(target)], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize(
        "argv",
        [["toss", "--n-pairs", "3"],
         ["cheat", "--n-pairs", "2", "--trials", "50"],
         ["analyze", "--n-pairs", "2"],
         ["verify", "--samples", "2000", "--sequences", "2", "--max-pairs", "1"]],
        ids=["toss", "cheat", "analyze", "verify"],
    )
    def test_unwritable_out_exits_two_with_empty_stdout(self, capsys, tmp_path, argv, target):
        path = tmp_path if target == "directory" else tmp_path / "missing-dir" / "x.txt"
        code, out, err = _run_inproc([*argv, "--seed", "1", "--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [["toss", "--n-pairs", "0"], ["cheat", "--trials", "0"],
         ["analyze", "--n-pairs", "0"], ["verify", "--samples", "0"]],
        ids=["toss", "cheat", "analyze", "verify"],
    )
    def test_invalid_run_leaves_existing_out_file(self, capsys, tmp_path, argv):
        path = tmp_path / "kept.txt"
        path.write_text("earlier output\n", encoding="utf-8")
        code, out, _ = _run_inproc([*argv, "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert path.read_text(encoding="utf-8") == "earlier output\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["toss", "--n-pairs", "3", "--seed", "4", "--format", "json"],
        ["cheat", "--n-pairs", "2", "--trials", "200", "--seed", "4", "--format", "csv"],
        ["cheat", "--strategy", "fake-seq", "--n-pairs", "2", "--trials", "200",
         "--seed", "4", "--format", "json"],
        ["analyze", "--n-pairs", "4", "--format", "csv"],
        ["verify", "--samples", "20000", "--sequences", "4", "--max-pairs", "2",
         "--format", "json"],
    ],
    ids=["toss", "cheat-reflect", "cheat-fake-seq", "analyze", "verify"],
)
def test_byte_identical_across_processes(argv, tmp_path):
    outs, files = [], []
    for i in range(2):
        path = tmp_path / f"run{i}.txt"
        proc = _run_subprocess([*argv, "--out", str(path)])
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
        files.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert files[0] == files[1]
    if argv[0] != "toss":  # toss writes the transcript, not the table, to --out
        assert files[0].decode() == outs[0]


def test_parser_built_lazily_and_reused(capsys, monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qct.cli; print(qct.cli._build_parser.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert proc.stdout == "0\n", proc.stderr  # importing builds nothing
    runs = [
        (["toss", "--n-pairs", "3", "--format", "json"], "5"),
        (["cheat", "--n-pairs", "2", "--trials", "200", "--format", "csv"], "9"),
        (["toss", "--n-pairs", "2", "--format", "csv"], "5"),
    ]
    for argv, seed in runs:
        monkeypatch.setenv("QCT_SEED", seed)
        code, out, _ = _run_inproc(argv, capsys)
        fresh = _run_subprocess(argv, {"QCT_SEED": seed})
        assert (code, out) == (fresh.returncode, fresh.stdout)
    assert cli._build_parser() is cli._build_parser()


def test_module_entry_point_help():
    proc = _run_subprocess(["--help"])
    assert proc.returncode == 0
    for name in ("toss", "cheat", "analyze", "verify"):
        assert name in proc.stdout
