"""Command-line interface: exit codes, output formats, schema stability."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ratiocert
from ratiocert.cli import (
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    UsageError,
    build_parser,
    main,
    parse_sequence_token,
)
from ratiocert.compare import Engine
from ratiocert.sequences import Derangement, Harmonic, Lucas, Primes, Product

SCHEMA_KEYS = {
    "schema_version", "command", "config", "results",
    "violations", "undecided", "stats", "wall_ms",
}
STATS_KEYS = {"exact", "interval", "undecided", "max_bits", "escalations"}
ENGINE_FLAGS = ["--precision-cap", "256", "--start-bits", "192", "--exact-budget", "1000"]
ENGINE_CONFIG = [("precision_cap", 256), ("exact_budget", 1000), ("start_bits", 192)]


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_import_leaves_the_process_pool_unloaded():
    # only a sharded scan needs concurrent.futures; a fresh `import
    # ratiocert.cli` must not pay for it
    src = str(Path(ratiocert.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ratiocert.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


class TestSequenceTokens:
    def test_plain_names(self):
        assert parse_sequence_token("fibonacci") == Lucas(1, -1)
        assert isinstance(parse_sequence_token("derangement"), Derangement)
        assert isinstance(parse_sequence_token("primes"), Primes)

    def test_parameterized(self):
        assert parse_sequence_token("lucas:3,2") == Lucas(3, 2)
        assert parse_sequence_token("lucas(3,2)") == Lucas(3, 2)
        assert parse_sequence_token("harmonic:2") == Harmonic(2)
        assert parse_sequence_token("harmonic(7)") == Harmonic(7)

    def test_nested_product(self):
        p = parse_sequence_token("product(fibonacci,lucas(3,2))")
        assert isinstance(p, Product)
        assert p.left == Lucas(1, -1) and p.right == Lucas(3, 2)
        q = parse_sequence_token("product(product(fibonacci,fibonacci),harmonic(2))")
        assert isinstance(q.left, Product)

    def test_bad_tokens(self):
        for token in ("nosuch", "lucas:1", "harmonic", "product(fibonacci)",
                      "lucas:a,b", "lucas:2,1"):
            with pytest.raises(UsageError):
                parse_sequence_token(token)


class TestExitCodes:
    def test_certified_scan(self):
        assert main(["check", "--seq", "fibonacci", "--from", "4", "--to", "100",
                     "--direction", "decreasing"]) == EXIT_OK

    def test_violations(self):
        assert main(["check", "--seq", "fibonacci", "--from", "1", "--to", "40",
                     "--direction", "decreasing"]) == EXIT_VIOLATIONS

    def test_usage_errors(self):
        bad_cases = [
            ["check", "--seq", "fibonacci", "--from", "4", "--to", "5",
             "--direction", "decreasing"],
            ["check", "--seq", "fibonacci", "--from", "0", "--to", "50",
             "--direction", "decreasing"],
            ["check", "--seq", "nosuch", "--from", "1", "--to", "50",
             "--direction", "decreasing"],
            ["check", "--seq", "fibonacci", "--from", "4", "--to", "50",
             "--direction", "decreasing", "--precision-cap", "64"],
            ["check", "--seq", "fibonacci", "--from", "4", "--to", "50"],
            ["table", "--seq", "fibonacci"],
            ["table", "--seq", "fibonacci", "--indices", "x,y"],
            ["table", "--seq", "fibonacci", "--indices", "10", "--start-bits", "512"],
            ["table", "--seq", "fibonacci", "--indices", "10", "--precision-cap", "1024"],
            ["table", "--seq", "fibonacci", "--indices", "10", "--exact-budget", "0"],
            ["table", "--seq", "fibonacci", "--from", "10", "--to", "14", "--step", "0"],
            ["paper-suite", "--prime-horizon", "4"],
            ["paper-suite", "--offset-max", "2"],
            ["paper-suite", "--stirling-max", "1"],
            ["nosuchcommand"],
            [],
        ]
        for argv in bad_cases:
            assert main(argv) == EXIT_USAGE, argv

    @pytest.mark.parametrize("flag,value", [
        ("--jobs", "0"), ("--start-bits", "0"), ("--exact-budget", "-1"),
    ])
    def test_bad_engine_values_are_usage_errors(self, flag, value):
        assert main(["check", "--seq", "fibonacci", "--from", "4", "--to", "10",
                     "--direction", "decreasing", flag, value]) == EXIT_USAGE

    @pytest.mark.parametrize("flags", [
        ["--start-bits", "0"], ["--start-bits", "256", "--precision-cap", "128"],
        ["--exact-budget", "-1"], ["--precision-cap", "64"], ["--jobs", "0"],
    ])
    def test_bad_engine_values_name_their_flags(self, capsys, flags):
        assert main(["check", "--seq", "fibonacci", "--from", "4", "--to", "10",
                     "--direction", "decreasing", *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        for flag in flags[::2]:
            assert flag in err, (flags, err)

    def test_removed_sequence_flags_are_usage_errors(self):
        # --seq is the one sequence grammar; these flags were once ignored
        for flags in (["--seq", "fibonacci", "--m", "3"],
                      ["--seq", "lucas:3,2", "--A", "5", "--B", "6"],
                      ["--seq", "product", "--left", "fibonacci", "--right", "primes"]):
            assert main(["check", *flags, "--from", "4", "--to", "10",
                         "--direction", "decreasing"]) == EXIT_USAGE, flags

    @pytest.mark.parametrize("flags", [
        ["--from", "3", "--to", "9"], ["--step", "3"], ["--to", "9"],
    ])
    def test_table_indices_exclude_range_flags(self, flags):
        assert main(["table", "--seq", "fibonacci", "--indices", "5,6", *flags]) == EXIT_USAGE

    def test_zero_exact_budget_is_honoured(self, capsys):
        code, doc = run_json(
            capsys,
            ["check", "--seq", "fibonacci", "--from", "4", "--to", "10",
             "--direction", "decreasing", "--exact-budget", "0"],
        )
        assert code == EXIT_OK
        assert doc["config"]["exact_budget"] == 0
        assert doc["stats"]["exact"] == 0

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_undecided_scan(self, capsys):
        # starved engine: no exact route and one rung, below the near-ties of lucas(3,2)
        code, doc = run_json(
            capsys,
            ["check", "--seq", "lucas:3,2", "--from", "200", "--to", "220",
             "--direction", "decreasing", "--precision-cap", "128",
             "--start-bits", "128", "--exact-budget", "0"],
        )
        assert code == EXIT_UNDECIDED
        assert doc["violations"] == []
        assert doc["undecided"] == list(range(200, 219))
        assert doc["stats"]["undecided"] == 19

    def test_tight_cap_makes_suite_undecided(self, capsys):
        code, doc = run_json(
            capsys,
            ["paper-suite", "--prime-horizon", "120", "--offset-max", "60",
             "--stirling-max", "12", "--precision-cap", "128"],
        )
        assert code == EXIT_UNDECIDED
        assert doc["undecided"]

    @pytest.mark.parametrize("start,cap,budget", [
        (15, 128, 0), (16, 16, 0), (16, 15, 0), (16, 64, 2**31), (17, 16, 1000),
        (128, 64, 2**31), (128, 128, -1), (128, 128, 0), (192, 256, 1000),
    ])
    def test_engine_flags_accept_what_engine_accepts(self, capsys, start, cap, budget):
        # the CLI has no rule of its own: Engine's checks, in the flags' names
        argv = ["check", "--seq", "fibonacci", "--from", "4", "--to", "10",
                "--direction", "decreasing", "--start-bits", str(start),
                "--precision-cap", str(cap), "--exact-budget", str(budget), "--format", "json"]
        try:
            Engine(start, cap, budget)
        except ValueError as exc:
            assert main(argv) == EXIT_USAGE
            err = capsys.readouterr().err
            for field, flag in (("start_bits", "--start-bits"), ("cap_bits", "--precision-cap"),
                                ("exact_budget", "--exact-budget")):
                assert (field in str(exc)) == (flag in err) and field not in err, err
            return
        assert main(argv) == EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["start_bits"], config["precision_cap"], config["exact_budget"]) == (
            start, cap, budget)

    def test_find_start_none_is_violation_exit(self):
        assert main(["find-start", "--seq", "primes", "--horizon", "100",
                     "--direction", "decreasing"]) == EXIT_VIOLATIONS


class TestJsonSchema:
    def test_check_document(self, capsys):
        code, doc = run_json(
            capsys,
            ["check", "--seq", "fibonacci", "--from", "1", "--to", "60",
             "--direction", "decreasing"],
        )
        assert code == EXIT_VIOLATIONS
        assert set(doc) == SCHEMA_KEYS
        assert doc["schema_version"] == 2
        assert doc["command"] == "check"
        assert doc["violations"] == [1, 3]
        assert doc["undecided"] == []
        assert set(doc["stats"]) == STATS_KEYS
        assert isinstance(doc["wall_ms"], int)
        assert doc["results"][0]["min_valid_start"] == 4

    def test_find_start_document(self, capsys):
        code, doc = run_json(
            capsys,
            ["find-start", "--seq", "fibonacci", "--horizon", "200",
             "--direction", "decreasing"],
        )
        assert code == EXIT_OK
        assert set(doc) == SCHEMA_KEYS
        assert doc["results"][0]["min_start"] == 4
        assert "empirical" in doc["results"][0]["note"]

    def test_paper_suite_document(self, capsys):
        code, doc = run_json(
            capsys,
            ["paper-suite", "--prime-horizon", "120", "--offset-max", "12",
             "--stirling-max", "12"],
        )
        assert code == EXIT_OK
        assert set(doc) == SCHEMA_KEYS
        assert all(r["status"] == "certified" for r in doc["results"])
        assert set(doc["stats"]) == STATS_KEYS
        # firoozbakht-range(1..120) alone holds 120 verdicts
        assert doc["stats"]["exact"] + doc["stats"]["interval"] >= 120
        # the default derangement-offset-range climbs past its first rung
        code, doc = run_json(capsys, ["paper-suite"])
        assert code == EXIT_OK
        assert set(doc["stats"]) == STATS_KEYS
        assert doc["stats"]["escalations"] > 0

    def test_paper_suite_honours_engine_flags(self, capsys):
        code, doc = run_json(
            capsys,
            ["paper-suite", "--prime-horizon", "120", "--offset-max", "12",
             "--stirling-max", "12", "--exact-budget", "0", "--start-bits", "256"],
        )
        assert code == EXIT_OK
        assert doc["config"]["exact_budget"] == 0
        assert doc["stats"]["exact"] == 0
        detail = {r["name"]: r["detail"] for r in doc["results"]}
        for name in ("derangement-window", "harmonic-window", "firoozbakht-range(1..120)"):
            assert detail[name]["exact"] == 0 and detail[name]["max_bits"] >= 256
        assert detail["fibonacci-steps-4-5"]["n=4"]["bits"] >= 256

    def test_paper_suite_passes_ladder_flags_to_every_check(self, capsys):
        small = ["paper-suite", "--prime-horizon", "120", "--offset-max", "12",
                 "--stirling-max", "12"]
        for flags, lo, hi in ((["--start-bits", "512", "--precision-cap", "1024"], 512, 1024),
                              (["--precision-cap", "128"], 128, 128)):
            code, doc = run_json(capsys, small + flags)
            assert code == EXIT_OK
            assert lo <= doc["stats"]["max_bits"] <= hi
            for r in doc["results"]:
                bits = r["detail"].get("bits") or r["detail"].get("max_bits")
                assert not bits or lo <= bits <= hi, (flags, r["name"], bits)
                if r["name"].startswith(("log5", "fibonacci-gamma", "gamma-sixth",
                                         "harmonic-xlogx", "lucas-gap", "unit-disc")):
                    assert r["detail"]["bits"] == lo, (flags, r["name"])

    def test_check_stats_count_escalations_and_undecided(self, capsys):
        # lucas(3,2) steps lie about 2^-n from a tie; a 128-bit cap leaves
        # some undecided once the exact route is barred
        code, doc = run_json(
            capsys,
            ["check", "--seq", "lucas:3,2", "--from", "100", "--to", "140",
             "--direction", "decreasing", "--precision-cap", "128",
             "--exact-budget", "0", "--jobs", "1"],
        )
        assert code == EXIT_UNDECIDED
        stats = doc["stats"]
        assert stats["undecided"] == len(doc["undecided"]) > 0
        assert stats["exact"] + stats["interval"] == 39
        _, doc = run_json(
            capsys,
            ["check", "--seq", "lucas:3,2", "--from", "100", "--to", "140",
             "--direction", "decreasing", "--jobs", "1"],
        )
        assert doc["stats"]["undecided"] == 0
        assert doc["stats"]["escalations"] > 0

    @pytest.mark.parametrize("argv,config", [
        (["check", "--seq", "fibonacci", "--from", "4", "--to", "20",
          "--direction", "decreasing", "--jobs", "2", *ENGINE_FLAGS],
         [*ENGINE_CONFIG, ("jobs", 2), ("seq", "fibonacci"), ("start", 4), ("stop", 20),
          ("direction", "decreasing")]),
        (["find-start", "--seq", "fibonacci", "--horizon", "20",
          "--direction", "increasing", "--jobs", "1", *ENGINE_FLAGS],
         [*ENGINE_CONFIG, ("jobs", 1), ("seq", "fibonacci"), ("horizon", 20),
          ("direction", "increasing")]),
        # paper-suite and table have no --jobs; table has no engine flags
        (["paper-suite", "--prime-horizon", "120", "--offset-max", "12",
          "--stirling-max", "12", *ENGINE_FLAGS],
         [*ENGINE_CONFIG, ("jobs", 1), ("prime_horizon", 120), ("offset_max", 12),
          ("stirling_max", 12)]),
        (["table", "--seq", "derangement", "--indices", "5,3", "--bits", "64"],
         [("precision_cap", 65536), ("exact_budget", 2**31), ("start_bits", 128),
          ("jobs", 1), ("seq", "derangement"), ("indices", [5, 3]), ("bits", 64)]),
    ])
    def test_config_block_keys_and_order(self, capsys, argv, config):
        _, doc = run_json(capsys, argv)
        assert list(doc["config"].items()) == [("format", "json"), *config]

    def test_table_document(self, capsys):
        code, doc = run_json(
            capsys,
            ["table", "--seq", "fibonacci", "--indices", "10,100"],
        )
        assert code == EXIT_OK
        rows = doc["results"]
        assert [r["n"] for r in rows] == [10, 100]
        assert doc["stats"] == {"exact": 0, "interval": 2, "undecided": 0,
                                "max_bits": 128, "escalations": 0}
        for row in rows:
            assert row["ln_r_lo"] <= row["ln_r_hi"]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_table_floats_enclose_the_exact_ends(self, capsys, fmt):
        # every format reports the same floats, each on or outside its exact end
        argv = ["table", "--seq", "harmonic:2", "--indices", "3,10,100,1000", "--bits", "64"]
        _, doc = run_json(capsys, argv)
        main(argv + ["--format", fmt])
        out = capsys.readouterr().out
        for row in doc["results"]:
            lo, hi = (Fraction(int(m)) * Fraction(2) ** int(e)
                      for m, e in (row[k].split("*2^") for k in ("lo_exact", "hi_exact")))
            assert row["ln_r_lo"] <= lo and hi <= row["ln_r_hi"]
            if fmt == "csv":
                assert f"{row['n']},{row['ln_r_lo']!r},{row['ln_r_hi']!r},interval" in out
            else:
                assert f"[{row['ln_r_lo']:+.12e}, {row['ln_r_hi']:+.12e}]" in out


class TestDeterminismAndSharding:
    def test_repeat_runs_identical(self, capsys):
        argv = ["check", "--seq", "derangement", "--from", "2", "--to", "80",
                "--direction", "decreasing"]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        # a ProcessPoolExecutor that records its workers and blocks, and maps
        # in this process
        seen = {}

        class FakePool:
            def __init__(self, max_workers):
                seen["workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                payloads = list(payloads)
                seen["steps"] = [range(p[1], p[2] - 1) for p in payloads]
                return map(fn, payloads)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        return seen

    def test_explicit_jobs_run_that_many_contiguous_blocks(self, capsys, fake_pool):
        base = ["check", "--seq", "fibonacci", "--from", "4", "--to", "20",
                "--direction", "decreasing"]
        _, par = run_json(capsys, base + ["--jobs", "2"])
        assert fake_pool["workers"] == par["config"]["jobs"] == 2
        blocks = fake_pool["steps"]
        assert len(blocks) == 2 and all(blocks)
        assert [n for block in blocks for n in block] == list(range(4, 19))
        _, seq = run_json(capsys, base + ["--jobs", "1"])
        for doc in (seq, par):
            doc.pop("wall_ms")
            doc["config"].pop("jobs")
        assert seq == par

    def test_jobs_above_the_step_count_are_a_usage_error(self, capsys):
        code = main(["check", "--seq", "fibonacci", "--from", "4", "--to", "8",
                     "--direction", "decreasing", "--jobs", "4"])
        assert code == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("stop,jobs", [(20, 1), (21, 2), (200, 4)])
    def test_default_jobs_report_what_ran(self, capsys, monkeypatch, fake_pool, stop, jobs):
        # one worker per _STEPS_PER_WORKER steps, at most one per CPU
        monkeypatch.setattr("ratiocert.cli._STEPS_PER_WORKER", 8)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        _, doc = run_json(capsys, ["check", "--seq", "fibonacci", "--from", "4",
                                   "--to", str(stop), "--direction", "decreasing"])
        assert doc["config"]["jobs"] == jobs
        assert fake_pool.get("workers", 1) == jobs

    @pytest.mark.parametrize("horizon,jobs", [(18, 1), (19, 2)])
    def test_default_jobs_count_find_start_steps_from_the_domain_start(
            self, capsys, monkeypatch, fake_pool, horizon, jobs):
        # derangements start at n = 2, so a horizon H scans H - 3 steps
        monkeypatch.setattr("ratiocert.cli._STEPS_PER_WORKER", 8)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        _, doc = run_json(capsys, ["find-start", "--seq", "derangement", "--horizon",
                                   str(horizon), "--direction", "decreasing"])
        assert doc["config"]["jobs"] == jobs
        assert fake_pool.get("workers", 1) == jobs

    def test_jobs_do_not_change_results(self, capsys, monkeypatch):
        # without --jobs, 150 steps fork at this threshold
        monkeypatch.setattr("ratiocert.cli._STEPS_PER_WORKER", 8)
        base = ["check", "--seq", "fibonacci", "--from", "1", "--to", "150",
                "--direction", "decreasing"]
        _, seq = run_json(capsys, base + ["--jobs", "1"])
        for jobs in (["--jobs", "3"], []):
            _, par = run_json(capsys, base + jobs)
            assert par["config"]["jobs"] > 1 or os.cpu_count() == 1
            for doc in (seq, par):
                doc.pop("wall_ms", None)
                doc["config"].pop("jobs", None)
            assert seq == par


class TestOutputFormats:
    def test_text_mentions_results(self, capsys):
        main(["check", "--seq", "fibonacci", "--from", "1", "--to", "40",
              "--direction", "decreasing"])
        out = capsys.readouterr().out
        assert "violations: [1, 3]" in out
        assert "NOT CERTIFIED" in out
        assert out.endswith("\n") and "\r\n" not in out

    def test_csv_scan(self, capsys):
        main(["check", "--seq", "fibonacci", "--from", "1", "--to", "40",
              "--direction", "decreasing", "--format", "csv"])
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "n,kind"
        assert "1,violation" in lines and "3,violation" in lines

    def test_csv_table(self, capsys):
        main(["table", "--seq", "fibonacci", "--from", "10", "--to", "14",
              "--format", "csv"])
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "n,ln_r_lo,ln_r_hi,method"
        assert len(lines) == 6

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["check", "--seq", "fibonacci", "--from", "4", "--to", "40",
                     "--direction", "decreasing", "--format", "json",
                     "--out", str(target)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["command"] == "check"

    @pytest.mark.parametrize("argv", [
        ["check", "--seq", "fibonacci", "--from", "4", "--to", "20",
         "--direction", "decreasing"],
        ["table", "--seq", "fibonacci", "--indices", "10"],
    ])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, argv):
        for target in (tmp_path / "missing" / "report.json", tmp_path):
            assert main(argv + ["--out", str(target)]) == EXIT_USAGE, target
            out, err = capsys.readouterr()
            assert out == "" and "--out" in err, (target, err)

    def test_text_and_json_agree(self, capsys):
        argv = ["check", "--seq", "fibonacci", "--from", "1", "--to", "60",
                "--direction", "decreasing"]
        main(argv)
        text = capsys.readouterr().out
        _, doc = run_json(capsys, argv)
        assert f"violations: {doc['violations']}" in text
        assert f"min_valid_start: {doc['results'][0]['min_valid_start']}" in text


    @pytest.mark.parametrize("command", [
        ["check", "--from", "1", "--to", "300"],
        ["find-start", "--horizon", "300"],
    ])
    def test_text_prints_every_stats_key(self, capsys, command):
        argv = [command[0], "--seq", "lucas:3,2", *command[1:], "--direction", "decreasing"]
        main(argv)
        text = capsys.readouterr().out
        _, doc = run_json(capsys, argv)
        stats = doc["stats"]
        assert stats["escalations"] > 0
        assert (f"stats: exact={stats['exact']} interval={stats['interval']} "
                f"undecided={stats['undecided']} max_bits={stats['max_bits']} "
                f"escalations={stats['escalations']}") in text.splitlines()


def test_docdigest_corpus_parses(monkeypatch):
    # tools/docdigest.py runs its corpus through main: every argv must be a command
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts its src/ first
    path = Path(__file__).resolve().parents[1] / "tools" / "docdigest.py"
    spec = importlib.util.spec_from_file_location("docdigest", path)
    docdigest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docdigest)
    parser = build_parser()
    for argv in docdigest.CORPUS:
        assert parser.parse_args(argv).command == argv[0]
    for fmt in ("json", "text"):
        doc = docdigest.document(["check", "--seq", "fibonacci", "--from", "4", "--to", "20",
                                  "--direction", "decreasing", "--jobs", "1", "--format", fmt])
        assert "wall_ms" in doc and not re.search(r"wall_ms\W*\d", doc)
