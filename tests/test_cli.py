"""Command-line interface: exit codes, output formats, schema stability."""

import json

import pytest

from ratiocert.cli import (
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    UsageError,
    main,
    parse_sequence_token,
)
from ratiocert.sequences import Derangement, Harmonic, Lucas, Primes, Product

SCHEMA_KEYS = {
    "schema_version", "command", "config", "results",
    "violations", "undecided", "stats", "wall_ms",
}
STATS_KEYS = {"exact", "interval", "undecided", "max_bits", "escalations"}


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


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
        # starved engine: no exact fallback and a floor-level cap
        code, doc = run_json(
            capsys,
            ["check", "--seq", "primes", "--from", "900", "--to", "910",
             "--direction", "decreasing", "--precision-cap", "128",
             "--start-bits", "128", "--exact-budget", "1"],
        )
        del doc
        assert code in (EXIT_VIOLATIONS, EXIT_UNDECIDED)

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


class TestDeterminismAndSharding:
    def test_repeat_runs_identical(self, capsys):
        argv = ["check", "--seq", "derangement", "--from", "2", "--to", "80",
                "--direction", "decreasing"]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b

    def test_jobs_do_not_change_results(self, capsys):
        base = ["check", "--seq", "fibonacci", "--from", "1", "--to", "150",
                "--direction", "decreasing"]
        _, seq = run_json(capsys, base + ["--jobs", "1"])
        _, par = run_json(capsys, base + ["--jobs", "3"])
        for doc in (seq, par):
            doc.pop("wall_ms")
            doc["config"].pop("jobs")
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


class TestEnvironmentVariable:
    def test_env_cap_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("RATIOCERT_MAX_BITS", "256")
        _, doc = run_json(
            capsys,
            ["check", "--seq", "fibonacci", "--from", "4", "--to", "40",
             "--direction", "decreasing"],
        )
        assert doc["config"]["precision_cap"] == 256

    def test_explicit_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("RATIOCERT_MAX_BITS", "256")
        _, doc = run_json(
            capsys,
            ["check", "--seq", "fibonacci", "--from", "4", "--to", "40",
             "--direction", "decreasing", "--precision-cap", "512"],
        )
        assert doc["config"]["precision_cap"] == 512

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("RATIOCERT_MAX_BITS", "not-a-number")
        assert main(["check", "--seq", "fibonacci", "--from", "4", "--to", "40",
                     "--direction", "decreasing"]) == EXIT_USAGE
        monkeypatch.setenv("RATIOCERT_MAX_BITS", "64")
        assert main(["check", "--seq", "fibonacci", "--from", "4", "--to", "40",
                     "--direction", "decreasing"]) == EXIT_USAGE

    def test_table_ignores_the_cap_it_does_not_use(self, capsys, monkeypatch):
        argv = ["table", "--seq", "fibonacci", "--indices", "10"]
        for fmt in ("text", "json"):
            assert main(argv + ["--format", fmt]) == EXIT_OK
            plain = capsys.readouterr().out
            monkeypatch.setenv("RATIOCERT_MAX_BITS", "64")
            assert main(argv + ["--format", fmt]) == EXIT_OK
            capped = capsys.readouterr().out
            monkeypatch.delenv("RATIOCERT_MAX_BITS")
            if fmt == "json":
                plain, capped = json.loads(plain), json.loads(capped)
                plain.pop("wall_ms"), capped.pop("wall_ms")
            assert capped == plain

    def test_tight_env_cap_makes_suite_undecided(self, capsys, monkeypatch):
        monkeypatch.setenv("RATIOCERT_MAX_BITS", "128")
        code, doc = run_json(
            capsys,
            ["paper-suite", "--prime-horizon", "120", "--offset-max", "60",
             "--stirling-max", "12"],
        )
        assert code == EXIT_UNDECIDED
        assert doc["undecided"]
