"""Tests of the benchmark itself: every correctness check rejects a flipped
verdict or a wrong term, and a workload's counts repeat exactly.

    PYTHONPATH=src python3 -m pytest -q perfbench

Plans here are small versions of the workloads' plans, so the suite runs in
well under a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import oracle  # noqa: E402
import round as bench_round  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ratiocert import cli  # noqa: E402


def _scan(seq, start, stop, direction, violations, sample, oracle_bits="fixed"):
    return {"seq": seq, "start": start, "stop": stop, "direction": direction,
            "violations": violations, "sample": sample, "oracle_bits": oracle_bits}


SCANS = {
    "fibonacci": _scan("fibonacci", 1, 60, "decreasing", [1, 3], [1, 3, 10, 40]),
    "derangement": _scan("derangement", 3, 40, "decreasing", [], [3, 20, 37]),
    "harmonic": _scan("harmonic:3", 3, 20, "increasing", [], [3, 9, 17]),
    "squarefree": _scan("squarefree-sum", 7, 300, "increasing", [], [7, 150, 297]),
    "near-tie": _scan("lucas:3,2", 1, 150, "decreasing", None, [1, 60, 147], "2n"),
    "near-tie-5-6": _scan("lucas:5,6", 1, 100, "decreasing", None, [2, 50, 97], "2n"),
}
PRIMES = {"workload": "primes", "firoozbakht": [100, 140],
          "firoozbakht_sample": [100, 117, 140], "refinement": [5, 60],
          "refinement_sample": [5, 31, 60]}


def _scan_record(scan: dict) -> dict:
    p = {"scans": [scan]}
    specs = [cli.parse_sequence_token(scan["seq"])]
    outs = bench_round.run_parts(bench_round.parts(p, specs))[0]
    return bench_round.scan_record(p, specs, outs)["scans"][0]


@pytest.fixture(scope="module")
def scan_records():
    return {k: _scan_record(s) for k, s in SCANS.items()}


@pytest.fixture(scope="module")
def primes_record():
    outs = bench_round.run_parts(bench_round.parts(PRIMES, []))[0]
    return bench_round.primes_record(PRIMES, outs)


@pytest.fixture(scope="module")
def primes():
    return oracle.nth_primes(200)


def _check(key: str, rec: dict) -> list[str]:
    scan = SCANS[key]
    return oracle.check_scan(scan, rec, oracle.Terms(scan["seq"], scan["stop"] + 2))


# ---------------------------------------------------------------------------
# the oracle's own terms


def test_oracle_terms_match_known_values():
    assert [oracle.fibonacci(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert [oracle.derangement(n) for n in range(2, 8)] == [1, 2, 9, 44, 265, 1854]
    assert oracle.harmonic(1, 3) == Fraction(11, 6)
    assert oracle.harmonic(2, 2) == Fraction(5, 4)
    assert oracle.squarefree_sums(7) == [0, 1, 3, 6, 11, 17, 24, 34]
    assert oracle.nth_primes(6) == [2, 3, 5, 7, 11, 13]
    assert oracle.Terms("lucas:5,6", 10)(4) == 81 - 16


# ---------------------------------------------------------------------------
# scans


@pytest.mark.parametrize("key", sorted(SCANS))
def test_scan_check_accepts_program_output(scan_records, key):
    assert _check(key, scan_records[key]) == []


@pytest.mark.parametrize("key", sorted(SCANS))
def test_scan_check_rejects_flipped_verdict(scan_records, key):
    rec = copy.deepcopy(scan_records[key])
    n = SCANS[key]["sample"][-1]
    rec["violations"] = sorted(rec["violations"] + [n])
    assert any(f"n={n}" in p for p in _check(key, rec))


def test_scan_check_rejects_missing_violation(scan_records):
    rec = copy.deepcopy(scan_records["fibonacci"])
    rec["violations"] = [3]
    problems = _check("fibonacci", rec)
    assert any("the paper states" in p for p in problems)
    assert any("n=1" in p for p in problems)


@pytest.mark.parametrize("key", sorted(SCANS))
def test_scan_check_rejects_wrong_term(scan_records, key):
    rec = copy.deepcopy(scan_records[key])
    n = str(SCANS[key]["sample"][0])
    x = workloads.decode_term(rec["terms"][n][1])
    rec["terms"][n][1] = workloads.encode_term(x + 1)
    assert any("differ from the oracle" in p for p in _check(key, rec))


def test_scan_check_rejects_uncounted_step(scan_records):
    rec = copy.deepcopy(scan_records["derangement"])
    rec["stats"]["interval"] -= 1
    assert any("do not cover" in p for p in _check("derangement", rec))


# ---------------------------------------------------------------------------
# primes


def test_prime_checks_accept_program_output(primes_record, primes):
    assert oracle.check_firoozbakht(primes_record["firoozbakht"], primes) == []
    assert oracle.check_refinement(primes_record["refinement"], primes) == []


def test_firoozbakht_check_rejects_flipped_verdict_and_wrong_prime(primes_record, primes):
    rec = copy.deepcopy(primes_record["firoozbakht"])
    rec["sample"]["117"]["status"] = "refuted"
    assert oracle.check_firoozbakht(rec, primes)
    rec = copy.deepcopy(primes_record["firoozbakht"])
    rec["sample"]["117"]["p_next"] += 2
    assert any("differ from the sieve" in p
               for p in oracle.check_firoozbakht(rec, primes))
    rec = copy.deepcopy(primes_record["firoozbakht"])
    rec["refuted"] = [120]
    assert oracle.check_firoozbakht(rec, primes)


def test_refinement_check_rejects_flipped_verdict_and_wrong_margin(primes_record, primes):
    rec = copy.deepcopy(primes_record["refinement"])
    rec["sample"]["31"]["status"] = "refuted"
    assert oracle.check_refinement(rec, primes)
    rec = copy.deepcopy(primes_record["refinement"])
    lo, hi = rec["sample"]["31"]["margin"]
    rec["sample"]["31"]["margin"] = [lo + 2 * (hi - lo) + 1e-9, hi + 2 * (hi - lo) + 1e-9]
    assert any("misses" in p for p in oracle.check_refinement(rec, primes))


# ---------------------------------------------------------------------------
# cli documents


def _cli(argv: list[str]) -> tuple[dict, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return json.loads(buf.getvalue()), code


CHECK = ["check", "--seq", "fibonacci", "--from", "4", "--to", "300",
         "--direction", "decreasing", "--format", "json"]


@pytest.fixture(scope="module")
def check_docs():
    return _cli(CHECK + ["--jobs", "2"]), _cli(CHECK + ["--jobs", "1"])


@pytest.fixture(scope="module")
def suite_doc():
    return _cli(["paper-suite", "--prime-horizon", "40", "--offset-max", "8",
                 "--stirling-max", "8", "--format", "json"])


def test_cli_checks_accept_program_output(check_docs, suite_doc):
    (sharded, code), (single, _) = check_docs
    assert oracle.check_scan_doc(sharded, code, 4, 300) == []
    assert oracle.check_jobs_invariance(sharded, single) == []
    assert oracle.check_suite_doc(*suite_doc) == []


def test_cli_checks_reject_flipped_verdicts(check_docs, suite_doc):
    (sharded, code), (single, _) = check_docs
    bad = copy.deepcopy(sharded)
    bad["violations"] = [7]
    assert oracle.check_scan_doc(bad, code, 4, 300)
    assert oracle.check_jobs_invariance(bad, single)
    bad = copy.deepcopy(sharded)
    bad["results"][0]["certified"] = False
    assert oracle.check_scan_doc(bad, code, 4, 300)
    bad = copy.deepcopy(sharded)
    bad["stats"]["interval"] -= 1
    assert oracle.check_scan_doc(bad, code, 4, 300)
    doc, code = suite_doc
    bad = copy.deepcopy(doc)
    bad["results"][-1]["status"] = "refuted"
    assert oracle.check_suite_doc(bad, code)
    assert oracle.check_suite_doc(doc, 1)


def test_jobs_invariance_ignores_only_wall_ms_and_jobs(check_docs):
    (sharded, _), (single, _) = check_docs
    assert sharded["config"]["jobs"] != single["config"]["jobs"]
    bad = copy.deepcopy(single)
    bad["config"]["start_bits"] = 64
    assert oracle.check_jobs_invariance(sharded, bad)


# ---------------------------------------------------------------------------
# counts repeat, and tracing leaves the package as it found it

REPEATED = ("compare.verdicts", "compare.escalations", "compare.exact_calls",
            "compare.rungs", "numerics.ln_calls", "sequences.terms", "paperchecks.checks")


def _traced_counts(p: dict) -> dict:
    tr = tracing.Tracer()
    bench_round.run_library(p, tr)
    fig = tracing.raw_figures(tr)
    return {k: fig[k] for k in REPEATED}


@pytest.mark.parametrize("p", [
    {"scans": [SCANS["fibonacci"], SCANS["harmonic"]]},
    {"scans": [SCANS["near-tie"], SCANS["near-tie-5-6"]]},
    PRIMES,
], ids=["scan-128", "near-tie", "primes"])
def test_counts_repeat_exactly(p):
    first = _traced_counts(p)
    assert first == _traced_counts(p)
    assert first["compare.verdicts"] > 0


def test_near_tie_counts_escalations():
    counts = _traced_counts({"scans": [SCANS["near-tie"]]})
    rec = _scan_record(SCANS["near-tie"])
    assert counts["compare.escalations"] == rec["stats"]["escalations"] > 0
    assert counts["sequences.terms"] == SCANS["near-tie"]["stop"] - SCANS["near-tie"]["start"] + 1


def test_uninstall_restores_the_package():
    from ratiocert import compare, numerics, sequences
    before = (compare.check_monotone, compare.interval_ln, numerics.interval_ln,
              sequences.Lucas.terms, numerics.DyadicInterval.__post_init__,
              compare.LogCombination.__dict__["from_pairs"])
    tr = tracing.Tracer()
    tr.install()
    assert compare.interval_ln is not before[1]
    tr.uninstall()
    after = (compare.check_monotone, compare.interval_ln, numerics.interval_ln,
             sequences.Lucas.terms, numerics.DyadicInterval.__post_init__,
             compare.LogCombination.__dict__["from_pairs"])
    assert after == before


def test_plans_repeat_for_a_seed_and_differ_across_seeds():
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 7) == workloads.plan(w, 7)
        assert workloads.plan(w, 7) != workloads.plan(w, 8)
