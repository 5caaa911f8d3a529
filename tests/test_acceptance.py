"""Release acceptance gate.

Twelve end-to-end criteria, one test each.  Every test records exactly one
``ACCEPTANCE nn PASS|FAIL`` line (replayed after the run by conftest's
terminal-summary hook, so the lines are visible for passing tests too) and
then asserts each clause of its criterion literally, so a failure pinpoints
the clause that did not hold.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import permutations
from typing import Iterator

import mpmath

from ratiocert.cli import main
from ratiocert.compare import (
    Direction,
    Engine,
    Method,
    Ordering,
    check_monotone,
    decide_exact,
    find_min_start,
    ratio_step_combination,
    ratio_step_verdict,
)
from ratiocert.numerics import Dyadic, DyadicInterval, interval_ln
from ratiocert.paperchecks import (
    CheckStatus,
    check_derangement_offset,
    check_firoozbakht_range,
    check_harmonic_xlogx,
    check_offset_second_difference,
    check_prime_ratio_range,
    check_stirling_remainder,
    constants_suite,
)
from ratiocert.sequences import (
    Derangement,
    Harmonic,
    Lucas,
    Primes,
    Product,
    Sequence,
    SquarefreeSum,
    derangement_term,
    fibonacci,
    lucas_constants,
)

mpmath.mp.dps = 60

ACCEPTANCE_LINES: list = []


def _report(num: int, ok: bool, msg: str) -> None:
    state = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {state} — {msg}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def _run_cli_json(tmp_path, tag, argv):
    out = tmp_path / f"{tag}.json"
    code = main(argv + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


class Geometric(Sequence):
    """a_n = c**n: every root-ratio step is an exact tie."""

    def __init__(self, c: int) -> None:
        self.c = c

    @property
    def name(self) -> str:
        return f"geometric({self.c})"

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        self._validate_index(start)
        for n in range(start, stop + 1):
            yield Fraction(self.c) ** n


def test_criterion_01_fibonacci_scan(tmp_path):
    t0 = time.monotonic()
    code4, doc4 = _run_cli_json(
        tmp_path, "fib4",
        ["check", "--seq", "fibonacci", "--from", "4", "--to", "5000",
         "--direction", "decreasing"],
    )
    code1, doc1 = _run_cli_json(
        tmp_path, "fib1",
        ["check", "--seq", "fibonacci", "--from", "1", "--to", "5000",
         "--direction", "decreasing"],
    )
    elapsed = time.monotonic() - t0
    start1 = doc1["results"][0]["min_valid_start"]
    # Below n = 4 two steps break "decreasing": r_1 = F_2^(1/2)/F_1 = 1 is
    # below r_2 = 2^(1/3), and r_3 ~ 1.04457 is below r_4 ~ 1.04837.
    ok = (
        code4 == 0
        and doc4["violations"] == []
        and doc4["undecided"] == []
        and code1 == 1
        and doc1["violations"] == [1, 3]
        and start1 == 4
        and elapsed < 60
    )
    _report(1, ok,
            f"fibonacci 4..5000 violations={doc4['violations']} "
            f"undecided={doc4['undecided']}; from 1 exit={code1} "
            f"violations={doc1['violations']} min_valid_start={start1} "
            f"(expected exit 1, exactly [1, 3], start 4); {elapsed:.1f}s")
    assert code4 == 0
    assert doc4["violations"] == [] and doc4["undecided"] == []
    assert elapsed < 60
    assert doc1["violations"] == [1, 3], (
        f"scan from 1 must report exactly two violations, at n = 1 "
        f"(r_1 = 1 < r_2 = 2^(1/3)) and n = 3 (r_3 < r_4); "
        f"got {doc1['violations']}"
    )
    assert code1 == 1, f"scan from 1 must exit 1 (violations); got {code1}"
    assert start1 == 4, (
        f"scan from 1 must give min_valid_start 4; got {start1}"
    )


def test_criterion_02_derangement_scan():
    full = check_monotone(Derangement(), 3, 2000, Direction.DECREASING)
    from2 = check_monotone(Derangement(), 2, 2000, Direction.DECREASING)
    window = check_monotone(Derangement(), 4, 28, Direction.DECREASING)
    ok = (
        full.certified()
        and list(from2.violations) == [2]
        and not from2.undecided
        and window.certified()
    )
    _report(2, ok,
            f"derangement 3..2000 certified={full.certified()}; from 2 "
            f"violations={list(from2.violations)}; window 4..26 "
            f"certified={window.certified()}")
    assert full.certified()
    assert list(from2.violations) == [2] and not from2.undecided
    assert window.certified()


def test_criterion_03_harmonic_grid():
    t0 = time.monotonic()
    failures = []
    for m in range(1, 11):
        rep = check_monotone(Harmonic(m), 3, 200, Direction.INCREASING)
        if not rep.certified():
            failures.append((m, list(rep.violations), list(rep.undecided)))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300
    _report(3, ok,
            f"harmonic m=1..10, n=3..200 increasing; failures={failures}; "
            f"{elapsed:.1f}s")
    assert not failures
    assert elapsed < 300


def test_criterion_04_lucas_min_start():
    horizon = 2000
    n0 = find_min_start(Lucas(3, 2), horizon, Direction.DECREASING)
    tail_ok = False
    if n0 is not None:
        tail = check_monotone(Lucas(3, 2), n0, horizon, Direction.DECREASING)
        tail_ok = tail.certified()
    ok = n0 is not None and tail_ok
    _report(4, ok,
            f"lucas(3,2) min start to horizon {horizon}: N={n0} "
            f"(empirical), tail violation-free={tail_ok}")
    assert n0 is not None
    assert tail_ok


def test_criterion_05_prime_root_inequalities():
    t0 = time.monotonic()
    firo = check_firoozbakht_range(1, 100_000)
    refine = check_prime_ratio_range(5, 100_000)
    elapsed = time.monotonic() - t0
    ok = (
        firo.status is CheckStatus.CERTIFIED
        and refine.status is CheckStatus.CERTIFIED
        and elapsed < 600
    )
    _report(5, ok,
            f"firoozbakht 1..1e5 {firo.status.value}; refinement 5..1e5 "
            f"{refine.status.value}; {elapsed:.0f}s")
    assert firo.status is CheckStatus.CERTIFIED
    assert refine.status is CheckStatus.CERTIFIED
    assert elapsed < 600


def test_criterion_06_squarefree_scan():
    rep = check_monotone(SquarefreeSum(), 7, 100_000, Direction.INCREASING)
    ok = not rep.violations and not rep.undecided
    _report(6, ok,
            f"squarefree sums 7..1e5 increasing: violations="
            f"{list(rep.violations)} undecided={list(rep.undecided)}")
    assert not rep.violations
    assert not rep.undecided


def test_criterion_07_constant_suite():
    results = constants_suite()
    statuses = {r.name: r.status for r in results}
    gamma = lucas_constants(1, -1, 64).gamma
    band_lo, band_hi = -0.382 - 5e-4, -0.382 + 5e-4
    in_band = band_lo <= float(gamma.lo) and float(gamma.hi) <= band_hi
    all_certified = all(s is CheckStatus.CERTIFIED for s in statuses.values())
    names = set(statuses)
    expected = {
        "log5-minus-one-positive",
        "fibonacci-gamma-band",
        "gamma-sixth-power-bound",
        "fibonacci-steps-4-5",
        "harmonic-xlogx(m=1,n=30)",
    }
    certified_count = sum(s is CheckStatus.CERTIFIED for s in statuses.values())
    ok = all_certified and in_band and expected <= names
    _report(7, ok,
            f"constant suite: {certified_count}/{len(statuses)} certified; "
            f"gamma=[{float(gamma.lo):.6f},{float(gamma.hi):.6f}] in band={in_band}")
    assert expected <= names, names
    assert all_certified, statuses
    assert in_band, (float(gamma.lo), float(gamma.hi))


def test_criterion_08_remainder_bounds():
    bad = []
    for n in range(2, 301):
        if check_derangement_offset(n).status is not CheckStatus.CERTIFIED:
            bad.append(("offset", n))
    for n in range(3, 301):
        if check_offset_second_difference(n).status is not CheckStatus.CERTIFIED:
            bad.append(("second-difference", n))
    for n in range(2, 1001):
        if check_stirling_remainder(n).status is not CheckStatus.CERTIFIED:
            bad.append(("stirling", n))
    ok = not bad
    _report(8, ok,
            f"offset 2..300, second-difference 3..300, stirling 2..1000: "
            f"failures={bad[:5]}")
    assert not bad, bad[:10]


def test_criterion_09_xlogx_grid():
    bad = []
    for m in range(1, 41):
        for n in range(3, 201):
            if m >= 11 or n >= 30:
                out = check_harmonic_xlogx(m, n)
                if out.status is not CheckStatus.CERTIFIED:
                    bad.append((m, n, out.status.value))
    counter = check_harmonic_xlogx(2, 3)
    ok = not bad and counter.status is CheckStatus.REFUTED
    _report(9, ok,
            f"x*ln(x) grid m<=40, 3<=n<=200 with (m>=11 or n>=30): "
            f"failures={bad[:5]}; (m=2,n=3) {counter.status.value}")
    assert not bad, bad[:10]
    assert counter.status is CheckStatus.REFUTED


def test_criterion_10_oracle_equivalence():
    builtins = [
        fibonacci(),
        Lucas(3, 2),
        Lucas(4, 3),
        Lucas(2, -1),
        Derangement(),
        Harmonic(1),
        Harmonic(3),
        Primes(),
        SquarefreeSum(),
        Product(fibonacci(), fibonacci()),
        Product(fibonacci(), Harmonic(1)),
        Product(Lucas(3, 2), Derangement()),
    ]
    mismatches = []
    stray_equal = []
    for seq in builtins:
        for n in range(seq.domain_start, 61):
            ladder = ratio_step_verdict(seq, n, Engine(exact_budget=0))
            exact = decide_exact(ratio_step_combination(seq, n))
            if ladder.ordering is not exact:
                mismatches.append((seq.name, n, ladder.ordering, exact))
            if exact is Ordering.EQUAL:
                stray_equal.append((seq.name, n))
    geo_ok = True
    for c in (2, 5):
        for n in range(1, 11):
            v = ratio_step_verdict(Geometric(c), n)
            w = decide_exact(ratio_step_combination(Geometric(c), n))
            geo_ok = geo_ok and (
                v.ordering is Ordering.EQUAL
                and w is Ordering.EQUAL
                and v.method is Method.EXACT
            )
    ok = not mismatches and not stray_equal and geo_ok
    _report(10, ok,
            f"{len(builtins)} built-ins, n<=60: mismatches={mismatches[:3]}, "
            f"unexpected ties={stray_equal[:3]}, geometric ties exact={geo_ok}")
    assert not mismatches, mismatches[:10]
    assert not stray_equal, stray_equal[:10]
    assert geo_ok


def test_criterion_11_log_kernel():
    def to_mpf(d):
        return mpmath.mpf(d.mantissa) * mpmath.power(2, d.exponent)

    ln2 = interval_ln(DyadicInterval.point(2), 128)
    width_ok = ln2.width() <= Dyadic(1, -100)
    digits_ok = (
        float(ln2.lo) == 0.6931471805599453 and float(ln2.hi) == 0.6931471805599453
    )
    rng = random.Random(0xACCE11)
    trials = 0
    containment_bad = nesting_bad = 0
    pad = mpmath.mpf("1e-45")
    for _ in range(5200):
        x = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        iv = interval_ln(x, 96)
        oracle = mpmath.log(mpmath.mpf(x.numerator)) - mpmath.log(
            mpmath.mpf(x.denominator)
        )
        if not (to_mpf(iv.lo) - pad <= oracle <= to_mpf(iv.hi) + pad):
            containment_bad += 1
        trials += 1
    for _ in range(5200):
        x = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        coarse = interval_ln(x, 64)
        fine = interval_ln(x, 128)
        if not coarse.encloses(fine):
            nesting_bad += 1
        trials += 1
    ok = (width_ok and digits_ok and containment_bad == 0 and nesting_bad == 0
          and trials >= 10_000)
    _report(11, ok,
            f"ln(2)@128 width<=2^-100={width_ok} digits={digits_ok}; "
            f"{trials} randomized rationals: containment failures="
            f"{containment_bad}, nesting failures={nesting_bad}")
    assert width_ok
    assert digits_ok
    assert trials >= 10_000
    assert containment_bad == 0
    assert nesting_bad == 0


def test_criterion_12_derangement_oracles():
    def brute(n):
        return sum(
            1 for p in permutations(range(n)) if all(p[i] != i for i in range(n))
        )

    def inclusion_exclusion(n):
        return sum(
            (-1) ** k * (math.factorial(n) // math.factorial(k))
            for k in range(n + 1)
        )

    brute_bad = [n for n in range(1, 9) if derangement_term(n) != brute(n)]
    incl_bad = [
        n for n in range(1, 31) if derangement_term(n) != inclusion_exclusion(n)
    ]
    ok = not brute_bad and not incl_bad
    _report(12, ok,
            f"brute force n<=8 mismatches={brute_bad}; "
            f"inclusion-exclusion n<=30 mismatches={incl_bad}")
    assert not brute_bad
    assert not incl_bad
