"""Reference values computed apart from the program, and the checks on its output.

Terms come from closed forms (Lucas cases, Fibonacci by Binet's formula in
Z[sqrt 5]), inclusion-exclusion (derangements), a common-denominator sum
(harmonic numbers) and plain sieves (primes, squarefree sums).  Signs come
from mpmath at a precision that is doubled until the value clears its
rounding error.  Every check returns a list of problems; an empty list means
the output is correct.  None of them compares against stored program output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from workloads import decode_term

MAX_ORACLE_BITS = 1 << 16


# ---------------------------------------------------------------------------
# terms


def fibonacci(n: int) -> int:
    # (1 + sqrt 5)^n = a + b sqrt 5, so F_n = 2b / 2^n
    a, b = 1, 0
    pa, pb = 1, 1
    k = n
    while k:
        if k & 1:
            a, b = a * pa + 5 * b * pb, a * pb + b * pa
        pa, pb = pa * pa + 5 * pb * pb, 2 * pa * pb
        k >>= 1
    return (2 * b) >> n


def derangement(n: int) -> int:
    # sum_{k=0..n} (-1)^k n!/k!, accumulating n!/k! from k = n downward
    total = 0
    prod = 1
    for k in range(n, -1, -1):
        total += prod if k % 2 == 0 else -prod
        prod *= k
    return total


def harmonic(m: int, n: int) -> Fraction:
    den = math.lcm(*range(1, n + 1)) ** m
    return Fraction(sum(den // k**m for k in range(1, n + 1)), den)


def primes_upto(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return [i for i, f in enumerate(flags) if f]


def nth_primes(count: int) -> list[int]:
    """The first `count` primes, p_1 = 2 first."""
    limit = 64
    while True:
        ps = primes_upto(limit)
        if len(ps) >= count:
            return ps[:count]
        limit *= 2


def squarefree_sums(count: int) -> list[int]:
    """[0, s_1, ..., s_count]: s_n sums the first n squarefree integers."""
    limit = 2 * count + 16  # the n-th squarefree number is about 1.64 n
    flags = [True] * (limit + 1)
    for d in range(2, math.isqrt(limit) + 1):
        for q in range(d * d, limit + 1, d * d):
            flags[q] = False
    sums = [0]
    for k in range(1, limit + 1):
        if flags[k]:
            sums.append(sums[-1] + k)
            if len(sums) > count:
                return sums
    raise AssertionError("squarefree sieve bound too small")


class Terms:
    """Exact terms of a sequence token, from the oracle's own formulas."""

    def __init__(self, seq: str, max_index: int):
        name, _, arg = seq.partition(":")
        if name == "squarefree-sum":
            sums = squarefree_sums(max_index)
            self._term = lambda n: Fraction(sums[n])
        elif name == "fibonacci":
            self._term = lambda n: Fraction(fibonacci(n))
        elif name == "lucas" and arg == "3,2":
            self._term = lambda n: Fraction(2**n - 1)
        elif name == "lucas" and arg == "5,6":
            self._term = lambda n: Fraction(3**n - 2**n)
        elif name == "derangement":
            self._term = lambda n: Fraction(derangement(n))
        elif name == "harmonic":
            m = int(arg)
            self._term = lambda n: harmonic(m, n)
        else:
            raise ValueError(f"no oracle for {seq!r}")

    def __call__(self, n: int) -> Fraction:
        return self._term(n)


# ---------------------------------------------------------------------------
# signs


def _ln(x: Fraction):
    return mpmath.log(mpmath.mpf(x.numerator)) - mpmath.log(mpmath.mpf(x.denominator))


def sign_of_sum(parts, prec: int) -> int:
    """Sign of sum(parts(ln)) where parts maps a log function to a list of
    terms; 0 if the sum does not clear its rounding error by MAX_ORACLE_BITS."""
    while prec <= MAX_ORACLE_BITS:
        with mpmath.workprec(prec):
            terms = parts(_ln)
            total = mpmath.fsum(terms)
            err = mpmath.fsum(abs(t) for t in terms) * mpmath.mpf(2) ** (16 - prec)
            if abs(total) > err:
                return 1 if total > 0 else -1
        prec *= 2
    return 0


def ratio_step_sign(n: int, a0: Fraction, a1: Fraction, a2: Fraction, prec: int) -> int:
    """+1 iff r_n > r_{n+1}, from n(n+1)(n+2) (ln r_n - ln r_{n+1})."""
    return sign_of_sum(
        lambda ln: [2 * n * (n + 2) * ln(a1), -(n + 1) * (n + 2) * ln(a0),
                    -n * (n + 1) * ln(a2)],
        prec,
    )


def _oracle_prec(scan: dict, n: int) -> int:
    # near-tie steps differ from a tie by about 2^-n
    return 2 * n + 64 if scan["oracle_bits"] == "2n" else 128


# ---------------------------------------------------------------------------
# checks of one round's record


def check_scan(scan: dict, rec: dict, terms: Terms) -> list[str]:
    """One library scan: paper statement, verdict count, sampled terms and signs."""
    where = f"{scan['seq']} {scan['start']}..{scan['stop']}"
    problems = []
    violations = rec["violations"]
    undecided = set(rec["undecided"])
    stats = rec["stats"]
    steps = scan["stop"] - 1 - scan["start"]
    if stats["exact"] + stats["interval"] + stats["undecided"] != steps:
        problems.append(f"{where}: stats {stats} do not cover {steps} steps")
    if scan["violations"] is not None and violations != scan["violations"]:
        problems.append(f"{where}: violations {violations}, the paper states "
                        f"{scan['violations']}")
    expected = 1 if scan["direction"] == "decreasing" else -1
    for n in sorted(set(scan["sample"]) | set(violations)):
        if n in undecided:
            continue
        got = rec["terms"].get(str(n))
        want = [terms(n + i) for i in range(3)]
        if got is None:
            problems.append(f"{where}: no terms recorded at n={n}")
            continue
        if [decode_term(t) for t in got] != want:
            problems.append(f"{where}: terms at n={n} differ from the oracle")
            continue
        sign = ratio_step_sign(n, *want, _oracle_prec(scan, n))
        if sign == 0:
            problems.append(f"{where}: oracle could not resolve step n={n}")
        elif (sign == expected) == (n in violations):
            claimed = "a violation" if n in violations else "in direction"
            problems.append(f"{where}: step n={n} reported {claimed}, "
                            f"mpmath sign is {sign:+d}")
    return problems


def check_firoozbakht(rec: dict, primes: list[int]) -> list[str]:
    """p_n^(1/n) > p_{n+1}^(1/(n+1)) is certified for every instance."""
    problems = [f"firoozbakht(n={n}) refuted" for n in rec["refuted"]]
    for key, d in rec["sample"].items():
        n = int(key)
        if d["p_n"] != primes[n - 1] or d["p_next"] != primes[n]:
            problems.append(f"firoozbakht(n={n}): primes {d['p_n']}, {d['p_next']} "
                            f"differ from the sieve")
            continue
        pn, pn1 = Fraction(primes[n - 1]), Fraction(primes[n])
        sign = sign_of_sum(lambda ln: [n * ln(pn1), -(n + 1) * ln(pn)], 128)
        certified = d["status"] == "certified"
        if sign == 0 or certified != (sign < 0):
            problems.append(f"firoozbakht(n={n}): status {d['status']}, "
                            f"mpmath sign {sign:+d}")
    return problems


def refinement_margin(n: int, primes: list[int], prec: int = 256):
    """ln(1 - ln ln n / (2n^2)) - (ln p_{n+1}/(n+1) - ln p_n/n) at prec bits."""
    with mpmath.workprec(prec):
        lhs = mpmath.log(primes[n]) / (n + 1) - mpmath.log(primes[n - 1]) / n
        rhs = mpmath.log(1 - mpmath.log(mpmath.log(n)) / (2 * n * n))
        return rhs - lhs


def check_refinement(rec: dict, primes: list[int]) -> list[str]:
    """p_{n+1}^(1/(n+1)) / p_n^(1/n) < 1 - ln ln n / (2n^2) for every instance."""
    problems = [f"prime-ratio-refinement(n={n}) refuted" for n in rec["refuted"]]
    for key, d in rec["sample"].items():
        n = int(key)
        m = refinement_margin(n, primes)
        lo, hi = d["margin"]
        slack = 4 * 2.0**-53 * max(abs(lo), abs(hi))
        if not lo - slack <= m <= hi + slack:
            problems.append(f"prime-ratio-refinement(n={n}): margin [{lo}, {hi}] "
                            f"misses the mpmath value {mpmath.nstr(m, 12)}")
        if (d["status"] == "certified") != (m > 0):
            problems.append(f"prime-ratio-refinement(n={n}): status {d['status']}, "
                            f"mpmath margin {mpmath.nstr(m, 12)}")
    return problems


def check_suite_doc(doc: dict, code: int) -> list[str]:
    """paper-suite exits 0 and certifies every check, the paper's ones included."""
    problems = []
    if code != 0:
        problems.append(f"paper-suite exited {code}")
    status = {r["name"]: r["status"] for r in doc["results"]}
    for name, s in status.items():
        if s != "certified":
            problems.append(f"paper-suite: {name} is {s}")
    for prefix in ("firoozbakht-range", "derangement-window", "harmonic-window",
                   "fibonacci-steps-4-5"):
        if not any(name.startswith(prefix) for name in status):
            problems.append(f"paper-suite: no {prefix} result")
    return problems


def check_scan_doc(doc: dict, code: int, start: int, stop: int) -> list[str]:
    """`check` certifies the Fibonacci decrease from 4 over every step."""
    problems = []
    if code != 0:
        problems.append(f"check exited {code}")
    res = doc["results"][0]
    if doc["violations"] or not res["certified"] or res["min_valid_start"] != start:
        problems.append(f"check: fibonacci from {start} not certified decreasing: "
                        f"violations {doc['violations']}, result {res}")
    steps = stop - 1 - start
    counted = doc["stats"]["exact"] + doc["stats"]["interval"] + len(doc["undecided"])
    if counted != steps:
        problems.append(f"check: stats count {counted} verdicts for {steps} steps")
    return problems


def check_jobs_invariance(sharded: dict, single: dict) -> list[str]:
    """The sharded document equals the --jobs 1 one but for wall_ms and config.jobs."""

    def strip(doc: dict) -> dict:
        doc = dict(doc, config=dict(doc["config"]))
        doc.pop("wall_ms")
        doc["config"].pop("jobs")
        return doc

    if strip(sharded) != strip(single):
        return ["check: the sharded document differs from the --jobs 1 document"]
    return []
