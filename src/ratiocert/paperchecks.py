"""Named finite verifications, each returning a machine-checkable certificate.

Every check evaluates a concrete inequality instance with certified
enclosures or exact rational arithmetic, and reports Certified / Refuted /
Undecided together with the enclosures that justify the answer.  A strict
inequality is certified only when the margin enclosure excludes zero on the
right side; a non-strict one when the boundary value is cleared exactly.

Every enclosure is an integer pair [lo, hi] * 2**-(bits+8) at the ln
kernel's one scale.  Margins of the form (sum c_i ln x_i + r) / d, x_i and r
rational, come from compare's log-combination engine: ln 5 - 1,
ln(1+x) - x + x^2/2, ln H - rhs/H, the unit-discriminant tail, the Stirling
remainder and bound, the derangement log offsets, and ln disc.  One formula
gives both ends of the prime-ratio refinement's margin off its kernel pairs,
and the terms with irrational constants (gamma and the gap bound's g-terms,
n!/e, 6e + 3) are pair products, powers and quotients.  A check decides on
the integers and turns a pair into floats, rounded outward, only for its
`detail` (no Dyadic).

Every check takes one Engine.  Interval checks climb the same precision
ladder as the ratio-step verdicts (Engine.rungs: start_bits, doubling up to
cap_bits) and stop at the first rung that decides them.  A rung computes at
its own bits, the recurrence constants too: a gap-bound rung whose bits do
not certify 0 < |gamma| < 1 has no q and is undecided.  Every CheckResult
carries a MethodStats record of the verdicts behind it: one interval verdict
for a single-ladder check, every verdict reached for a window or a range.
The record is not part of the JSON document; the CLI sums it into `stats`.

The derangement and harmonic windows stream their steps from
compare.ratio_step_verdicts, as a scan does, and stop at the first step
that is not as claimed.  The prime ranges (paper_suite's two on one walk)
keep each prime's first-rung ln pair, and read a Firoozbakht step's first
rung and a lower bound on a refinement margin off them.  A step left open
runs cmp_roots.  An instance left open is decided on its margin's lower end,
then by check_prime_ratio_refinement, whose result is the one reported.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import pairwise
from typing import Callable, Iterable, Optional

from .compare import (
    DEFAULT_ENGINE,
    Engine,
    LogCombination,
    Method,
    MethodStats,
    Verdict,
    _combination_fixed,
    _exact_first,
    _rung_s,
    cmp_roots,
    ratio_step_combination,
    ratio_step_verdict,
    ratio_step_verdicts,
)
from .numerics import (
    _KERNEL_EXTRA_BITS,
    NonPositiveArgument,
    Ordering,
    _div_fixed,
    _e_fixed,
    _fixed_rational,
    _ln_fixed,
    _ln_scaled,
    _mul_fixed,
    _outward_floats,
    _pow_fixed,
    _Value,
)
from .sequences import (
    Derangement,
    Harmonic,
    InvalidParameters,
    Lucas,
    Primes,
    derangement_term,
    harmonic_term,
    nth_prime,
    _lucas_fixed,
)


class CheckStatus(Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    UNDECIDED = "undecided"


class NotUnitDiscriminant(ValueError):
    """Raised when a unit-discriminant-only check gets other parameters."""


class CheckResult(_Value):
    __slots__ = _fields = ("name", "status", "witness", "detail", "stats")

    def __init__(self, name: str, status: CheckStatus, witness: Optional[dict], detail: dict,
                 stats: MethodStats) -> None:
        self._set("name", name)
        self._set("status", status)
        self._set("witness", witness)
        self._set("detail", detail)
        self._set("stats", stats)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status.value,
            "witness": self.witness,
            "detail": self.detail,
        }


def _ivf(lo: int, hi: int, bits: int) -> list[float]:
    # the reported floats of the pair [lo, hi] * 2**-(bits+8), rounded outward
    return _outward_floats(lo, hi, -bits - _KERNEL_EXTRA_BITS)


def _abs_fixed(lo: int, hi: int) -> tuple[int, int]:
    # |[lo, hi]| as an integer pair at the same scale
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


def _certify(name: str, witness: Optional[dict],
             judge: Callable[[int], tuple[bool, bool, dict]], engine: Engine) -> CheckResult:
    # judge(bits) -> (certified, refuted, detail); the last rung run decides
    for escalations, bits in enumerate(engine.rungs):
        certified, refuted, detail = judge(bits)
        if certified or refuted:
            break
    status = (CheckStatus.CERTIFIED if certified
              else CheckStatus.REFUTED if refuted else CheckStatus.UNDECIDED)
    return CheckResult(
        name, status, witness, {**detail, "bits": bits, "method": "interval"},
        MethodStats(interval=1, undecided=int(status is CheckStatus.UNDECIDED),
                    max_bits=bits, escalations=escalations),
    )


def _strict_sign_check(name: str, witness: Optional[dict],
                       margin_at: Callable[[int], Optional[tuple]],
                       engine: Engine) -> CheckResult:
    # margin_at(bits) -> (lo, hi) at the scale of bits, or None where the rung cannot
    # enclose the margin; Certified iff lo > 0, Refuted iff hi < 0
    def judge(bits: int) -> tuple[bool, bool, dict]:
        if (margin := margin_at(bits)) is None:
            return False, False, {}
        lo, hi = margin
        return lo > 0, hi < 0, {"margin": _ivf(lo, hi, bits)}

    return _certify(name, witness, judge, engine)


def _verdict_run(
    name: str,
    steps: Iterable[tuple[dict, Verdict]],
    expected: Ordering,
    region: dict,
) -> CheckResult:
    # Certified iff every step's verdict is `expected`; the first step that is
    # not ends the run and becomes the witness.
    failed = []

    def verdicts():
        for witness, v in steps:
            yield v
            if v.ordering is not expected:
                failed.append((witness, v.ordering))
                return

    stats = MethodStats.of(verdicts())
    counts = {"exact": stats.exact, "interval": stats.interval, "max_bits": stats.max_bits}
    if not failed:
        return CheckResult(name, CheckStatus.CERTIFIED, None, {**counts, **region}, stats)
    witness, ordering = failed[0]
    status = CheckStatus.UNDECIDED if ordering is Ordering.UNDECIDED else CheckStatus.REFUTED
    return CheckResult(name, status, witness, {**counts, "ordering": ordering.value}, stats)


# ---------------------------------------------------------------------------
# constants


def check_log5_positive(engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """ln 5 - 1 > 0."""
    comb = LogCombination.from_pairs([(1, 5)])
    return _strict_sign_check(
        "log5-minus-one-positive", None,
        lambda bits: _combination_fixed(comb, bits, -1), engine,
    )


_GAMMA_BAND = (Fraction(-3825, 10000), Fraction(-3815, 10000))


def check_fibonacci_gamma_band(engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """The Fibonacci root ratio gamma lies in [-0.3825, -0.3815]."""

    def judge(bits: int) -> tuple[bool, bool, dict]:
        *_, (lo, hi), _abs, _q = _lucas_fixed(1, -1, bits)
        # the band on integers: lo >= ceil(band_lo * 2**w) and hi <= floor(band_hi * 2**w)
        lo_band, hi_band = (_fixed_rational(x, bits)[i] for x, i in zip(_GAMMA_BAND, (1, 0)))
        return lo >= lo_band and hi <= hi_band, hi < lo_band or lo > hi_band, {
            "gamma": _ivf(lo, hi, bits)}

    return _certify("fibonacci-gamma-band", None, judge, engine)


def check_gamma_sixth_power(engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """|gamma|^6 * 7 * 8 < 1/3 for the Fibonacci recurrence."""

    def margin(bits: int) -> tuple[int, int]:
        *_, g, _q = _lucas_fixed(1, -1, bits)
        third_lo, third_hi = _fixed_rational(Fraction(1, 3), bits)
        p_lo, p_hi = _pow_fixed(g, 6, bits)
        return third_lo - 56 * p_hi, third_hi - 56 * p_lo

    return _strict_sign_check("gamma-sixth-power-bound", None, margin, engine)


def check_fibonacci_early_steps(engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """The Fibonacci ratio steps at n = 4 and n = 5 are both decreasing."""
    fib = Lucas(1, -1)
    verdicts = []
    status, witness = CheckStatus.CERTIFIED, None
    for n in (4, 5):
        v = ratio_step_verdict(fib, n, engine)
        verdicts.append(v)
        if v.ordering is Ordering.UNDECIDED:
            status = CheckStatus.UNDECIDED
        elif v.ordering is not Ordering.GREATER:
            status, witness = CheckStatus.REFUTED, {"n": n}
            break
    details = {f"n={n}": v.to_json() for n, v in zip((4, 5), verdicts)}
    return CheckResult("fibonacci-steps-4-5", status, witness, details, MethodStats.of(verdicts))


# ---------------------------------------------------------------------------
# recurrence-family bounds


def check_lucas_gap_bound(
    a: int, b: int, n: int, engine: Engine = DEFAULT_ENGINE
) -> CheckResult:
    """Instance of the cleared-gap lower bound for two-term recurrences:

    n(n+1)(n+2)*Delta_n > ln(disc) - |g|^n [2q|g|n(n+2) + (n+1)(n+2) + g^2 n(n+1)]

    where Delta_n is the log second difference of the root ratios, g the
    characteristic root ratio, and q = -ln(1-|g|)/|g|.
    """
    disc = a * a - 4 * b
    if disc <= 0:
        raise InvalidParameters(f"discriminant {disc} must be positive")
    if disc == 1:
        raise InvalidParameters("unit discriminant makes the bound vacuous (ln 1 = 0)")
    if n < 1:
        raise InvalidParameters(f"index must be >= 1, got {n}")
    comb = ratio_step_combination(Lucas(a, b), n)
    ln_disc = LogCombination.from_pairs([(1, disc)])

    sides = {}

    def margin(bits: int) -> Optional[tuple[int, int]]:
        *_, g, q = _lucas_fixed(a, b, bits)
        if q is None:  # these bits leave 0 < |g| < 1 open, and with it q
            return None
        lhs = _combination_fixed(comb, bits)
        qg, g2 = _mul_fixed(q, g, bits), _pow_fixed(g, 2, bits)
        c = (n + 1) * (n + 2) * _fixed_rational(1, bits)[0]
        inner = tuple(2 * n * (n + 2) * x + c + n * (n + 1) * y for x, y in zip(qg, g2))
        t_lo, t_hi = _mul_fixed(_pow_fixed(g, n, bits), inner, bits)
        d_lo, d_hi = _combination_fixed(ln_disc, bits)
        rhs = (d_lo - t_hi, d_hi - t_lo)
        sides["lhs"] = _ivf(*lhs, bits)
        sides["rhs"] = _ivf(*rhs, bits)
        return lhs[0] - rhs[1], lhs[1] - rhs[0]

    out = _strict_sign_check(
        f"lucas-gap-bound({a},{b},n={n})", {"a": a, "b": b, "n": n}, margin, engine,
    )
    out.detail.update(sides)
    return out


def check_unit_discriminant_tail(
    a: int, b: int, n: int, engine: Engine = DEFAULT_ENGINE
) -> CheckResult:
    """For unit-discriminant recurrences, certifies Delta_n > w_n > 0, where

    w_n = 2/(n+1) * (-g^{n+1} - g^{2n+2}) + g^n/n + g^{n+2}/(n+2)

    and g = (a-1)/(a+1) is the exact rational root ratio.  Requires the
    certified precondition g^n < 1/2; returns Undecided (skip) otherwise.
    """
    disc = a * a - 4 * b
    if disc != 1:
        raise NotUnitDiscriminant(f"discriminant is {disc}, need exactly 1")
    if n < 1:
        raise InvalidParameters(f"index must be >= 1, got {n}")
    g = Fraction(a - 1, a + 1)
    name = f"unit-discriminant-tail({a},{b},n={n})"
    witness = {"a": a, "b": b, "n": n}
    gn = g**n
    if not gn < Fraction(1, 2):
        note = f"precondition g^n < 1/2 fails: g^{n} = {gn}"
        return CheckResult(name, CheckStatus.UNDECIDED, witness,
                           {"note": note, "method": "exact"}, MethodStats(exact=1, undecided=1))
    w = Fraction(2, n + 1) * (-(g ** (n + 1)) - g ** (2 * n + 2)) + gn / n + g ** (n + 2) / (n + 2)
    if w <= 0:
        return CheckResult(name, CheckStatus.REFUTED, witness,
                           {"note": f"w_n = {w} is not positive", "method": "exact"},
                           MethodStats(exact=1))
    # Delta_n - w_n = (ratio-step combination - d w_n) / d with d = n(n+1)(n+2)
    comb = ratio_step_combination(Lucas(a, b), n)
    d = n * (n + 1) * (n + 2)
    out = _strict_sign_check(
        name, witness, lambda bits: _combination_fixed(comb, bits, -d * w, d), engine,
    )
    # w's ends on the finest float grid, 2**-1074, so a tiny w is not flushed to 0.0
    bits = 1074 - _KERNEL_EXTRA_BITS
    out.detail["w_n"] = _ivf(*_fixed_rational(w, bits), bits)
    return out


# ---------------------------------------------------------------------------
# derangement bounds


def check_derangement_window(engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """Ratio steps of the derangement numbers are decreasing for 3 <= n <= 26."""
    return _verdict_run(
        "derangement-window",
        (({"n": n}, v) for n, v in ratio_step_verdicts(Derangement(), 3, 28, engine)),
        Ordering.GREATER, {"range": [3, 26]},
    )


def check_derangement_offset(n: int, engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """|D_n - n!/e| <= 1/2 and |ln D_n - ln n!| <= 1.5."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    d = derangement_term(n)
    f = math.factorial(n)
    log_offset = LogCombination.from_pairs([(1, d), (-1, f)])

    def judge(bits: int) -> tuple[bool, bool, dict]:
        one = _fixed_rational(1, bits)[0]
        fe_lo, fe_hi = _div_fixed((f * one, f * one), _e_fixed(bits), bits)
        dist = _abs_fixed(d * one - fe_hi, d * one - fe_lo)
        offs = _abs_fixed(*_combination_fixed(log_offset, bits))
        half, thresh_log = one >> 1, 3 * one >> 1
        return (
            dist[1] <= half and offs[1] <= thresh_log,
            dist[0] > half or offs[0] > thresh_log,
            {"abs_dist": _ivf(*dist, bits), "abs_log_offset": _ivf(*offs, bits)},
        )

    return _certify(f"derangement-offset(n={n})", {"n": n}, judge, engine)


def check_offset_second_difference(n: int, engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """|n(n-1)(n+1) * second difference of (ln D_k - ln k!)/k| <= 6e + 3.

    The weighted second difference clears to integer coefficients:
    n(n-1)*off(n+1) - 2(n-1)(n+1)*off(n) + n(n+1)*off(n-1).
    """
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")
    # off(k) = ln D_k - ln k!, so each weight goes on two terms
    comb = LogCombination.from_pairs(
        (s * c, x(k))
        for c, k in ((n * (n - 1), n + 1), (-2 * (n - 1) * (n + 1), n), (n * (n + 1), n - 1))
        for s, x in ((1, derangement_term), (-1, math.factorial))
    )

    def judge(bits: int) -> tuple[bool, bool, dict]:
        three = 3 * _fixed_rational(1, bits)[0]
        bound = tuple(6 * x + three for x in _e_fixed(bits))
        mag = _abs_fixed(*_combination_fixed(comb, bits))
        # sound directions: our upper endpoint against the bound's lower one
        return mag[1] <= bound[0], mag[0] > bound[1], {
            "abs_value": _ivf(*mag, bits), "bound": _ivf(*bound, bits)}

    return _certify(f"offset-second-difference(n={n})", {"n": n}, judge, engine)


def check_stirling_remainder(n: int, engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """|ln n! - n ln n + n| < ln n + 1."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    remainder = LogCombination.from_pairs([(1, math.factorial(n)), (-n, n)])
    ln_n = LogCombination.from_pairs([(1, n)])

    def judge(bits: int) -> tuple[bool, bool, dict]:
        r2 = _abs_fixed(*_combination_fixed(remainder, bits, n))
        bound = _combination_fixed(ln_n, bits, 1)
        return r2[1] < bound[0], r2[0] >= bound[1], {
            "abs_value": _ivf(*r2, bits), "bound": _ivf(*bound, bits)}

    return _certify(f"stirling-remainder(n={n})", {"n": n}, judge, engine)


# ---------------------------------------------------------------------------
# logarithm and harmonic inequalities


def check_log_quadratic_bound(x: Fraction, engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """ln(1+x) > x - x^2/2 for x > 0."""
    xf = Fraction(x)
    if xf <= 0:
        raise NonPositiveArgument(f"needs x > 0, got {xf}")
    comb = LogCombination.from_pairs([(1, 1 + xf)])
    return _strict_sign_check(
        f"log-quadratic-lower(x={xf})", {"x": str(xf)},
        lambda bits: _combination_fixed(comb, bits, xf * xf / 2 - xf), engine,
    )


def check_harmonic_xlogx(m: int, n: int, engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """H log H > 4*(2/(n+2))**(m-1) for H the order-m harmonic number at n.

    Since H > 0 this is decided, and its margin reported, as
    ln H - 4*(2/(n+2))**(m-1) / H > 0.  Refuted is a legitimate outcome
    outside the hypothesis region (m >= 11 or n >= 30); inside it a Refuted
    result would be a defect.
    """
    if m < 1 or n < 3:
        raise ValueError(f"needs m >= 1 and n >= 3, got m={m}, n={n}")
    h = harmonic_term(m, n)
    rhs = 4 * Fraction(2, n + 2) ** (m - 1)
    comb = LogCombination.from_pairs([(1, h)])
    return _strict_sign_check(
        f"harmonic-xlogx(m={m},n={n})",
        {"m": m, "n": n, "in_hypothesis": m >= 11 or n >= 30},
        lambda bits: _combination_fixed(comb, bits, -rhs / h), engine,
    )


def check_harmonic_window(engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """Harmonic ratio steps are increasing for every m in 1..10, n in 3..29."""
    return _verdict_run(
        "harmonic-window",
        (({"m": m, "n": n}, v) for m in range(1, 11)
         for n, v in ratio_step_verdicts(Harmonic(m), 3, 31, engine)),
        Ordering.LESS, {"grid": "m=1..10, n=3..29"},
    )


# ---------------------------------------------------------------------------
# prime root inequalities


def check_firoozbakht(n: int, engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """n-th root of p_n strictly exceeds the (n+1)-th root of p_{n+1}."""
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    p, p_next = nth_prime(n), nth_prime(n + 1)
    v = cmp_roots(p, n, p_next, engine)
    detail = {"p_n": p, "p_next": p_next, **v.to_json()}
    status = (CheckStatus.CERTIFIED if v.ordering is Ordering.LESS
              else CheckStatus.UNDECIDED if v.ordering is Ordering.UNDECIDED
              else CheckStatus.REFUTED)
    return CheckResult(f"firoozbakht(n={n})", status, {"n": n}, detail, MethodStats.of((v,)))


def check_prime_ratio_refinement(n: int, engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """p_{n+1}^{1/(n+1)} / p_n^{1/n} < 1 - ln(ln n)/(2n^2).

    The claim is stated for n > 4; smaller n (down to 3, where ln ln n > 0)
    evaluate informationally.
    """
    if n < 3:
        raise ValueError(f"needs n >= 3 so that ln ln n > 0, got {n}")
    p, p_next = nth_prime(n), nth_prime(n + 1)
    return _strict_sign_check(
        f"prime-ratio-refinement(n={n})", {"n": n, "informational": n <= 4},
        lambda bits: _refinement_margin(n, p, p_next, bits), engine,
    )


def _refinement_margin(n: int, p: int, p_next: int, bits: int) -> tuple[int, int]:
    # check_prime_ratio_refinement's margin ln(1 - u) - ln LHS, u = ln ln n / (2n^2),
    # ln LHS = (n ln p_next - (n+1) ln p) / (n(n+1)), as a (lo, hi) pair off the
    # same kernel pairs.  Each end takes the opposite ends of ln ln n and ln LHS
    # and rounds what it subtracts outward (a + -x // k is a - ceil(x / k)).
    w, k, d = bits + _KERNEL_EXTRA_BITS, 2 * n * n, n * (n + 1)
    (p_lo, p_hi), (q_lo, q_hi) = _ln_fixed(p, 0, bits), _ln_fixed(p_next, 0, bits)
    ll_lo, ll_hi = _ln_scaled(*_ln_fixed(n, 0, bits), bits)
    m_lo, m_hi = _ln_scaled((1 << w) + -ll_hi // k, (1 << w) - ll_lo // k, bits)
    return m_lo + -(n * q_hi - (n + 1) * p_lo) // d, m_hi - (n * q_lo - (n + 1) * p_hi) // d


def _prime_records(start: int, stop: int, engine: Engine) -> list[tuple[int, int, int]]:
    # (p, lo, hi) for p = p_start..p_{stop+1}, with ln p's pair at the first rung
    return [(p, *_ln_fixed(p, 0, engine.rungs[0])) for p in Primes().terms(start, stop + 1)]


def check_firoozbakht_range(start: int, stop: int,
                            engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """Aggregate Firoozbakht instances for start <= n <= stop."""
    return _firoozbakht_run(start, stop, engine, _prime_records(start, stop, engine))


def _firoozbakht_run(start: int, stop: int, engine: Engine, records: list) -> CheckResult:
    # where sign_of_log_combination's route test runs the first rung, a step reads
    # it off two records; one that goes exact or is not LESS there runs cmp_roots
    budget, bits = engine.exact_budget, engine.rungs[0]
    rung_s, less = _rung_s(2, bits), Verdict(Ordering.LESS, Method.INTERVAL, bits)

    def steps():
        for n, ((p, p_lo, _), (q, _, q_hi)) in enumerate(pairwise(records), start):
            size = n * (q.bit_length() + 1) + (n + 1) * (p.bit_length() + 1)
            if n * q_hi < (n + 1) * p_lo and not _exact_first(size, budget, rung_s):
                yield {"n": n}, less
            else:
                yield {"n": n}, cmp_roots(p, n, q, engine)

    return _verdict_run(f"firoozbakht-range({start}..{stop})", steps(), Ordering.LESS,
                        {"range": [start, stop]})


def check_prime_ratio_range(start: int, stop: int,
                            engine: Engine = DEFAULT_ENGINE) -> CheckResult:
    """Aggregate refinement instances for start <= n <= stop.

    An instance whose margin's lower end is positive at the first rung is
    certified there, as check_prime_ratio_refinement would certify it, and
    no detail is built for it; any other instance runs that check.
    """
    if start < 3:
        raise ValueError(f"needs start >= 3, got {start}")
    return _refinement_run(start, stop, engine, _prime_records(start, stop, engine))


# W bounds the width of check_prime_ratio_refinement's margin, n >= 3, in units
# 2**-(bits+8) at bits <= 2**18.  A kernel pair (LO >> 32) - 1, ceil(HI / 2**32) + 1
# is at most ceil((HI - LO) / 2**32) + 3 wide, and HI - LO is its pad plus under
# 2**31: an atanh series is under 2(bits + 40) wide (under (bits + 40)/3 + 1 terms,
# each under a ninth of the last), ln 2 has 28, a table point 7 ln 2 and 14 more,
# and k ln 2 here at most 64 ln 2 (arguments under 2**64, ln n, 1 - u).  So the
# pairs of ln p_n, ln p_{n+1} and ln n are at most 4 wide; of ln ln n (padded under
# 3.7 * 2**32) 8; of 1 - u, ceil(8 / 18) + 1 = 2; of ln(1 - u) (padded under
# 2.05 * 2**32, as 1 - u > 0.98) 6; of ln LHS, ceil(4(2n + 1) / (n(n + 1))) + 1 <= 4.
_REFINEMENT_WIDTH = 6 + 4


def _refinement_floor(n: int, p_pair: tuple[int, int], q_hi: int, bits: int) -> int:
    # L - W, which the margin's lower end is at least at `bits`, for L a lower bound
    # on the margin off ln p_n and ln p_{n+1} alone: ln ln n <= ln n - 1 < ln p_n - 1
    # bounds u from above, and ln(1 - u) >= -u / (1 - u)
    w, (p_lo, p_hi) = bits + _KERNEL_EXTRA_BITS, p_pair
    u = -(((1 << w) - p_hi) // (2 * n * n))
    return ((-u << w) // ((1 << w) - u) + -(n * q_hi - (n + 1) * p_lo) // (n * (n + 1))
            - _REFINEMENT_WIDTH)


def _refinement_run(start: int, stop: int, engine: Engine, records: list) -> CheckResult:
    # first_rung stands for each instance certified on the first rung, by
    # _refinement_floor or the margin's lower end; the range reads its status, stats
    bits = engine.rungs[0]
    first_rung = CheckResult("", CheckStatus.CERTIFIED, None, {},
                             MethodStats(interval=1, max_bits=bits))

    def instance(n: int, engine: Engine) -> CheckResult:
        (p, *p_pair), (q, _, q_hi) = records[n - start], records[n - start + 1]
        if (bits <= 1 << 18 and _refinement_floor(n, p_pair, q_hi, bits) > 0
                or _refinement_margin(n, p, q, bits)[0] > 0):
            return first_rung
        return check_prime_ratio_refinement(n, engine)

    return _aggregate_range(
        f"prime-ratio-range({start}..{stop})", instance,
        range(start, stop + 1), engine, range=[start, stop],
    )


# ---------------------------------------------------------------------------
# suites


def constants_suite(engine: Engine = DEFAULT_ENGINE) -> list[CheckResult]:
    """The named constant inequalities, all expected Certified."""
    return [
        check_log5_positive(engine),
        check_fibonacci_gamma_band(engine),
        check_gamma_sixth_power(engine),
        check_fibonacci_early_steps(engine),
        check_harmonic_xlogx(1, 30, engine),
    ]


def paper_suite(
    *,
    prime_horizon: int = 2000,
    offset_max: int = 60,
    stirling_max: int = 100,
    engine: Engine = DEFAULT_ENGINE,
) -> list[CheckResult]:
    """Every named check over its claimed region, sized for an interactive run.

    The engine reaches every check.
    """
    results = constants_suite(engine)
    results.extend(
        check_lucas_gap_bound(a, b, n, engine)
        for (a, b, n) in ((1, -1, 4), (1, -1, 6), (2, -1, 10))
    )
    results.extend(
        check_unit_discriminant_tail(a, b, n, engine)
        for (a, b, n) in ((3, 2, 50), (5, 6, 20))
    )
    results.append(check_derangement_window(engine))
    results.append(_aggregate_range(
        "derangement-offset-range", check_derangement_offset, range(2, offset_max + 1), engine
    ))
    results.append(_aggregate_range(
        "offset-second-difference-range", check_offset_second_difference,
        range(3, offset_max + 1), engine,
    ))
    results.append(_aggregate_range(
        "stirling-remainder-range", check_stirling_remainder, range(2, stirling_max + 1), engine
    ))
    results.extend(
        check_log_quadratic_bound(x, engine)
        for x in (Fraction(1), Fraction(1, 1000), Fraction(10))
    )
    # (m=1, n=30) already appears in the constants suite above
    results.append(check_harmonic_xlogx(11, 3, engine))
    results.append(check_harmonic_window(engine))
    records = _prime_records(1, prime_horizon, engine)
    results.append(_firoozbakht_run(1, prime_horizon, engine, records))
    results.append(_refinement_run(5, prime_horizon, engine, records[4:]))
    return results


def _aggregate_range(
    name: str,
    check: Callable[[int, Engine], CheckResult],
    ns: Iterable[int],
    engine: Engine,
    **region,
) -> CheckResult:
    # Certified iff check(n) is for every n; the first other result ends the run
    stats = MethodStats()
    checked = 0
    for n in ns:
        out = check(n, engine)
        checked += 1
        stats = stats.merged(out.stats)
        if out.status is not CheckStatus.CERTIFIED:
            return CheckResult(name, out.status, {"n": n}, out.detail, stats)
    return CheckResult(
        name, CheckStatus.CERTIFIED, None,
        {**region, "checked": checked, "max_bits": stats.max_bits, "method": "interval"},
        stats,
    )
