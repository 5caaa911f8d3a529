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
remainder and bound, the derangement log offsets, and ln disc.  The
prime-ratio refinement adds ln ln n and ln(1 - u), and the terms with
irrational constants (gamma and the gap bound's g-terms, n!/e, 6e + 3) are
pair products, powers and quotients.  A check decides on the integers and
wraps each reported enclosure in a DyadicInterval once.

Interval checks climb the same precision ladder as the ratio-step verdicts
(start_bits, doubling up to cap_bits; a cap below the start is a ValueError)
and stop at the first rung that decides them.  Every CheckResult carries a
MethodStats record of the verdicts behind it: one interval verdict for a
single-ladder check, every verdict reached for a window or a range.  The
record is not part of the JSON document; the CLI sums it into `stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .compare import (
    DEFAULT_CAP_BITS,
    DEFAULT_EXACT_BUDGET,
    DEFAULT_START_BITS,
    LogCombination,
    MethodStats,
    Verdict,
    _combination_fixed,
    _ladder,
    cmp_roots,
    evaluate_combination,
    ratio_step_combination,
    ratio_step_verdict,
)
from .numerics import (
    DyadicInterval,
    NonPositiveArgument,
    Ordering,
    _div_fixed,
    _e_fixed,
    _fixed_interval,
    _fixed_rational,
    _ln_fixed,
    _ln_scaled,
    _mul_fixed,
    _pow_fixed,
)
from .sequences import (
    Derangement,
    Harmonic,
    InvalidParameters,
    Lucas,
    derangement_term,
    harmonic_term,
    lucas_constants,
    nth_prime,
    _ensure_prime_count,
    _lucas_fixed,
)


class CheckStatus(Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    UNDECIDED = "undecided"


class NotUnitDiscriminant(ValueError):
    """Raised when a unit-discriminant-only check gets other parameters."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: CheckStatus
    witness: Optional[dict]
    detail: dict
    stats: MethodStats

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status.value,
            "witness": self.witness,
            "detail": self.detail,
        }


def _ivf(iv: DyadicInterval) -> list[float]:
    return [float(iv.lo), float(iv.hi)]


def _abs_fixed(lo: int, hi: int) -> tuple[int, int]:
    # |[lo, hi]| as an integer pair at the same scale
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


@lru_cache(maxsize=256)
def _ladder_stats(bits: int, escalations: int, undecided: bool) -> MethodStats:
    # shared, since a range keeps thousands of results alive
    return MethodStats(interval=1, undecided=int(undecided), max_bits=bits,
                       escalations=escalations)


def _certify(name: str, witness: Optional[dict],
             judge: Callable[[int], tuple[bool, bool, dict]],
             start_bits: int, cap_bits: int) -> CheckResult:
    # judge(bits) -> (certified, refuted, detail); the last rung run decides
    for escalations, bits in enumerate(_ladder(start_bits, cap_bits)):
        certified, refuted, detail = judge(bits)
        if certified or refuted:
            break
    status = (CheckStatus.CERTIFIED if certified
              else CheckStatus.REFUTED if refuted else CheckStatus.UNDECIDED)
    return CheckResult(
        name, status, witness, {**detail, "bits": bits, "method": "interval"},
        _ladder_stats(bits, escalations, status is CheckStatus.UNDECIDED),
    )


def _strict_sign_check(name: str, witness: Optional[dict],
                       margin_at: Callable[[int], DyadicInterval],
                       start_bits: int, cap_bits: int) -> CheckResult:
    # Certified iff the margin is strictly positive; Refuted iff strictly negative.
    def judge(bits: int) -> tuple[bool, bool, dict]:
        m = margin_at(bits)
        return m.strictly_positive(), m.strictly_negative(), {"margin": _ivf(m)}

    return _certify(name, witness, judge, start_bits, cap_bits)


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


def check_log5_positive(start_bits: int = DEFAULT_START_BITS,
                        cap_bits: int = DEFAULT_CAP_BITS) -> CheckResult:
    """ln 5 - 1 > 0."""
    comb = LogCombination.from_pairs([(1, 5)])
    return _strict_sign_check(
        "log5-minus-one-positive", None,
        lambda bits: evaluate_combination(comb, bits, -1), start_bits, cap_bits,
    )


_GAMMA_BAND = (Fraction(-3825, 10000), Fraction(-3815, 10000))


def check_fibonacci_gamma_band(start_bits: int = DEFAULT_START_BITS,
                               cap_bits: int = DEFAULT_CAP_BITS) -> CheckResult:
    """The Fibonacci root ratio gamma lies in [-0.3825, -0.3815]."""
    lo_band, hi_band = _GAMMA_BAND

    def judge(bits: int) -> tuple[bool, bool, dict]:
        g = lucas_constants(1, -1, bits).gamma
        lo, hi = g.lo.as_fraction(), g.hi.as_fraction()
        return lo >= lo_band and hi <= hi_band, hi < lo_band or lo > hi_band, {"gamma": _ivf(g)}

    return _certify("fibonacci-gamma-band", None, judge, start_bits, cap_bits)


def check_gamma_sixth_power(start_bits: int = DEFAULT_START_BITS,
                            cap_bits: int = DEFAULT_CAP_BITS) -> CheckResult:
    """|gamma|^6 * 7 * 8 < 1/3 for the Fibonacci recurrence."""

    def margin(bits: int) -> DyadicInterval:
        eff, *_, g, _q = _lucas_fixed(1, -1, bits)
        third_lo, third_hi = _fixed_rational(Fraction(1, 3), eff)
        p_lo, p_hi = _pow_fixed(g, 6, eff)
        return _fixed_interval(third_lo - 56 * p_hi, third_hi - 56 * p_lo, eff)

    return _strict_sign_check("gamma-sixth-power-bound", None, margin, start_bits, cap_bits)


def check_fibonacci_early_steps(**opts) -> CheckResult:
    """The Fibonacci ratio steps at n = 4 and n = 5 are both decreasing."""
    fib = Lucas(1, -1)
    verdicts = []
    status, witness = CheckStatus.CERTIFIED, None
    for n in (4, 5):
        v = ratio_step_verdict(fib, n, **opts)
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
    a: int,
    b: int,
    n: int,
    start_bits: int = DEFAULT_START_BITS,
    cap_bits: int = DEFAULT_CAP_BITS,
    allow_unit_discriminant: bool = False,
) -> CheckResult:
    """Instance of the cleared-gap lower bound for two-term recurrences:

    n(n+1)(n+2)*Delta_n > ln(disc) - |g|^n [2q|g|n(n+2) + (n+1)(n+2) + g^2 n(n+1)]

    where Delta_n is the log second difference of the root ratios, g the
    characteristic root ratio, and q = -ln(1-|g|)/|g|.
    """
    disc = a * a - 4 * b
    if disc <= 0:
        raise InvalidParameters(f"discriminant {disc} must be positive")
    if disc == 1 and not allow_unit_discriminant:
        raise InvalidParameters(
            "unit discriminant makes the bound vacuous (ln 1 = 0); "
            "pass allow_unit_discriminant=True to evaluate informationally"
        )
    if n < 1:
        raise InvalidParameters(f"index must be >= 1, got {n}")
    comb = ratio_step_combination(Lucas(a, b), n)
    ln_disc = LogCombination.from_pairs([(1, disc)])  # ln 1 is the exact point 0

    sides = {}

    def margin(bits: int) -> DyadicInterval:
        eff, *_, g, q = _lucas_fixed(a, b, bits)
        lhs = _combination_fixed(comb, eff)
        qg, g2 = _mul_fixed(q, g, eff), _pow_fixed(g, 2, eff)
        c = (n + 1) * (n + 2) * _fixed_rational(1, eff)[0]
        inner = tuple(2 * n * (n + 2) * x + c + n * (n + 1) * y for x, y in zip(qg, g2))
        t_lo, t_hi = _mul_fixed(_pow_fixed(g, n, eff), inner, eff)
        d_lo, d_hi = _combination_fixed(ln_disc, eff)
        rhs = (d_lo - t_hi, d_hi - t_lo)
        sides["lhs"] = _ivf(_fixed_interval(*lhs, eff))
        sides["rhs"] = _ivf(_fixed_interval(*rhs, eff))
        return _fixed_interval(lhs[0] - rhs[1], lhs[1] - rhs[0], eff)

    out = _strict_sign_check(
        f"lucas-gap-bound({a},{b},n={n})", {"a": a, "b": b, "n": n},
        margin, start_bits, cap_bits,
    )
    out.detail.update(sides)
    return out


def check_unit_discriminant_tail(
    a: int,
    b: int,
    n: int,
    start_bits: int = DEFAULT_START_BITS,
    cap_bits: int = DEFAULT_CAP_BITS,
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
        name, witness, lambda bits: evaluate_combination(comb, bits, -d * w, d),
        start_bits, cap_bits,
    )
    out.detail["w_n"] = [float(w), float(w)]
    return out


# ---------------------------------------------------------------------------
# derangement bounds


def check_derangement_window(**opts) -> CheckResult:
    """Ratio steps of the derangement numbers are decreasing for 3 <= n <= 26."""
    seq = Derangement()
    return _verdict_run(
        "derangement-window",
        (({"n": n}, ratio_step_verdict(seq, n, **opts)) for n in range(3, 27)),
        Ordering.GREATER, {"range": [3, 26]},
    )


def check_derangement_offset(
    n: int, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
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
            {"abs_dist": _ivf(_fixed_interval(*dist, bits)),
             "abs_log_offset": _ivf(_fixed_interval(*offs, bits))},
        )

    return _certify(f"derangement-offset(n={n})", {"n": n}, judge, start_bits, cap_bits)


def check_offset_second_difference(
    n: int, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
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
            "abs_value": _ivf(_fixed_interval(*mag, bits)),
            "bound": _ivf(_fixed_interval(*bound, bits))}

    return _certify(f"offset-second-difference(n={n})", {"n": n}, judge, start_bits, cap_bits)


def check_stirling_remainder(
    n: int, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
    """|ln n! - n ln n + n| < ln n + 1."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    remainder = LogCombination.from_pairs([(1, math.factorial(n)), (-n, n)])
    ln_n = LogCombination.from_pairs([(1, n)])

    def judge(bits: int) -> tuple[bool, bool, dict]:
        r2 = _abs_fixed(*_combination_fixed(remainder, bits, n))
        bound = _combination_fixed(ln_n, bits, 1)
        return r2[1] < bound[0], r2[0] >= bound[1], {
            "abs_value": _ivf(_fixed_interval(*r2, bits)),
            "bound": _ivf(_fixed_interval(*bound, bits))}

    return _certify(f"stirling-remainder(n={n})", {"n": n}, judge, start_bits, cap_bits)


# ---------------------------------------------------------------------------
# logarithm and harmonic inequalities


def check_log_quadratic_bound(
    x: Fraction, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
    """ln(1+x) > x - x^2/2 for x > 0."""
    xf = Fraction(x)
    if xf <= 0:
        raise NonPositiveArgument(f"needs x > 0, got {xf}")
    comb = LogCombination.from_pairs([(1, 1 + xf)])
    return _strict_sign_check(
        f"log-quadratic-lower(x={xf})", {"x": str(xf)},
        lambda bits: evaluate_combination(comb, bits, xf * xf / 2 - xf), start_bits, cap_bits,
    )


def check_harmonic_xlogx(
    m: int, n: int, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
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
        lambda bits: evaluate_combination(comb, bits, -rhs / h), start_bits, cap_bits,
    )


def check_harmonic_window(**opts) -> CheckResult:
    """Harmonic ratio steps are increasing for every m in 1..10, n in 3..29."""
    return _verdict_run(
        "harmonic-window",
        (({"m": m, "n": n}, ratio_step_verdict(Harmonic(m), n, **opts))
         for m in range(1, 11) for n in range(3, 30)),
        Ordering.LESS, {"grid": "m=1..10, n=3..29"},
    )


# ---------------------------------------------------------------------------
# prime root inequalities


def check_firoozbakht(n: int, **opts) -> CheckResult:
    """n-th root of p_n strictly exceeds the (n+1)-th root of p_{n+1}."""
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    p, p_next = nth_prime(n), nth_prime(n + 1)
    v = cmp_roots(Fraction(p), n, Fraction(p_next), **opts)
    detail = {"p_n": p, "p_next": p_next, **v.to_json()}
    status = (CheckStatus.CERTIFIED if v.ordering is Ordering.LESS
              else CheckStatus.UNDECIDED if v.ordering is Ordering.UNDECIDED
              else CheckStatus.REFUTED)
    return CheckResult(f"firoozbakht(n={n})", status, {"n": n}, detail, MethodStats.of((v,)))


def check_prime_ratio_refinement(
    n: int, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
    """p_{n+1}^{1/(n+1)} / p_n^{1/n} < 1 - ln(ln n)/(2n^2).

    The claim is stated for n > 4; smaller n (down to 3, where ln ln n > 0)
    evaluate informationally.
    """
    if n < 3:
        raise ValueError(f"needs n >= 3 so that ln ln n > 0, got {n}")
    p, p_next = nth_prime(n), nth_prime(n + 1)
    witness = {"n": n, "informational": n <= 4}
    lhs = LogCombination.from_pairs([(n, p_next), (-(n + 1), p)])
    k = 2 * n * n

    def margin(bits: int) -> DyadicInterval:
        # certify LHS < RHS by showing ln(1 - u) - ln LHS > 0, u = ln ln n / (2n^2),
        # on integer endpoints at the ln kernel's one scale
        one = _fixed_rational(1, bits)[0]
        ll_lo, ll_hi = _ln_scaled(*_ln_fixed(n, 0, bits), bits)
        r_lo, r_hi = _ln_scaled(one + (-ll_hi // k), one - ll_lo // k, bits)
        s_lo, s_hi = _combination_fixed(lhs, bits, 0, n * (n + 1))
        return _fixed_interval(r_lo - s_hi, r_hi - s_lo, bits)

    return _strict_sign_check(
        f"prime-ratio-refinement(n={n})", witness, margin, start_bits, cap_bits
    )


def check_firoozbakht_range(start: int, stop: int, **opts) -> CheckResult:
    """Aggregate Firoozbakht instances for start <= n <= stop."""
    _ensure_prime_count(stop + 1)
    return _verdict_run(
        f"firoozbakht-range({start}..{stop})",
        (({"n": n}, cmp_roots(Fraction(nth_prime(n)), n, Fraction(nth_prime(n + 1)), **opts))
         for n in range(start, stop + 1)),
        Ordering.LESS, {"range": [start, stop]},
    )


def check_prime_ratio_range(
    start: int, stop: int, start_bits: int = DEFAULT_START_BITS,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> CheckResult:
    """Aggregate refinement instances for start <= n <= stop."""
    if start < 3:
        raise ValueError(f"needs start >= 3, got {start}")
    _ensure_prime_count(stop + 1)
    return _aggregate_range(
        f"prime-ratio-range({start}..{stop})", check_prime_ratio_refinement,
        range(start, stop + 1), start_bits, cap_bits, range=[start, stop],
    )


# ---------------------------------------------------------------------------
# suites


def constants_suite(
    *,
    start_bits: int = DEFAULT_START_BITS,
    cap_bits: int = DEFAULT_CAP_BITS,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> list[CheckResult]:
    """The named constant inequalities, all expected Certified."""
    return [
        check_log5_positive(start_bits, cap_bits),
        check_fibonacci_gamma_band(start_bits, cap_bits),
        check_gamma_sixth_power(start_bits, cap_bits),
        check_fibonacci_early_steps(
            start_bits=start_bits, cap_bits=cap_bits, exact_budget=exact_budget
        ),
        check_harmonic_xlogx(1, 30, start_bits, cap_bits),
    ]


def paper_suite(
    *,
    prime_horizon: int = 2000,
    offset_max: int = 60,
    stirling_max: int = 100,
    start_bits: int = DEFAULT_START_BITS,
    cap_bits: int = DEFAULT_CAP_BITS,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> list[CheckResult]:
    """Every named check over its claimed region, sized for an interactive run.

    start_bits, cap_bits and exact_budget reach every check.
    """
    opts = {"start_bits": start_bits, "cap_bits": cap_bits, "exact_budget": exact_budget}
    bits = (start_bits, cap_bits)
    results = constants_suite(**opts)
    results.extend(
        check_lucas_gap_bound(a, b, n, *bits)
        for (a, b, n) in ((1, -1, 4), (1, -1, 6), (2, -1, 10))
    )
    results.extend(
        check_unit_discriminant_tail(a, b, n, *bits)
        for (a, b, n) in ((3, 2, 50), (5, 6, 20))
    )
    results.append(check_derangement_window(**opts))
    results.append(_aggregate_range(
        "derangement-offset-range", check_derangement_offset, range(2, offset_max + 1), *bits
    ))
    results.append(_aggregate_range(
        "offset-second-difference-range", check_offset_second_difference,
        range(3, offset_max + 1), *bits,
    ))
    results.append(_aggregate_range(
        "stirling-remainder-range", check_stirling_remainder, range(2, stirling_max + 1), *bits
    ))
    results.extend(
        check_log_quadratic_bound(x, *bits)
        for x in (Fraction(1), Fraction(1, 1000), Fraction(10))
    )
    # (m=1, n=30) already appears in the constants suite above
    results.append(check_harmonic_xlogx(11, 3, *bits))
    results.append(check_harmonic_window(**opts))
    results.append(check_firoozbakht_range(1, prime_horizon, **opts))
    results.append(check_prime_ratio_range(5, prime_horizon, *bits))
    return results


def _aggregate_range(
    name: str,
    check: Callable[[int, int, int], CheckResult],
    ns: Iterable[int],
    start_bits: int,
    cap_bits: int,
    **region,
) -> CheckResult:
    # Certified iff check(n) is for every n; the first other result ends the run
    stats = MethodStats()
    checked = 0
    for n in ns:
        out = check(n, start_bits, cap_bits)
        checked += 1
        stats = stats.merged(out.stats)
        if out.status is not CheckStatus.CERTIFIED:
            return CheckResult(name, out.status, {"n": n}, out.detail, stats)
    return CheckResult(
        name, CheckStatus.CERTIFIED, None,
        {**region, "checked": checked, "max_bits": stats.max_bits, "method": "interval"},
        stats,
    )
