"""Named finite verifications, each returning a machine-checkable certificate.

Every check evaluates a concrete inequality instance with certified interval
enclosures (escalating precision on a doubling ladder) or exact rational
arithmetic, and reports Certified / Refuted / Undecided together with the
enclosures that justify the answer.  A strict inequality is certified only
when the margin enclosure excludes zero on the right side; a non-strict one
when the boundary value is cleared exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .compare import (
    DEFAULT_CAP_BITS,
    DEFAULT_EXACT_BUDGET,
    DEFAULT_START_BITS,
    LogCombination,
    Method,
    Verdict,
    cmp_roots,
    ratio_step_verdict,
    evaluate_combination,
    sign_of_log_combination,
)
from .numerics import (
    DyadicInterval,
    NonPositiveArgument,
    Ordering,
    interval_e,
    interval_ln,
    iv_abs,
    iv_add_exact,
    iv_div,
    iv_div_scalar,
    iv_mul,
    iv_pow_nonneg,
    iv_scale,
    iv_sub,
    iv_sub_exact,
    round_outward,
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

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status.value,
            "witness": self.witness,
            "detail": self.detail,
        }


def _ivf(iv: DyadicInterval) -> list[float]:
    return [float(iv.lo), float(iv.hi)]


def _ladder(start_bits: int, cap_bits: int):
    bits = start_bits
    while True:
        yield bits
        if bits >= cap_bits:
            return
        bits = min(bits * 2, cap_bits)


def _strict_sign_check(
    name: str,
    witness: Optional[dict],
    margin_at: Callable[[int], DyadicInterval],
    start_bits: int = DEFAULT_START_BITS,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> CheckResult:
    # Certified iff the margin is strictly positive; Refuted iff strictly
    # negative; escalates precision until the enclosure leaves zero.
    last = None
    for bits in _ladder(start_bits, cap_bits):
        m = margin_at(bits)
        last = {"margin": _ivf(m), "bits": bits, "method": "interval"}
        if m.strictly_positive():
            return CheckResult(name, CheckStatus.CERTIFIED, witness, last)
        if m.strictly_negative():
            return CheckResult(name, CheckStatus.REFUTED, witness, last)
    return CheckResult(name, CheckStatus.UNDECIDED, witness, last or {})


def _verdict_detail(v: Verdict) -> dict:
    return {
        "method": v.method.value if v.method else None,
        "bits": v.bits,
        "escalations": v.escalations,
    }


# ---------------------------------------------------------------------------
# constants


def check_log5_positive(start_bits: int = DEFAULT_START_BITS,
                        cap_bits: int = DEFAULT_CAP_BITS) -> CheckResult:
    """ln 5 - 1 > 0."""

    def margin(bits: int) -> DyadicInterval:
        return iv_sub_exact(
            interval_ln(round_outward(5, bits), bits), DyadicInterval.point(1)
        )

    return _strict_sign_check("log5-minus-one-positive", None, margin, start_bits, cap_bits)


_GAMMA_BAND = (Fraction(-3825, 10000), Fraction(-3815, 10000))


def check_fibonacci_gamma_band(start_bits: int = 64,
                               cap_bits: int = DEFAULT_CAP_BITS) -> CheckResult:
    """The Fibonacci root ratio gamma lies in [-0.3825, -0.3815]."""
    lo_band, hi_band = _GAMMA_BAND
    last = None
    for bits in _ladder(start_bits, cap_bits):
        g = lucas_constants(1, -1, bits).gamma
        last = {"gamma": _ivf(g), "bits": bits, "method": "interval"}
        if g.lo.as_fraction() >= lo_band and g.hi.as_fraction() <= hi_band:
            return CheckResult("fibonacci-gamma-band", CheckStatus.CERTIFIED, None, last)
        if g.hi.as_fraction() < lo_band or g.lo.as_fraction() > hi_band:
            return CheckResult("fibonacci-gamma-band", CheckStatus.REFUTED, None, last)
    return CheckResult("fibonacci-gamma-band", CheckStatus.UNDECIDED, None, last or {})


def check_gamma_sixth_power(start_bits: int = DEFAULT_START_BITS,
                            cap_bits: int = DEFAULT_CAP_BITS) -> CheckResult:
    """|gamma|^6 * 7 * 8 < 1/3 for the Fibonacci recurrence."""

    def margin(bits: int) -> DyadicInterval:
        g = lucas_constants(1, -1, bits).gamma_abs
        v = iv_scale(iv_pow_nonneg(g, 6, bits), 56)
        return iv_sub_exact(round_outward(Fraction(1, 3), bits), v)

    return _strict_sign_check("gamma-sixth-power-bound", None, margin, start_bits, cap_bits)


def check_fibonacci_early_steps(**opts) -> CheckResult:
    """The Fibonacci ratio steps at n = 4 and n = 5 are both decreasing."""
    fib = Lucas(1, -1)
    details = {}
    worst = CheckStatus.CERTIFIED
    for n in (4, 5):
        v = ratio_step_verdict(fib, n, **opts)
        details[f"n={n}"] = {"ordering": v.ordering.value, **_verdict_detail(v)}
        if v.ordering is Ordering.UNDECIDED:
            worst = CheckStatus.UNDECIDED
        elif v.ordering is not Ordering.GREATER:
            return CheckResult(
                "fibonacci-steps-4-5", CheckStatus.REFUTED, {"n": n}, details
            )
    return CheckResult("fibonacci-steps-4-5", worst, None, details)


# ---------------------------------------------------------------------------
# recurrence-family bounds


def check_lucas_gap_bound(
    a: int,
    b: int,
    n: int,
    start_bits: int = 256,
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
    seq = Lucas(a, b)
    u0, u1, u2 = (seq.term(n + i) for i in range(3))
    comb = LogCombination.from_pairs(
        [
            (2 * n * (n + 2), u1),
            (-(n + 1) * (n + 2), u0),
            (-n * (n + 1), u2),
        ]
    )

    sides = {}

    def margin(bits: int) -> DyadicInterval:
        cs = lucas_constants(a, b, bits)
        g = cs.gamma_abs
        lhs = evaluate_combination(comb, bits)
        inner = iv_add_exact(
            iv_add_exact(
                iv_scale(iv_mul(cs.q, g, bits), 2 * n * (n + 2)),
                DyadicInterval.point((n + 1) * (n + 2)),
            ),
            iv_scale(iv_pow_nonneg(g, 2, bits), n * (n + 1)),
        )
        ln_disc = (
            interval_ln(round_outward(disc, bits), bits)
            if disc > 1
            else DyadicInterval.point(0)
        )
        rhs = iv_sub_exact(ln_disc, iv_mul(iv_pow_nonneg(g, n, bits), inner, bits))
        sides["lhs"] = _ivf(lhs)
        sides["rhs"] = _ivf(rhs)
        return iv_sub_exact(lhs, rhs)

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
    start_bits: int = 256,
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
        return CheckResult(
            name,
            CheckStatus.UNDECIDED,
            witness,
            {"note": f"precondition g^n < 1/2 fails: g^{n} = {gn}", "method": "exact"},
        )
    w = Fraction(2, n + 1) * (-(g ** (n + 1)) - g ** (2 * n + 2)) + gn / n + g ** (n + 2) / (n + 2)
    if w <= 0:
        return CheckResult(
            name,
            CheckStatus.REFUTED,
            witness,
            {"note": f"w_n = {w} is not positive", "method": "exact"},
        )
    seq = Lucas(a, b)
    u0, u1, u2 = (seq.term(n + i) for i in range(3))

    def margin(bits: int) -> DyadicInterval:
        d0 = iv_div_scalar(iv_scale(interval_ln(round_outward(u1, bits), bits), 2), n + 1, bits)
        d1 = iv_div_scalar(interval_ln(round_outward(u0, bits), bits), n, bits)
        d2 = iv_div_scalar(interval_ln(round_outward(u2, bits), bits), n + 2, bits)
        delta = iv_sub_exact(iv_sub_exact(d0, d1), d2)
        return iv_sub_exact(delta, round_outward(w, bits))

    out = _strict_sign_check(name, witness, margin, start_bits, cap_bits)
    out.detail["w_n"] = [float(w), float(w)]
    return out


# ---------------------------------------------------------------------------
# derangement bounds


def check_derangement_window(**opts) -> CheckResult:
    """Ratio steps of the derangement numbers are decreasing for 3 <= n <= 26."""
    seq = Derangement()
    stats = {"exact": 0, "interval": 0, "max_bits": 0}
    for n in range(3, 27):
        v = ratio_step_verdict(seq, n, **opts)
        _tally(stats, v)
        if v.ordering is Ordering.UNDECIDED:
            return CheckResult(
                "derangement-window", CheckStatus.UNDECIDED, {"n": n}, stats
            )
        if v.ordering is not Ordering.GREATER:
            return CheckResult(
                "derangement-window", CheckStatus.REFUTED, {"n": n},
                {**stats, "ordering": v.ordering.value},
            )
    return CheckResult(
        "derangement-window", CheckStatus.CERTIFIED, None, {**stats, "range": [3, 26]}
    )


def check_derangement_offset(
    n: int, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
    """|D_n - n!/e| <= 1/2 and |ln D_n - ln n!| <= 1.5."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    d = derangement_term(n)
    f = math.factorial(n)
    name = f"derangement-offset(n={n})"
    witness = {"n": n}
    half = Fraction(1, 2)
    thresh_log = Fraction(3, 2)
    last = None
    for bits in _ladder(start_bits, cap_bits):
        dist = iv_abs(
            iv_sub_exact(
                DyadicInterval.point(d),
                iv_div(round_outward(f, bits), interval_e(bits), bits),
            )
        )
        offs = iv_abs(
            iv_sub_exact(
                interval_ln(round_outward(d, bits), bits),
                interval_ln(round_outward(f, bits), bits),
            )
        )
        last = {"abs_dist": _ivf(dist), "abs_log_offset": _ivf(offs),
                "bits": bits, "method": "interval"}
        if dist.hi.as_fraction() <= half and offs.hi.as_fraction() <= thresh_log:
            return CheckResult(name, CheckStatus.CERTIFIED, witness, last)
        if dist.lo.as_fraction() > half or offs.lo.as_fraction() > thresh_log:
            return CheckResult(name, CheckStatus.REFUTED, witness, last)
    return CheckResult(name, CheckStatus.UNDECIDED, witness, last or {})


def _log_offset(k: int, bits: int) -> DyadicInterval:
    # ln D_k - ln k!, both arguments exact integers
    return iv_sub_exact(
        interval_ln(round_outward(derangement_term(k), bits), bits),
        interval_ln(round_outward(math.factorial(k), bits), bits),
    )


def check_offset_second_difference(
    n: int, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
    """|n(n-1)(n+1) * second difference of (ln D_k - ln k!)/k| <= 6e + 3.

    The weighted second difference clears to integer coefficients:
    n(n-1)*off(n+1) - 2(n-1)(n+1)*off(n) + n(n+1)*off(n-1).
    """
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")
    name = f"offset-second-difference(n={n})"
    witness = {"n": n}
    last = None
    for bits in _ladder(start_bits, cap_bits):
        r1 = iv_add_exact(
            iv_add_exact(
                iv_scale(_log_offset(n + 1, bits), n * (n - 1)),
                iv_scale(_log_offset(n, bits), -2 * (n - 1) * (n + 1)),
            ),
            iv_scale(_log_offset(n - 1, bits), n * (n + 1)),
        )
        bound = iv_add_exact(iv_scale(interval_e(bits), 6), DyadicInterval.point(3))
        mag = iv_abs(r1)
        last = {"abs_value": _ivf(mag), "bound": _ivf(bound),
                "bits": bits, "method": "interval"}
        # sound directions: our upper endpoint against the bound's lower one
        if mag.hi <= bound.lo:
            return CheckResult(name, CheckStatus.CERTIFIED, witness, last)
        if mag.lo > bound.hi:
            return CheckResult(name, CheckStatus.REFUTED, witness, last)
    return CheckResult(name, CheckStatus.UNDECIDED, witness, last or {})


def check_stirling_remainder(
    n: int, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
    """|ln n! - n ln n + n| < ln n + 1."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    f = math.factorial(n)
    name = f"stirling-remainder(n={n})"
    witness = {"n": n}
    last = None
    for bits in _ladder(start_bits, cap_bits):
        ln_n = interval_ln(round_outward(n, bits), bits)
        r2 = iv_abs(
            iv_add_exact(
                iv_sub_exact(
                    interval_ln(round_outward(f, bits), bits), iv_scale(ln_n, n)
                ),
                DyadicInterval.point(n),
            )
        )
        bound = iv_add_exact(ln_n, DyadicInterval.point(1))
        last = {"abs_value": _ivf(r2), "bound": _ivf(bound),
                "bits": bits, "method": "interval"}
        if r2.hi < bound.lo:
            return CheckResult(name, CheckStatus.CERTIFIED, witness, last)
        if r2.lo >= bound.hi:
            return CheckResult(name, CheckStatus.REFUTED, witness, last)
    return CheckResult(name, CheckStatus.UNDECIDED, witness, last or {})


# ---------------------------------------------------------------------------
# logarithm and harmonic inequalities


def check_log_quadratic_bound(
    x: Fraction, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
    """ln(1+x) > x - x^2/2 for x > 0."""
    xf = Fraction(x)
    if xf <= 0:
        raise NonPositiveArgument(f"needs x > 0, got {xf}")
    poly = xf - xf * xf / 2

    def margin(bits: int) -> DyadicInterval:
        return iv_sub_exact(
            interval_ln(round_outward(1 + xf, bits), bits), round_outward(poly, bits)
        )

    return _strict_sign_check(
        f"log-quadratic-lower(x={xf})", {"x": str(xf)}, margin, start_bits, cap_bits
    )


def check_harmonic_xlogx(
    m: int, n: int, start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS
) -> CheckResult:
    """H log H > 4*(2/(n+2))**(m-1) for H the order-m harmonic number at n.

    Refuted is a legitimate outcome outside the hypothesis region
    (m >= 11 or n >= 30); inside it a Refuted result would be a defect.
    """
    if m < 1 or n < 3:
        raise ValueError(f"needs m >= 1 and n >= 3, got m={m}, n={n}")
    h = harmonic_term(m, n)
    rhs = 4 * Fraction(2, n + 2) ** (m - 1)

    def margin(bits: int) -> DyadicInterval:
        enc = round_outward(h, bits)
        lhs = iv_mul(enc, interval_ln(enc, bits), bits)
        return iv_sub_exact(lhs, round_outward(rhs, bits))

    return _strict_sign_check(
        f"harmonic-xlogx(m={m},n={n})",
        {"m": m, "n": n, "in_hypothesis": m >= 11 or n >= 30},
        margin, start_bits, cap_bits,
    )


def check_harmonic_window(**opts) -> CheckResult:
    """Harmonic ratio steps are increasing for every m in 1..10, n in 3..29."""
    stats = {"exact": 0, "interval": 0, "max_bits": 0}
    for m in range(1, 11):
        seq = Harmonic(m)
        for n in range(3, 30):
            v = ratio_step_verdict(seq, n, **opts)
            _tally(stats, v)
            if v.ordering is Ordering.UNDECIDED:
                return CheckResult(
                    "harmonic-window", CheckStatus.UNDECIDED, {"m": m, "n": n}, stats
                )
            if v.ordering is not Ordering.LESS:
                return CheckResult(
                    "harmonic-window", CheckStatus.REFUTED, {"m": m, "n": n},
                    {**stats, "ordering": v.ordering.value},
                )
    return CheckResult(
        "harmonic-window", CheckStatus.CERTIFIED, None,
        {**stats, "grid": "m=1..10, n=3..29"},
    )


# ---------------------------------------------------------------------------
# prime root inequalities


def check_firoozbakht(n: int, **opts) -> CheckResult:
    """n-th root of p_n strictly exceeds the (n+1)-th root of p_{n+1}."""
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    p, p_next = nth_prime(n), nth_prime(n + 1)
    v = cmp_roots(Fraction(p), n, Fraction(p_next), **opts)
    detail = {"p_n": p, "p_next": p_next, **_verdict_detail(v)}
    if v.ordering is Ordering.LESS:
        status = CheckStatus.CERTIFIED
    elif v.ordering is Ordering.UNDECIDED:
        status = CheckStatus.UNDECIDED
    else:
        status = CheckStatus.REFUTED
    return CheckResult(f"firoozbakht(n={n})", status, {"n": n}, detail)


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

    def margin(bits: int) -> DyadicInterval:
        lhs = iv_sub_exact(
            iv_div_scalar(interval_ln(p_next, bits), n + 1, bits),
            iv_div_scalar(interval_ln(p, bits), n, bits),
        )
        ln_n = interval_ln(n, bits)
        u = iv_div_scalar(interval_ln(ln_n, bits), 2 * n * n, bits)
        arg = iv_sub(DyadicInterval.point(1), u, bits)
        rhs_log = interval_ln(arg, bits)
        # certify LHS < RHS by showing RHS - LHS > 0 in log form
        return iv_sub_exact(rhs_log, lhs)

    out = _strict_sign_check(
        f"prime-ratio-refinement(n={n})", witness, margin, start_bits, cap_bits
    )
    return out


def check_firoozbakht_range(start: int, stop: int, **opts) -> CheckResult:
    """Aggregate Firoozbakht instances for start <= n <= stop."""
    _ensure_prime_count(stop + 1)
    stats = {"exact": 0, "interval": 0, "max_bits": 0}
    for n in range(start, stop + 1):
        p, p_next = nth_prime(n), nth_prime(n + 1)
        v = cmp_roots(Fraction(p), n, Fraction(p_next), **opts)
        _tally(stats, v)
        if v.ordering is not Ordering.LESS:
            status = (
                CheckStatus.UNDECIDED
                if v.ordering is Ordering.UNDECIDED
                else CheckStatus.REFUTED
            )
            return CheckResult(
                f"firoozbakht-range({start}..{stop})", status,
                {"n": n}, {**stats, "ordering": v.ordering.value},
            )
    return CheckResult(
        f"firoozbakht-range({start}..{stop})", CheckStatus.CERTIFIED, None,
        {**stats, "range": [start, stop]},
    )


def check_prime_ratio_range(
    start: int, stop: int, start_bits: int = DEFAULT_START_BITS,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> CheckResult:
    """Aggregate refinement instances for start <= n <= stop."""
    if start < 3:
        raise ValueError(f"needs start >= 3, got {start}")
    _ensure_prime_count(stop + 1)
    worst_bits = 0
    for n in range(start, stop + 1):
        out = check_prime_ratio_refinement(n, start_bits, cap_bits)
        worst_bits = max(worst_bits, out.detail.get("bits") or 0)
        if out.status is not CheckStatus.CERTIFIED:
            return CheckResult(
                f"prime-ratio-range({start}..{stop})", out.status, {"n": n}, out.detail
            )
    return CheckResult(
        f"prime-ratio-range({start}..{stop})", CheckStatus.CERTIFIED, None,
        {"range": [start, stop], "checked": stop - start + 1, "max_bits": worst_bits,
         "method": "interval"},
    )


def _tally(stats: dict, v: Verdict) -> None:
    if v.method is Method.EXACT:
        stats["exact"] += 1
    elif v.method is Method.INTERVAL:
        stats["interval"] += 1
        stats["max_bits"] = max(stats["max_bits"], v.bits or 0)


# ---------------------------------------------------------------------------
# suites


def constants_suite(**opts) -> list[CheckResult]:
    """The named constant inequalities, all expected Certified."""
    return [
        check_log5_positive(),
        check_fibonacci_gamma_band(),
        check_gamma_sixth_power(),
        check_fibonacci_early_steps(**opts),
        check_harmonic_xlogx(1, 30),
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
    """Every named check over its claimed region, sized for an interactive run."""
    opts = {"start_bits": start_bits, "cap_bits": cap_bits, "exact_budget": exact_budget}
    results = list(constants_suite(**opts))
    results.extend(
        check_lucas_gap_bound(a, b, n, max(start_bits, 256), cap_bits)
        for (a, b, n) in ((1, -1, 4), (1, -1, 6), (2, -1, 10))
    )
    results.extend(
        check_unit_discriminant_tail(a, b, n, max(start_bits, 256), cap_bits)
        for (a, b, n) in ((3, 2, 50), (5, 6, 20))
    )
    results.append(check_derangement_window(**opts))
    results.append(
        _aggregate_range(
            "derangement-offset-range",
            ((n, lambda n=n: check_derangement_offset(n, start_bits, cap_bits))
             for n in range(2, offset_max + 1)),
        )
    )
    results.append(
        _aggregate_range(
            "offset-second-difference-range",
            ((n, lambda n=n: check_offset_second_difference(n, start_bits, cap_bits))
             for n in range(3, offset_max + 1)),
        )
    )
    results.append(
        _aggregate_range(
            "stirling-remainder-range",
            ((n, lambda n=n: check_stirling_remainder(n, start_bits, cap_bits))
             for n in range(2, stirling_max + 1)),
        )
    )
    results.extend(
        check_log_quadratic_bound(x, start_bits, cap_bits)
        for x in (Fraction(1), Fraction(1, 1000), Fraction(10))
    )
    # (m=1, n=30) already appears in the constants suite above
    results.append(check_harmonic_xlogx(11, 3, start_bits, cap_bits))
    results.append(check_harmonic_window(**opts))
    results.append(check_firoozbakht_range(1, prime_horizon, **opts))
    results.append(check_prime_ratio_range(5, prime_horizon, start_bits, cap_bits))
    return results


def _aggregate_range(name: str, items) -> CheckResult:
    bits = 0
    count = 0
    for n, run in items:
        out = run()
        count += 1
        bits = max(bits, out.detail.get("bits") or 0)
        if out.status is not CheckStatus.CERTIFIED:
            return CheckResult(name, out.status, {"n": n}, out.detail)
    return CheckResult(
        name, CheckStatus.CERTIFIED, None,
        {"checked": count, "max_bits": bits, "method": "interval"},
    )
