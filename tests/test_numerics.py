"""Core numeric layer: dyadics, outward rounding, certified ln and e.

Oracle values come from mpmath at 60 significant digits, padded by a margin
far below every tested width, so containment assertions never depend on our
own kernel.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiocert.numerics import (
    MIN_PRECISION_BITS,
    DivisionByIntervalContainingZero,
    Dyadic,
    DyadicInterval,
    NonPositiveArgument,
    Ordering,
    cmp_exact,
    interval_e,
    interval_ln,
    iv_abs,
    iv_add_exact,
    iv_div,
    iv_mul,
    iv_neg,
    iv_pow_nonneg,
    iv_round,
    iv_scale,
    iv_shift,
    iv_sub,
    iv_sub_exact,
    round_outward,
)

mpmath.mp.dps = 60

# mpmath's error at 60 digits is far below 1e-55; use 1e-50 as a safe pad
ORACLE_PAD = Fraction(1, 10**50)


def mp_ln(x: Fraction) -> Fraction:
    val = mpmath.log(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator))
    return Fraction(mpmath.nstr(val, 55, strip_zeros=False))


def assert_contains_oracle(iv: DyadicInterval, oracle: Fraction) -> None:
    assert iv.lo.as_fraction() <= oracle + ORACLE_PAD
    assert oracle - ORACLE_PAD <= iv.hi.as_fraction()


fractions_pos = st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(10**9))
fractions_any = st.fractions(min_value=Fraction(-(10**9)), max_value=Fraction(10**9))
small_bits = st.integers(min_value=MIN_PRECISION_BITS, max_value=192)


# ---------------------------------------------------------------------------
# Dyadic representation


class TestDyadic:
    def test_normalization_makes_mantissa_odd_or_zero(self):
        d = Dyadic(12, 0)
        assert d.mantissa == 3 and d.exponent == 2
        assert Dyadic(0, 17) == Dyadic(0, 0)
        assert Dyadic(-8, -3).as_fraction() == -1

    def test_as_fraction_round_trip(self):
        assert Dyadic(5, -3).as_fraction() == Fraction(5, 8)
        assert Dyadic(-7, 2).as_fraction() == -28

    def test_comparisons_match_fractions(self):
        rng = random.Random(7)
        for _ in range(300):
            a = Dyadic(rng.randint(-999, 999), rng.randint(-20, 20))
            b = Dyadic(rng.randint(-999, 999), rng.randint(-20, 20))
            assert (a < b) == (a.as_fraction() < b.as_fraction())
            assert (a <= b) == (a.as_fraction() <= b.as_fraction())
            assert (a == b) == (a.as_fraction() == b.as_fraction())

    @given(
        st.integers(-(10**12), 10**12), st.integers(-40, 40),
        st.integers(-(10**12), 10**12), st.integers(-40, 40),
    )
    def test_arithmetic_is_exact(self, m1, e1, m2, e2):
        a, b = Dyadic(m1, e1), Dyadic(m2, e2)
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()

    def test_float_conversion(self):
        assert float(Dyadic(3, -1)) == 1.5
        assert float(Dyadic(1, 2000)) == math.inf


class TestInterval:
    def test_point_and_predicates(self):
        p = DyadicInterval.point(3)
        assert p.is_point() and p.strictly_positive() and not p.contains_zero()
        z = DyadicInterval(Dyadic(-1, 0), Dyadic(1, 0))
        assert z.contains_zero() and not z.strictly_positive()
        assert z.contains(Fraction(1, 2)) and not z.contains(2)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            DyadicInterval(Dyadic(1, 0), Dyadic(0, 0))


# ---------------------------------------------------------------------------
# outward rounding


class TestRoundOutward:
    def test_exact_dyadic_gives_point(self):
        iv = round_outward(Fraction(3, 8), 16)
        assert iv.is_point() and iv.lo.as_fraction() == Fraction(3, 8)

    def test_contains_and_width_bound(self):
        rng = random.Random(2026)
        for _ in range(2000):
            num = rng.randint(-(10**12), 10**12)
            den = rng.randint(1, 10**12)
            if num == 0:
                continue
            x = Fraction(num, den)
            bits = rng.choice((16, 24, 53, 64, 128))
            iv = round_outward(x, bits)
            assert iv.lo.as_fraction() <= x <= iv.hi.as_fraction()
            bound = Fraction(2) ** (1 - bits) * max(Fraction(1), abs(x))
            assert iv.width().as_fraction() <= bound

    def test_nesting_in_precision(self):
        x = Fraction(355, 113)
        outer, inner = round_outward(x, 20), round_outward(x, 80)
        assert outer.encloses(inner)

    def test_precision_floor_enforced(self):
        with pytest.raises(ValueError):
            round_outward(Fraction(1, 3), MIN_PRECISION_BITS - 1)


# ---------------------------------------------------------------------------
# interval arithmetic


class TestIntervalArith:
    @staticmethod
    def _rand_interval(rng, lo_mag=10**6):
        a = Fraction(rng.randint(-lo_mag, lo_mag), rng.randint(1, 997))
        b = a + Fraction(rng.randint(0, 1000), rng.randint(1, 997))
        return DyadicInterval(
            round_outward(a, 64).lo if a else Dyadic(0, 0),
            round_outward(b, 64).hi if b else Dyadic(0, 0),
        )

    def test_containment_randomized(self):
        # the four basic operations keep the exact rational result inside
        rng = random.Random(90125)
        ops = {
            "add": iv_add_exact,
            "sub": lambda a, b: iv_sub(a, b, 64),
            "mul": lambda a, b: iv_mul(a, b, 64),
            "div": lambda a, b: iv_div(a, b, 64),
        }
        for _ in range(2500):
            a = self._rand_interval(rng)
            b = self._rand_interval(rng)
            xa = (a.lo.as_fraction() + a.hi.as_fraction()) / 2
            xb = (b.lo.as_fraction() + b.hi.as_fraction()) / 2
            op = rng.choice(tuple(ops))
            if op == "div" and b.contains_zero():
                with pytest.raises(DivisionByIntervalContainingZero):
                    ops[op](a, b)
                continue
            out = ops[op](a, b)
            exact = {
                "add": xa + xb, "sub": xa - xb, "mul": xa * xb,
                "div": xa / xb if xb else None,
            }[op]
            assert out.lo.as_fraction() <= exact <= out.hi.as_fraction()

    def test_exact_ops(self):
        a = DyadicInterval(Dyadic(1, -2), Dyadic(3, -2))
        b = DyadicInterval(Dyadic(1, 0), Dyadic(5, -2))
        s = iv_add_exact(a, b)
        assert s.lo.as_fraction() == Fraction(5, 4) and s.hi.as_fraction() == 2
        d = iv_sub_exact(a, b)
        assert d.lo.as_fraction() == Fraction(1, 4) - Fraction(5, 4)
        n = iv_neg(a)
        assert n.lo.as_fraction() == -a.hi.as_fraction()
        assert iv_abs(n) == a
        sc = iv_scale(a, -4)
        assert sc.lo.as_fraction() == -3 and sc.hi.as_fraction() == -1
        sh = iv_shift(a, 3)
        assert sh.lo.as_fraction() == 2 and sh.hi.as_fraction() == 6

    def test_div_by_zero_interval(self):
        a = DyadicInterval.point(1)
        z = DyadicInterval(Dyadic(-1, 0), Dyadic(1, 0))
        with pytest.raises(DivisionByIntervalContainingZero):
            iv_div(a, z, 64)

    def test_pow_nonneg(self):
        a = round_outward(Fraction(3, 7), 64)
        p = iv_pow_nonneg(a, 11, 64)
        exact = Fraction(3, 7) ** 11
        assert p.lo.as_fraction() <= exact <= p.hi.as_fraction()
        one = iv_pow_nonneg(a, 0, 64)
        assert one.is_point() and one.lo.as_fraction() == 1
        with pytest.raises(ValueError):
            iv_pow_nonneg(a, -1, 64)

    @given(fractions_any, fractions_any, small_bits)
    def test_mul_containment_property(self, x, y, bits):
        a, b = round_outward(x, bits) if x else DyadicInterval.point(0), None
        b = round_outward(y, bits) if y else DyadicInterval.point(0)
        out = iv_mul(a, b, bits)
        assert out.lo.as_fraction() <= x * y <= out.hi.as_fraction()


class TestCmpExact:
    def test_examples(self):
        assert cmp_exact(Fraction(1, 3), Fraction(1, 3)) is Ordering.EQUAL
        assert cmp_exact(Fraction(2, 3), Fraction(3, 4)) is Ordering.LESS
        assert cmp_exact(Fraction(49, 36), Fraction(11, 6)) is Ordering.LESS
        assert cmp_exact(7, 5) is Ordering.GREATER

    @given(fractions_any, fractions_any)
    def test_trichotomy(self, a, b):
        out = cmp_exact(a, b)
        if a < b:
            assert out is Ordering.LESS
        elif a > b:
            assert out is Ordering.GREATER
        else:
            assert out is Ordering.EQUAL


# ---------------------------------------------------------------------------
# certified natural logarithm


class TestIntervalLn:
    def test_ln_one_is_exact_zero(self):
        iv = interval_ln(1, 64)
        assert iv.is_point() and iv.lo.as_fraction() == 0
        assert interval_ln(DyadicInterval.point(1), 128).is_point()

    def test_ln_two_width_and_digits(self):
        iv = interval_ln(DyadicInterval.point(2), 128)
        assert iv.width().as_fraction() <= Fraction(2) ** -100
        assert_contains_oracle(iv, mp_ln(Fraction(2)))
        # agreement with the published digits at double precision
        assert float(iv.lo) == 0.6931471805599453 == float(iv.hi)

    def test_ln_four_consistent_with_doubling(self):
        ln2 = interval_ln(2, 128)
        ln4 = interval_ln(4, 128)
        doubled = iv_scale(ln2, 2)
        assert ln4.intersects(doubled)
        assert ln4.width().as_fraction() <= 4 * doubled.width().as_fraction() + Fraction(2) ** -100

    def test_nonpositive_rejected(self):
        for bad in (0, -3, Fraction(-1, 2)):
            with pytest.raises(NonPositiveArgument):
                interval_ln(bad, 64)
        straddle = DyadicInterval(Dyadic(-1, 0), Dyadic(1, 0))
        with pytest.raises(NonPositiveArgument):
            interval_ln(straddle, 64)

    def test_interval_image(self):
        x = DyadicInterval(Dyadic(1, 0), Dyadic(2, 0))
        iv = interval_ln(x, 64)
        assert iv.lo.as_fraction() <= 0
        assert_contains_oracle(iv, mp_ln(Fraction(2)))

    def test_known_values_against_oracle(self):
        for x in (Fraction(2), Fraction(10), Fraction(3, 7), Fraction(355, 113),
                  Fraction(1, 1000), Fraction(10**30), Fraction(1, 2**40)):
            iv = interval_ln(x, 128)
            assert_contains_oracle(iv, mp_ln(x))
            bound = Fraction(2) ** (2 - 128) * max(Fraction(1), abs(mp_ln(x)))
            assert iv.width().as_fraction() <= bound

    def test_randomized_containment_and_nesting(self):
        # bulk randomized property sweep with a fixed seed (10^4 trials,
        # split between containment-vs-oracle and pure nesting)
        rng = random.Random(421)
        for _ in range(4000):
            x = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
            bits = rng.choice((16, 24, 48, 64))
            iv = interval_ln(x, bits)
            assert_contains_oracle(iv, mp_ln(x))
        for _ in range(6000):
            x = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
            p = rng.choice((16, 24, 32, 48))
            outer = interval_ln(x, p)
            inner = interval_ln(x, 4 * p)
            assert outer.encloses(inner)
            assert inner.width().as_fraction() <= outer.width().as_fraction()

    @given(fractions_pos, st.integers(16, 128))
    @settings(max_examples=200)
    def test_containment_property(self, x, bits):
        iv = interval_ln(x, bits)
        assert_contains_oracle(iv, mp_ln(x))

    @given(fractions_pos, fractions_pos)
    @settings(max_examples=150)
    def test_log_homomorphism_intersection(self, x, y):
        bits = 96
        lhs = interval_ln(x * y, bits)
        rhs = iv_add_exact(interval_ln(x, bits), interval_ln(y, bits))
        assert lhs.intersects(rhs)

    def test_determinism(self):
        a = interval_ln(Fraction(17, 5), 96)
        b = interval_ln(Fraction(17, 5), 96)
        assert a.lo == b.lo and a.hi == b.hi

    def test_width_decay(self):
        x = Fraction(89, 13)
        w1 = interval_ln(x, 32).width().as_fraction()
        w2 = interval_ln(x, 64).width().as_fraction()
        assert w2 <= w1


class TestIntervalE:
    def test_coarse_bracketing(self):
        for bits in (16, 32, 64, 128, 512):
            iv = interval_e(bits)
            assert iv.lo.as_fraction() > 2 and iv.hi.as_fraction() < 3
            assert iv.width().as_fraction() <= Fraction(2) ** (2 - bits)

    def test_contains_oracle(self):
        e_oracle = Fraction(mpmath.nstr(mpmath.e, 55, strip_zeros=False))
        for bits in (16, 64, 128):
            assert_contains_oracle(interval_e(bits), e_oracle)

    def test_sixteen_bit_example(self):
        iv = interval_e(16)
        assert iv.contains(Fraction("2.71828"))
        assert iv.width().as_fraction() <= Fraction(2) ** -14

    def test_six_e_plus_three(self):
        iv = iv_add_exact(iv_scale(interval_e(128), 6), DyadicInterval.point(3))
        assert Fraction("19.309") <= iv.lo.as_fraction()
        assert iv.hi.as_fraction() <= Fraction("19.310")

    def test_nesting(self):
        assert interval_e(32).encloses(interval_e(128))


class TestRoundingHelpers:
    def test_iv_round_widens_outward(self):
        a = DyadicInterval(Dyadic((1 << 40) + 1, -40), Dyadic((1 << 41) - 1, -40))
        r = iv_round(a, 16)
        assert r.encloses(a)
        assert r.lo.as_fraction() <= a.lo.as_fraction()
        assert a.hi.as_fraction() <= r.hi.as_fraction()
