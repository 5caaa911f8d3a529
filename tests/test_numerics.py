"""Core numeric layer: dyadics, fixed-point pair operations, certified ln and e.

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
    Dyadic,
    DyadicInterval,
    NonPositiveArgument,
    _div_fixed,
    _e_fixed,
    _fixed_interval,
    _fixed_rational,
    _mul_fixed,
    _pow_fixed,
    interval_e,
    interval_ln,
)

mpmath.mp.dps = 60

# mpmath's error at 60 digits is far below 1e-55; use 1e-50 as a safe pad
ORACLE_PAD = Fraction(1, 10**50)


def mp_ln(x: Fraction) -> Fraction:
    val = mpmath.log(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator))
    return Fraction(mpmath.nstr(val, 55, strip_zeros=False))


def dyadic_of(x: Fraction) -> Dyadic:
    # the exact Dyadic of a rational whose denominator is a power of two
    assert x.denominator & (x.denominator - 1) == 0
    return Dyadic(x.numerator, 1 - x.denominator.bit_length())


def assert_contains_oracle(iv: DyadicInterval, oracle: Fraction) -> None:
    assert iv.lo.as_fraction() <= oracle + ORACLE_PAD
    assert oracle - ORACLE_PAD <= iv.hi.as_fraction()


fractions_pos = st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(10**9))


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
        doubled = DyadicInterval(Dyadic(ln2.lo.mantissa, ln2.lo.exponent + 1),
                                 Dyadic(ln2.hi.mantissa, ln2.hi.exponent + 1))
        assert ln4.intersects(doubled)
        assert ln4.width().as_fraction() <= 4 * doubled.width().as_fraction() + Fraction(2) ** -100

    def test_nonpositive_rejected(self):
        for bad in (0, -3, Fraction(-1, 2)):
            with pytest.raises(NonPositiveArgument):
                interval_ln(bad, 64)
        straddle = DyadicInterval(Dyadic(-1, 0), Dyadic(1, 0))
        with pytest.raises(NonPositiveArgument):
            interval_ln(straddle, 64)

    def test_precision_floor_enforced(self):
        with pytest.raises(ValueError):
            interval_ln(Fraction(1, 3), MIN_PRECISION_BITS - 1)
        with pytest.raises(ValueError):
            interval_e(MIN_PRECISION_BITS - 1)

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
        a, b = interval_ln(x, bits), interval_ln(y, bits)
        rhs = DyadicInterval(dyadic_of(a.lo.as_fraction() + b.lo.as_fraction()),
                             dyadic_of(a.hi.as_fraction() + b.hi.as_fraction()))
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
        e = interval_e(128)
        assert Fraction("19.309") <= 6 * e.lo.as_fraction() + 3
        assert 6 * e.hi.as_fraction() + 3 <= Fraction("19.310")

    def test_nesting(self):
        assert interval_e(32).encloses(interval_e(128))


# ---------------------------------------------------------------------------
# fixed-point pairs [lo, hi] * 2**-(bits+8): product, power, quotient, e, n!/e

pair_bits = st.sampled_from((128, 256, 512, 1024, 2048))
fractions_nonneg = st.fractions(min_value=0, max_value=Fraction(10**6), max_denominator=10**9)


def mp_fraction(v) -> Fraction:
    m, e = v.man_exp  # the magnitude; the sign is apart
    return Fraction(m) * Fraction(2) ** e * (-1 if v < 0 else 1)


def assert_contains_mp(iv: DyadicInterval, value, bits: int) -> None:
    # value is an mpf taken at 3*bits + 64 bits; the pad is far below an ulp
    v = mp_fraction(value)
    pad = abs(v) / 2 ** (2 * bits)
    assert iv.lo.as_fraction() <= v + pad and v - pad <= iv.hi.as_fraction()


def nested_pairs(pair_at, bits: int) -> DyadicInterval:
    # the enclosure at bits, after asserting that the one at bits // 2 holds it
    outer = _fixed_interval(*pair_at(bits // 2), bits // 2)
    inner = _fixed_interval(*pair_at(bits), bits)
    assert outer.encloses(inner)
    return inner


class TestFixedPairs:
    @given(fractions_nonneg, fractions_nonneg, pair_bits)
    @settings(max_examples=60, deadline=None)
    def test_product_contains_and_nests(self, x, y, bits):
        iv = nested_pairs(
            lambda b: _mul_fixed(_fixed_rational(x, b), _fixed_rational(y, b), b), bits)
        assert iv.contains(x * y)

    @given(st.fractions(min_value=0, max_value=4, max_denominator=10**9),
           st.integers(0, 12), pair_bits)
    @settings(max_examples=60, deadline=None)
    def test_power_contains_and_nests(self, x, k, bits):
        iv = nested_pairs(lambda b: _pow_fixed(_fixed_rational(x, b), k, b), bits)
        assert iv.contains(x**k)

    @given(fractions_nonneg, fractions_pos, pair_bits)
    @settings(max_examples=60, deadline=None)
    def test_quotient_contains_and_nests(self, x, y, bits):
        iv = nested_pairs(
            lambda b: _div_fixed(_fixed_rational(x, b), _fixed_rational(y, b), b), bits)
        assert iv.contains(x / y)

    @pytest.mark.parametrize("bits", [128, 256, 512, 1024, 2048])
    def test_e_contains_and_nests(self, bits):
        iv = nested_pairs(_e_fixed, bits)
        assert interval_e(bits).encloses(iv)
        with mpmath.workprec(3 * bits + 64):
            assert_contains_mp(iv, +mpmath.e, bits)

    @pytest.mark.parametrize("bits", [128, 256, 512, 1024, 2048])
    @pytest.mark.parametrize("n", [2, 10, 35, 58, 100, 300])
    def test_factorial_over_e_contains_and_nests(self, n, bits):
        # the quotient check_derangement_offset compares with D_n
        def f_over_e(b):
            f = math.factorial(n) * _fixed_rational(1, b)[0]
            return _div_fixed((f, f), _e_fixed(b), b)

        iv = nested_pairs(f_over_e, bits)
        with mpmath.workprec(3 * bits + 64):
            assert_contains_mp(iv, mpmath.factorial(n) / mpmath.e, bits)
