"""Core numeric layer: dyadics, fixed-point pair operations, certified ln and e.

Oracle values come from mpmath at 60 significant digits, padded by a margin
far below every tested width, so containment assertions never depend on our
own kernel.
"""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratiocert.numerics import (
    MIN_PRECISION_BITS,
    Dyadic,
    DyadicInterval,
    NonPositiveArgument,
    _KERNEL_EXTRA_BITS,
    _KERNEL_GUARD_BITS,
    _TABLE_SCALES,
    _TABLE_SHIFT,
    _atanh_fixed,
    _div_fixed,
    _dyadic_float,
    _e_fixed,
    _fixed_interval,
    _fixed_rational,
    _ln_fixed,
    _ln_kernel,
    _ln_scaled,
    _ln_table,
    _mul_fixed,
    _outward_floats,
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
            m, e = rng.randint(-999, 999), rng.randint(-20, 20)
            a = Dyadic(m, e)
            if rng.random() < 0.25:
                # the same value from other inputs, as Dyadic(4, 0) and Dyadic(1, 2)
                k = rng.randint(1, 6)
                b = Dyadic(m << k, e - k)
            else:
                b = Dyadic(rng.randint(-999, 999), rng.randint(-20, 20))
            fa, fb = a.as_fraction(), b.as_fraction()
            assert (a < b) == (fa < fb)
            assert (a <= b) == (fa <= fb)
            assert (a > b) == (fa > fb)
            assert (a >= b) == (fa >= fb)
            assert (a == b) == (fa == fb)
        four, also_four = Dyadic(4, 0), Dyadic(1, 2)
        assert four == also_four and four <= also_four and four >= also_four
        assert not (four < also_four or four > also_four)

    def test_float_conversion(self):
        assert float(Dyadic(3, -1)) == 1.5
        assert float(Dyadic(1, 2000)) == math.inf


@st.composite
def unnormalized_dyadics(draw) -> tuple[int, int]:
    # x * 2**e with |x| from 1 to 3000 bits, trailing zero bits, and a value
    # exponent from below the subnormals to past the float range
    size = draw(st.integers(1, 3000))
    x = (1 << (size - 1)) | draw(st.integers(0, (1 << (size - 1)) - 1))
    x = draw(st.sampled_from((1, -1))) * (x << draw(st.integers(0, 200)))
    return x, draw(st.integers(-1200, 1200)) - x.bit_length()


class TestDyadicFloat:
    """_dyadic_float converts a pair's integer without building a Dyadic; it
    must give the float of the Dyadic of the same value."""

    @settings(max_examples=400, deadline=None)
    @given(unnormalized_dyadics())
    def test_equals_the_dyadic_float(self, xe):
        x, e = xe
        assert _dyadic_float(x, e) == float(Dyadic(x, e))

    @pytest.mark.parametrize("e", [-(10**6), -1100, 0, 1100, 10**6])
    def test_zero(self, e):
        assert _dyadic_float(0, e) == 0.0 == float(Dyadic(0, e))

    @pytest.mark.parametrize("x, e, expected", [
        (1, 1024, math.inf),
        (-1, 1024, -math.inf),
        ((1 << 3000) - 1, -1976, math.inf),  # rounds up past the largest float
        (-(1 << 2999), -1975, -math.inf),
        (3, 10**6, math.inf),
        ((1 << 53) - 1, 1023 - 52, math.ldexp((1 << 53) - 1, 1023 - 52)),
        ((1 << 80) + 1, -80, 1.0),
        (-(5 << 400), -400, -5.0),
        (1, -1074, math.ldexp(1, -1074)),
        (1, -1076, 0.0),
        # the top 64 bits are a tie, rounded to even; the whole value rounds up
        ((1 << 65) + (1 << 12) + 1, -65, 1.0),
    ], ids=["inf", "-inf", "3000-bit-rounds-to-inf", "-inf-3000-bit", "huge-exponent",
            "largest-53-bit", "81-bit", "trailing-zeros", "least-subnormal", "underflow",
            "top-64-bits-only"])
    def test_edges(self, x, e, expected):
        assert _dyadic_float(x, e) == expected == float(Dyadic(x, e))


class TestOutwardFloats:
    """_outward_floats reports a pair [lo, hi] * 2**e as the nearest floats
    from outside: each end on or beyond its exact value, and the next float
    inward strictly inside."""

    @staticmethod
    def assert_outward(m: int, e: int, f: float, up: bool) -> None:
        exact = Fraction(m) * Fraction(2) ** e
        inward = math.nextafter(f, -math.inf if up else math.inf)
        if up:
            assert exact <= f and inward < exact
        else:
            assert f <= exact and exact < inward
        assert f != 0 or math.copysign(1.0, f) == 1.0  # never -0.0

    @settings(max_examples=400, deadline=None)
    @given(unnormalized_dyadics(), unnormalized_dyadics())
    def test_ends_enclose_their_exact_values(self, a, b):
        (lo, e), (hi, _) = a, b
        lo_f, hi_f = _outward_floats(lo, hi, e)
        self.assert_outward(lo, e, lo_f, up=False)
        self.assert_outward(hi, e, hi_f, up=True)

    @pytest.mark.parametrize("m", [0, 1, -1, 3, -3, (1 << 60) + 1, -((1 << 60) + 1)])
    @pytest.mark.parametrize("e", [-(10**6), -1130, -1076, -1074, -1060, -60, 0, 960, 1100,
                                   10**6])
    def test_edges(self, m, e):
        # zero, subnormal results, underflow, 61-bit ends and overflow
        lo_f, hi_f = _outward_floats(m, m, e)
        self.assert_outward(m, e, lo_f, up=False)
        self.assert_outward(m, e, hi_f, up=True)

    def test_overflow_and_underflow_sides(self):
        top = sys.float_info.max
        assert _outward_floats(1, 1, 1024) == [top, math.inf]
        assert _outward_floats(-1, -1, 1024) == [-math.inf, -top]
        tiny = math.ldexp(1, -1074)
        assert _outward_floats(1, 1, -2000) == [0.0, tiny]
        assert _outward_floats(-1, -1, -2000) == [-tiny, 0.0]
        assert _outward_floats(0, 0, 10**6) == [0.0, 0.0]

    def test_exact_ends_are_kept(self):
        assert _outward_floats(-3, 5, -1) == [-1.5, 2.5]
        assert _outward_floats(1, 1, -1074) == [math.ldexp(1, -1074)] * 2
        assert _outward_floats(-(5 << 400), 5 << 400, -400) == [-5.0, 5.0]


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


# ---------------------------------------------------------------------------
# the table-driven ln kernel at the edges of its reduction

S = _TABLE_SHIFT
kernel_bits = pytest.mark.parametrize("bits", [16, 24, 53, 128, 509, 2048, 8192])


def kernel_arguments(bits: int) -> list[tuple[int, int]]:
    # (m, e) pairs for ln(m * 2**e) at the reduction's edges
    args = []
    for t in (S + 1, 40, 300):
        args += [((1 << t) + 1, 0), ((1 << t) - 1, 3)]  # 2**t - 1 rounds up to idx 2**(s+1)
        for idx in ((1 << S), 90, (2 << S) - 1):
            # the midpoint between idx and idx + 1, the worst |z|
            args.append(((2 * idx + 1) << (t - S - 1), -t))
    args += [(m, e) for m in (1, 3, 5, 7, (1 << S) - 1) for e in (0, -9, 17)]
    # a fixed-point value at the kernel's scale, as _ln_scaled passes it
    w = bits + _KERNEL_EXTRA_BITS
    args += [(7 << (w - 5), -w), ((3 << w) // 10, -w), ((37 << w) // 10 + 1, -w)]
    # |e + t| just under 2**30
    args += [(12345, (1 << 30) - 1 - 13), (12345, 13 - (1 << 30)), (1, 1 - (1 << 30))]
    return args


def kernel_interval(m: int, e: int, bits: int) -> DyadicInterval:
    return _fixed_interval(*_ln_fixed(m, e, bits), bits)


class TestLnKernel:
    @kernel_bits
    def test_edges_contain_oracle_and_nest(self, bits):
        for m, e in kernel_arguments(bits):
            with mpmath.workprec(3 * bits + 128):
                truth = mp_fraction(mpmath.log(m) + e * mpmath.log(2))
            pad = Fraction(1, 2 ** (2 * bits + 40))
            iv = kernel_interval(m, e, bits)
            assert iv.lo.as_fraction() <= truth + pad, (m, e)
            assert truth - pad <= iv.hi.as_fraction(), (m, e)
            assert iv.encloses(kernel_interval(m, e, 2 * bits)), (m, e)

    @kernel_bits
    def test_exponent_shift_intersects_ln_two_multiple(self, bits):
        l2_lo, l2_hi = _ln_fixed(1, 1, bits)
        for m, e in kernel_arguments(bits):
            lo, hi = _ln_fixed(m, 0, bits)
            lo, hi = (lo + e * l2_lo, hi + e * l2_hi) if e >= 0 else (lo + e * l2_hi, hi + e * l2_lo)
            assert kernel_interval(m, e, bits).intersects(_fixed_interval(lo, hi, bits)), (m, e)

    def test_exponent_bound(self):
        with pytest.raises(OverflowError):
            _ln_fixed(12345, (1 << 30) - 13, 64)
        with pytest.raises(OverflowError):
            _ln_fixed(1, -(1 << 30), 64)

    def test_exact_one_at_any_exponent(self):
        # 2**100000 is wider than the kernel reads, and its cut bits are zero
        for t in (0, 1, S, 100, 100000):
            assert _ln_fixed(1 << t, -t, 64) == (0, 0)

    def test_table_scales_stay_bounded(self):
        for bits in range(16, 316):
            interval_ln(3, bits)
        info = _ln_table.cache_info()
        assert info.maxsize == _TABLE_SCALES <= 16
        assert info.currsize <= _TABLE_SCALES


truncation_bits = st.sampled_from([128, 1024, 8192])


class TestTruncatedKernel:
    """The kernel reads only the top scale + 3 bits of a wider argument."""

    @given(
        st.integers(0, 64).map(lambda k: round(100_000 / 2 ** (k / 4))),  # 100k down to 2 bits
        st.integers(0, 2**32),
        st.one_of(st.just(0), st.integers(0, 100_000)),
        st.integers(-(1 << 20), 1 << 20),
        truncation_bits,
    )
    @example(100_000, 1, 0, 0, 128)
    @example(100_000, 2, 0, -99_999, 1024)
    @example(100_000, 3, 99_000, 7, 8192)
    @settings(max_examples=40, deadline=None)
    def test_contains_oracle_and_nests(self, size, seed, zeros, e, bits):
        # m from a seed, so hypothesis never holds (or prints) a 100k-bit int;
        # its bits below the top size - zeros cleared, so a cut may drop only zeros
        m = random.Random(seed).getrandbits(size) | 1 << (size - 1)
        zeros = min(zeros, size - 1)
        m = m >> zeros << zeros
        with mpmath.workprec(3 * bits + 128):
            truth = mp_fraction(mpmath.log(m) + e * mpmath.log(2))
        pad = Fraction(1, 2 ** (2 * bits + 40))
        iv = kernel_interval(m, e, bits)
        assert iv.lo.as_fraction() <= truth + pad
        assert truth - pad <= iv.hi.as_fraction()
        assert iv.encloses(kernel_interval(m, e, 2 * bits))

    @pytest.mark.parametrize("bits", [128, 1024])
    def test_cut_pads_only_when_it_drops_a_one(self, bits):
        # ln m - ln(M 2**s) < 1/M is under one guard-word unit, too little for
        # the enclosures above to show, so pin the rule on the key that each
        # call leaves in the kernel's cache
        s = 1000
        top = (1 << (bits + _KERNEL_EXTRA_BITS + _KERNEL_GUARD_BITS + 2)) + 12345
        _ln_kernel.cache_clear()
        for low, pad, kernel_pad in ((0, 0, 0), (1, 7, 8), (2, 0, 1)):
            _ln_fixed((top << s) + low, 5, bits, pad)
            hits = _ln_kernel.cache_info().hits
            _ln_kernel(top, 5 + s, bits, kernel_pad)
            assert _ln_kernel.cache_info().hits == hits + 1, (low, pad)

    @given(st.integers(-4, 4), st.integers(1, 2**32), st.integers(0, 8), truncation_bits)
    @settings(max_examples=30, deadline=None)
    def test_one_call_interval_is_the_two_call_one_to_an_ulp(self, k, seed, width, bits):
        # a fixed-point interval a few ulps wide, as the checks pass them, with
        # lo * 2**-w in [2**k, 2**k + 2)
        w = bits + _KERNEL_EXTRA_BITS
        lo = random.Random(seed).getrandbits(w + 1) + (1 << (w + k))
        hi = lo + width
        one_lo, one_hi = _ln_scaled(lo, hi, bits)
        with mpmath.workprec(3 * bits + 128):
            ln_lo, ln_hi = (mp_fraction(mpmath.log(x) - w * mpmath.log(2)) for x in (lo, hi))
        assert Fraction(one_lo, 2**w) <= ln_lo and ln_hi <= Fraction(one_hi, 2**w)
        assert one_lo == _ln_fixed(lo, -w, bits)[0]
        assert abs(one_hi - _ln_fixed(hi, -w, bits)[1]) <= 1


def old_ln_fixed(m: int, e: int, bits: int) -> tuple[int, int]:
    # the kernel before the table: reduce m / 2**t to [1, 2), fold one more
    # factor 2 above 1.5 so |z| <= 1/5, and take ln 2 as 2 atanh(1/3)
    t = m.bit_length() - 1
    k = e + t
    if 3 << t <= 2 * m:
        d0 = 1 << (t + 1)
        k += 1
    else:
        d0 = 1 << t
    if m == d0 and k == 0:
        return 0, 0
    scale = bits + _KERNEL_EXTRA_BITS + _KERNEL_GUARD_BITS
    a_lo, a_hi = _atanh_fixed(m - d0, m + d0, scale)
    h_lo, h_hi = _atanh_fixed(1, 3, scale)
    lo = 2 * a_lo + (2 * k * h_lo if k > 0 else 2 * k * h_hi)
    hi = 2 * a_hi + (2 * k * h_hi if k > 0 else 2 * k * h_lo)
    return (lo >> _KERNEL_GUARD_BITS) - 1, -(-hi >> _KERNEL_GUARD_BITS) + 1


class TestLnKernelAgreesWithFold:
    @pytest.mark.parametrize("bits", [128, 2048])
    def test_enclosures_intersect(self, bits):
        rng = random.Random(bits)
        for _ in range(2000):
            m = rng.getrandbits(rng.randint(1, 4096)) | 1
            e = rng.randint(-4096, 4096)
            new = kernel_interval(m, e, bits)
            old = _fixed_interval(*old_ln_fixed(m, e, bits), bits)
            assert new.intersects(old), (m, e)


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
