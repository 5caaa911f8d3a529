"""Exact dyadic interval arithmetic with outward rounding.

Every approximate quantity in this package is carried as a closed interval
[lo, hi] whose endpoints are dyadic rationals m * 2**e held as plain Python
integers.  All operations round the lower endpoint toward -inf and the upper
endpoint toward +inf, so the true real value is contained in the result
whenever it was contained in the inputs.  Comparisons against rationals are
exact integer comparisons; no binary float ever participates in a decision.

The two transcendental building blocks, ln and e, come with explicit
remainder bounds:

* ln(x) reduces x to m' * 2**k with m' in [1, 2), folds a factor 2 so the
  series argument z = (m'-1)/(m'+1) satisfies |z| <= 1/5, and sums the
  odd-power atanh series with tail bound |z|**(2K+1) / ((2K+1)(1-z**2)).
  ln 2 itself is 2*atanh(1/3), cached per working precision.
* e is the unit-factorial series with tail bound 2/(K+1)!.

Both kernels run in fixed-point integer arithmetic (scale 2**-W with W a few
words above the requested precision) and every division or shift is floored
or ceiled in the direction that keeps the enclosure valid.

The ln kernel returns a plain integer pair (lo, hi) meaning [lo, hi] * 2**-w,
one scale w = bits + 8 per precision.  An exact integer goes into it as it
is, with no rounding first, and a rational as its numerator and denominator,
so a sum of integer multiples of logs is taken on plain integers at that one
scale and wrapped in a DyadicInterval once.  The kernel's cache is bounded
to a scan's working set (64 entries), so memory does not grow with the
length of a scan or the size of its terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

MIN_PRECISION_BITS = 16

# extra mantissa bits carried by the ln/e kernels beyond the requested
# precision; the first term absorbs accumulated ulp losses of the series
# loop, the second keeps the published width bound comfortable
_KERNEL_GUARD_BITS = 32
_KERNEL_EXTRA_BITS = 8


class Ordering(Enum):
    """Outcome of a comparison; UNDECIDED means the evidence was an interval
    that straddled the decision boundary."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNDECIDED = "undecided"


class NonPositiveArgument(ValueError):
    """Raised when ln is asked for an interval not strictly positive."""


class DivisionByIntervalContainingZero(ZeroDivisionError):
    """Raised when an interval divisor contains zero."""


def _check_bits(bits: int) -> None:
    if not isinstance(bits, int) or bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be an int >= {MIN_PRECISION_BITS}, got {bits!r}")


def _ceil_div(a: int, b: int) -> int:
    # b > 0; Python // floors for any sign of a
    return -((-a) // b)


def _shr_ceil(x: int, s: int) -> int:
    return -((-x) >> s)


@dataclass(frozen=True)
class Dyadic:
    """A dyadic rational mantissa * 2**exponent, normalized so the mantissa
    is odd (or zero with exponent zero); equal values are structurally equal."""

    mantissa: int
    exponent: int

    def __post_init__(self) -> None:
        m, e = self.mantissa, self.exponent
        if m == 0:
            e = 0
        else:
            tz = (m & -m).bit_length() - 1
            if tz:
                m >>= tz
                e += tz
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", e)

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent, 1)
        return Fraction(self.mantissa, 1 << -self.exponent)

    def __float__(self) -> float:
        m, e = self.mantissa, self.exponent
        if m == 0:
            return 0.0
        # keep ldexp's argument small enough to avoid int->float overflow
        extra = max(0, abs(m).bit_length() - 64)
        try:
            return math.ldexp(m >> extra if m > 0 else -((-m) >> extra), e + extra)
        except OverflowError:
            return math.inf if m > 0 else -math.inf

    def _cmp(self, other: "Dyadic") -> int:
        d = _sub(self, other).mantissa
        return (d > 0) - (d < 0)

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.mantissa, self.exponent)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        return _add(self, other)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return _sub(self, other)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.mantissa * other.mantissa, self.exponent + other.exponent)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.mantissa), self.exponent)

    def __str__(self) -> str:
        return f"{self.mantissa}*2^{self.exponent}"


def _add(a: Dyadic, b: Dyadic) -> Dyadic:
    # exact: align to the smaller exponent
    if a.mantissa == 0:
        return b
    if b.mantissa == 0:
        return a
    e = min(a.exponent, b.exponent)
    return Dyadic((a.mantissa << (a.exponent - e)) + (b.mantissa << (b.exponent - e)), e)


def _sub(a: Dyadic, b: Dyadic) -> Dyadic:
    return _add(a, -b)


_D_ZERO = Dyadic(0, 0)
_D_ONE = Dyadic(1, 0)


@dataclass(frozen=True)
class DyadicInterval:
    """Closed interval with dyadic endpoints, lo <= hi."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, x) -> "DyadicInterval":
        if isinstance(x, Dyadic):
            return cls(x, x)
        if isinstance(x, int):
            d = Dyadic(x, 0)
            return cls(d, d)
        raise TypeError(f"cannot make an exact point from {type(x).__name__}")

    def width(self) -> Dyadic:
        return _sub(self.hi, self.lo)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def strictly_positive(self) -> bool:
        return self.lo.mantissa > 0

    def strictly_negative(self) -> bool:
        return self.hi.mantissa < 0

    def contains_zero(self) -> bool:
        return self.lo.mantissa <= 0 <= self.hi.mantissa

    def contains(self, x) -> bool:
        xf = Fraction(x)
        return self.lo.as_fraction() <= xf <= self.hi.as_fraction()

    def encloses(self, other: "DyadicInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "DyadicInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def midpoint_float(self) -> float:
        return (float(self.lo) + float(self.hi)) / 2.0

    def __str__(self) -> str:
        return f"[{float(self.lo)!r}, {float(self.hi)!r}]"


_IV_ZERO = DyadicInterval(_D_ZERO, _D_ZERO)


def _floor_log2(num: int, den: int) -> int:
    # num, den > 0; returns k with 2**k <= num/den < 2**(k+1)
    k = num.bit_length() - den.bit_length()
    if k >= 0:
        if num < den << k:
            k -= 1
    else:
        if num << -k < den:
            k -= 1
    return k


def _round_frac_down(x: Fraction, bits: int) -> Dyadic:
    num, den = x.numerator, x.denominator
    if num == 0:
        return _D_ZERO
    e = _floor_log2(abs(num), den) - bits + 1
    if e >= 0:
        return Dyadic(num // (den << e), e)
    return Dyadic((num << -e) // den, e)


def _round_frac_up(x: Fraction, bits: int) -> Dyadic:
    num, den = x.numerator, x.denominator
    if num == 0:
        return _D_ZERO
    e = _floor_log2(abs(num), den) - bits + 1
    if e >= 0:
        return Dyadic(_ceil_div(num, den << e), e)
    return Dyadic(_ceil_div(num << -e, den), e)


def _round_dyadic_down(d: Dyadic, bits: int) -> Dyadic:
    m = d.mantissa
    if m == 0:
        return d
    s = abs(m).bit_length() - bits
    if s <= 0:
        return d
    return Dyadic(m >> s, d.exponent + s)


def _round_dyadic_up(d: Dyadic, bits: int) -> Dyadic:
    m = d.mantissa
    if m == 0:
        return d
    s = abs(m).bit_length() - bits
    if s <= 0:
        return d
    return Dyadic(_shr_ceil(m, s), d.exponent + s)


def round_outward(x, bits: int) -> DyadicInterval:
    """Smallest interval with bits-bit endpoints containing the rational x."""
    _check_bits(bits)
    xf = Fraction(x)
    if xf == 0:
        return _IV_ZERO
    return DyadicInterval(_round_frac_down(xf, bits), _round_frac_up(xf, bits))


def iv_round(a: DyadicInterval, bits: int) -> DyadicInterval:
    """Round an interval's endpoints outward to bits-bit mantissas."""
    return DyadicInterval(_round_dyadic_down(a.lo, bits), _round_dyadic_up(a.hi, bits))


def iv_add_exact(a: DyadicInterval, b: DyadicInterval) -> DyadicInterval:
    return DyadicInterval(_add(a.lo, b.lo), _add(a.hi, b.hi))


def iv_sub_exact(a: DyadicInterval, b: DyadicInterval) -> DyadicInterval:
    return DyadicInterval(_sub(a.lo, b.hi), _sub(a.hi, b.lo))


def iv_neg(a: DyadicInterval) -> DyadicInterval:
    return DyadicInterval(-a.hi, -a.lo)


def iv_abs(a: DyadicInterval) -> DyadicInterval:
    if a.lo.mantissa >= 0:
        return a
    if a.hi.mantissa <= 0:
        return iv_neg(a)
    return DyadicInterval(_D_ZERO, max(-a.lo, a.hi))


def iv_scale(a: DyadicInterval, c: int) -> DyadicInterval:
    """Exact multiplication by an integer scalar."""
    lo = Dyadic(a.lo.mantissa * c, a.lo.exponent)
    hi = Dyadic(a.hi.mantissa * c, a.hi.exponent)
    return DyadicInterval(lo, hi) if c >= 0 else DyadicInterval(hi, lo)


def iv_shift(a: DyadicInterval, k: int) -> DyadicInterval:
    """Exact multiplication by 2**k."""
    return DyadicInterval(Dyadic(a.lo.mantissa, a.lo.exponent + k),
                          Dyadic(a.hi.mantissa, a.hi.exponent + k))


def iv_sub(a: DyadicInterval, b: DyadicInterval, bits: int) -> DyadicInterval:
    _check_bits(bits)
    return iv_round(iv_sub_exact(a, b), bits)


def iv_mul(a: DyadicInterval, b: DyadicInterval, bits: int) -> DyadicInterval:
    _check_bits(bits)
    cands = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return DyadicInterval(_round_dyadic_down(min(cands), bits),
                          _round_dyadic_up(max(cands), bits))


def iv_div(a: DyadicInterval, b: DyadicInterval, bits: int) -> DyadicInterval:
    _check_bits(bits)
    if b.contains_zero():
        raise DivisionByIntervalContainingZero(f"divisor {b} contains zero")
    bf = (b.lo.as_fraction(), b.hi.as_fraction())
    cands = [x.as_fraction() / y for x in (a.lo, a.hi) for y in bf]
    return DyadicInterval(_round_frac_down(min(cands), bits), _round_frac_up(max(cands), bits))


def iv_pow_nonneg(a: DyadicInterval, k: int, bits: int) -> DyadicInterval:
    """a**k for a nonnegative interval and k >= 0, rounding outward."""
    _check_bits(bits)
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if a.lo.mantissa < 0:
        raise ValueError("base interval must be nonnegative")
    if k == 0:
        return DyadicInterval(_D_ONE, _D_ONE)
    work = bits + 8

    def powdir(base: Dyadic, up: bool) -> Dyadic:
        rnd = _round_dyadic_up if up else _round_dyadic_down
        acc = _D_ONE
        b = base
        kk = k
        while kk:
            if kk & 1:
                acc = rnd(acc * b, work)
            kk >>= 1
            if kk:
                b = rnd(b * b, work)
        return acc

    return DyadicInterval(_round_dyadic_down(powdir(a.lo, False), bits),
                          _round_dyadic_up(powdir(a.hi, True), bits))


def cmp_exact(a, b) -> Ordering:
    """Trichotomous comparison of exact rationals (ints or Fractions)."""
    af, bf = Fraction(a), Fraction(b)
    if af < bf:
        return Ordering.LESS
    if af > bf:
        return Ordering.GREATER
    return Ordering.EQUAL


# ---------------------------------------------------------------------------
# certified transcendental kernels


def _atanh_fixed(zn: int, zd: int, scale: int) -> tuple[int, int]:
    # enclosure of atanh(zn/zd) * 2**scale; requires zd > 0 and 3|zn| <= zd,
    # so 1/(1 - z**2) <= 8/7 covers the tail even after upward rounding
    a = abs(zn)
    if a == 0:
        return 0, 0
    az_lo = (a << scale) // zd
    az_hi = _ceil_div(a << scale, zd)
    z2_lo = (az_lo * az_lo) >> scale
    z2_hi = _shr_ceil(az_hi * az_hi, scale)
    s_lo = 0
    s_hi = 0
    pw_lo, pw_hi = az_lo, az_hi
    j = 0
    while True:
        d = 2 * j + 1
        s_lo += pw_lo // d
        s_hi += _ceil_div(pw_hi, d)
        pw_lo = (pw_lo * z2_lo) >> scale
        pw_hi = _shr_ceil(pw_hi * z2_hi, scale)
        j += 1
        tail = _ceil_div(8 * pw_hi, 7 * (2 * j + 1))
        if tail <= 4:
            s_hi += tail
            break
    if zn < 0:
        return -s_hi, -s_lo
    return s_lo, s_hi


_LN2_CACHE: dict[int, tuple[int, int]] = {}


def _ln2_fixed(scale: int) -> tuple[int, int]:
    got = _LN2_CACHE.get(scale)
    if got is None:
        lo, hi = _atanh_fixed(1, 3, scale)
        got = (2 * lo, 2 * hi)
        _LN2_CACHE[scale] = got
    return got


# A scan uses each term in three consecutive windows, at the few precisions
# its steps climb to; 64 entries keep every such reuse while holding only the
# scan's working set, however long the scan and however large its terms.
@lru_cache(maxsize=64)
def _ln_fixed(m: int, e: int, bits: int) -> tuple[int, int]:
    # enclosure [lo, hi] * 2**-w of ln(m * 2**e) for m > 0, w = bits + extra
    t = m.bit_length() - 1
    k = e + t
    if 3 << t <= 2 * m:
        # m/2**t in [1.5, 2): fold one more factor of 2 so |z| stays <= 1/5
        d0 = 1 << (t + 1)
        k += 1
    else:
        d0 = 1 << t
    zn = m - d0
    if zn == 0 and k == 0:
        return 0, 0
    if abs(k) >= 1 << 30:
        raise OverflowError("argument exponent too large for the ln kernel")
    scale = bits + _KERNEL_EXTRA_BITS + _KERNEL_GUARD_BITS
    a_lo, a_hi = _atanh_fixed(zn, m + d0, scale)
    lo = 2 * a_lo
    hi = 2 * a_hi
    if k:
        l2_lo, l2_hi = _ln2_fixed(scale)
        if k > 0:
            lo += k * l2_lo
            hi += k * l2_hi
        else:
            lo += k * l2_hi
            hi += k * l2_lo
    # final pad of one ulp at the target scale keeps enclosures at higher
    # precision strictly nested inside enclosures at lower precision
    return (lo >> _KERNEL_GUARD_BITS) - 1, _shr_ceil(hi, _KERNEL_GUARD_BITS) + 1


def _ln_exact(x, bits: int) -> tuple[int, int]:
    # enclosure [lo, hi] * 2**-w of ln(x) for a positive int or Fraction x:
    # one kernel call for the numerator, one for a denominator other than 1.
    # Each call carries its own nesting pad, and so does their difference.
    lo, hi = _ln_fixed(x.numerator, 0, bits)
    den = x.denominator
    if den != 1:
        d_lo, d_hi = _ln_fixed(den, 0, bits)
        lo -= d_hi
        hi -= d_lo
    return lo, hi


def _ln_scaled(lo: int, hi: int, bits: int) -> tuple[int, int]:
    # enclosure of ln([lo, hi] * 2**-w) at the same scale, for 0 < lo <= hi
    w = bits + _KERNEL_EXTRA_BITS
    return _ln_fixed(lo, -w, bits)[0], _ln_fixed(hi, -w, bits)[1]


def _fixed_rational(x, bits: int) -> tuple[int, int]:
    # floor and ceiling of x * 2**w for an int or Fraction x
    num = x.numerator << (bits + _KERNEL_EXTRA_BITS)
    return num // x.denominator, _ceil_div(num, x.denominator)


def _fixed_interval(lo: int, hi: int, bits: int) -> DyadicInterval:
    """The interval [lo, hi] * 2**-w at the ln kernel's scale for bits."""
    w = bits + _KERNEL_EXTRA_BITS
    return DyadicInterval(Dyadic(lo, -w), Dyadic(hi, -w))


def interval_ln(x, bits: int) -> DyadicInterval:
    """Enclosure of ln(x) for x an exact positive rational, dyadic, or interval.

    For intervals this is the image ln([lo, hi]) and requires lo > 0.  The
    result at a precision contains the result at any higher precision for the
    same argument, and exact representations of 1 return the exact point
    [0, 0].
    """
    _check_bits(bits)
    if isinstance(x, DyadicInterval):
        if x.lo.mantissa <= 0:
            raise NonPositiveArgument(
                f"ln requires a strictly positive interval, got {x}"
            )
        lo, hi = _ln_fixed(x.lo.mantissa, x.lo.exponent, bits)
        if not x.is_point():
            hi = _ln_fixed(x.hi.mantissa, x.hi.exponent, bits)[1]
        return _fixed_interval(lo, hi, bits)
    if isinstance(x, Dyadic):
        if x.mantissa <= 0:
            raise NonPositiveArgument(f"ln requires a positive argument, got {x}")
        return _fixed_interval(*_ln_fixed(x.mantissa, x.exponent, bits), bits)
    if isinstance(x, (int, Fraction)):
        if x <= 0:
            raise NonPositiveArgument(f"ln requires a positive argument, got {x}")
        return _fixed_interval(*_ln_exact(x, bits), bits)
    raise TypeError(f"unsupported ln argument type {type(x).__name__}")


_E_CACHE: dict[int, DyadicInterval] = {}


def interval_e(bits: int) -> DyadicInterval:
    """Enclosure of Euler's number e at the requested precision."""
    _check_bits(bits)
    got = _E_CACHE.get(bits)
    if got is not None:
        return got
    # smallest K with tail 2/(K+1)! < 2**-(bits+2)
    k = 1
    fact_next = 2  # (k+1)!
    while fact_next.bit_length() <= bits + 3:
        k += 1
        fact_next *= k + 1
    # sum_{i<=k} 1/i! = total / k! via S_j = 1 + j * S_{j-1}, S_0 = 1
    total = 1
    for i in range(1, k + 1):
        total = total * i + 1
    fact_k = math.factorial(k)
    q = bits + 3
    lo = Dyadic(((total << q) // fact_k) - 1, -q)
    hi = Dyadic(_ceil_div(((total * (k + 1)) + 2) << q, fact_k * (k + 1)) + 1, -q)
    got = DyadicInterval(lo, hi)
    _E_CACHE[bits] = got
    return got
