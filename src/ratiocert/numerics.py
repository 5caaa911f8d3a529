"""Certified ln and e on fixed-point integers, and the dyadic certificate type.

Every approximate quantity is a plain integer pair (lo, hi) meaning
[lo, hi] * 2**-w, at one scale w = bits + 8 per precision.  Every operation
floors the lower endpoint and ceils the upper one, so the true real value
stays inside, and an enclosure at a precision contains the enclosure at any
higher one.  A pair is wrapped once, by _fixed_interval, in a DyadicInterval:
closed dyadic endpoints m * 2**e compared as exact integers.  No binary float
ever participates in a decision.

The two transcendental building blocks, ln and e, come with explicit
remainder bounds:

* ln(x) reduces x to m' * 2**k with m' in [1, 2), folds a factor 2 so the
  series argument z = (m'-1)/(m'+1) satisfies |z| <= 1/5, and sums the
  odd-power atanh series with tail bound |z|**(2K+1) / ((2K+1)(1-z**2)).
  ln 2 itself is 2*atanh(1/3), cached per working precision.
* e is the unit-factorial series with tail bound 2/(K+1)!.

The ln kernel works a guard word below the scale and rounds onto it at the
end.  An exact integer goes into it as it is, with no rounding first, and a
rational as its numerator and denominator, so a sum of integer multiples of
logs is a sum of pairs.  The kernel's cache is bounded to a scan's working
set (64 entries), so memory does not grow with the length of a scan or the
size of its terms.  Constants that are not sums of logs (a recurrence's root
ratio, n!/e) use three more pair operations at the same scale: the product,
power and quotient of nonnegative pairs.  The one exception is the public
interval_e, which keeps its published scale 2**-(bits+3).
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
        a, b, _ = _aligned(self, other)
        return (a > b) - (a < b)

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    def __str__(self) -> str:
        return f"{self.mantissa}*2^{self.exponent}"


def _aligned(a: Dyadic, b: Dyadic) -> tuple[int, int, int]:
    # both mantissas at the smaller exponent e, exactly
    e = min(a.exponent, b.exponent)
    return a.mantissa << (a.exponent - e), b.mantissa << (b.exponent - e), e


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
        hi, lo, e = _aligned(self.hi, self.lo)
        return Dyadic(hi - lo, e)

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


def _mul_fixed(a: tuple[int, int], b: tuple[int, int], bits: int) -> tuple[int, int]:
    # product of two nonnegative pairs at the one scale, floored and ceiled
    w = bits + _KERNEL_EXTRA_BITS
    return (a[0] * b[0]) >> w, _shr_ceil(a[1] * b[1], w)


def _pow_fixed(a: tuple[int, int], k: int, bits: int) -> tuple[int, int]:
    # a**k for a nonnegative pair and k >= 0, each squaring floored and ceiled
    acc = _fixed_rational(1, bits)
    while k:
        if k & 1:
            acc = _mul_fixed(acc, a, bits)
        k >>= 1
        if k:
            a = _mul_fixed(a, a, bits)
    return acc


def _div_fixed(a: tuple[int, int], b: tuple[int, int], bits: int) -> tuple[int, int]:
    # a / b for a nonnegative pair a and a pair b with b[0] > 0
    w = bits + _KERNEL_EXTRA_BITS
    return (a[0] << w) // b[1], _ceil_div(a[1] << w, b[0])


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


@lru_cache(maxsize=64)
def _e_fixed(bits: int, extra: int = _KERNEL_EXTRA_BITS) -> tuple[int, int]:
    # enclosure [lo, hi] * 2**-w of e, w = bits + extra: the sum of 1/i! for
    # i <= k and its tail bound 2/(k+1)!, with k the first index where
    # (k+1)! >= 2**w
    w = bits + extra
    k = 1
    fact_next = 2  # (k+1)!
    while fact_next.bit_length() <= w:
        k += 1
        fact_next *= k + 1
    # sum_{i<=k} 1/i! = total / k! via S_j = 1 + j * S_{j-1}, S_0 = 1
    total = 1
    for i in range(1, k + 1):
        total = total * i + 1
    lo = (total << w) // (fact_next // (k + 1))
    return lo, _ceil_div((total * (k + 1) + 2) << w, fact_next)


def interval_e(bits: int) -> DyadicInterval:
    """Enclosure of Euler's number e at the requested precision.

    The series at scale 2**-(bits+3), widened by one ulp on each side; the
    checks take the same series at the kernel's scale 2**-(bits+8).
    """
    _check_bits(bits)
    lo, hi = _e_fixed(bits, 3)
    return DyadicInterval(Dyadic(lo - 1, -bits - 3), Dyadic(hi + 1, -bits - 3))
