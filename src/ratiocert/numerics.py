"""Certified ln and e on fixed-point integers, the dyadic certificate type, and
_Value, the slotted base of the package's immutable value classes.

Every approximate quantity is a plain integer pair (lo, hi) meaning
[lo, hi] * 2**-w, at one scale w = bits + 8 per precision.  Every operation
floors the lower endpoint and ceils the upper one, so the true real value
stays inside, and an enclosure at a precision contains the enclosure at any
higher one.  A sign is read off the pair itself.  Only an enclosure that a
public function returns is wrapped, by _fixed_interval, in a DyadicInterval:
closed dyadic endpoints m * 2**e compared as exact integers.  No binary float
ever participates in a decision.

The two transcendental building blocks, ln and e, come with explicit
remainder bounds:

* ln(m * 2**e) rounds m / 2**t, t = bitlength(m) - 1, to the nearest table
  point idx / 64 with idx in [64, 128], and returns
  (e + t - 6) ln 2 + ln idx + 2 atanh(z), z = (m 2**6 - idx 2**t) /
  (m 2**6 + idx 2**t), so |z| <= 1/256 and each term of the odd-power atanh
  series gains about 16 bits.  The series runs one chain of floored powers
  and adds a bound on the chain's rounding and on its tail.  ln 2 is
  18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749), a prime p <= 128 is
  ln(p-1) + 2 atanh(1/(2p-1)), and a composite idx the sum of its factors'
  logs; these are built as arguments need them and kept per working
  precision for the 16 most recent precisions.
* e is the unit-factorial series with tail bound 2/(K+1)!.

The ln kernel works a guard word below the scale and rounds onto it at the
end.  It reads the top scale + 3 bits of an integer, scale = bits + 40 being
the guard word's scale, and pads the upper end by one guard-word unit when
the bits it drops are not all zero, so a call costs the same for any size of
term.  A rational goes in as its numerator and denominator, so a sum of
integer multiples of logs is a sum of pairs, and a narrow fixed-point
interval [lo, hi] as one call at lo with its upper end padded by
(hi - lo) / lo.  The kernel's cache (64 entries, keyed by the cut argument,
see _ln_kernel) keeps memory flat for any scan and any term size.  Constants
that are not sums of logs (a recurrence's root ratio, n!/e) use three more
pair operations at the same scale: the product, power and quotient of
nonnegative pairs.  The one exception is the public interval_e, which
keeps its published scale 2**-(bits+3).
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
from functools import lru_cache, total_ordering

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


class _Value:
    """Base of the immutable value classes: __slots__ keeps a class's fields,
    _fields names them in constructor order.  As with a frozen dataclass, equality
    (same class, equal fields), hash and repr read the fields and assignment raises
    AttributeError; pickle (the --jobs pool) rebuilds an object through __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _set = object.__setattr__  # how an __init__ stores a field, past __setattr__ below

    def __init__(self, *args, **kwargs) -> None:
        values = dict(zip(self._fields, args), **kwargs)  # each field by position or name
        if len(args) + len(kwargs) != len(values) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {self._fields}")
        for name in self._fields:
            self._set(name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


@total_ordering
class Dyadic(_Value):
    """A dyadic rational mantissa * 2**exponent, normalized so the mantissa
    is odd (or zero with exponent zero); equal values are structurally equal,
    so comparing the fields is exact and the order needs only __lt__."""

    __slots__ = _fields = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int) -> None:
        if mantissa:
            tz = (mantissa & -mantissa).bit_length() - 1
            mantissa >>= tz
            exponent += tz
        else:
            exponent = 0
        self._set("mantissa", mantissa)
        self._set("exponent", exponent)

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent, 1)
        return Fraction(self.mantissa, 1 << -self.exponent)

    def __float__(self) -> float:
        return _dyadic_float(self.mantissa, self.exponent)

    def __lt__(self, other: "Dyadic") -> bool:
        a, b, _ = _aligned(self, other)
        return a < b

    def __str__(self) -> str:
        return f"{self.mantissa}*2^{self.exponent}"


def _dyadic_float(m: int, e: int) -> float:
    # the float of m * 2**e, any m (Dyadic's odd mantissa or a pair's end), from
    # the top 64 bits of |m| so ldexp's argument fits a float; +-inf past the range
    extra = max(0, abs(m).bit_length() - 64)
    try:
        return math.ldexp(m >> extra if m >= 0 else -((-m) >> extra), e + extra)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def _outward_floats(lo: int, hi: int, e: int) -> list[float]:
    # the floats nearest [lo, hi] * 2**e from outside: lo floored and hi ceiled
    # onto the float grid (53 significant bits, multiples of 2**-1074 below the
    # normal range), where ldexp is exact; past the range the outer side is
    # +-inf and the inner side the largest finite float
    def rounded(m: int, up: bool) -> float:
        shift = max(m.bit_length() - 53, -1074 - e, 0)
        q = -(-m >> shift) if up else m >> shift
        try:
            return math.ldexp(q, e + shift)
        except OverflowError:
            return math.copysign(math.inf if (q > 0) == up else sys.float_info.max, q)

    # a two-item literal, not appends: reports keep thousands of these lists
    return [rounded(lo, False), rounded(hi, True)]


def _aligned(a: Dyadic, b: Dyadic) -> tuple[int, int, int]:
    # both mantissas at the smaller exponent e, exactly
    e = min(a.exponent, b.exponent)
    return a.mantissa << (a.exponent - e), b.mantissa << (b.exponent - e), e


class DyadicInterval(_Value):
    """Closed interval with dyadic endpoints, lo <= hi."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic) -> None:
        super().__init__(lo, hi)
        self.__post_init__()

    # apart from __init__: tests and the benchmark's tracer count intervals by patching it
    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, x) -> "DyadicInterval":
        if isinstance(x, int):
            x = Dyadic(x, 0)
        if isinstance(x, Dyadic):
            return cls(x, x)
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
    # enclosure of atanh(z) * 2**scale for z = zn/zd; requires zd > 0 and
    # 3|zn| <= zd.  One chain of floored powers p_j of y**(2j+1) * 2**scale,
    # from p_0 = floor(|z| * 2**scale).  With zd below 2**15, y = |z| and each
    # power is floor(p * zn**2 / zd**2), a one-word multiply and divide;
    # otherwise y = p_0 / 2**scale and each power is floor(p * q / 2**scale)
    # with q = floor(p_0**2 / 2**scale).  A step loses under
    # 1 + y**(2j+1) + E/9, E the loss before it, so every p_j is under 3/2
    # below its true value and every floored term p_j // d under 5/2.  The
    # chain ends at p_n = 0, which leaves a tail under (3/2) * 9/8 < 2, and
    # atanh(|z|) - atanh(y) is under 9/8 units.  The upper end therefore
    # adds 5n/2 + 4 <= 2d + 2 to the sum s, with d = 2n + 1 after n terms.
    a = abs(zn)
    p = (a << scale) // zd
    word = zd < 1 << 15
    if word:
        num = a * a
        den = zd * zd
    else:
        q = (p * p) >> scale
    s = 0
    d = 1
    while p:
        s += p // d
        p = p * num // den if word else (p * q) >> scale
        d += 2
    if zn < 0:
        return -(s + 2 * d + 2), -s
    return s, s + 2 * d + 2


# Table points idx / 2**s for idx = 2**s .. 2**(s+1): rounding m / 2**t to
# the nearest one leaves |z| <= 2**-(s+2), so each series term gains about
# 2(s+2) = 16 bits.
_TABLE_SHIFT = 6
# A process climbs the ladder's ten rungs from 128 to 65536 bits; the few
# other precisions the named checks and callers of interval_ln ask for share
# the rest.  Beyond the bound the least recently used scale is recomputed.
_TABLE_SCALES = 16


@lru_cache(maxsize=_TABLE_SCALES)
def _ln_table(scale: int) -> dict[int, tuple[int, int]]:
    # ln n for the integers 1 <= n <= 2**(s+1) as pairs * 2**-scale: ln 1 and
    # ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749) at first;
    # _ln_small adds the others to this dict as arguments need them
    a_lo, a_hi = _atanh_fixed(1, 26, scale)
    b_lo, b_hi = _atanh_fixed(1, 4801, scale)
    c_lo, c_hi = _atanh_fixed(1, 8749, scale)
    return {1: (0, 0), 2: (18 * a_lo - 2 * b_hi + 8 * c_lo, 18 * a_hi - 2 * b_lo + 8 * c_hi)}


def _ln_small(n: int, scale: int) -> tuple[int, int]:
    # ln n from the table at scale: a prime p is ln(p-1) + 2 atanh(1/(2p-1)),
    # a composite the sum of the logs of two factors
    logs = _ln_table(scale)
    got = logs.get(n)
    if got is None:
        p = next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)
        if p == n:
            lo, hi = _ln_small(n - 1, scale)
            z_lo, z_hi = _atanh_fixed(1, 2 * n - 1, scale)
            got = (lo + 2 * z_lo, hi + 2 * z_hi)
        else:
            (f_lo, f_hi), (g_lo, g_hi) = _ln_small(p, scale), _ln_small(n // p, scale)
            got = (f_lo + g_lo, f_hi + g_hi)
        logs[n] = got
    return got


def _ln_fixed(m: int, e: int, bits: int, pad: int = 0) -> tuple[int, int]:
    # enclosure [lo, hi] * 2**-w of ln(m * 2**e) for m > 0, w = bits + extra,
    # its upper end raised by pad guard-word units before the final shift.
    # Only the top scale + 3 bits of m reach the kernel: M = m >> s leaves
    # ln m - ln(M 2**s) < 1/M <= 2**-(scale+2), under one guard-word unit,
    # which the upper end gains when the dropped bits (bit 0 among them) are
    # not all zero.
    s = m.bit_length() - bits - (_KERNEL_EXTRA_BITS + _KERNEL_GUARD_BITS + 3)
    if s <= 0:
        return _ln_kernel(m, e, bits, pad)
    cut = m >> s
    return _ln_kernel(cut, e + s, bits, pad + (m & 1 or cut << s != m))


# Scans and prime ranges keep each term's pairs on records; the hits here come
# from single prime checks, which read p_{n+1} again as the next one's p_n, and
# from neighbouring offset and Stirling instances.  64 entries, each key
# bounded by _ln_fixed's cut, keep memory flat for any scan and any term size.
@lru_cache(maxsize=64)
def _ln_kernel(m: int, e: int, bits: int, pad: int) -> tuple[int, int]:
    # _ln_fixed's enclosure for an m of at most scale + 3 bits:
    # (e + t - s) ln 2 + ln idx + 2 atanh(z) for the table point idx / 2**s
    # nearest m / 2**t and z = (m 2**s - idx 2**t) / (m 2**s + idx 2**t)
    t = m.bit_length() - 1
    if e + t == 0 and m == 1 << t and not pad:
        return 0, 0
    if abs(e + t) >= 1 << 30:
        raise OverflowError("argument exponent too large for the ln kernel")
    sh = t - _TABLE_SHIFT
    if sh > 0:
        idx = (m + (1 << (sh - 1))) >> sh
        zn = m - (idx << sh)
    else:
        idx = m << -sh
        zn = 0
    scale = bits + _KERNEL_EXTRA_BITS + _KERNEL_GUARD_BITS
    logs = _ln_table(scale)
    l2_lo, l2_hi = logs[2]
    lo, hi = logs.get(idx) or _ln_small(idx, scale)
    hi += pad
    if zn:
        a_lo, a_hi = _atanh_fixed(zn, m + (idx << sh), scale)
        lo += 2 * a_lo
        hi += 2 * a_hi
    k = e + sh
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
    # enclosure of ln([lo, hi] * 2**-w) at the same scale, for 0 < lo <= hi,
    # from one kernel call at lo: ln hi <= ln lo + (hi - lo) / lo, which pads
    # the upper end by ceil((hi - lo) 2**(w+32) / lo) guard-word units
    w = bits + _KERNEL_EXTRA_BITS
    return _ln_fixed(lo, -w, bits, _ceil_div((hi - lo) << (w + _KERNEL_GUARD_BITS), lo))


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
    if isinstance(x, Dyadic):
        x = DyadicInterval.point(x)
    if isinstance(x, DyadicInterval):
        if x.lo.mantissa <= 0:
            raise NonPositiveArgument(
                f"ln requires a strictly positive interval, got {x}"
            )
        lo, hi = _ln_fixed(x.lo.mantissa, x.lo.exponent, bits)
        if not x.is_point():
            hi = _ln_fixed(x.hi.mantissa, x.hi.exponent, bits)[1]
        return _fixed_interval(lo, hi, bits)
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
