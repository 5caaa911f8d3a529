"""Exact generators for the sequence families under study.

All terms are exact: integers for the combinatorial families, Fractions for
the generalized harmonic numbers.  Each family's `terms` iterator is its one
walk, which `term`, `derangement_term` and `harmonic_term` read and scans
stream at O(1) big-integer operations per step.  A product's `_leaves` are its
factors, which a scan streams one by one.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import accumulate, compress, islice
from typing import Iterator

from .numerics import (
    _ceil_div,
    _check_bits,
    _div_fixed,
    _fixed_interval,
    _fixed_rational,
    _ln_scaled,
    _mul_fixed,
    _Value,
)


class InvalidParameters(ValueError):
    """Raised when sequence parameters violate their constraints."""


class IndexBelowDomainStart(ValueError):
    """Raised when a term below the sequence's first valid index is requested."""


# ---------------------------------------------------------------------------
# two-term linear recurrences u_{n+1} = A u_n - B u_{n-1}, u_0 = 0, u_1 = 1


def _validate_lucas(a: int, b: int) -> None:
    if not (isinstance(a, int) and isinstance(b, int)):
        raise InvalidParameters("recurrence parameters must be integers")
    if a < 1:
        raise InvalidParameters(f"first parameter must be >= 1, got {a}")
    if b == 0:
        raise InvalidParameters("second parameter must be nonzero")
    if a * a - 4 * b <= 0:
        raise InvalidParameters(f"discriminant {a * a - 4 * b} must be positive")


def _lucas_pair(a: int, b: int, n: int) -> tuple[int, int]:
    # (u_n, u_{n+1}) from (u_0, u_1) = (0, 1) over the bits of n, doubling with
    # u_{2k} = u_k (2 u_{k+1} - a u_k) and u_{2k+1} = u_{k+1}^2 - b u_k^2, and
    # stepping once more on each 1 bit
    u, v = 0, 1
    for bit in f"{n:b}":
        u, v = u * (2 * v - a * u), v * v - b * u * u
        if bit == "1":
            u, v = v, a * v - b * u
    return u, v


def lucas_term(a: int, b: int, n: int) -> int:
    """n-th term of u_{k+1} = a*u_k - b*u_{k-1}, u_0 = 0, u_1 = 1."""
    _validate_lucas(a, b)
    if n < 0:
        raise IndexBelowDomainStart(f"index {n} below 0")
    return _lucas_pair(a, b, n)[0]


def derangement_term(n: int) -> int:
    """Number of permutations of n elements with no fixed point."""
    if n < 1:
        raise IndexBelowDomainStart(f"index {n} below 1")
    return Derangement().term(n) if n > 1 else 0


def harmonic_term(m: int, n: int) -> Fraction:
    """Generalized harmonic number H_n^(m) = sum_{k<=n} 1/k**m, exact."""
    seq = Harmonic(m)
    if n < 1:
        raise IndexBelowDomainStart(f"index {n} below 1")
    return seq.term(n)


# ---------------------------------------------------------------------------
# the shared tables of primes and of squarefree sums: each grows under its
# lock by one pass of _sieve_past over the integers past its last sieved one

_PRIME_LOCK = threading.Lock()
_PRIMES: list[int] = []
_PRIME_SIEVED_TO = 1

_SF_LOCK = threading.Lock()
_SF_SUMS: list[int] = [0]
_SF_NEXT = 1


def _sieve_past(lo: int, hi: int, squares: bool) -> Iterator[int]:
    # lo <= i < hi (lo >= 1) not struck by a base prime p <= isqrt(hi - 1):
    # its multiples from p*p, or with squares the multiples of p*p.  The base
    # primes are this sieve's own output over 2..isqrt(hi - 1), so a fill
    # recurses about log log hi levels, down to a range with no base prime
    flags = bytearray([1]) * (hi - lo)
    root = math.isqrt(hi - 1)
    for p in _sieve_past(2, root + 1, False) if root >= 2 else ():
        step = p * p if squares else p
        start = max(p * p, -(-lo // step) * step) - lo
        flags[start::step] = bytes(len(range(start, hi - lo, step)))
    return compress(range(lo, hi), flags)


def _ensure_prime_count(count: int) -> None:
    global _PRIME_SIEVED_TO
    with _PRIME_LOCK:
        while len(_PRIMES) < count:
            n = max(count, 6)
            # Rosser-type upper bound p_n < n(ln n + ln ln n) for n >= 6
            est = int(n * (math.log(n) + math.log(math.log(n)))) + 16
            limit = max(est, 2 * _PRIME_SIEVED_TO, 64)
            _PRIMES.extend(_sieve_past(_PRIME_SIEVED_TO + 1, limit + 1, squares=False))
            _PRIME_SIEVED_TO = limit


def nth_prime(n: int) -> int:
    """n-th prime, 1-indexed: nth_prime(1) == 2."""
    if n < 1:
        raise IndexBelowDomainStart(f"index {n} below 1")
    _ensure_prime_count(n)
    return _PRIMES[n - 1]


def _ensure_squarefree_count(count: int) -> None:
    global _SF_NEXT
    with _SF_LOCK:
        while len(_SF_SUMS) <= count:
            # squarefree integers have density 6/pi^2 > 4/7, so a pass 7/4 as
            # wide as the sums still missing nearly always supplies them; it is
            # never narrower than the table, so one-at-a-time callers see the
            # table grow geometrically
            missing = count + 1 - len(_SF_SUMS)
            hi = _SF_NEXT + max(missing * 7 // 4 + 64, len(_SF_SUMS))
            sums = accumulate(_sieve_past(_SF_NEXT, hi, squares=True), initial=_SF_SUMS[-1])
            _SF_SUMS.extend(islice(sums, 1, None))
            _SF_NEXT = hi


def squarefree_sum(n: int) -> int:
    """Sum of the first n squarefree positive integers (1 is squarefree)."""
    if n < 1:
        raise IndexBelowDomainStart(f"index {n} below 1")
    _ensure_squarefree_count(n)
    return _SF_SUMS[n]


# ---------------------------------------------------------------------------
# sequence objects: a uniform exact-term surface for the comparison engine


class Sequence:
    """Base for positive exact sequences; a family sets domain_start and name
    and defines terms, its one walk and the one source of its terms.  _leaves
    are the factors whose terms multiply to the sequence's: itself, or a
    product's leaves."""

    __slots__ = ()
    name: str
    domain_start: int = 1
    # True when terms(start, stop) walks the recurrence from the domain start
    # to reach start, so that streaming through indices nobody asked for costs
    # no more than starting afresh at the next asked-for term
    term_walks: bool = False

    @property
    def _leaves(self) -> tuple[Sequence, ...]:
        return (self,)

    def term(self, n: int) -> int | Fraction:
        """The n-th term: the first item of terms(n, n)."""
        return next(self.terms(n, n))

    def _validate_index(self, n: int) -> None:
        if n < self.domain_start:
            raise IndexBelowDomainStart(
                f"{self.name} starts at index {self.domain_start}, got {n}"
            )

    def terms(self, start: int, stop: int) -> Iterator[int | Fraction]:
        """Yield terms for start <= n <= stop; every family defines this."""
        raise NotImplementedError


class Lucas(Sequence, _Value):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        _validate_lucas(a, b)
        super().__init__(a, b)

    @property
    def name(self) -> str:
        if (self.a, self.b) == (1, -1):
            return "fibonacci"
        return f"lucas({self.a},{self.b})"

    def terms(self, start: int, stop: int) -> Iterator[int]:
        self._validate_index(start)
        u, v = _lucas_pair(self.a, self.b, start)
        for _ in range(start, stop + 1):
            yield u
            u, v = v, self.a * v - self.b * u


def fibonacci() -> Lucas:
    return Lucas(1, -1)


class Derangement(Sequence, _Value):
    __slots__ = ()
    name = "derangement"
    domain_start = 2
    term_walks = True

    def terms(self, start: int, stop: int) -> Iterator[int]:
        # D_{n+1} = (n + 1) D_n + (-1)^(n+1) from D_2 = 1
        self._validate_index(start)
        d, sign = 1, 1
        for n in range(2, stop + 1):
            if n >= start:
                yield d
            sign = -sign
            d = (n + 1) * d + sign


class Harmonic(Sequence, _Value):
    __slots__ = _fields = ("m",)
    term_walks = True

    def __init__(self, m: int) -> None:
        if not isinstance(m, int) or m < 1:
            raise InvalidParameters(f"harmonic order must be an int >= 1, got {m!r}")
        super().__init__(m)

    @property
    def name(self) -> str:
        return f"harmonic({self.m})"

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        self._validate_index(start)
        h = Fraction(0)
        for k in range(1, stop + 1):
            h += Fraction(1, k**self.m)
            if k >= start:
                yield h


class Primes(Sequence, _Value):
    __slots__ = ()
    name = "primes"

    def terms(self, start: int, stop: int) -> Iterator[int]:
        self._validate_index(start)
        _ensure_prime_count(stop)
        for n in range(start, stop + 1):
            yield _PRIMES[n - 1]


class SquarefreeSum(Sequence, _Value):
    __slots__ = ()
    name = "squarefree-sum"

    def terms(self, start: int, stop: int) -> Iterator[int]:
        self._validate_index(start)
        _ensure_squarefree_count(stop)
        for n in range(start, stop + 1):
            yield _SF_SUMS[n]


class Product(Sequence, _Value):
    __slots__ = _fields = ("left", "right")

    @property
    def domain_start(self) -> int:  # type: ignore[override]
        return max(self.left.domain_start, self.right.domain_start)

    @property
    def term_walks(self) -> bool:  # type: ignore[override]
        return self.left.term_walks and self.right.term_walks

    @property
    def _leaves(self) -> tuple[Sequence, ...]:
        return self.left._leaves + self.right._leaves

    @property
    def name(self) -> str:
        return f"product({self.left.name},{self.right.name})"

    def terms(self, start: int, stop: int) -> Iterator[int | Fraction]:
        self._validate_index(start)
        for x, y in zip(self.left.terms(start, stop), self.right.terms(start, stop)):
            yield x * y


# ---------------------------------------------------------------------------
# spectral constants of a recurrence: roots, their ratio, and the slope
# constant q = -ln(1-|gamma|)/|gamma| used by tail estimates


class LucasConstants(_Value):
    """Root data of the recurrence (a, b): the six enclosures are DyadicIntervals at bits."""

    __slots__ = _fields = ("a", "b", "discriminant", "sqrt_disc", "alpha", "beta", "gamma",
                           "gamma_abs", "q", "bits")


def _lucas_fixed(a: int, b: int, bits: int) -> tuple:
    # (sqrt_disc, alpha, beta, gamma, gamma_abs, q), each an integer pair at the
    # scale of bits; q is None where these bits do not certify 0 < |gamma| < 1
    disc = a * a - 4 * b
    one = _fixed_rational(1, bits)[0]
    s_lo = math.isqrt(disc * one * one)
    s_hi = s_lo + (s_lo * s_lo != disc * one * one)
    pa = a * one
    alpha = ((pa + s_lo) >> 1, (pa + s_hi + 1) >> 1)
    beta = ((pa - s_hi) >> 1, (pa - s_lo + 1) >> 1)
    # alpha * beta = b, so gamma = beta / alpha = (a - sqrt(disc))**2 / (4b)
    t = (max(pa - s_hi, 0), pa - s_lo) if b > 0 else (max(s_lo - pa, 0), s_hi - pa)
    sq_lo, sq_hi = _mul_fixed(t, t, bits)
    gamma_abs = (sq_lo // (4 * abs(b)), _ceil_div(sq_hi, 4 * abs(b)))
    gamma = gamma_abs if b > 0 else (-gamma_abs[1], -gamma_abs[0])
    q = None
    if 0 < gamma_abs[0] and gamma_abs[1] < one:
        l_lo, l_hi = _ln_scaled(one - gamma_abs[1], one - gamma_abs[0], bits)
        q = _div_fixed((max(-l_hi, 0), -l_lo), gamma_abs, bits)
    return (s_lo, s_hi), alpha, beta, gamma, gamma_abs, q


def lucas_constants(a: int, b: int, bits: int) -> LucasConstants:
    """Certified enclosures of the recurrence's root data at >= bits precision:
    the first of bits, 2 * bits, 4 * bits, ... that certifies 0 < |gamma| < 1."""
    _validate_lucas(a, b)
    _check_bits(bits)
    while (pairs := _lucas_fixed(a, b, bits))[-1] is None:
        bits *= 2
    return LucasConstants(a, b, a * a - 4 * b, *(_fixed_interval(*p, bits) for p in pairs), bits)
