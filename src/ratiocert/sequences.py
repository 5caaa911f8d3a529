"""Exact generators for the sequence families under study.

All terms are exact: integers for the combinatorial families, Fractions for
the generalized harmonic numbers.  Scans use the streaming `terms` iterators,
which cost O(1) big-integer operations per step instead of recomputing each
term from scratch.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .numerics import (
    DyadicInterval,
    _ceil_div,
    _check_bits,
    _div_fixed,
    _fixed_interval,
    _fixed_rational,
    _ln_scaled,
    _mul_fixed,
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


def _mat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _lucas_pair(a: int, b: int, n: int) -> tuple[int, int]:
    # (u_n, u_{n+1}) by binary powering of the companion matrix [[a, -b], [1, 0]]
    result = (1, 0, 0, 1)
    base = (a, -b, 1, 0)
    k = n
    while k:
        if k & 1:
            result = _mat_mul(result, base)
        k >>= 1
        if k:
            base = _mat_mul(base, base)
    return result[2], result[0]


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
    d = 0
    sign = -1
    for k in range(2, n + 1):
        sign = -sign
        d = k * d + sign
    return d


def harmonic_term(m: int, n: int) -> Fraction:
    """Generalized harmonic number H_n^(m) = sum_{k<=n} 1/k**m, exact."""
    if m < 1:
        raise InvalidParameters(f"harmonic order must be >= 1, got {m}")
    if n < 1:
        raise IndexBelowDomainStart(f"index {n} below 1")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k**m)
    return total


# ---------------------------------------------------------------------------
# primes, with a growing shared cache filled by a segmented sieve

_PRIME_LOCK = threading.Lock()
_PRIMES: list[int] = []
_PRIME_SIEVED_TO = 1
_SEGMENT = 1 << 17


def _simple_sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def _extend_primes_to(limit: int) -> None:
    global _PRIME_SIEVED_TO
    if limit <= _PRIME_SIEVED_TO:
        return
    base = _simple_sieve(math.isqrt(limit))
    lo = _PRIME_SIEVED_TO + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT, limit + 1)
        flags = bytearray([1]) * (hi - lo)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            flags[start - lo :: p] = bytearray(len(range(start - lo, hi - lo, p)))
        _PRIMES.extend(i + lo for i, f in enumerate(flags) if f and i + lo >= 2)
        lo = hi
    _PRIME_SIEVED_TO = limit


def _ensure_prime_count(count: int) -> None:
    with _PRIME_LOCK:
        while len(_PRIMES) < count:
            n = max(count, 6)
            # Rosser-type upper bound p_n < n(ln n + ln ln n) for n >= 6
            est = int(n * (math.log(n) + math.log(math.log(n)))) + 16
            _extend_primes_to(max(est, 2 * _PRIME_SIEVED_TO, 64))


def nth_prime(n: int) -> int:
    """n-th prime, 1-indexed: nth_prime(1) == 2."""
    if n < 1:
        raise IndexBelowDomainStart(f"index {n} below 1")
    _ensure_prime_count(n)
    return _PRIMES[n - 1]


# ---------------------------------------------------------------------------
# sums of the first n squarefree integers

_SF_LOCK = threading.Lock()
_SF_SUMS: list[int] = [0]
_SF_NEXT = 1


def _ensure_squarefree_count(count: int) -> None:
    global _SF_NEXT
    with _SF_LOCK:
        while len(_SF_SUMS) <= count:
            lo = _SF_NEXT
            hi = lo + _SEGMENT
            flags = bytearray([1]) * (hi - lo)
            for p in _simple_sieve(math.isqrt(hi - 1)):
                sq = p * p
                start = ((lo + sq - 1) // sq) * sq
                if start < hi:
                    flags[start - lo :: sq] = bytearray(len(range(start - lo, hi - lo, sq)))
            running = _SF_SUMS[-1]
            for i, f in enumerate(flags):
                if f:
                    running += i + lo
                    _SF_SUMS.append(running)
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
    """Base for positive exact sequences; subclasses set domain_start and name."""

    domain_start: int = 1

    @property
    def name(self) -> str:
        raise NotImplementedError

    def term(self, n: int) -> Fraction:
        raise NotImplementedError

    def _validate_index(self, n: int) -> None:
        if n < self.domain_start:
            raise IndexBelowDomainStart(
                f"{self.name} starts at index {self.domain_start}, got {n}"
            )

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        """Yield terms for start <= n <= stop."""
        self._validate_index(start)
        for n in range(start, stop + 1):
            yield self.term(n)


@dataclass(frozen=True)
class Lucas(Sequence):
    a: int
    b: int

    def __post_init__(self) -> None:
        _validate_lucas(self.a, self.b)

    @property
    def name(self) -> str:
        if (self.a, self.b) == (1, -1):
            return "fibonacci"
        return f"lucas({self.a},{self.b})"

    def term(self, n: int) -> Fraction:
        self._validate_index(n)
        return Fraction(_lucas_pair(self.a, self.b, n)[0])

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        self._validate_index(start)
        u, v = _lucas_pair(self.a, self.b, start)
        for _ in range(start, stop + 1):
            yield Fraction(u)
            u, v = v, self.a * v - self.b * u


def fibonacci() -> Lucas:
    return Lucas(1, -1)


@dataclass(frozen=True)
class Derangement(Sequence):
    domain_start = 2

    @property
    def name(self) -> str:
        return "derangement"

    def term(self, n: int) -> Fraction:
        self._validate_index(n)
        return Fraction(derangement_term(n))

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        self._validate_index(start)
        d = derangement_term(start)
        sign = 1 if start % 2 == 0 else -1
        for n in range(start, stop + 1):
            yield Fraction(d)
            sign = -sign
            d = (n + 1) * d + sign


@dataclass(frozen=True)
class Harmonic(Sequence):
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InvalidParameters(f"harmonic order must be >= 1, got {self.m}")

    @property
    def name(self) -> str:
        return f"harmonic({self.m})"

    def term(self, n: int) -> Fraction:
        self._validate_index(n)
        return harmonic_term(self.m, n)

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        self._validate_index(start)
        h = harmonic_term(self.m, start)
        for n in range(start, stop + 1):
            yield h
            h += Fraction(1, (n + 1) ** self.m)


@dataclass(frozen=True)
class Primes(Sequence):
    @property
    def name(self) -> str:
        return "primes"

    def term(self, n: int) -> Fraction:
        self._validate_index(n)
        return Fraction(nth_prime(n))

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        self._validate_index(start)
        _ensure_prime_count(stop)
        for n in range(start, stop + 1):
            yield Fraction(_PRIMES[n - 1])


@dataclass(frozen=True)
class SquarefreeSum(Sequence):
    @property
    def name(self) -> str:
        return "squarefree-sum"

    def term(self, n: int) -> Fraction:
        self._validate_index(n)
        return Fraction(squarefree_sum(n))

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        self._validate_index(start)
        _ensure_squarefree_count(stop)
        for n in range(start, stop + 1):
            yield Fraction(_SF_SUMS[n])


@dataclass(frozen=True)
class Product(Sequence):
    left: Sequence
    right: Sequence

    @property
    def domain_start(self) -> int:  # type: ignore[override]
        return max(self.left.domain_start, self.right.domain_start)

    @property
    def name(self) -> str:
        return f"product({self.left.name},{self.right.name})"

    def term(self, n: int) -> Fraction:
        self._validate_index(n)
        return self.left.term(n) * self.right.term(n)

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        self._validate_index(start)
        for x, y in zip(self.left.terms(start, stop), self.right.terms(start, stop)):
            yield x * y


# ---------------------------------------------------------------------------
# spectral constants of a recurrence: roots, their ratio, and the slope
# constant q = -ln(1-|gamma|)/|gamma| used by tail estimates


@dataclass(frozen=True)
class LucasConstants:
    a: int
    b: int
    discriminant: int
    sqrt_disc: DyadicInterval
    alpha: DyadicInterval
    beta: DyadicInterval
    gamma: DyadicInterval
    gamma_abs: DyadicInterval
    q: DyadicInterval
    bits: int


def _lucas_fixed(a: int, b: int, bits: int) -> tuple:
    # (eff, sqrt_disc, alpha, beta, gamma, gamma_abs, q), each an integer pair
    # at the scale of eff, the first precision max(bits, 64) * 2**j at which
    # 0 < |gamma| < 1 is certified
    disc = a * a - 4 * b
    eff = max(bits, 64)
    while True:
        one = _fixed_rational(1, eff)[0]
        s_lo = math.isqrt(disc * one * one)
        s_hi = s_lo + (s_lo * s_lo != disc * one * one)
        pa = a * one
        alpha = ((pa + s_lo) >> 1, (pa + s_hi + 1) >> 1)
        beta = ((pa - s_hi) >> 1, (pa - s_lo + 1) >> 1)
        # alpha * beta = b, so gamma = beta / alpha = (a - sqrt(disc))**2 / (4b)
        t = (max(pa - s_hi, 0), pa - s_lo) if b > 0 else (max(s_lo - pa, 0), s_hi - pa)
        sq_lo, sq_hi = _mul_fixed(t, t, eff)
        gamma_abs = (sq_lo // (4 * abs(b)), _ceil_div(sq_hi, 4 * abs(b)))
        gamma = gamma_abs if b > 0 else (-gamma_abs[1], -gamma_abs[0])
        if 0 < gamma_abs[0] and gamma_abs[1] < one:
            l_lo, l_hi = _ln_scaled(one - gamma_abs[1], one - gamma_abs[0], eff)
            q = _div_fixed((max(-l_hi, 0), -l_lo), gamma_abs, eff)
            return eff, (s_lo, s_hi), alpha, beta, gamma, gamma_abs, q
        eff *= 2


def lucas_constants(a: int, b: int, bits: int) -> LucasConstants:
    """Certified enclosures of the recurrence's root data at >= bits precision."""
    _validate_lucas(a, b)
    _check_bits(bits)
    eff, *pairs = _lucas_fixed(a, b, bits)
    return LucasConstants(a, b, a * a - 4 * b, *(_fixed_interval(*p, eff) for p in pairs), eff)
