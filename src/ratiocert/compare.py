"""Certified sign decisions for integer combinations of logarithms.

The object decided here is S = sum_i c_i * ln(x_i) with nonzero integer c_i
and positive exact x_i, each an int or a Fraction; a LogCombination holds
the (c_i, x_i) pairs.  Integer sequences give int terms, so a scan of one
builds no Fraction.  Three routes exist:

* interval ladder: read the sign off the ln kernel's integer pair for S at
  128 bits, doubling the precision until it excludes zero or a cap is hit;
  an exact budget of 0 leaves this route alone;
* exact cross-power: compare prod x_i^{c_i} against 1 with big integers,
  the only route that can certify S = 0 (decide_exact runs it alone);
* adaptive, what sign_of_log_combination does: choose between the two by
  predicted cost.  A fitted model predicts the seconds of the exact route
  from the estimated cross-power size and the seconds of one rung from the
  number of terms and the precision.  The exact route runs at the first rung
  where it is predicted cheaper than that rung or than the rungs below it,
  so a tie never climbs far past the point where the exact route would have
  been cheaper, and ties always end on it.  That exit rung depends only on
  the number of terms, the size and the engine, so it is planned before the
  climb.  Sizes over the exact budget never take it; such combinations climb
  to the cap and are reported Undecided if still unresolved there.  The
  prediction only picks the route: the certificate, and so the sign, comes
  from the route that ran.

One Engine carries every setting of a decision: the ladder's start and cap
and the exact budget.  DEFAULT_ENGINE holds the defaults, and every function
below that decides a sign takes an Engine.  Engine, LogCombination, Verdict,
MethodStats and MonotonicityReport are immutable records on numerics._Value.

Root-ratio monotonicity reduces to such signs: with r_n =
a_{n+1}^{1/(n+1)} / a_n^{1/n}, the comparison r_n > r_{n+1} is equivalent to
2n(n+2)*ln a_{n+1} - (n+1)(n+2)*ln a_n - n(n+1)*ln a_{n+2} > 0 after
clearing the positive denominator n(n+1)(n+2).  ratio_step_verdicts streams
a range of such steps for the paper's window checks and for check_monotone,
which tallies verdicts and stats as it reads.  It keeps a record (x, size, lo,
hi, pairs) per window term: its share of a combination's size, first-rung ln
pair (one kernel call for an int) and pairs by rung, each above the first
computed when a step first asks.  A one-leaf scan settles most steps in one
loop on the records: where the three bases are distinct, a step sums its size
and reads the first rung off them in a few multiply-adds; one left open climbs
in sign_of_log_combination from rung 1, with the size it summed.  After a step
decided at rung g >= 1, the next runs no inline rung (new terms wait for a
first pair): it reads rung g and starts its climb at g + 1 if zero is inside,
as it is then inside every rung below (enclosures nest); at g if rung g decides
within the slack bound (each ln x != 1 lies a unit inside its pair), as rung
g - 1 and every rung below then leave zero inside; else at the bottom.  The
exit rung is planned from the size, so verdicts are a plain climb's.  Other
steps call it directly.

evaluate_combination encloses (S + r) / d, r rational and d a positive integer,
on the same integers, in a DyadicInterval for callers that keep it (ratio_table).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, pairwise
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence as Seq

from .numerics import (
    MIN_PRECISION_BITS,
    DyadicInterval,
    Ordering,
    _check_bits,
    _fixed_interval,
    _fixed_rational,
    _ln_exact,
    _ln_fixed,
    _Value,
    interval_ln,  # noqa: F401 -- unused here; perfbench's tracer test reads it
)

if TYPE_CHECKING:
    from .sequences import Sequence

# Cost model for choosing the route, in seconds on an Intel Xeon (2 CPUs,
# Python 3.11).  Only the ratio of the two predictions matters, and it is
# deterministic, so the route taken never depends on the load.
#
#   decide_exact (best of 3)              estimated bits      ms
#     fibonacci ratio step, n = 12                 6 222   0.016
#     fibonacci ratio step, n = 24                44 314    0.26
#     Firoozbakht, n = 10^4                      360 018     5.5
#     harmonic(10) ratio step, n = 16            519 596    24.0
#     derangement ratio step, n = 48           2 003 878     140
#   Karatsuba products: ~1.2e-11 s * bits^1.58 (median over 24 ratio steps
#   of six sequences; the least-squares exponent is 1.59).
#
#   one rung, per term, ln cache cold, ln table warm (median of 10 ratio
#   steps of six sequences, best of 5)
#     bits    128    256    512   1024  2048  4096  8192  16384
#     ms    0.010  0.014  0.029  0.101  0.57   3.5    21    124
#   These fit ~1.1e-5 s + 1.5e-12 s * bits^2.6 per term: the atanh series
#   needs about bits/16 products of bits-bit integers.  Both tables were
#   measured together.  The rung constants below are still the fit to the
#   kernel before the ln table (0.039 ms at 128 bits, 121 ms at 8192), three
#   to six times these times.  Refitted, they only moved small steps from the
#   exact route to the first rung, which measured no faster, and they let an
#   exact tie climb one rung further (the 3M-bit tie of Geometric(10) at
#   n = 60: 6 escalations, not 5).  Within a scan each term's ln is computed
#   once per rung it reaches, so a step settled on the first rung costs one
#   new term's kernel call and three multiply-adds: at 128 bits about a
#   tenth of the prediction (0.010 ms against 0.127 ms).
_EXACT_S = 1.2e-11
_EXACT_POWER = 1.58
_RUNG_TERM_S = 4e-5
_RUNG_BIT_S = 8e-12
_RUNG_POWER = 2.6


def _rung_s(terms: int, bits: int) -> float:
    """Predicted seconds of one interval rung."""
    return terms * (_RUNG_TERM_S + _RUNG_BIT_S * bits**_RUNG_POWER)


class Direction(Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"


class Method(Enum):
    EXACT = "exact"
    INTERVAL = "interval"


class Engine(_Value):
    """Settings of every certificate: the precision ladder starts at
    start_bits and doubles up to cap_bits, the exact route builds no
    cross-power estimated above exact_budget bits (0 leaves the ladder alone).
    Kept outside the fields: the ladder `rungs`, each rung's seconds per term `unit_s`."""

    _fields = ("start_bits", "cap_bits", "exact_budget")
    __slots__ = (*_fields, "rungs", "unit_s", "_plans")

    def __init__(self, start_bits=128, cap_bits=1 << 16, exact_budget=1 << 31) -> None:
        if not isinstance(start_bits, int) or start_bits < MIN_PRECISION_BITS:
            raise ValueError(
                f"start_bits must be an int >= {MIN_PRECISION_BITS}, got {start_bits!r}")
        for name, value in (("cap_bits", cap_bits), ("exact_budget", exact_budget)):
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if cap_bits < start_bits:
            raise ValueError(f"cap_bits {cap_bits} is below start_bits {start_bits}")
        if exact_budget < 0:
            raise ValueError(f"exact_budget must be >= 0, got {exact_budget}")
        super().__init__(start_bits, cap_bits, exact_budget)
        rungs = [start_bits]
        while rungs[-1] < cap_bits:
            rungs.append(min(rungs[-1] * 2, cap_bits))
        self._set("rungs", tuple(rungs))
        self._set("unit_s", tuple(_rung_s(1, bits) for bits in rungs))
        self._set("_plans", {})  # terms -> _exit_rung's thresholds by rung


DEFAULT_ENGINE = Engine()


class LogCombination(_Value):
    """Sum of c * ln(x) over the (c, x) pairs in `terms`: each c a nonzero
    int, each x a positive int or Fraction.  The estimated bit size of its
    exact cross-power is summed once, as `size`, outside the fields."""

    _fields = ("terms",)
    __slots__ = ("terms", "size")
    first = 0  # the rung its climb starts at

    def __init__(self, terms: tuple[tuple[int, int | Fraction], ...]) -> None:
        size = 0
        for c, x in terms:
            if not isinstance(c, int) or c == 0:
                raise ValueError(f"coefficient must be a nonzero integer, got {c!r}")
            if not isinstance(x, (int, Fraction)) or x <= 0:
                raise ValueError(f"log base must be a positive int or Fraction, got {x!r}")
            size += abs(c) * (x.numerator.bit_length() + x.denominator.bit_length())
        self._set("terms", terms)
        self._set("size", size)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, object]]) -> "LogCombination":
        """Build from (coefficient, base) pairs, merging repeated bases (an int
        and an equal Fraction are one base) and dropping terms whose merged
        coefficient vanishes.  A base other than an int or a Fraction is
        converted by Fraction(base)."""
        merged: dict[int | Fraction, int] = {}
        for c, x in pairs:
            if not isinstance(x, (int, Fraction)):
                x = Fraction(x)
            merged[x] = merged.get(x, 0) + c
        return cls(tuple((c, x) for x, c in merged.items() if c != 0))

    def _fixed(self, i: int, bits: int) -> tuple[int, int]:
        return _combination_fixed(self, bits)  # the pair at rung i, of `bits` bits


class _StepCombination:
    # a scan step's ((c1, a1), (c0, a0), (c2, a2)) and size; pairs[k][i]: term k's
    # pair at rung i, None until read.  The climb starts at rung `first`: the scan
    # has shown every rung below it to leave 0 inside
    __slots__ = ("terms", "size", "pairs", "first")

    def __init__(self, terms, size, pairs, first):
        self.terms, self.size, self.pairs, self.first = terms, size, pairs, first

    def _fixed(self, i: int, bits: int) -> tuple[int, int]:
        for (_, x), p in zip(self.terms, self.pairs):
            if len(p) <= i:
                p += [None] * (i - len(p))
                p.append(_ln_exact(x, bits))
            elif p[i] is None:
                p[i] = _ln_exact(x, bits)
        ((c1, _), (c0, _), (c2, _)), (p1, p0, p2) = self.terms, self.pairs
        (l1, h1), (l0, h0), (l2, h2) = p1[i], p0[i], p2[i]
        return c1 * l1 + c0 * h0 + c2 * h2, c1 * h1 + c0 * l0 + c2 * l2


def _probe_first(step: _StepCombination, g: int, rungs: tuple[int, ...]) -> int:
    # the rung a step climbs from once it has read rung g >= 1: g + 1 if that rung
    # leaves 0 inside, as every rung below does (enclosures nest); g if it decides
    # within the slack bound, as each ln x != 1 lies at least a unit inside its pair
    # on both sides, so rung g - 1's pair reaches P = sum |c| units (P << shift units
    # at rung g) past the sum each way and leaves 0 inside; else 0
    lo, hi = step._fixed(g, rungs[g])
    if lo <= 0 <= hi:
        return g + 1
    slack = sum(abs(c) for c, x in step.terms if x != 1) << rungs[g] - rungs[g - 1]
    return g if max(-lo, hi) <= slack else 0


class Verdict(_Value):
    """Comparison outcome plus the certificate that produced it; escalations is
    the deciding rung's index, and every rung below it is open, shown open by
    nesting or by the slack bound where not run."""

    __slots__ = _fields = ("ordering", "method", "bits", "escalations")

    def __init__(self, ordering: Ordering, method: Method, bits: Optional[int], escalations=0):
        self._set("ordering", ordering)
        self._set("method", method)
        self._set("bits", bits)
        self._set("escalations", escalations)

    def to_json(self) -> dict:
        return {
            "ordering": self.ordering.value,
            "method": self.method.value,
            "bits": self.bits,
            "escalations": self.escalations,
        }


def estimate_exact_bits(comb: LogCombination) -> int:
    """Upper estimate of the bit size of the exact cross-power comparison."""
    return comb.size


def decide_exact(comb: LogCombination) -> Ordering:
    """Sign of the combination by comparing exact integer cross-powers."""
    lhs = 1
    rhs = 1
    for c, x in comb.terms:
        num, den = x.numerator, x.denominator
        if c > 0:
            lhs *= num**c
            rhs *= den**c
        else:
            lhs *= den**-c
            rhs *= num**-c
    if lhs > rhs:
        return Ordering.GREATER
    if lhs < rhs:
        return Ordering.LESS
    return Ordering.EQUAL


def _exit_rung(terms: int, size: int, engine: Engine) -> int:
    # the rung at which a climb over `terms` logs of size `size` takes the exact route,
    # len(engine.rungs) where it never does: the first rung i where decide_exact's
    # predicted seconds are below max(spent, rung_s), rung_s = terms * unit_s[i] and
    # spent the sum of those below, added in order.  That threshold never falls as i
    # rises, so a climb's plan is a bisection of the engine's thresholds for `terms`
    if size > engine.exact_budget:
        return len(engine.rungs)
    plan = engine._plans.get(terms)
    if plan is None:
        costs = [terms * unit_s for unit_s in engine.unit_s]
        plan = engine._plans[terms] = tuple(map(max, accumulate(costs, initial=0.0), costs))
    return bisect_right(plan, _EXACT_S * min(size, 1 << 64) ** _EXACT_POWER)


def _combination_fixed(comb: LogCombination, bits: int, offset=0, divisor: int = 1
                       ) -> tuple[int, int]:
    # (sum c_i ln(x_i) + offset) / divisor as [lo, hi] * 2**-w, w = bits + 8
    lo = hi = 0
    for c, x in comb.terms:
        t_lo, t_hi = _ln_exact(x, bits)
        if c > 0:
            lo += c * t_lo
            hi += c * t_hi
        else:
            lo += c * t_hi
            hi += c * t_lo
    if offset:
        r_lo, r_hi = _fixed_rational(offset, bits)
        lo += r_lo
        hi += r_hi
    if divisor != 1:
        lo //= divisor
        hi = -(-hi // divisor)
    return lo, hi


def evaluate_combination(comb: LogCombination, bits: int, offset=0, divisor: int = 1
                         ) -> DyadicInterval:
    """Enclosure of (sum c_i ln(x_i) + offset) / divisor at the given precision,
    for an exact rational offset and a positive integer divisor.

    Each base's exact numerator and denominator go into the ln kernel; the
    sum, the outward-rounded offset and the floored/ceiled division are plain
    integers at the kernel's one scale 2**-(bits+8), so enclosures still nest
    as the precision rises.  Without an offset or divisor no Fraction is built.
    """
    _check_bits(bits)
    if not isinstance(offset, (int, Fraction)):
        raise ValueError(f"offset must be an int or Fraction, got {offset!r}")
    if not isinstance(divisor, int) or divisor < 1:
        raise ValueError(f"divisor must be a positive integer, got {divisor!r}")
    return _fixed_interval(*_combination_fixed(comb, bits, offset, divisor), bits)


def sign_of_log_combination(comb: LogCombination, engine: Engine = DEFAULT_ENGINE) -> Verdict:
    """Certified sign of the combination; see module docstring for routes."""
    if not comb.terms:
        return Verdict(Ordering.EQUAL, Method.EXACT, None)
    exit_rung, rungs = _exit_rung(len(comb.terms), comb.size, engine), engine.rungs
    for i in range(comb.first, exit_rung):
        lo, hi = comb._fixed(i, rungs[i])
        if lo > 0:
            return Verdict(Ordering.GREATER, Method.INTERVAL, rungs[i], i)
        if hi < 0:
            return Verdict(Ordering.LESS, Method.INTERVAL, rungs[i], i)
    if comb.size <= engine.exact_budget:
        return Verdict(decide_exact(comb), Method.EXACT, None, max(exit_rung - 1, 0))
    return Verdict(Ordering.UNDECIDED, Method.INTERVAL, engine.cap_bits, exit_rung - 1)


def cmp_roots(a_lo: int | Fraction, n: int, a_hi: int | Fraction,
              engine: Engine = DEFAULT_ENGINE) -> Verdict:
    """Ordering of a_hi**(1/(n+1)) versus a_lo**(1/n).

    Greater means the (n+1)-th root of a_hi exceeds the n-th root of a_lo;
    decided from the sign of n*ln(a_hi) - (n+1)*ln(a_lo).
    """
    if n < 1:
        raise ValueError(f"root index must be >= 1, got {n}")
    comb = LogCombination.from_pairs([(n, a_hi), (-(n + 1), a_lo)])
    return sign_of_log_combination(comb, engine)


# ---------------------------------------------------------------------------
# ratio-step decisions and range scans


def _window_pairs(n: int, windows: Iterable[Iterable[int | Fraction]]):
    # weights of (a_{n+1}, a_n, a_{n+2}) after clearing n(n+1)(n+2)
    c1, c0, c2 = 2 * n * (n + 2), -(n + 1) * (n + 2), -n * (n + 1)
    for a0, a1, a2 in windows:
        yield (c1, a1)
        yield (c0, a0)
        yield (c2, a2)


def ratio_step_combination(spec: Sequence, n: int) -> LogCombination:
    """Cleared-denominator combination whose sign compares r_n with r_{n+1}.

    For products the children's combinations are summed term by term, which
    is the same object as the combination of the product sequence.
    """
    spec._validate_index(n)
    windows = [tuple(leaf.terms(n, n + 2)) for leaf in spec._leaves]
    return LogCombination.from_pairs(_window_pairs(n, windows))


def ratio_step_verdict(spec: Sequence, n: int, engine: Engine = DEFAULT_ENGINE) -> Verdict:
    """Greater iff r_n > r_{n+1} (strictly decreasing step at n)."""
    return sign_of_log_combination(ratio_step_combination(spec, n), engine)


class MethodStats(_Value):
    """Tally of verdicts by route; an undecided interval verdict counts under
    both `interval` and `undecided`."""

    __slots__ = _fields = ("exact", "interval", "undecided", "max_bits", "escalations")

    def __init__(self, exact=0, interval=0, undecided=0, max_bits=0, escalations=0) -> None:
        self._set("exact", exact)
        self._set("interval", interval)
        self._set("undecided", undecided)
        self._set("max_bits", max_bits)
        self._set("escalations", escalations)

    @classmethod
    def of(cls, verdicts: Iterable[Verdict]) -> "MethodStats":
        exact = interval = undecided = max_bits = escalations = 0
        for v in verdicts:
            if v.method is Method.EXACT:
                exact += 1
            else:
                interval += 1
                max_bits = max(max_bits, v.bits)
            if v.ordering is Ordering.UNDECIDED:
                undecided += 1
            escalations += v.escalations
        return cls(exact, interval, undecided, max_bits, escalations)

    def merged(self, other: "MethodStats") -> "MethodStats":
        return MethodStats(
            self.exact + other.exact,
            self.interval + other.interval,
            self.undecided + other.undecided,
            max(self.max_bits, other.max_bits),
            self.escalations + other.escalations,
        )

    def to_json(self) -> dict:
        # the field order is the JSON key order
        return {name: getattr(self, name) for name in self._fields}


class MonotonicityReport(_Value):
    __slots__ = _fields = ("sequence", "start", "stop", "direction", "violations", "undecided",
                           "stats")

    @property
    def min_valid_start(self) -> int:
        return self.violations[-1] + 1 if self.violations else self.start

    def certified(self) -> bool:
        return not self.violations and not self.undecided


def _log_base(x) -> int | Fraction:
    # a scan's term as a log base, an int or Fraction(x), checked before from_pairs merges it
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    if x <= 0:
        raise ValueError(f"log base must be a positive int or Fraction, got {x!r}")
    return x


def ratio_step_verdicts(
    spec: Sequence, start: int, stop: int, engine: Engine = DEFAULT_ENGINE
) -> Iterator[tuple[int, Verdict]]:
    """Yield (n, ratio_step_verdict(spec, n, engine)) for n = start..stop-2.

    The terms a_start..a_stop are streamed once through spec.terms, and a
    step is computed only when it is asked for, so a caller that stops early
    pays for no later step.
    """
    spec._validate_index(start)
    if stop < start + 2:
        raise ValueError(f"scan needs stop >= start + 2, got [{start}, {stop}]")
    bits = engine.rungs[0]

    def record(x) -> tuple:
        # (x, size, lo, hi, pairs): the term, its share of a combination's size,
        # its first-rung ln pair and its pairs by rung, for the three steps it serves
        if type(x) is int and x > 0:
            pair = _ln_fixed(x, 0, bits)
            return x, x.bit_length() + 1, *pair, [pair]
        x = _log_base(x)
        pair = _ln_exact(x, bits)
        return x, x.numerator.bit_length() + x.denominator.bit_length(), *pair, [pair]

    def bare(x) -> tuple:
        # a record whose first-rung pair waits until some step reads it
        x = x if type(x) is int and x > 0 else _log_base(x)
        return x, x.numerator.bit_length() + x.denominator.bit_length(), None, None, [None]

    def filled(x, size, lo, hi, p) -> tuple:
        p[0] = p[0] or _ln_exact(x, bits)
        return x, size, *p[0], p

    leaves = spec._leaves
    if len(leaves) == 1 and start >= 1:
        # one leaf's window, all three coefficients nonzero: the first rung
        # inline on the records, the rest in sign_of_log_combination
        terms = leaves[0].terms(start, stop)
        eager, lazy = map(record, terms), map(bare, terms)
        it, g = eager, 0
        greater = Verdict(Ordering.GREATER, Method.INTERVAL, bits)
        less = Verdict(Ordering.LESS, Method.INTERVAL, bits)
        r1, r2 = next(it), next(it)
        for n in range(start, stop - 1):
            r0, r1, r2 = r1, r2, next(it)
            (a0, s0, lo0, hi0, p0), (a1, s1, lo1, hi1, p1), (a2, s2, lo2, hi2, p2) = r0, r1, r2
            if a0 == a1 or a1 == a2 or a0 == a2:
                yield n, sign_of_log_combination(
                    LogCombination.from_pairs(_window_pairs(n, [(a0, a1, a2)])), engine)
                continue
            c2 = -n * (n + 1)
            c0 = -(n + 1) * (n + 2)
            c1 = -c0 - c2 - 2  # 2n(n + 2)
            cost = c1 * s1 - c0 * s0 - c2 * s2
            first = 0
            if not g and _exit_rung(3, cost, engine):
                if c1 * lo1 + c0 * hi0 + c2 * hi2 > 0:
                    yield n, greater
                    continue
                if c1 * hi1 + c0 * lo0 + c2 * lo2 < 0:
                    yield n, less
                    continue
                first = 1
            step = _StepCombination(((c1, a1), (c0, a0), (c2, a2)), cost, (p1, p0, p2), first)
            if g:
                step.first = _probe_first(step, g, engine.rungs)
            v = sign_of_log_combination(step, engine)
            yield n, v
            # decided at rung g >= 1: the next step runs no inline rung and reads g first
            if v.escalations:
                g, it = v.escalations, lazy
            elif g:
                g, it = 0, eager
                r1, r2 = filled(*r1), filled(*r2)
        return
    # a product's leaves, or a window from index 0: each step from_pairs, on the terms alone
    iters = [map(_log_base, leaf.terms(start, stop)) for leaf in leaves]
    windows = [deque(islice(it, 2), maxlen=3) for it in iters]
    for n in range(start, stop - 1):
        for w, it in zip(windows, iters):
            w.append(next(it))
        yield n, sign_of_log_combination(
            LogCombination.from_pairs(_window_pairs(n, windows)), engine)


def check_monotone(spec: Sequence, start: int, stop: int, direction: Direction,
                   engine: Engine = DEFAULT_ENGINE) -> MonotonicityReport:
    """Scan ratio steps n = start..stop-2 against the claimed direction.

    Indices whose verdict contradicts the direction (including an exact tie)
    are violations; Undecided indices are reported separately and also defeat
    certification.
    """
    expected = Ordering.GREATER if direction is Direction.DECREASING else Ordering.LESS
    violations: list[int] = []
    undecided: list[int] = []
    exact = interval = max_bits = escalations = 0
    for n, v in ratio_step_verdicts(spec, start, stop, engine):
        if v.method is Method.EXACT:
            exact += 1
        else:
            interval += 1
            if v.bits > max_bits:
                max_bits = v.bits
        if v.ordering is Ordering.UNDECIDED:
            undecided.append(n)
        elif v.ordering is not expected:
            violations.append(n)
        escalations += v.escalations
    stats = MethodStats(exact, interval, len(undecided), max_bits, escalations)
    return MonotonicityReport(spec.name, start, stop, direction, tuple(violations),
                              tuple(undecided), stats)


def combine_reports(parts: Seq[MonotonicityReport]) -> MonotonicityReport:
    """Merge block reports produced by sharding a scan by index ranges.

    Blocks must be ordered and contiguous: each block's window range picks up
    exactly where the previous one ended (block k scans n in [start, stop-2],
    so the next block starts at stop - 1).
    """
    if not parts:
        raise ValueError("no reports to combine")
    first = parts[0]
    for prev, cur in zip(parts, parts[1:]):
        if cur.sequence != first.sequence or cur.direction is not first.direction:
            raise ValueError("cannot combine reports of different scans")
        if cur.start != prev.stop - 1:
            raise ValueError(
                f"non-contiguous blocks: [{prev.start},{prev.stop}] then [{cur.start},{cur.stop}]"
            )
    return MonotonicityReport(
        first.sequence, first.start, parts[-1].stop, first.direction,
        tuple(n for part in parts for n in part.violations),
        tuple(n for part in parts for n in part.undecided),
        reduce(MethodStats.merged, (part.stats for part in parts)))


def find_min_start(
    spec: Sequence, horizon: int, direction: Direction, engine: Engine = DEFAULT_ENGINE
) -> Optional[int]:
    """Smallest N with no violation for N <= n <= horizon-2, scanning from the
    sequence's first index; None when violations persist to the end.  The
    result is empirical up to the horizon, with no claim beyond it."""
    report = check_monotone(spec, spec.domain_start, horizon, direction, engine)
    return min_start_from_report(report)


def min_start_from_report(report: MonotonicityReport) -> Optional[int]:
    # None when the last violation is the last step scanned
    return report.min_valid_start if report.min_valid_start <= report.stop - 2 else None


def ratio_table(
    spec: Sequence, indices: Seq[int], bits: int = DEFAULT_ENGINE.start_bits
) -> list[tuple[int, DyadicInterval]]:
    """Enclosures of ln r_n = (n ln a_{n+1} - (n+1) ln a_n) / (n(n+1)) at given indices."""
    _check_bits(bits)
    # each run of indices streams its terms once.  A run goes on through a
    # repeated or the next index, and through any rising gap for a family
    # whose term(n) walks from the start anyway.  Elsewhere (a Lucas term
    # costs O(log n) multiplications, a prime or squarefree sum is a lookup)
    # a gap starts a new run.
    runs: list[list[int]] = []
    for n in indices:
        if runs and 0 <= n - runs[-1][-1] and (spec.term_walks or n - runs[-1][-1] <= 1):
            runs[-1].append(n)
        else:
            runs.append([n])
    rows = []
    for run in runs:
        spec._validate_index(run[0])
        steps = enumerate(pairwise(spec.terms(run[0], run[-1] + 1)), run[0])
        k, (a0, a1) = next(steps)
        for n in run:
            while k < n:
                k, (a0, a1) = next(steps)
            comb = LogCombination.from_pairs([(n, a1), (-(n + 1), a0)])
            rows.append((n, evaluate_combination(comb, bits, divisor=n * (n + 1))))
    return rows
