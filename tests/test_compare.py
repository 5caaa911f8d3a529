"""Decision engine: exact cross-powering, interval ladder, scans, tables.

The exact cross-power comparison doubles as the oracle for every interval
verdict, so the two paths are continuously checked against each other.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiocert.compare import (
    DEFAULT_CAP_BITS,
    DEFAULT_START_BITS,
    Direction,
    LogCombination,
    LogTerm,
    Method,
    MethodStats,
    Verdict,
    _ladder,
    check_monotone,
    cmp_roots,
    combine_reports,
    decide_exact,
    estimate_exact_bits,
    evaluate_combination,
    find_min_start,
    ratio_step_combination,
    ratio_step_verdict,
    ratio_table,
    sign_of_log_combination,
)
from ratiocert.numerics import Ordering
from ratiocert.sequences import (
    Derangement,
    Harmonic,
    Lucas,
    Primes,
    Product,
    Sequence,
    SquarefreeSum,
    fibonacci,
)


class Geometric(Sequence):
    """a_n = c**n; every ratio step is an exact tie."""

    def __init__(self, c: int) -> None:
        self.c = c

    @property
    def name(self) -> str:
        return f"geometric({self.c})"

    def term(self, n: int) -> Fraction:
        self._validate_index(n)
        return Fraction(self.c) ** n


def brute_sign(comb: LogCombination) -> Ordering:
    """Independent oracle: exact product comparison against 1."""
    lhs = Fraction(1)
    for t in comb.terms:
        lhs *= Fraction(t.base) ** t.coefficient
    if lhs > 1:
        return Ordering.GREATER
    if lhs < 1:
        return Ordering.LESS
    return Ordering.EQUAL


# ---------------------------------------------------------------------------
# LogCombination construction


class TestLogCombination:
    def test_from_pairs_merges_and_drops_zeros(self):
        comb = LogCombination.from_pairs(
            [(3, Fraction(2)), (-1, Fraction(2)), (5, Fraction(3)), (-5, Fraction(3))]
        )
        assert len(comb.terms) == 1
        t = comb.terms[0]
        assert t.coefficient == 2 and t.base == 2

    def test_invalid_terms_rejected(self):
        with pytest.raises(ValueError):
            LogTerm(0, Fraction(2))
        with pytest.raises(ValueError):
            LogTerm(1, Fraction(-2))
        with pytest.raises(ValueError):
            LogTerm(1, Fraction(0))

    def test_empty_combination_is_equal(self):
        v = sign_of_log_combination(LogCombination.from_pairs([]))
        assert v.ordering is Ordering.EQUAL and v.method is Method.EXACT


# ---------------------------------------------------------------------------
# sign decisions


class TestSignOfLogCombination:
    def test_spec_fibonacci_delta4(self):
        comb = LogCombination.from_pairs(
            [(48, Fraction(5)), (-30, Fraction(3)), (-20, Fraction(8))]
        )
        v = sign_of_log_combination(comb)
        assert v.ordering is Ordering.GREATER
        # independent integer certificate: 5^48 vs 3^30 * 8^20
        assert 5**48 > 3**30 * 8**20

    def test_spec_harmonic_m1_n3(self):
        comb = LogCombination.from_pairs(
            [
                (30, Fraction(25, 12)),
                (-20, Fraction(11, 6)),
                (-12, Fraction(137, 60)),
            ]
        )
        assert sign_of_log_combination(comb).ordering is Ordering.LESS
        assert brute_sign(comb) is Ordering.LESS

    def test_geometric_terms_cancel_to_equal(self):
        for c in (2, 3, 10):
            for n in (1, 5, 17):
                comb = LogCombination.from_pairs(
                    [
                        (2 * n * (n + 2), Fraction(c) ** (n + 1)),
                        (-(n + 1) * (n + 2), Fraction(c) ** n),
                        (-n * (n + 1), Fraction(c) ** (n + 2)),
                    ]
                )
                v = sign_of_log_combination(comb)
                assert v.ordering is Ordering.EQUAL
                assert v.method is Method.EXACT

    def test_exact_mode_over_budget_is_undecided(self):
        comb = LogCombination.from_pairs([(10**6, Fraction(3)), (-1, Fraction(2))])
        v = sign_of_log_combination(comb, mode="exact", exact_budget=1000)
        assert v.ordering is Ordering.UNDECIDED
        assert estimate_exact_bits(comb) > 1000

    def test_interval_mode_cannot_decide_tiny_sign(self):
        # margin around 2^-1001: below the 2^16-bit cap is fine, so shrink the cap
        big = 2**1000
        comb = LogCombination.from_pairs(
            [(1, Fraction(big + 1, big)), (-1, Fraction(2 * big + 1, 2 * big))]
        )
        v = sign_of_log_combination(comb, mode="interval", cap_bits=512)
        assert v.ordering is Ordering.UNDECIDED
        assert v.method is Method.INTERVAL

    def test_adaptive_escalates_then_decides(self):
        big = 2**300
        comb = LogCombination.from_pairs(
            [(1, Fraction(big + 1, big)), (-1, Fraction(2 * big + 1, 2 * big))]
        )
        v = sign_of_log_combination(comb, start_bits=16, exact_budget=0)
        assert v.ordering is Ordering.GREATER
        assert v.method is Method.INTERVAL and v.escalations > 0

    def test_wide_margin_with_large_cross_power_takes_first_rung(self):
        # ~1M and ~360k-bit cross-powers: one 128-bit rung is far cheaper
        p, q = Primes().term(10**4), Primes().term(10**4 + 1)
        firoozbakht = LogCombination.from_pairs([(10**4, q), (-(10**4 + 1), p)])
        for comb in (ratio_step_combination(Harmonic(10), 20), firoozbakht):
            assert estimate_exact_bits(comb) > 300_000
            v = sign_of_log_combination(comb)
            assert v.ordering is decide_exact(comb)
            assert v.method is Method.INTERVAL
            assert v.bits == 128 and v.escalations == 0

    def test_moderate_tie_goes_exact_before_the_cap(self):
        # 125k and 3M-bit cross-powers; the cap is 9 doublings above 128 bits
        for n, most in ((20, 3), (60, 5)):
            v = ratio_step_verdict(Geometric(10), n)
            assert v.ordering is Ordering.EQUAL and v.method is Method.EXACT
            assert v.escalations <= most

    def test_adaptive_budget_exhaustion_is_undecided(self):
        big = 2**200000
        comb = LogCombination.from_pairs(
            [(1, Fraction(big + 1, big)), (-1, Fraction(2 * big + 1, 2 * big))]
        )
        v = sign_of_log_combination(comb, cap_bits=1024, exact_budget=0)
        assert v.ordering is Ordering.UNDECIDED

    @given(
        st.lists(
            st.tuples(
                st.integers(-40, 40).filter(bool),
                st.fractions(
                    min_value=Fraction(1, 50), max_value=Fraction(50)
                ).filter(lambda f: f != 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_brute_force_oracle(self, pairs):
        comb = LogCombination.from_pairs(pairs)
        v = sign_of_log_combination(comb)
        assert v.ordering is brute_sign(comb)

    def test_ladder_doubles_up_to_the_cap(self):
        assert _ladder(128, 1000) == (128, 256, 512, 1000)
        assert _ladder(128, 128) == (128,)
        with pytest.raises(ValueError):
            _ladder(8, 128)
        with pytest.raises(ValueError):
            _ladder(256, 128)

    def test_result_serialization(self):
        v = sign_of_log_combination(
            LogCombination.from_pairs([(1, Fraction(3, 2))])
        )
        data = v.to_json()
        assert data["ordering"] == "greater" and data["method"] in ("exact", "interval")


class TestCmpRoots:
    def test_spec_examples(self):
        assert cmp_roots(3, 4, 5).ordering is Ordering.GREATER  # 5^(1/5) > 3^(1/4)
        assert cmp_roots(2, 1, 3).ordering is Ordering.LESS  # 3^(1/2) < 2
        for c in (2, Fraction(7, 2), 100):
            for n in (1, 4, 9):
                assert cmp_roots(c, n, c).ordering is Ordering.LESS

    def test_equal_roots(self):
        # 16^(1/4) == 8^(1/3) == 2
        v = cmp_roots(8, 3, 16)
        assert v.ordering is Ordering.EQUAL and v.method is Method.EXACT

    @given(
        st.integers(2, 10**6), st.integers(2, 10**6), st.integers(1, 50)
    )
    @settings(max_examples=200)
    def test_cross_power_oracle(self, a, b, n):
        v = cmp_roots(a, n, b)
        lhs, rhs = b**n, a ** (n + 1)
        expected = (
            Ordering.GREATER if lhs > rhs
            else Ordering.LESS if lhs < rhs
            else Ordering.EQUAL
        )
        assert v.ordering is expected


# ---------------------------------------------------------------------------
# ratio steps


class TestRatioStep:
    def test_spec_examples(self):
        fib = fibonacci()
        assert ratio_step_verdict(fib, 3).ordering is Ordering.LESS
        assert ratio_step_verdict(fib, 4).ordering is Ordering.GREATER
        assert ratio_step_verdict(Derangement(), 3).ordering is Ordering.GREATER
        # exact certificates quoted with those examples
        assert 3 ** (2 * 3 * 5) < 2 ** (4 * 5) * 5 ** (3 * 4)
        assert 9**30 > 2**20 * 44**12

    def test_cleared_combination_shape(self):
        comb = ratio_step_combination(fibonacci(), 5)
        coeffs = {t.base: t.coefficient for t in comb.terms}
        assert coeffs[Fraction(8)] == 2 * 5 * 7  # a_{n+1}
        assert coeffs[Fraction(5)] == -6 * 7  # a_n
        assert coeffs[Fraction(13)] == -5 * 6  # a_{n+2}

    def test_product_additivity(self):
        left, right = fibonacci(), Lucas(3, 2)
        prod = Product(left, right)
        for n in (1, 4, 9):
            merged = {}
            for child in (left, right):
                for t in ratio_step_combination(child, n).terms:
                    merged[t.base] = merged.get(t.base, 0) + t.coefficient
            merged = {b: c for b, c in merged.items() if c}
            got = {t.base: t.coefficient for t in ratio_step_combination(prod, n).terms}
            assert got == merged

    def test_product_of_greater_children_is_greater(self):
        prod = Product(fibonacci(), Derangement())
        for n in (5, 9, 14):
            assert ratio_step_verdict(fibonacci(), n).ordering is Ordering.GREATER
            assert ratio_step_verdict(Derangement(), n).ordering is Ordering.GREATER
            assert ratio_step_verdict(prod, n).ordering is Ordering.GREATER

    def test_geometric_steps_are_equal(self):
        for c in (2, 3, 10):
            g = Geometric(c)
            for n in (1, 2, 7, 20):
                v = ratio_step_verdict(g, n)
                assert v.ordering is Ordering.EQUAL
                assert v.method is Method.EXACT

    def test_oracle_equivalence_all_builtin_sequences(self):
        sequences = [
            fibonacci(),
            Lucas(3, 2),
            Lucas(2, -1),
            Derangement(),
            Harmonic(1),
            Harmonic(2),
            Primes(),
            SquarefreeSum(),
            Product(fibonacci(), Derangement()),
        ]
        for seq in sequences:
            for n in range(seq.domain_start, 61):
                comb = ratio_step_combination(seq, n)
                ladder = sign_of_log_combination(comb, mode="interval")
                adaptive = sign_of_log_combination(comb)
                exact = sign_of_log_combination(
                    comb, mode="exact", exact_budget=1 << 62
                )
                assert exact.ordering is not Ordering.UNDECIDED
                assert ladder.ordering is exact.ordering, (seq.name, n)
                assert adaptive.ordering is exact.ordering, (seq.name, n)


# ---------------------------------------------------------------------------
# range scans


class TestCheckMonotone:
    def test_fibonacci_spec_examples(self):
        fib = fibonacci()
        rep = check_monotone(fib, 4, 100, Direction.DECREASING)
        assert rep.violations == () and rep.undecided == ()
        assert rep.certified() and rep.min_valid_start == 4
        rep2 = check_monotone(fib, 1, 10, Direction.DECREASING)
        assert rep2.violations == (1, 3)
        assert rep2.min_valid_start == 4

    def test_harmonic_grid_row(self):
        rep = check_monotone(Harmonic(2), 3, 29, Direction.INCREASING)
        assert rep.violations == ()

    def test_equal_counts_as_violation(self):
        rep = check_monotone(Geometric(2), 1, 12, Direction.DECREASING)
        assert rep.violations == tuple(range(1, 11))
        rep2 = check_monotone(Geometric(2), 1, 12, Direction.INCREASING)
        assert rep2.violations == tuple(range(1, 11))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            check_monotone(fibonacci(), 1, 2, Direction.DECREASING)

    def test_stats_add_up(self):
        rep = check_monotone(fibonacci(), 1, 40, Direction.DECREASING)
        assert rep.stats.exact + rep.stats.interval + rep.stats.undecided == 38

    @pytest.mark.parametrize("cap", [128, 1024])
    def test_stats_tally_the_step_verdicts(self, cap):
        # lucas(3,2) steps lie about 2^-n from a tie: with the exact route
        # barred, a 128-bit cap leaves some undecided and 1024 bits escalates
        opts = {"cap_bits": cap, "exact_budget": 0}
        seq = Lucas(3, 2)
        rep = check_monotone(seq, 100, 140, Direction.DECREASING, **opts)
        verdicts = [ratio_step_verdict(seq, n, **opts) for n in range(100, 139)]
        assert rep.stats == MethodStats.of(verdicts)
        # an undecided interval verdict counts as interval and as undecided
        assert rep.stats.interval == 39
        assert rep.stats.undecided == len(rep.undecided)
        assert (rep.stats.undecided > 0) == (cap == 128)
        for v in verdicts:
            assert v.method is Method.INTERVAL
            assert v.bits == DEFAULT_START_BITS << v.escalations
        assert (rep.stats.escalations > 0) == (cap > 128)

    def test_min_valid_start_consistency(self):
        rep = check_monotone(fibonacci(), 1, 60, Direction.DECREASING)
        assert rep.min_valid_start == max(rep.violations) + 1
        clean = check_monotone(fibonacci(), 4, 60, Direction.DECREASING)
        assert clean.min_valid_start == 4

    @given(st.integers(6, 48))
    @settings(max_examples=20, deadline=None)
    def test_sharding_equals_whole_scan(self, split):
        whole = check_monotone(fibonacci(), 1, 50, Direction.DECREASING)
        left = check_monotone(fibonacci(), 1, split, Direction.DECREASING)
        right = check_monotone(fibonacci(), split - 1, 50, Direction.DECREASING)
        merged = combine_reports([left, right])
        assert merged.violations == whole.violations
        assert merged.undecided == whole.undecided
        assert merged.min_valid_start == whole.min_valid_start
        assert merged.start == whole.start and merged.stop == whole.stop

    def test_combine_rejects_gaps(self):
        a = check_monotone(fibonacci(), 1, 10, Direction.DECREASING)
        b = check_monotone(fibonacci(), 12, 20, Direction.DECREASING)
        with pytest.raises(ValueError):
            combine_reports([a, b])


class TestFindMinStart:
    def test_fibonacci(self):
        assert find_min_start(fibonacci(), 1000, Direction.DECREASING) == 4

    def test_derangement(self):
        assert find_min_start(Derangement(), 1000, Direction.DECREASING) == 3

    def test_lucas_delta_one_exists(self):
        n_start = find_min_start(Lucas(3, 2), 1000, Direction.DECREASING)
        assert n_start is not None and n_start >= 1

    def test_absent_when_violations_persist(self):
        assert find_min_start(Primes(), 120, Direction.DECREASING) is None
        # every geometric step is an exact tie, so violations run to the end
        assert find_min_start(Geometric(3), 50, Direction.DECREASING) is None


class TestRatioTable:
    def test_fibonacci_shrinking(self):
        rows = ratio_table(fibonacci(), [10, 100, 1000])
        mags = [
            max(abs(enc.lo.as_fraction()), abs(enc.hi.as_fraction()))
            for _, enc in rows
        ]
        assert mags[0] > mags[1] > mags[2]
        for _, enc in rows:
            assert enc.strictly_positive()

    def test_product_square_doubles_log_ratio(self):
        from ratiocert.numerics import Dyadic, DyadicInterval

        fib = fibonacci()
        single = ratio_table(fib, [10])[0][1]
        squared = ratio_table(Product(fib, fib), [10])[0][1]
        doubled = DyadicInterval(Dyadic(single.lo.mantissa, single.lo.exponent + 1),
                                 Dyadic(single.hi.mantissa, single.hi.exponent + 1))
        assert squared.intersects(doubled)

    def test_harmonic_definite_sign(self):
        (_, enc), = ratio_table(Harmonic(1), [10])
        assert enc.strictly_positive() or enc.strictly_negative()

    def test_float_agreement(self):
        import math

        fib = fibonacci()
        (_, enc), = ratio_table(fib, [10])
        a, b = float(fib.term(10)), float(fib.term(11))
        expected = math.log(b) / 11 - math.log(a) / 10
        assert abs(enc.midpoint_float() - expected) < 1e-12


class TestVerdictInvariants:
    def test_equal_only_from_exact(self):
        rng = random.Random(5150)
        for _ in range(400):
            pairs = []
            for _ in range(rng.randint(1, 4)):
                c = rng.choice([i for i in range(-30, 31) if i])
                base = Fraction(rng.randint(1, 60), rng.randint(1, 60))
                if base == 1:
                    continue
                pairs.append((c, base))
            if not pairs:
                continue
            v = sign_of_log_combination(LogCombination.from_pairs(pairs))
            if v.ordering is Ordering.EQUAL:
                assert v.method is Method.EXACT
            if v.ordering in (Ordering.LESS, Ordering.GREATER):
                assert v.ordering is brute_sign(LogCombination.from_pairs(pairs))

    def test_interval_verdict_never_contradicts_exact(self):
        rng = random.Random(31337)
        for _ in range(200):
            c = rng.randint(1, 25)
            a = Fraction(rng.randint(2, 99), rng.randint(1, 99))
            b = Fraction(rng.randint(2, 99), rng.randint(1, 99))
            comb = LogCombination.from_pairs([(c, a), (-c - 1, b)])
            iv = sign_of_log_combination(comb, mode="interval")
            ex = decide_exact(comb)
            if iv.ordering is not Ordering.UNDECIDED:
                assert iv.ordering is ex

    def test_verdict_fields(self):
        v = ratio_step_verdict(fibonacci(), 30)
        assert isinstance(v, Verdict)
        if v.method is Method.INTERVAL:
            assert v.bits is not None and v.bits >= 16
        assert v.escalations >= 0

    def test_evaluate_combination_contains_truth(self):
        import mpmath

        mpmath.mp.dps = 50
        comb = LogCombination.from_pairs(
            [(7, Fraction(5, 3)), (-2, Fraction(9, 7)), (3, Fraction(1, 2))]
        )
        enc = evaluate_combination(comb, 128)
        truth = (
            7 * mpmath.log(mpmath.mpf(5) / 3)
            - 2 * mpmath.log(mpmath.mpf(9) / 7)
            + 3 * mpmath.log(mpmath.mpf(1) / 2)
        )
        truth_frac = Fraction(mpmath.nstr(truth, 45, strip_zeros=False))
        pad = Fraction(1, 10**40)
        assert enc.lo.as_fraction() <= truth_frac + pad
        assert truth_frac - pad <= enc.hi.as_fraction()


# ---------------------------------------------------------------------------
# interval rungs: enclosures, kernel reuse, memory

def _integer(bits: int, seed: int) -> int:
    # built from a seed, so hypothesis never holds (or prints) a 20k-bit int
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1)


@st.composite
def log_combinations(draw):
    """Terms over a small pool of bases, so bases and their integers repeat;
    integers up to 20k bits, Fraction bases with odd denominators."""
    whole = st.builds(_integer, st.integers(1, 20000), st.integers(0, 2**32))
    odd = st.integers(0, 2**64).map(lambda k: 2 * k + 1)
    base = st.builds(Fraction, whole, st.one_of(st.just(1), odd))
    pool = draw(st.lists(base, min_size=1, max_size=3))
    coefficient = st.integers(-(10**6), 10**6).filter(bool)
    terms = draw(st.lists(st.tuples(coefficient, st.sampled_from(pool)), min_size=1, max_size=5))
    return LogCombination(tuple(LogTerm(c, b) for c, b in terms))


class TestEvaluateCombination:
    @given(
        log_combinations(),
        st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**64)),
        st.integers(1, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_contains_oracle_and_nests(self, comb, offset, divisor):
        import mpmath

        with mpmath.workprec(2048 + 256):
            truth = mpmath.fsum(
                t.coefficient * (mpmath.log(t.base.numerator) - mpmath.log(t.base.denominator))
                for t in comb.terms
            )
            truth = (truth + mpmath.mpf(offset.numerator) / offset.denominator) / divisor
        man, exp = truth.man_exp
        truth_frac = int(mpmath.sign(truth)) * Fraction(man) * Fraction(2) ** exp
        pad = Fraction(1, 2**2100)
        outer = None
        for bits in (128, 256, 512, 1024, 2048):
            enc = evaluate_combination(comb, bits, offset, divisor)
            assert enc.lo.as_fraction() <= truth_frac + pad
            assert truth_frac - pad <= enc.hi.as_fraction()
            if outer is not None:
                assert outer.encloses(enc)
            outer = enc

    @pytest.mark.parametrize("spec, start, stop, direction", [
        (fibonacci(), 4, 400, Direction.DECREASING),
        (Harmonic(2), 3, 300, Direction.INCREASING),
        (Product(fibonacci(), Derangement()), 3, 200, Direction.DECREASING),
    ])
    def test_scan_evaluates_each_integer_once(self, spec, start, stop, direction):
        from ratiocert import numerics

        numerics._ln_fixed.cache_clear()
        report = check_monotone(spec, start, stop, direction, mode="interval")
        assert report.certified()
        assert report.stats.max_bits == 128 and report.stats.escalations == 0
        integers = set()
        for leaf in (spec.left, spec.right) if isinstance(spec, Product) else (spec,):
            for n in range(start, stop + 1):
                x = leaf.term(n)
                integers.add(x.numerator)
                if x.denominator != 1:
                    integers.add(x.denominator)
        assert numerics._ln_fixed.cache_info().misses == len(integers)

    def test_long_scan_memory_stays_bounded(self):
        import tracemalloc

        tracemalloc.start()
        try:
            report = check_monotone(Harmonic(1), 3, 6000, Direction.INCREASING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.certified()
        assert peak < 2 * 10**6
