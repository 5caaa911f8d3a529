"""Decision engine: exact cross-powering, interval ladder, scans, tables.

The exact cross-power comparison doubles as the oracle for every interval
verdict, so the two paths are continuously checked against each other.
"""

import pickle
import random
import re
from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratiocert.compare import (
    DEFAULT_ENGINE,
    Direction,
    Engine,
    LogCombination,
    Method,
    MethodStats,
    MonotonicityReport,
    Verdict,
    check_monotone,
    cmp_roots,
    combine_reports,
    decide_exact,
    estimate_exact_bits,
    evaluate_combination,
    find_min_start,
    ratio_step_combination,
    ratio_step_verdict,
    ratio_step_verdicts,
    ratio_table,
    sign_of_log_combination,
)
from ratiocert.numerics import _KERNEL_EXTRA_BITS, Ordering
from ratiocert.sequences import (
    Derangement,
    Harmonic,
    Lucas,
    Primes,
    Product,
    Sequence,
    SquarefreeSum,
    fibonacci,
    lucas_term,
)


class Geometric(Sequence):
    """a_n = c**n; every ratio step is an exact tie."""

    def __init__(self, c: int) -> None:
        self.c = c

    @property
    def name(self) -> str:
        return f"geometric({self.c})"

    def terms(self, start: int, stop: int) -> Iterator[Fraction]:
        self._validate_index(start)
        for n in range(start, stop + 1):
            yield Fraction(self.c) ** n


class GivenTerms(Sequence):
    """The given terms from index 1, for checks on what a scan reads."""

    name = "given"

    def __init__(self, *values) -> None:
        self.values = values

    def terms(self, start: int, stop: int) -> Iterator:
        self._validate_index(start)
        yield from self.values[start - 1:stop]


def brute_sign(comb: LogCombination) -> Ordering:
    """Independent oracle: exact product comparison against 1."""
    lhs = Fraction(1)
    for c, x in comb.terms:
        lhs *= Fraction(x) ** c
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
        c, x = comb.terms[0]
        assert c == 2 and x == 2

    def test_invalid_terms_rejected(self):
        with pytest.raises(ValueError):
            LogCombination(((0, Fraction(2)),))
        with pytest.raises(ValueError):
            LogCombination(((1, Fraction(-2)),))
        with pytest.raises(ValueError):
            LogCombination(((1, Fraction(0)),))

    def test_int_and_equal_fraction_are_one_base(self):
        assert LogCombination.from_pairs([(1, 2), (1, Fraction(2))]).terms == ((2, 2),)

    def test_direct_combination_is_checked(self):
        for terms in (((0, 2),), ((1, 0),), ((1, -3),), ((1, 2.0),), ((1.0, 2),)):
            with pytest.raises(ValueError):
                LogCombination(terms)
        # from_pairs converts any other base exactly, as before
        assert LogCombination.from_pairs([(1, 0.5)]).terms == ((1, Fraction(1, 2)),)

    def test_size_sums_each_term_once(self):
        # the cross-power estimate: |c| times the bits of x's numerator and denominator
        for pairs in ([], [(3, 7)], [(5, Fraction(22, 7)), (-2, Fraction(1, 1024))],
                      [(3, Fraction(2)), (-1, 2), (4, Fraction(9, 4)), (-4, Fraction(4, 9))],
                      [(12, 2**100 + 1), (-13, Fraction(3**50, 5**20)), (1, 6)]):
            comb = LogCombination.from_pairs(pairs)
            assert comb.size == sum(
                abs(c) * (x.numerator.bit_length() + x.denominator.bit_length())
                for c, x in comb.terms)
            assert estimate_exact_bits(comb) == comb.size
        merged = LogCombination.from_pairs([(3, Fraction(2)), (-1, 2), (1, Fraction(1, 2))])
        assert merged.size == 2 * 3 + 1 * 3

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

    def test_interval_mode_cannot_decide_tiny_sign(self):
        # margin around 2^-1001: below the 2^16-bit cap is fine, so shrink the cap
        big = 2**1000
        comb = LogCombination.from_pairs(
            [(1, Fraction(big + 1, big)), (-1, Fraction(2 * big + 1, 2 * big))]
        )
        v = sign_of_log_combination(comb, Engine(cap_bits=512, exact_budget=0))
        assert v.ordering is Ordering.UNDECIDED
        assert v.method is Method.INTERVAL

    def test_adaptive_escalates_then_decides(self):
        big = 2**300
        comb = LogCombination.from_pairs(
            [(1, Fraction(big + 1, big)), (-1, Fraction(2 * big + 1, 2 * big))]
        )
        v = sign_of_log_combination(comb, Engine(start_bits=16, exact_budget=0))
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

    def test_tie_over_budget_is_undecided(self):
        # a tie has no separating rung; above the budget no exact route ends it
        comb = ratio_step_combination(Geometric(10), 20)
        assert estimate_exact_bits(comb) > 1000
        v = sign_of_log_combination(comb, Engine(cap_bits=256, exact_budget=1000))
        assert v.ordering is Ordering.UNDECIDED and v.method is Method.INTERVAL
        v = sign_of_log_combination(comb, Engine(cap_bits=256))
        assert v.ordering is Ordering.EQUAL and v.method is Method.EXACT

    def test_adaptive_budget_exhaustion_is_undecided(self):
        big = 2**200000
        comb = LogCombination.from_pairs(
            [(1, Fraction(big + 1, big)), (-1, Fraction(2 * big + 1, 2 * big))]
        )
        v = sign_of_log_combination(comb, Engine(cap_bits=1024, exact_budget=0))
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
        assert Engine(128, 1000).rungs == (128, 256, 512, 1000)
        assert Engine(128, 128).rungs == (128,)
        with pytest.raises(ValueError):
            Engine(8, 128)
        with pytest.raises(ValueError):
            Engine(256, 128)

    @pytest.mark.parametrize("settings", [
        {"start_bits": 8}, {"start_bits": 256, "cap_bits": 128},
        {"exact_budget": -1},
    ])
    def test_engine_rejects_bad_settings(self, settings):
        with pytest.raises(ValueError):
            Engine(**settings)

    @pytest.mark.parametrize("settings,field", [
        ({"cap_bits": 1000.5, "exact_budget": 0}, "cap_bits"),
        ({"exact_budget": 1.5}, "exact_budget"),
        ({"cap_bits": "x"}, "cap_bits"),
    ])
    def test_engine_rejects_non_integer_cap_or_budget(self, settings, field):
        with pytest.raises(ValueError, match=field):
            Engine(**settings)

    def test_interval_is_not_a_mode(self):
        # exact_budget=0 is the one switch that leaves the ladder alone, and
        # decide_exact the one exact-only reference: an Engine has no mode
        with pytest.raises(TypeError):
            Engine(mode="interval")
        with pytest.raises(TypeError):
            Engine(mode="exact")

    @pytest.mark.parametrize("spec, start, stop, direction", [
        (fibonacci(), 1, 60, Direction.DECREASING),
        (Harmonic(3), 3, 40, Direction.INCREASING),
    ], ids=lambda x: getattr(x, "name", x))
    def test_zero_budget_never_takes_the_exact_route(self, monkeypatch, spec, start, stop,
                                                      direction):
        from ratiocert import compare

        def forbidden(comb):
            raise AssertionError("the exact route ran under exact_budget=0")

        monkeypatch.setattr(compare, "decide_exact", forbidden)
        engine = Engine(exact_budget=0)
        assert check_monotone(spec, start, stop, direction, engine).stats.exact == 0
        for n in range(start, stop - 1):
            assert ratio_step_verdict(spec, n, engine).method is Method.INTERVAL

    def test_engine_pickles_with_its_rungs(self):
        # the process pool sends the engine to every worker
        engine = Engine(64, 1000, 0)
        copy = pickle.loads(pickle.dumps(engine))
        assert copy == engine and copy.rungs == (64, 128, 256, 512, 1000)
        assert copy.unit_s == engine.unit_s

    @pytest.mark.parametrize("engine", [DEFAULT_ENGINE, Engine(16, 1000, 0)], ids=repr)
    def test_rung_costs_are_the_model_s_floats(self, engine):
        # the ladder prices a rung as terms * unit_s[i], computed once per
        # engine; each is the model's float, so every route test is unchanged
        from ratiocert.compare import _rung_s

        assert len(engine.unit_s) == len(engine.rungs)
        for terms in range(1, 8):
            assert [terms * u for u in engine.unit_s] == [_rung_s(terms, b) for b in engine.rungs]

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
        coeffs = {x: c for c, x in comb.terms}
        assert coeffs[Fraction(8)] == 2 * 5 * 7  # a_{n+1}
        assert coeffs[Fraction(5)] == -6 * 7  # a_n
        assert coeffs[Fraction(13)] == -5 * 6  # a_{n+2}

    def test_one_lucas_pair_per_leaf(self, monkeypatch):
        # the three window terms stream from one _lucas_pair, not one each
        from ratiocert import sequences
        window = {lucas_term(3, 2, k) for k in (40, 41, 42)}
        calls = []
        pair = sequences._lucas_pair

        def counting(a, b, n):
            calls.append(n)
            return pair(a, b, n)

        monkeypatch.setattr(sequences, "_lucas_pair", counting)
        comb = ratio_step_combination(Lucas(3, 2), 40)
        assert calls == [40]
        assert {x for _, x in comb.terms} == window

    def test_product_additivity(self):
        left, right = fibonacci(), Lucas(3, 2)
        prod = Product(left, right)
        for n in (1, 4, 9):
            merged = {}
            for child in (left, right):
                for c, x in ratio_step_combination(child, n).terms:
                    merged[x] = merged.get(x, 0) + c
            merged = {b: c for b, c in merged.items() if c}
            got = {x: c for c, x in ratio_step_combination(prod, n).terms}
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
                ladder = sign_of_log_combination(comb, Engine(exact_budget=0))
                adaptive = sign_of_log_combination(comb)
                exact = decide_exact(comb)
                assert exact is not Ordering.UNDECIDED
                assert ladder.ordering is exact, (seq.name, n)
                assert adaptive.ordering is exact, (seq.name, n)


# ---------------------------------------------------------------------------
# range scans


SCAN_CASES = [
    (fibonacci(), 1, 300),  # F1 = F2: step 1 repeats a base
    (Lucas(3, 2), 90, 170),  # near-ties: escalations, undecided under a cap
    (Lucas(2, -1), 1, 200),
    (Derangement(), 2, 200),
    (Harmonic(2), 1, 60),
    (Primes(), 1, 300),
    (SquarefreeSum(), 1, 300),
    (Product(fibonacci(), Derangement()), 2, 100),
    (Geometric(2), 1, 6),  # exact ties
    (Geometric(10), 1, 4),
]


class TestCheckMonotone:
    @pytest.mark.parametrize("spec, start, stop, direction", [
        (fibonacci(), 1, 400, Direction.DECREASING),
        (Harmonic(3), 3, 60, Direction.INCREASING),
        # near ties: the ladder climbs past its first rung
        (Lucas(3, 2), 1, 200, Direction.DECREASING),
    ])
    def test_scan_builds_no_interval(self, interval_builds, spec, start, stop, direction):
        report = check_monotone(spec, start, stop, direction)
        assert report.stats.interval > 0
        assert interval_builds == []
        evaluate_combination(LogCombination.from_pairs([(1, 5)]), 128)
        assert len(interval_builds) == 1

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
        engine = Engine(cap_bits=cap, exact_budget=0)
        seq = Lucas(3, 2)
        rep = check_monotone(seq, 100, 140, Direction.DECREASING, engine)
        verdicts = [ratio_step_verdict(seq, n, engine) for n in range(100, 139)]
        assert rep.stats == MethodStats.of(verdicts)
        # an undecided interval verdict counts as interval and as undecided
        assert rep.stats.interval == 39
        assert rep.stats.undecided == len(rep.undecided)
        assert (rep.stats.undecided > 0) == (cap == 128)
        for v in verdicts:
            assert v.method is Method.INTERVAL
            assert v.bits == DEFAULT_ENGINE.start_bits << v.escalations
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

    @pytest.mark.parametrize("engine", [
        DEFAULT_ENGINE,
        Engine(start_bits=16),
        Engine(cap_bits=128, exact_budget=0),
        Engine(exact_budget=0),
        Engine(cap_bits=256, exact_budget=0),  # near-ties undecided at the cap
        Engine(start_bits=16, cap_bits=1024, exact_budget=3000),  # near-ties climb from 16 bits
        Engine(start_bits=16, cap_bits=1000, exact_budget=0),  # a last rung that is no doubling
    ], ids=repr)
    @pytest.mark.parametrize("spec, start, stop", [
        *SCAN_CASES, (Lucas(3, 2), 1, 300), (Lucas(5, 6), 1, 200),
        (Lucas(3, 2), 1, 1500), (Lucas(5, 6), 1, 750),  # steps deciding at rung 3 and above
        (Lucas(2, -4), 1, 300)],  # a tie at n = 1, then steps that decide on the first rung
        ids=lambda x: getattr(x, "name", x))
    def test_scan_equals_its_step_verdicts(self, spec, start, stop, engine):
        # the scan decides most steps on its window records, on the first rung
        # or up the ladder; each step must come out as ratio_step_verdict
        # decides it alone: ordering, method, bits and escalations
        steps = range(start, stop - 1)
        verdicts = [ratio_step_verdict(spec, n, engine) for n in steps]
        assert list(ratio_step_verdicts(spec, start, stop, engine)) == list(zip(steps, verdicts))
        report = check_monotone(spec, start, stop, Direction.DECREASING, engine)
        undecided = tuple(n for n, v in zip(steps, verdicts)
                          if v.ordering is Ordering.UNDECIDED)
        violations = tuple(n for n, v in zip(steps, verdicts)
                           if v.ordering not in (Ordering.GREATER, Ordering.UNDECIDED))
        assert report.violations == violations
        assert report.undecided == undecided
        assert report.min_valid_start == (violations[-1] + 1 if violations else start)
        assert report.stats == MethodStats.of(verdicts)

    @pytest.mark.parametrize("spec", [spec for spec, _, _ in SCAN_CASES],
                             ids=lambda spec: spec.name)
    def test_scan_agrees_with_the_exact_reference(self, spec):
        # the first 20 steps of each family, against the exact cross-powers
        start, stop = spec.domain_start, spec.domain_start + 20
        report = check_monotone(spec, start, stop, Direction.DECREASING)
        exact = [(n, decide_exact(ratio_step_combination(spec, n)))
                 for n in range(start, stop - 1)]
        assert report.undecided == ()
        assert report.violations == tuple(n for n, o in exact if o is not Ordering.GREATER)

    @pytest.mark.parametrize("spec, stop, escalates", [
        (Lucas(3, 2), 300, True), (fibonacci(), 400, False)])
    def test_public_calls_see_every_escalation_and_exact_verdict(
            self, monkeypatch, spec, stop, escalates):
        # steps settled on the record rung never call sign_of_log_combination;
        # every escalation and exact verdict of the scan must still pass there
        from ratiocert import compare

        seen = []
        original = compare.sign_of_log_combination

        def counting(comb, engine=DEFAULT_ENGINE):
            seen.append(original(comb, engine))
            return seen[-1]

        monkeypatch.setattr(compare, "sign_of_log_combination", counting)
        report = check_monotone(spec, 1, stop, Direction.DECREASING)
        assert report.stats.exact > 0
        assert (report.stats.escalations > 0) == escalates
        assert sum(v.escalations for v in seen) == report.stats.escalations
        assert sum(v.method is Method.EXACT for v in seen) == report.stats.exact
        assert len(seen) < report.stop - report.start - 1

    @pytest.mark.parametrize("engine", [DEFAULT_ENGINE, Engine(cap_bits=512)], ids=repr)
    def test_record_ties_end_on_the_exact_route_after_rungs(self, engine):
        # each tie of geometric(10) from n = 13 climbs rungs on the records
        # until the exact route is predicted cheaper or, under the 512-bit
        # cap, until the ladder ends
        spec = Geometric(10)
        verdicts = list(ratio_step_verdicts(spec, 1, 30, engine))
        assert {(v.ordering, v.method) for _, v in verdicts} == {(Ordering.EQUAL, Method.EXACT)}
        assert max(v.escalations for _, v in verdicts) == min(3, len(engine.rungs) - 1)
        for n, v in verdicts:
            assert v == ratio_step_verdict(spec, n, engine), n

    def test_climbing_steps_ask_the_kernel_once_per_term_and_rung(self, monkeypatch):
        # each term's ln pair at a rung is computed once: the kernel sees one
        # lookup per (term, rung) pair the scan reads, and none of them repeats.
        # A step that follows one decided at rung g >= 1 reads rung g first and
        # skips the rungs below it, so fewer pairs are read than the 510 (term,
        # rung) pairs up to each step's deciding rung
        from ratiocert import compare, numerics

        reads = []
        ln_exact, ln_fixed = compare._ln_exact, compare._ln_fixed
        monkeypatch.setattr(compare, "_ln_exact",
                            lambda x, bits: reads.append((x, bits)) or ln_exact(x, bits))
        monkeypatch.setattr(compare, "_ln_fixed",
                            lambda x, e, bits: reads.append((x, bits)) or ln_fixed(x, e, bits))
        numerics._ln_kernel.cache_clear()
        check_monotone(Lucas(3, 2), 1, 300, Direction.DECREASING)
        info = numerics._ln_kernel.cache_info()
        assert len(set(reads)) == len(reads)
        assert info.hits == 0
        assert info.misses == len(reads)
        assert 300 < info.misses < 510

    def test_climbing_steps_size_once(self, monkeypatch):
        # a step that climbs past its inline first rung hands on the size it summed
        from ratiocert import compare

        calls = []
        original = compare.estimate_exact_bits

        def counting(comb):
            calls.append(comb)
            return original(comb)

        monkeypatch.setattr(compare, "estimate_exact_bits", counting)
        report = check_monotone(Lucas(3, 2), 1, 300, Direction.DECREASING)
        assert calls == []
        assert report.stats == MethodStats(exact=17, interval=281, max_bits=512, escalations=206)


    @pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
    @pytest.mark.parametrize("spec, start, stop", SCAN_CASES,
                             ids=lambda x: getattr(x, "name", x))
    def test_scan_tallies_its_step_verdicts_in_both_directions(
            self, spec, start, stop, direction):
        # check_monotone counts as it reads; each count must be what the
        # steps decided one by one give, for either claimed direction
        steps = range(start, stop - 1)
        verdicts = [ratio_step_verdict(spec, n) for n in steps]
        expected = Ordering.GREATER if direction is Direction.DECREASING else Ordering.LESS
        report = check_monotone(spec, start, stop, direction)
        undecided = tuple(n for n, v in zip(steps, verdicts)
                          if v.ordering is Ordering.UNDECIDED)
        violations = tuple(n for n, v in zip(steps, verdicts)
                           if v.ordering not in (expected, Ordering.UNDECIDED))
        assert report.violations == violations
        assert report.undecided == undecided
        assert report.min_valid_start == (violations[-1] + 1 if violations else start)
        interval = [v for v in verdicts if v.method is Method.INTERVAL]
        assert report.stats == MethodStats(
            exact=len(verdicts) - len(interval),
            interval=len(interval),
            undecided=len(undecided),
            max_bits=max((v.bits for v in interval), default=0),
            escalations=sum(v.escalations for v in verdicts),
        )
        assert report.stats == MethodStats.of(verdicts)

    @pytest.mark.parametrize("bad", [0, -5, Fraction(0)], ids=repr)
    def test_scan_rejects_a_nonpositive_term(self, bad):
        # an int term's log skips the Fraction path, but not its check; a product
        # checks each leaf's term before from_pairs could merge it
        given = GivenTerms(2, 3, 5, bad, 7, 11)
        message = re.escape(f"log base must be a positive int or Fraction, got {bad!r}")
        for spec in (given, Product(given, fibonacci())):
            with pytest.raises(ValueError, match=message):
                check_monotone(spec, 1, 6, Direction.DECREASING)
            steps = ratio_step_verdicts(spec, 1, 6)
            assert next(steps)[0] == 1
            with pytest.raises(ValueError, match=message):
                next(steps)

    def test_product_scan_makes_no_unread_kernel_call(self, monkeypatch):
        # a product's steps go through from_pairs on the terms alone, so the scan
        # computes no first-rung pair for them; the report is the one it always was
        from ratiocert import compare

        calls = []
        ln_fixed = compare._ln_fixed
        monkeypatch.setattr(compare, "_ln_fixed", lambda *a: calls.append(a) or ln_fixed(*a))
        report = check_monotone(Product(fibonacci(), Derangement()), 2, 101,
                                Direction.DECREASING)
        assert calls == []
        assert report == MonotonicityReport(
            "product(fibonacci,derangement)", 2, 101, Direction.DECREASING, (), (),
            MethodStats(exact=12, interval=86, undecided=0, max_bits=128, escalations=0))

    def test_climbing_steps_read_each_term_pair_at_its_rung(self, monkeypatch):
        # every pair a climbing step reads off the records is the term's ln
        # enclosure at that rung, for int terms up to 300 bits wide: wider
        # than the kernel reads at 128 bits, so they are cut.  A rung that no
        # step reads, as it lies below a rung that shows it open, stays None
        from ratiocert import compare
        from ratiocert.numerics import _ln_exact

        steps = []

        class Recorded(compare._StepCombination):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                steps.append(self)

        monkeypatch.setattr(compare, "_StepCombination", Recorded)
        check_monotone(Lucas(3, 2), 1, 300, Direction.DECREASING)
        assert max(x for comb in steps for _, x in comb.terms).bit_length() == 300
        unread = 0
        for comb in steps:
            for (_, x), pairs in zip(comb.terms, comb.pairs):
                assert type(x) is int
                for bits, pair in zip(DEFAULT_ENGINE.rungs, pairs):
                    unread += pair is None
                    assert pair is None or pair == _ln_exact(x, bits)
        assert unread > 0

    def test_climbing_steps_start_from_their_inline_pair(self, monkeypatch):
        # a step that its inline first rung leaves open hands that rung's pair
        # to the ladder: no record's rung-0 pair is summed a second time
        from ratiocert import compare

        fixed = compare._StepCombination._fixed
        opened = []

        def rung_0_unread(comb, i, bits):
            if i:
                return fixed(comb, i, bits)
            opened.append(comb)
            pairs, comb.pairs = comb.pairs, tuple([None, *p[1:]] for p in comb.pairs)
            try:
                return fixed(comb, i, bits)
            finally:
                comb.pairs = pairs

        monkeypatch.setattr(compare._StepCombination, "_fixed", rung_0_unread)
        report = check_monotone(Lucas(3, 2), 1, 300, Direction.DECREASING)
        assert len(opened) > 100
        assert report.stats == MethodStats(exact=17, interval=281, max_bits=512, escalations=206)

    def test_steps_past_rung_3_start_below_their_neighbours_rung(self):
        # from n of about 450 the steps decide at 1024 and 2048 bits; each
        # reads its neighbour's deciding rung first and, where that rung leaves
        # 0 inside or decides within the slack bound, skips the rungs under it,
        # so about one (term, rung) pair per term reaches the kernel (5568
        # climbing from the bottom, 3134 reading the rung below first) and none
        # of them twice
        from ratiocert import numerics

        numerics._ln_kernel.cache_clear()
        report = check_monotone(Lucas(3, 2), 1, 1500, Direction.DECREASING)
        info = numerics._ln_kernel.cache_info()
        assert report.stats == MethodStats(exact=17, interval=1481, max_bits=2048,
                                           escalations=4060)
        assert (info.hits, info.misses) == (0, 1512)

    def test_a_misread_hint_costs_at_most_one_rung(self, monkeypatch):
        # near-ties, each broken for the three steps a perturbed term serves,
        # so the deciding rung drops sharply between neighbours: a step whose
        # first read rung excludes zero climbs from the bottom, one rung more
        # than alone, and every verdict is still the one the step gets alone
        from ratiocert import compare
        from ratiocert.numerics import _ln_exact

        made = []

        class Counted(compare._StepCombination):
            __slots__ = ("runs",)

            def __init__(self, *args):
                super().__init__(*args)
                self.runs = self.known  # the inline rung, where it ran
                made.append(self)

            def _rung(self, i, bits):
                self.runs += 1
                return super()._rung(i, bits)

        monkeypatch.setattr(compare, "_StepCombination", Counted)
        shift = {150: 1, 200: 40, 250: 80, 300: 120, 350: 200}
        spec = GivenTerms(*(2**k - 1 + (2 ** (k - shift[k]) if k in shift else 0)
                            for k in range(1, 401)))
        engine = Engine(start_bits=16, cap_bits=1000, exact_budget=0)
        extra = []
        for n, v in ratio_step_verdicts(spec, 1, 400, engine):
            assert v == ratio_step_verdict(spec, n, engine), n
            runs = made[-1].runs if made and made[-1].runs >= 0 else 1
            extra.append(runs - v.escalations - 1)
            if made:
                made[-1].runs = -1  # read
        assert max(extra) == 1 and extra.count(1) >= 5
        assert min(extra) <= -3  # a hint read right skips three rungs
        for comb in made:
            for (_, x), pairs in zip(comb.terms, comb.pairs):
                for bits, pair in zip(engine.rungs, pairs):
                    assert pair is None or pair == _ln_exact(x, bits)


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

    def test_runs_of_indices_stream_their_terms(self, monkeypatch):
        # a contiguous run takes its terms from Derangement.terms, never from
        # the O(n) Derangement.term; rows keep the order and repeats given
        from ratiocert.sequences import derangement_term

        def expected(n, bits=128):
            comb = LogCombination.from_pairs(
                [(n, derangement_term(n + 1)), (-(n + 1), derangement_term(n))])
            return n, evaluate_combination(comb, bits, divisor=n * (n + 1))

        # derangement_term reads Derangement.term, so the rows come first
        indices = [9, 7, 8, 8, 3, 4, 5, 2]
        gapped = [40, 40, 52, 90, 3, 3, 17, 60, 5]
        rows = {"run": [expected(n) for n in range(2, 300)],
                "indices": [expected(n, 256) for n in indices],
                "stepped": [expected(n) for n in range(2, 300, 7)],
                "gapped": [expected(n) for n in gapped]}

        def no_term(self, n):
            raise AssertionError("ratio_table called Derangement.term")

        monkeypatch.setattr(Derangement, "term", no_term)
        assert ratio_table(Derangement(), range(2, 300)) == rows["run"]
        assert ratio_table(Derangement(), indices, 256) == rows["indices"]
        # a stepped range and runs with gaps also stream, since a derangement
        # term walks from the start anyway: each run streams Derangement.terms
        # once, from its first index, and a run ends where an index falls
        starts = []
        terms = Derangement.terms

        def counting(self, start, stop):
            starts.append(start)
            return terms(self, start, stop)

        monkeypatch.setattr(Derangement, "terms", counting)
        assert ratio_table(Derangement(), range(2, 300, 7)) == rows["stepped"]
        assert ratio_table(Derangement(), gapped) == rows["gapped"]
        assert starts == [2, 40, 3, 5]

    def test_lucas_gaps_start_new_runs(self, monkeypatch):
        # a Lucas term costs O(log n) multiplications, so a gap of more than
        # one index starts a new run at its own term instead of streaming it
        from ratiocert import sequences
        from ratiocert.sequences import _lucas_pair

        def expected(n):
            a0, a1 = _lucas_pair(1, -1, n)
            comb = LogCombination.from_pairs([(n, a1), (-(n + 1), a0)])
            return n, evaluate_combination(comb, 128, divisor=n * (n + 1))

        starts = []

        def counting(a, b, n):
            starts.append(n)
            return _lucas_pair(a, b, n)

        monkeypatch.setattr(sequences, "_lucas_pair", counting)
        indices = [*range(1, 3000, 100), 7, 8, 8, 9, 400]
        assert ratio_table(fibonacci(), indices) == [expected(n) for n in indices]
        assert starts == [*range(1, 3000, 100), 7, 400]
        assert not Product(fibonacci(), Derangement()).term_walks
        assert Product(Harmonic(2), Derangement()).term_walks

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
            iv = sign_of_log_combination(comb, Engine(exact_budget=0))
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
    return LogCombination(tuple(terms))


def near_tie(n: int, q: int, one: bool, bits: int, k: int) -> tuple:
    """A scan step's terms ((c1, a_{n+1}), (c0, a_n), (c2, a_{n+2})) whose sum is
    about k/64 * P units 2**-(bits+8), P the sum of |c| over the terms other than 1.
    The powers Q**e, Q a power of q, sum to 0 for e = (n + 1, n, n + 2), or with
    a_n = 1 for e = (n + 1, 0, 2n + 4); then an integer nudges a_{n+1}."""
    c1, c0, c2 = 2 * n * (n + 2), -(n + 1) * (n + 2), -n * (n + 1)
    e1, e0, e2 = (n + 1, 0, 2 * n + 4) if one else (n + 1, n, n + 2)
    w = bits + _KERNEL_EXTRA_BITS
    big = q
    while (big**e1).bit_length() <= w + 40:  # so a nudge of 1 moves the sum by under 2**-40 units
        big *= q
    units = Fraction((c1 - c2 - (0 if one else c0)) * k, 64)
    return ((c1, big**e1 + round(units * big**e1 / (c1 << w))), (c0, big**e0), (c2, big**e2))


@st.composite
def step_combinations(draw):
    """A scan step's three terms: distinct bases, int where whole, under the
    signs of (c1, c0, c2), + - -.  Half of them are near ties, within three times
    the slack bound of 0 at a rung of either test engine."""
    if draw(st.booleans()):
        return near_tie(draw(st.integers(1, 30)), draw(st.integers(2, 7)), draw(st.booleans()),
                        draw(st.sampled_from([16, 32, 64, 128, 256, 512, 1024, 2048])),
                        draw(st.integers(-192, 192)))
    whole = st.builds(_integer, st.integers(1, 20000), st.integers(0, 2**32))
    odd = st.integers(0, 2**64).map(lambda k: 2 * k + 1)
    bases = draw(st.lists(st.builds(Fraction, whole, st.one_of(st.just(1), odd)),
                          min_size=3, max_size=3, unique=True))
    c1, c0, c2 = (draw(st.integers(1, 10**6)) * sign for sign in (1, -1, -1))
    return tuple(zip((c1, c0, c2), [x.numerator if x.denominator == 1 else x for x in bases]))


TEST_ENGINES = st.sampled_from([Engine(start_bits=16, cap_bits=1000), Engine(cap_bits=4096)])


class TestEvaluateCombination:
    @given(st.one_of(log_combinations(), step_combinations()), TEST_ENGINES)
    @settings(max_examples=40, deadline=None)
    def test_rung_enclosures_nest(self, comb, engine):
        # the pair the ladder reads at each rung encloses a set inside the one
        # below it, from 16 bits, to a last rung that is no doubling, for int
        # terms wider than the kernel reads and Fraction terms: so a rung that
        # leaves zero inside shows every rung below it does too.  A scan step
        # reads the same pairs off its terms' records
        from ratiocert import compare
        from ratiocert.numerics import _fixed_interval

        step = None
        if isinstance(comb, tuple):
            step = compare._StepCombination(comb, 0, ([None], [None], [None]), (None, None), 0)
            comb = LogCombination(comb)
        outer = None
        for i, bits in enumerate(engine.rungs):
            pair = comb._fixed(i, bits)
            assert step is None or step._fixed(i, bits) == pair
            enc = _fixed_interval(*pair, bits)
            assert outer is None or outer.encloses(enc), bits
            outer = enc

    @given(step_combinations(), TEST_ENGINES)
    # every rung decides; rung 1 is inside the bound with ln 1's coefficient counted
    # or one more shift, so such a bound would show rung 0 open
    @example(near_tie(1, 2, True, 16, 99), Engine(start_bits=16, cap_bits=1000))
    # rung 0 leaves 0 inside, rung 1 decides inside the bound, the rungs above outside it
    @example(near_tie(3, 5, False, 128, 48), Engine(cap_bits=4096))
    @settings(max_examples=40, deadline=None)
    def test_a_probe_shows_only_open_rungs_open(self, terms, engine):
        # a step that reads rung h first answers the rungs below `known` with a
        # pair that leaves 0 inside, and those from `known` with their own pairs.
        # known is h + 1 where rung h leaves 0 inside (enclosures nest), h where
        # it decides within the slack bound, else 0: so wherever rung h decides
        # and the bound holds, the real pair at every rung below leaves 0 inside
        from ratiocert import compare

        comb, rungs = LogCombination(terms), engine.rungs
        real = [comb._fixed(i, bits) for i, bits in enumerate(rungs)]
        for h in range(1, len(rungs)):
            step = compare._StepCombination(terms, 0, ([None], [None], [None]), (None, None),
                                            (h, rungs[h], rungs[h] - rungs[h - 1]))
            answers = [step._fixed(i, bits) for i, bits in enumerate(rungs[:h + 1])]
            lo, hi = real[h]
            assert step.known in ((h + 1,) if lo <= 0 <= hi else (h, 0)), h
            for i in range(h + 1):
                if i < step.known:
                    assert real[i][0] <= 0 <= real[i][1], (h, i)
                    assert answers[i][0] <= 0 <= answers[i][1], (h, i)
                else:
                    assert answers[i] == real[i], (h, i)

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
                c * (mpmath.log(x.numerator) - mpmath.log(x.denominator))
                for c, x in comb.terms
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

        numerics._ln_kernel.cache_clear()
        report = check_monotone(spec, start, stop, direction, Engine(exact_budget=0))
        assert report.certified()
        assert report.stats.max_bits == 128 and report.stats.escalations == 0
        integers = set()
        for leaf in (spec.left, spec.right) if isinstance(spec, Product) else (spec,):
            for n in range(start, stop + 1):
                x = leaf.term(n)
                integers.add(x.numerator)
                if x.denominator != 1:
                    integers.add(x.denominator)
        assert numerics._ln_kernel.cache_info().misses == len(integers)

    @pytest.mark.parametrize("kwargs, name", [
        ({"divisor": 2.0}, "divisor"),
        ({"divisor": Fraction(2)}, "divisor"),
        ({"divisor": 0}, "divisor"),
        ({"offset": 0.5}, "offset"),
        ({"offset": "1"}, "offset"),
    ])
    def test_malformed_arguments_are_named(self, kwargs, name):
        comb = LogCombination.from_pairs([(1, 5)])
        with pytest.raises(ValueError, match=name):
            evaluate_combination(comb, 128, **kwargs)

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
