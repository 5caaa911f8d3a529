"""Named finite checks: constants, tail bounds, remainder bounds, grids."""

import math
from fractions import Fraction

import pytest

from ratiocert import paperchecks
from ratiocert.compare import (
    DEFAULT_ENGINE,
    Engine,
    LogCombination,
    Method,
    MethodStats,
    Verdict,
    cmp_roots,
    evaluate_combination,
    ratio_step_combination,
    ratio_step_verdict,
)
from ratiocert.paperchecks import (
    CheckResult,
    CheckStatus,
    NotUnitDiscriminant,
    check_derangement_offset,
    check_derangement_window,
    check_fibonacci_early_steps,
    check_fibonacci_gamma_band,
    check_firoozbakht,
    check_firoozbakht_range,
    check_gamma_sixth_power,
    check_harmonic_window,
    check_harmonic_xlogx,
    check_log5_positive,
    check_log_quadratic_bound,
    check_lucas_gap_bound,
    check_offset_second_difference,
    check_prime_ratio_range,
    check_prime_ratio_refinement,
    check_stirling_remainder,
    check_unit_discriminant_tail,
    constants_suite,
    paper_suite,
)
from ratiocert.numerics import (
    _KERNEL_EXTRA_BITS,
    NonPositiveArgument,
    Ordering,
    _aligned,
    _ln_fixed,
    _outward_floats,
)
from ratiocert.sequences import (
    Derangement,
    Harmonic,
    InvalidParameters,
    Lucas,
    harmonic_term,
    lucas_constants,
    nth_prime,
)


class TestConstantsSuite:
    def test_log5_positive(self):
        out = check_log5_positive()
        assert out.status is CheckStatus.CERTIFIED
        lo, hi = out.detail["margin"]
        assert 0.60 < lo <= hi < 0.61  # ln 5 - 1 = 0.6094...

    def test_gamma_band(self):
        assert check_fibonacci_gamma_band().status is CheckStatus.CERTIFIED

    def test_gamma_sixth_power(self):
        out = check_gamma_sixth_power()
        assert out.status is CheckStatus.CERTIFIED

    def test_early_steps(self):
        assert check_fibonacci_early_steps().status is CheckStatus.CERTIFIED

    def test_h30_entry(self):
        assert check_harmonic_xlogx(1, 30).status is CheckStatus.CERTIFIED

    def test_cap_below_start_is_rejected(self):
        with pytest.raises(ValueError):
            check_log5_positive(Engine(start_bits=256, cap_bits=128))
        with pytest.raises(ValueError):
            check_derangement_offset(10, Engine(start_bits=256, cap_bits=128))

    def test_suite_is_all_certified(self):
        results = constants_suite()
        assert len(results) == 5
        assert all(r.status is CheckStatus.CERTIFIED for r in results)


class TestLucasGapBound:
    def test_fibonacci_instances(self):
        for n in (4, 6, 10, 100):
            out = check_lucas_gap_bound(1, -1, n)
            assert out.status is CheckStatus.CERTIFIED, n

    def test_pell_instance(self):
        assert check_lucas_gap_bound(2, -1, 10).status is CheckStatus.CERTIFIED

    def test_reports_the_bits_it_computed_at(self):
        # 16 bits leave the margin's sign open; the check climbs to 32 and no further
        out = check_lucas_gap_bound(2, -1, 10, Engine(start_bits=16, cap_bits=64))
        assert out.status is CheckStatus.CERTIFIED
        assert out.detail["bits"] == out.stats.max_bits == 32
        lo, hi = out.detail["margin"]
        assert hi - lo > 2.0**-40  # as wide as 32 bits leave it, not 64

    def test_constants_climb_the_engine_ladder(self):
        # |gamma| = 1 - 2**-24 + ...: 16 bits cannot certify |gamma| < 1, so that rung
        # has no q and is undecided; the next rung, 32 bits, decides the check
        a = 2**26 + 2
        b = (a * a - 4) // 4
        out = check_lucas_gap_bound(a, b, 3, Engine(start_bits=16, cap_bits=16))
        assert out.status is CheckStatus.UNDECIDED
        assert out.detail["bits"] == out.stats.max_bits == 16
        out = check_lucas_gap_bound(a, b, 3, Engine(start_bits=16, cap_bits=64))
        assert out.status is CheckStatus.CERTIFIED
        assert out.detail["bits"] == out.stats.max_bits == 32
        assert out.stats.escalations == 1
        at32 = check_lucas_gap_bound(a, b, 3, Engine(start_bits=32, cap_bits=32))
        for key in ("margin", "lhs", "rhs"):
            assert out.detail[key] == at32.detail[key], key
        constants = lucas_constants(a, b, 16)
        assert constants.bits >= 16
        assert constants.gamma_abs.hi.as_fraction() < 1 and constants.q.lo.as_fraction() > 0

    def test_log5_shape_at_n6(self):
        # at (1,-1), n=6 the right side stays above ln 5 - 1 > 0
        out = check_lucas_gap_bound(1, -1, 6)
        assert out.status is CheckStatus.CERTIFIED
        assert out.detail["rhs"][0] > 0

    def test_unit_discriminant_needs_flag(self):
        with pytest.raises(InvalidParameters, match="vacuous"):
            check_lucas_gap_bound(3, 2, 5)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            check_lucas_gap_bound(1, 1, 5)  # negative discriminant


class TestUnitDiscriminantTail:
    def test_three_two_instances(self):
        for n in (2, 8, 50):
            out = check_unit_discriminant_tail(3, 2, n)
            assert out.status is CheckStatus.CERTIFIED, n
            w_lo, w_hi = out.detail["w_n"]
            assert w_lo > 0

    def test_five_six_instance(self):
        assert check_unit_discriminant_tail(5, 6, 20).status is CheckStatus.CERTIFIED

    @pytest.mark.parametrize("a,b,n", [(3, 2, 50), (5, 6, 20)])
    def test_reported_w_is_the_nearest_enclosing_float_pair(self, a, b, n):
        g = Fraction(a - 1, a + 1)
        w = (Fraction(2, n + 1) * (-(g ** (n + 1)) - g ** (2 * n + 2))
             + g**n / n + g ** (n + 2) / (n + 2))
        lo, hi = check_unit_discriminant_tail(a, b, n).detail["w_n"]
        assert Fraction(lo) <= w <= Fraction(hi)
        assert Fraction(math.nextafter(lo, math.inf)) > w
        assert Fraction(math.nextafter(hi, -math.inf)) < w

    def test_precondition_skip_at_n1(self):
        out = check_unit_discriminant_tail(3, 2, 1)
        assert out.status is CheckStatus.UNDECIDED
        assert "precondition" in out.detail["note"]

    def test_requires_unit_discriminant(self):
        with pytest.raises(NotUnitDiscriminant):
            check_unit_discriminant_tail(1, -1, 5)


class TestDerangementBounds:
    def test_window(self):
        out = check_derangement_window()
        assert out.status is CheckStatus.CERTIFIED
        assert out.detail["range"] == [3, 26]

    def test_offset_examples(self):
        for n in (2, 3, 20, 60):
            out = check_derangement_offset(n)
            assert out.status is CheckStatus.CERTIFIED, n

    def test_offset_n3_magnitudes(self):
        out = check_derangement_offset(3)
        dist_lo, dist_hi = out.detail["abs_dist"]
        assert 0.20 < dist_lo <= dist_hi < 0.21  # |2 - 6/e| = 0.2073...
        off_lo, off_hi = out.detail["abs_log_offset"]
        assert 1.09 < off_lo <= off_hi < 1.10  # ln 3 = 1.0986...

    def test_offset_validation(self):
        with pytest.raises(ValueError):
            check_derangement_offset(1)

    def test_offset_decides_on_the_first_rung_at_35(self):
        # 35!/e is about 2**131.7: its quotient at the one scale 2**-136 is
        # tight enough at 128 bits, where a 128-bit relative rounding was not
        out = check_derangement_offset(35)
        assert out.status is CheckStatus.CERTIFIED
        assert out.detail["bits"] == 128
        assert out.stats.escalations == 0

    def test_second_difference(self):
        for n in (3, 4, 27, 100):
            assert check_offset_second_difference(n).status is CheckStatus.CERTIFIED

    def test_second_difference_validation(self):
        with pytest.raises(ValueError):
            check_offset_second_difference(2)

    def test_stirling_remainder(self):
        for n in (2, 10, 100, 1000):
            assert check_stirling_remainder(n).status is CheckStatus.CERTIFIED

    def test_stirling_n2_magnitudes(self):
        out = check_stirling_remainder(2)
        r_lo, r_hi = out.detail["abs_value"]
        assert 1.30 < r_lo <= r_hi < 1.31  # |2 - ln 2| = 1.3068...
        b_lo, b_hi = out.detail["bound"]
        assert 1.69 < b_lo <= b_hi < 1.70  # ln 2 + 1 = 1.6931...


class TestLogQuadratic:
    def test_examples(self):
        for x in (Fraction(1), Fraction(1, 2), Fraction(1, 1000), Fraction(10)):
            assert check_log_quadratic_bound(x).status is CheckStatus.CERTIFIED

    def test_rejects_nonpositive(self):
        for x in (Fraction(0), Fraction(-1, 2)):
            with pytest.raises(NonPositiveArgument):
                check_log_quadratic_bound(x)


class TestHarmonicXLogX:
    def test_inside_hypothesis(self):
        assert check_harmonic_xlogx(1, 30).status is CheckStatus.CERTIFIED
        assert check_harmonic_xlogx(11, 3).status is CheckStatus.CERTIFIED
        assert check_harmonic_xlogx(11, 3).witness["in_hypothesis"] is True

    def test_refuted_outside_hypothesis(self):
        out = check_harmonic_xlogx(2, 3)
        assert out.status is CheckStatus.REFUTED
        assert out.witness["in_hypothesis"] is False

    def test_window(self):
        out = check_harmonic_window()
        assert out.status is CheckStatus.CERTIFIED


class TestPrimeChecks:
    def test_firoozbakht_instances(self):
        for n in (1, 2, 5, 100, 1000):
            assert check_firoozbakht(n).status is CheckStatus.CERTIFIED, n

    def test_firoozbakht_range(self):
        out = check_firoozbakht_range(1, 500)
        assert out.status is CheckStatus.CERTIFIED

    def test_prime_ratio_refinement(self):
        for n in (5, 6, 100, 500):
            assert check_prime_ratio_refinement(n).status is CheckStatus.CERTIFIED, n

    def test_prime_ratio_informational_below_claim(self):
        out = check_prime_ratio_refinement(4)
        assert out.status is CheckStatus.REFUTED
        assert out.witness["informational"] is True

    def test_prime_ratio_evaluable_from_three(self):
        out = check_prime_ratio_refinement(3)
        assert out.status in (CheckStatus.CERTIFIED, CheckStatus.REFUTED)
        with pytest.raises(ValueError):
            check_prime_ratio_refinement(2)

    def test_prime_ratio_range(self):
        assert check_prime_ratio_range(5, 500).status is CheckStatus.CERTIFIED

    # float.hex of the reported refinement margins; at 128 and 512 bits the
    # ends round outward to the same two neighbouring floats
    REFINEMENT_MARGINS = {
        3: ["0x1.6eb336b8e8249p-5", "0x1.6eb336b8e824ap-5"],
        4: ["-0x1.b8922bf89793dp-9", "-0x1.b8922bf89793cp-9"],
        5: ["0x1.5c5bbca54477dp-5", "0x1.5c5bbca54477ep-5"],
        97: ["0x1.616c8e1da0486p-12", "0x1.616c8e1da0487p-12"],
        2000: ["0x1.15fde82db6eb3p-19", "0x1.15fde82db6eb4p-19"],
        5000: ["0x1.7e121a351f83cp-22", "0x1.7e121a351f83dp-22"],
    }

    @pytest.mark.parametrize("start_bits", [128, 512])
    @pytest.mark.parametrize("n", sorted(REFINEMENT_MARGINS))
    def test_refinement_margin_is_pinned(self, n, start_bits):
        out = check_prime_ratio_refinement(n, Engine(start_bits=start_bits))
        assert [x.hex() for x in out.detail["margin"]] == self.REFINEMENT_MARGINS[n]
        assert out.detail["bits"] == start_bits

    def test_prime_ratio_range_equals_the_instances(self):
        # status, stats and detail, as the per-instance two-sided checks give them
        expected = _prime_range_by_instances(5, 2000, DEFAULT_ENGINE)
        assert check_prime_ratio_range(5, 2000) == expected

    def test_refinement_reads_both_ends_off_shared_kernel_pairs(self):
        # a warm instance: ln p_n was computed as the previous instance's ln p_{n+1}
        from ratiocert import numerics

        numerics._ln_kernel.cache_clear()
        check_prime_ratio_refinement(999)
        before = numerics._ln_kernel.cache_info()
        check_prime_ratio_refinement(1000)
        after = numerics._ln_kernel.cache_info()
        # ln n, ln p_n, ln p_{n+1}, and one call each for ln ln n and ln(1 - u)
        assert after.hits + after.misses - before.hits - before.misses <= 5
        assert after.misses - before.misses == 4


class TestSuite:
    def test_default_suite_all_certified(self):
        results = paper_suite(prime_horizon=300, offset_max=30, stirling_max=40)
        assert results, "suite must not be empty"
        assert all(r.status is CheckStatus.CERTIFIED for r in results)
        names = [r.name for r in results]
        assert len(names) == len(set(names)), "check names must be unique"

    # (max_bits, escalations) of each check in the default paper_suite() when
    # n!/e, 6e + 3, gamma and q were still taken on relative-rounding intervals
    EARLIER_FIGURES = {
        "fibonacci-steps-4-5": (0, 0),
        "derangement-offset-range": (512, 29),
    }

    def test_default_suite_needs_no_more_precision_than_before(self):
        results = paper_suite()
        assert len(results) == 21
        for r in results:
            bits, escalations = self.EARLIER_FIGURES.get(r.name, (128, 0))
            assert r.stats.max_bits <= bits, r.name
            assert r.stats.escalations <= escalations, r.name

    def test_suite_builds_no_interval(self, interval_builds):
        results = paper_suite(prime_horizon=5, offset_max=3, stirling_max=2)
        assert all(r.status is CheckStatus.CERTIFIED for r in results)
        assert interval_builds == []

    def test_tight_cap_goes_undecided_not_wrong(self):
        # the offset margin near n = 60 needs ~400 bits, far beyond this cap
        results = paper_suite(
            prime_horizon=300, offset_max=60, stirling_max=40, engine=Engine(cap_bits=128)
        )
        statuses = {r.status for r in results}
        assert CheckStatus.REFUTED not in statuses
        assert CheckStatus.UNDECIDED in statuses

    def test_results_serialize(self):
        import json

        for r in constants_suite():
            assert isinstance(r, CheckResult)
            doc = r.to_json()
            json.dumps(doc)
            assert doc["name"] and doc["status"] == "certified"


HARMONIC_WINDOW = ("harmonic-window", check_harmonic_window, Ordering.LESS,
                   {"grid": "m=1..10, n=3..29"},
                   [({"m": m, "n": n}, Harmonic(m), n) for m in range(1, 11) for n in range(3, 30)])
DERANGEMENT_WINDOW = ("derangement-window", check_derangement_window, Ordering.GREATER,
                      {"range": [3, 26]}, [({"n": n}, Derangement(), n) for n in range(3, 27)])


def _window_by_steps(name, expected, region, grid, engine):
    # a window check assembled from ratio_step_verdict, one step at a time
    verdicts = []
    for witness, spec, n in grid:
        verdicts.append(ratio_step_verdict(spec, n, engine))
        if verdicts[-1].ordering is not expected:
            break
    stats = MethodStats.of(verdicts)
    counts = {"exact": stats.exact, "interval": stats.interval, "max_bits": stats.max_bits}
    ordering = verdicts[-1].ordering
    if ordering is expected:
        return CheckResult(name, CheckStatus.CERTIFIED, None, {**counts, **region}, stats)
    status = CheckStatus.UNDECIDED if ordering is Ordering.UNDECIDED else CheckStatus.REFUTED
    return CheckResult(name, status, witness, {**counts, "ordering": ordering.value}, stats)


def _firoozbakht_range_by_steps(start, stop, engine):
    # firoozbakht-range assembled from cmp_roots, one n at a time
    return paperchecks._verdict_run(
        f"firoozbakht-range({start}..{stop})",
        (({"n": n}, cmp_roots(nth_prime(n), n, nth_prime(n + 1), engine))
         for n in range(start, stop + 1)),
        Ordering.LESS, {"range": [start, stop]},
    )


def _prime_range_by_instances(start, stop, engine):
    # prime-ratio-range assembled from check_prime_ratio_refinement, one n at a time
    name = f"prime-ratio-range({start}..{stop})"
    stats = MethodStats()
    for n in range(start, stop + 1):
        out = check_prime_ratio_refinement(n, engine)
        stats = stats.merged(out.stats)
        if out.status is not CheckStatus.CERTIFIED:
            return CheckResult(name, out.status, {"n": n}, out.detail, stats)
    detail = {"range": [start, stop], "checked": stop - start + 1,
              "max_bits": stats.max_bits, "method": "interval"}
    return CheckResult(name, CheckStatus.CERTIFIED, None, detail, stats)


class TestStreamedWindowsAndRange:
    """The windows stream their steps and the prime-ratio range decides most
    instances on the lower end of the margin; each must report what the
    public per-step and per-instance checks report."""

    @pytest.mark.parametrize("engine, horizon", [
        (DEFAULT_ENGINE, 400),
        # at 16 bits the first margins to straddle zero are near n = 3400
        (Engine(start_bits=16), 3500),
        (Engine(exact_budget=0), 400),
    ], ids=repr)
    def test_suite_equals_the_public_checks(self, engine, horizon, monkeypatch):
        fallbacks = []
        refinement = paperchecks.check_prime_ratio_refinement

        def counting(n, engine):
            fallbacks.append(n)
            return refinement(n, engine)

        monkeypatch.setattr(paperchecks, "check_prime_ratio_refinement", counting)
        results = {r.name: r for r in paper_suite(
            prime_horizon=horizon, offset_max=10, stirling_max=10, engine=engine)}
        for name, _, expected, region, grid in (HARMONIC_WINDOW, DERANGEMENT_WINDOW):
            assert results[name] == _window_by_steps(name, expected, region, grid, engine)
        name = f"prime-ratio-range(5..{horizon})"
        assert results[name] == _prime_range_by_instances(5, horizon, engine)
        assert results[name].status is CheckStatus.CERTIFIED
        assert bool(fallbacks) == (engine.start_bits == 16)
        name = f"firoozbakht-range(1..{horizon})"
        assert results[name] == _firoozbakht_range_by_steps(1, horizon, engine)

    @pytest.mark.parametrize("engine", [
        DEFAULT_ENGINE,
        # no exact route: every step reads its first rung off the records
        Engine(exact_budget=0),
        # 16-bit records, and fewer steps exact first
        Engine(start_bits=16, cap_bits=64),
    ], ids=repr)
    def test_firoozbakht_range_equals_the_steps(self, engine):
        assert check_firoozbakht_range(1, 3000, engine) == _firoozbakht_range_by_steps(
            1, 3000, engine)

    @pytest.mark.parametrize("bits, step", [(16, 1), (128, 1), (1024, 37), (8192, 1999)])
    def test_refinement_margin_is_at_most_w_wide(self, bits, step):
        widths = [hi - lo for n in range(3, 20001, step)
                  for lo, hi in [paperchecks._refinement_margin(n, nth_prime(n),
                                                                nth_prime(n + 1), bits)]]
        assert max(widths) <= paperchecks._REFINEMENT_WIDTH

    @pytest.mark.parametrize("bits", [16, 64, 128])
    def test_kernel_free_lower_end_certifies_only_first_rung_instances(self, bits):
        # from n = 3, so the refuted n = 4 is among them
        engine = Engine(start_bits=bits)
        pairs = [None] + [_ln_fixed(nth_prime(k), 0, bits) for k in range(1, 20002)]
        cleared = 0
        for n in range(3, 20001):
            if paperchecks._refinement_floor(n, pairs[n], pairs[n + 1][1], bits) > 0:
                cleared += 1
                out = check_prime_ratio_refinement(n, engine)
                assert out.status is CheckStatus.CERTIFIED, n
                assert out.stats == MethodStats(interval=1, max_bits=bits), n
        assert cleared > (1000 if bits == 16 else 19900)

    def test_prime_ranges_compute_ln_p_once_per_prime(self, monkeypatch):
        # past the first-rung records, ln p is computed again only for an
        # instance whose lower end goes to _refinement_margin's kernel pairs
        from ratiocert import numerics

        fallbacks = []
        margin = paperchecks._refinement_margin

        def counting(n, *args):
            fallbacks.append(n)
            return margin(n, *args)

        monkeypatch.setattr(paperchecks, "_refinement_margin", counting)

        def misses(horizon):
            numerics._ln_kernel.cache_clear()
            paper_suite(prime_horizon=horizon)
            return numerics._ln_kernel.cache_info().misses

        others = misses(0)
        fallbacks.clear()
        assert misses(2000) - others <= 2001 + 5 * len(fallbacks)
        assert len(fallbacks) <= 20

    def test_harmonic_window_sums_each_order_once(self, monkeypatch):
        from ratiocert.sequences import Harmonic

        orders = []
        terms = Harmonic.terms

        def counting(self, start, stop):
            orders.append(self.m)
            return terms(self, start, stop)

        monkeypatch.setattr(Harmonic, "terms", counting)
        assert check_harmonic_window().status is CheckStatus.CERTIFIED
        assert orders == list(range(1, 11))

    def test_certified_range_builds_no_instance_detail(self, monkeypatch):
        def no_floats(*args):
            raise AssertionError("_ivf called")

        monkeypatch.setattr(paperchecks, "_ivf", no_floats)
        assert check_prime_ratio_range(5, 2000).status is CheckStatus.CERTIFIED

    @pytest.mark.parametrize("window", [HARMONIC_WINDOW, DERANGEMENT_WINDOW],
                             ids=lambda w: w[0])
    def test_failing_window_stops_where_the_steps_do(self, window, monkeypatch):
        # the claimed ordering flipped: refuted at the first step
        name, check, expected, region, grid = window
        expected = Ordering.GREATER if expected is Ordering.LESS else Ordering.LESS
        run = paperchecks._verdict_run
        monkeypatch.setattr(paperchecks, "_verdict_run",
                            lambda name, steps, _, region: run(name, steps, expected, region))
        out = check()
        assert out.status is CheckStatus.REFUTED
        assert out.witness == grid[0][0]
        assert out == _window_by_steps(name, expected, region, grid, DEFAULT_ENGINE)

    @pytest.mark.parametrize("window", [HARMONIC_WINDOW, DERANGEMENT_WINDOW],
                             ids=lambda w: w[0])
    def test_undecided_step_ends_the_window(self, window, monkeypatch):
        # the stream yields an undecided step part-way: the window stops there,
        # names it and counts the steps up to it
        name, check, expected, region, grid = window
        k = len(grid) // 2 + 1
        witness, spec_k, n_k = grid[k]
        undecided = Verdict(Ordering.UNDECIDED, Method.INTERVAL, 512, 2)
        stream = paperchecks.ratio_step_verdicts

        def stalling(spec, start, stop, engine):
            for n, v in stream(spec, start, stop, engine):
                yield n, undecided if (spec, n) == (spec_k, n_k) else v

        monkeypatch.setattr(paperchecks, "ratio_step_verdicts", stalling)
        out = check()
        assert out.status is CheckStatus.UNDECIDED
        assert out.witness == witness
        assert out.stats == MethodStats.of(
            [ratio_step_verdict(spec, n) for _, spec, n in grid[:k]] + [undecided])


def _unit_tail_margin(mp, n):
    # Delta_n - w_n for lucas(3, 2), u_k = 2^k - 1, g = 1/2
    ln_u = [mp.log(2**k - 1) for k in (n, n + 1, n + 2)]
    g = mp.mpf(1) / 2
    delta = 2 * ln_u[1] / (n + 1) - ln_u[0] / n - ln_u[2] / (n + 2)
    w = 2 * (-(g ** (n + 1)) - g ** (2 * n + 2)) / (n + 1) + g**n / n + g ** (n + 2) / (n + 2)
    return delta - w


def _refinement_margin(mp, n):
    p, p_next = nth_prime(n), nth_prime(n + 1)
    lhs = mp.log(p_next) / (n + 1) - mp.log(p) / n
    return mp.log(1 - mp.log(mp.log(n)) / (2 * n * n)) - lhs


def _harmonic_margin(mp, m, n):
    h = harmonic_term(m, n)
    h = mp.mpf(h.numerator) / h.denominator
    return mp.log(h) - 4 * (mp.mpf(2) / (n + 2)) ** (m - 1) / h


MARGIN_CASES = [
    pytest.param(check_log5_positive, (), lambda mp: mp.log(5) - 1, id="log5"),
    pytest.param(check_log_quadratic_bound, (Fraction(1, 1000),),
                 lambda mp: mp.log(1 + mp.mpf(1) / 1000) - mp.mpf(1) / 1000
                 + mp.mpf(1) / 2000000, id="log-quadratic"),
    pytest.param(check_harmonic_xlogx, (11, 3), lambda mp: _harmonic_margin(mp, 11, 3),
                 id="harmonic-xlogx"),
    pytest.param(check_unit_discriminant_tail, (3, 2, 50),
                 lambda mp: _unit_tail_margin(mp, 50), id="unit-discriminant-tail"),
    *(pytest.param(check_prime_ratio_refinement, (n,),
                   lambda mp, n=n: _refinement_margin(mp, n), id=f"refinement-{n}")
      for n in (3, 4, 5, 5000)),
]


class TestMarginsAgainstMpmath:
    @pytest.mark.parametrize("start_bits", [128, 512])
    @pytest.mark.parametrize("check, args, oracle", MARGIN_CASES)
    def test_margin_contains_oracle(self, check, args, oracle, start_bits):
        import mpmath

        with mpmath.workprec(1024):
            truth = oracle(mpmath.mp)
        out = check(*args, engine=Engine(start_bits=start_bits))
        assert out.detail["bits"] == start_bits
        lo, hi = out.detail["margin"]
        slack = 4 * 2.0**-53 * max(abs(lo), abs(hi))
        assert lo - slack <= truth <= hi + slack, (out.name, lo, hi, truth)
        assert out.status is (CheckStatus.CERTIFIED if truth > 0 else CheckStatus.REFUTED)


def _unit_tail_enclosure(a, b, n, bits):
    g = Fraction(a - 1, a + 1)
    w = (Fraction(2, n + 1) * (-(g ** (n + 1)) - g ** (2 * n + 2))
         + g**n / n + g ** (n + 2) / (n + 2))
    d = n * (n + 1) * (n + 2)
    return evaluate_combination(ratio_step_combination(Lucas(a, b), n), bits, -d * w, d)


def _xlogx_enclosure(m, n, bits):
    h = harmonic_term(m, n)
    rhs = 4 * Fraction(2, n + 2) ** (m - 1)
    return evaluate_combination(LogCombination.from_pairs([(1, h)]), bits, -rhs / h)


def _log_quadratic_enclosure(x, bits):
    return evaluate_combination(LogCombination.from_pairs([(1, 1 + x)]), bits, x * x / 2 - x)


PUBLIC_MARGINS = [
    pytest.param(check_log5_positive, (),
                 lambda bits: evaluate_combination(LogCombination.from_pairs([(1, 5)]), bits, -1),
                 id="log5"),
    *(pytest.param(check_log_quadratic_bound, (x,),
                   lambda bits, x=x: _log_quadratic_enclosure(x, bits), id=f"log-quadratic-{x}")
      for x in (Fraction(1), Fraction(1, 1000), Fraction(10))),
    *(pytest.param(check_harmonic_xlogx, (m, n), lambda bits, m=m, n=n: _xlogx_enclosure(m, n, bits),
                   id=f"harmonic-xlogx-{m}-{n}")
      for m, n in ((1, 30), (11, 3), (13, 3))),
    *(pytest.param(check_unit_discriminant_tail, (a, b, n),
                   lambda bits, a=a, b=b, n=n: _unit_tail_enclosure(a, b, n, bits),
                   id=f"unit-discriminant-tail-{a}-{b}-{n}")
      for a, b, n in ((3, 2, 50), (5, 6, 20), (3, 2, 2))),
]


class TestMarginsOnTheIntegerPair:
    """Checks decide on the kernel's integer pair; what they report must be the
    public enclosure of the same margin at the rung that decided."""

    @pytest.mark.parametrize("start_bits", [16, 128, 512])
    @pytest.mark.parametrize("check, args, public", PUBLIC_MARGINS)
    def test_margin_is_the_public_enclosure(self, check, args, public, start_bits):
        out = check(*args, engine=Engine(start_bits=start_bits))
        enc = public(out.detail["bits"])
        assert out.detail["margin"] == _outward_floats(*_aligned(enc.lo, enc.hi))
        expected = (CheckStatus.CERTIFIED if enc.strictly_positive()
                    else CheckStatus.REFUTED if enc.strictly_negative()
                    else CheckStatus.UNDECIDED)
        assert out.status is expected

    @pytest.mark.parametrize("bits", [16, 128, 512])
    @pytest.mark.parametrize("n", [3, 4, 5, 97, 2000])
    def test_refinement_margin_ends_from_the_public_enclosure(self, n, bits):
        # both integer ends, rebuilt from the public enclosure of ln LHS and
        # Fractions for u = ln ln n / (2n^2) rounded outward: a change of one
        # unit in either end moves no reported float, so pin the integers
        w = bits + _KERNEL_EXTRA_BITS
        p, q = nth_prime(n), nth_prime(n + 1)
        lhs = evaluate_combination(
            LogCombination.from_pairs([(n, q), (-(n + 1), p)]), bits, 0, n * (n + 1))
        s_lo, s_hi = (x.as_fraction() * 2**w for x in (lhs.lo, lhs.hi))
        n_lo, n_hi = _ln_fixed(n, 0, bits)
        u_lo = Fraction(_ln_fixed(n_lo, -w, bits)[0], 2 * n * n)
        u_hi = Fraction(_ln_fixed(n_hi, -w, bits)[1], 2 * n * n)
        lo = _ln_fixed((1 << w) - math.ceil(u_hi), -w, bits)[0] - s_hi
        hi = _ln_fixed((1 << w) - math.floor(u_lo), -w, bits)[1] - s_lo
        assert tuple(paperchecks._refinement_margin(n, p, q, bits)) == (lo, hi)

    @pytest.mark.parametrize("bits", [16, 24, 64, 100, 128, 1024])
    def test_gamma_band_matches_the_fraction_comparison(self, bits, monkeypatch):
        constants = lucas_constants(1, -1, bits)
        g = constants.gamma
        lo, hi = g.lo.as_fraction(), g.hi.as_fraction()
        eps = Fraction(1, 2 ** (constants.bits + 16))  # far below one unit of the pair's scale
        bands = [paperchecks._GAMMA_BAND, (lo, hi), (lo - eps, hi + eps), (lo + eps, hi),
                 (lo, hi - eps), (hi, hi + eps), (hi + eps, hi + 2 * eps),
                 (lo - eps, lo), (lo - 2 * eps, lo - eps)]
        for band_lo, band_hi in bands:
            monkeypatch.setattr(paperchecks, "_GAMMA_BAND", (band_lo, band_hi))
            out = check_fibonacci_gamma_band(Engine(start_bits=bits, cap_bits=bits))
            expected = (CheckStatus.CERTIFIED if lo >= band_lo and hi <= band_hi
                        else CheckStatus.REFUTED if hi < band_lo or lo > band_hi
                        else CheckStatus.UNDECIDED)
            assert out.status is expected, (band_lo, band_hi)
            assert out.detail["gamma"] == _outward_floats(*_aligned(g.lo, g.hi))
