"""Named finite checks: constants, tail bounds, remainder bounds, grids."""

from fractions import Fraction

import pytest

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
from ratiocert.numerics import NonPositiveArgument
from ratiocert.sequences import InvalidParameters, harmonic_term, nth_prime


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
            check_log5_positive(start_bits=256, cap_bits=128)
        with pytest.raises(ValueError):
            check_derangement_offset(10, start_bits=256, cap_bits=128)

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

    def test_log5_shape_at_n6(self):
        # at (1,-1), n=6 the right side stays above ln 5 - 1 > 0
        out = check_lucas_gap_bound(1, -1, 6)
        assert out.status is CheckStatus.CERTIFIED
        assert out.detail["rhs"][0] > 0

    def test_unit_discriminant_needs_flag(self):
        with pytest.raises(InvalidParameters):
            check_lucas_gap_bound(3, 2, 5)
        out = check_lucas_gap_bound(3, 2, 5, allow_unit_discriminant=True)
        assert out.status is CheckStatus.CERTIFIED

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

    def test_tight_cap_goes_undecided_not_wrong(self):
        # the offset margin near n = 60 needs ~400 bits, far beyond this cap
        results = paper_suite(
            prime_horizon=300, offset_max=60, stirling_max=40, cap_bits=128
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
        out = check(*args, start_bits=start_bits)
        assert out.detail["bits"] == start_bits
        lo, hi = out.detail["margin"]
        slack = 4 * 2.0**-53 * max(abs(lo), abs(hi))
        assert lo - slack <= truth <= hi + slack, (out.name, lo, hi, truth)
        assert out.status is (CheckStatus.CERTIFIED if truth > 0 else CheckStatus.REFUTED)
