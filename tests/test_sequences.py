"""Sequence generators against independent oracles.

Derangements are cross-checked three ways (brute-force permutation counting,
inclusion-exclusion, and the two-term recurrence), Lucas terms against plain
iteration and sympy, primes against sympy's sieve, squarefree numbers against
factorization.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiocert.sequences import (
    Derangement,
    Harmonic,
    IndexBelowDomainStart,
    InvalidParameters,
    Lucas,
    Primes,
    Product,
    SquarefreeSum,
    derangement_term,
    fibonacci,
    harmonic_term,
    lucas_constants,
    lucas_term,
    nth_prime,
    squarefree_sum,
)


def brute_force_derangements(n: int) -> int:
    base = tuple(range(n))
    return sum(
        1
        for perm in itertools.permutations(base)
        if all(perm[i] != i for i in range(n))
    )


def inclusion_exclusion_derangements(n: int) -> int:
    return sum((-1) ** k * math.factorial(n) // math.factorial(k) for k in range(n + 1))


def iterative_lucas(a: int, b: int, n: int) -> int:
    u0, u1 = 0, 1
    for _ in range(n):
        u0, u1 = u1, a * u1 - b * u0
    return u0


def is_squarefree(k: int) -> bool:
    return all(e == 1 for e in sympy.factorint(k).values())


# ---------------------------------------------------------------------------
# Lucas-type recurrences


class TestLucas:
    def test_spec_examples(self):
        assert lucas_term(1, -1, 0) == 0
        assert lucas_term(1, -1, 10) == 55
        assert lucas_term(3, 2, 5) == 31

    def test_fibonacci_against_sympy(self):
        for n in (0, 1, 2, 3, 10, 50, 100, 500):
            assert lucas_term(1, -1, n) == sympy.fibonacci(n)

    def test_power_of_two_closed_form(self):
        for n in range(0, 40):
            assert lucas_term(3, 2, n) == 2**n - 1

    def test_matrix_equals_iteration(self):
        for a, b in ((1, -1), (2, -1), (3, 2), (5, 6), (4, -7)):
            for n in range(0, 65):
                assert lucas_term(a, b, n) == iterative_lucas(a, b, n)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            lucas_term(0, -1, 3)
        with pytest.raises(InvalidParameters):
            lucas_term(2, 1, 3)  # discriminant 0
        with pytest.raises(InvalidParameters):
            lucas_term(1, 1, 3)  # discriminant -3
        with pytest.raises(InvalidParameters):
            lucas_term(2, 0, 3)  # b must be nonzero
        with pytest.raises(IndexBelowDomainStart):
            lucas_term(1, -1, -1)

    def test_streaming_matches_single_terms(self):
        seq = Lucas(2, -1)
        assert list(seq.terms(1, 20)) == [seq.term(n) for n in range(1, 21)]

    def test_positivity(self):
        for a, b in ((1, -1), (3, 2), (2, -1), (7, 3)):
            seq = Lucas(a, b)
            for n in range(1, 40):
                assert seq.term(n) > 0


class TestDerangement:
    def test_first_values(self):
        assert derangement_term(1) == 0
        assert [derangement_term(n) for n in range(2, 10)] == [
            1, 2, 9, 44, 265, 1854, 14833, 133496,
        ]

    def test_brute_force_to_eight(self):
        for n in range(1, 9):
            assert derangement_term(n) == brute_force_derangements(n)

    def test_inclusion_exclusion_to_thirty(self):
        for n in range(1, 31):
            assert derangement_term(n) == inclusion_exclusion_derangements(n)

    def test_two_term_recurrence(self):
        # D_n = (n-1) (D_{n-1} + D_{n-2})
        for n in range(3, 31):
            assert derangement_term(n) == (n - 1) * (
                derangement_term(n - 1) + derangement_term(n - 2)
            )

    def test_against_sympy_subfactorial(self):
        for n in (5, 12, 20, 40, 100):
            assert derangement_term(n) == sympy.subfactorial(n)

    def test_domain(self):
        d = Derangement()
        assert d.domain_start == 2
        assert d.term(2) == 1
        with pytest.raises(IndexBelowDomainStart):
            d.term(1)
        with pytest.raises(IndexBelowDomainStart):
            derangement_term(0)

    def test_streaming_matches(self):
        d = Derangement()
        assert list(d.terms(2, 25)) == [d.term(n) for n in range(2, 26)]


class TestHarmonic:
    def test_spec_examples(self):
        assert harmonic_term(5, 1) == 1
        assert harmonic_term(1, 3) == Fraction(11, 6)
        assert harmonic_term(2, 3) == Fraction(49, 36)

    def test_explicit_sum(self):
        for m in (1, 2, 3, 7):
            for n in (1, 2, 5, 13):
                assert harmonic_term(m, n) == sum(
                    Fraction(1, k**m) for k in range(1, n + 1)
                )

    @given(st.integers(1, 6), st.integers(1, 40))
    @settings(max_examples=60)
    def test_strictly_increasing_in_n(self, m, n):
        assert harmonic_term(m, n + 1) > harmonic_term(m, n)

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            harmonic_term(0, 3)
        with pytest.raises(IndexBelowDomainStart):
            harmonic_term(1, 0)
        with pytest.raises(InvalidParameters):
            Harmonic(0)

    def test_streaming(self):
        h = Harmonic(3)
        assert list(h.terms(1, 15)) == [h.term(n) for n in range(1, 16)]


class TestPrimes:
    def test_spec_examples(self):
        assert nth_prime(1) == 2
        assert nth_prime(25) == 97
        assert nth_prime(10000) == 104729

    def test_against_sympy(self):
        for n in (2, 3, 10, 100, 1234, 4000):
            assert nth_prime(n) == sympy.prime(n)

    def test_sieve_agrees_with_trial_division(self):
        trial = [k for k in range(2, 10001) if sympy.isprime(k)]
        p = Primes()
        got = list(p.terms(1, len(trial)))
        assert got == trial

    def test_domain(self):
        with pytest.raises(IndexBelowDomainStart):
            nth_prime(0)


class TestSquarefree:
    def test_spec_examples(self):
        assert squarefree_sum(1) == 1
        assert squarefree_sum(3) == 6
        assert squarefree_sum(5) == 17

    def test_one_counts_as_squarefree(self):
        assert squarefree_sum(1) == 1

    def test_prefix_sums_against_factorization(self):
        sf_numbers = [k for k in range(1, 400) if is_squarefree(k)]
        total = 0
        for idx, k in enumerate(sf_numbers[:200], start=1):
            total += k
            assert squarefree_sum(idx) == total

    def test_streaming(self):
        s = SquarefreeSum()
        assert list(s.terms(1, 50)) == [s.term(n) for n in range(1, 51)]

    def test_domain(self):
        with pytest.raises(IndexBelowDomainStart):
            squarefree_sum(0)


class TestProductAndDispatch:
    def test_spec_examples(self):
        assert Derangement().term(2) == 1
        fib = fibonacci()
        assert Product(fib, fib).term(5) == 25
        assert Harmonic(1).term(2) == Fraction(3, 2)

    def test_product_domain_is_max_of_children(self):
        p = Product(fibonacci(), Derangement())
        assert p.domain_start == 2
        assert p.term(4) == 3 * 9
        with pytest.raises(IndexBelowDomainStart):
            p.term(1)

    def test_nested_product(self):
        p = Product(Product(fibonacci(), Derangement()), Harmonic(2))
        assert p.term(3) == 2 * 2 * Fraction(49, 36)
        assert "product(" in p.name

    def test_positivity_of_all_builtins(self):
        for seq in (fibonacci(), Lucas(3, 2), Derangement(), Harmonic(1),
                    Harmonic(10), Primes(), SquarefreeSum()):
            for n in range(seq.domain_start, seq.domain_start + 30):
                assert seq.term(n) > 0

    def test_streaming_product(self):
        p = Product(fibonacci(), Primes())
        assert list(p.terms(1, 20)) == [p.term(n) for n in range(1, 21)]


class TestLucasConstants:
    def test_fibonacci_gamma_band(self):
        lc = lucas_constants(1, -1, 64)
        assert Fraction("-0.3825") <= lc.gamma.lo.as_fraction()
        assert lc.gamma.hi.as_fraction() <= Fraction("-0.3815")

    def test_unit_discriminant_exact(self):
        lc = lucas_constants(3, 2, 64)
        assert lc.discriminant == 1
        assert lc.gamma.is_point() and lc.gamma.lo.as_fraction() == Fraction(1, 2)
        # q = -ln(1 - 1/2) / (1/2) = 2 ln 2, here to 40 digits: the enclosure's
        # scale is 2**-72, so a 20-digit truncation may lie outside it
        two_ln2 = Fraction("1.3862943611198906188344642429163531361510")
        assert lc.q.contains(two_ln2)

    def test_gamma_sixth_power_bound(self):
        lc = lucas_constants(1, -1, 64)
        sixth_hi = 56 * lc.gamma_abs.hi.as_fraction() ** 6
        assert sixth_hi < Fraction(1, 3)

    def test_alpha_beta_invariants(self):
        for a, b in ((1, -1), (2, -1), (3, 2), (5, 3), (6, 2)):
            lc = lucas_constants(a, b, 96)
            assert lc.discriminant == a * a - 4 * b > 0
            # sqrt enclosure squared straddles the discriminant
            lo2 = lc.sqrt_disc.lo.as_fraction() ** 2
            hi2 = lc.sqrt_disc.hi.as_fraction() ** 2
            assert lo2 <= lc.discriminant <= hi2
            # alpha strictly dominates |beta|; |gamma| inside [0, 1)
            beta_abs_hi = max(
                abs(lc.beta.lo.as_fraction()), abs(lc.beta.hi.as_fraction())
            )
            assert lc.alpha.lo.as_fraction() > beta_abs_hi
            assert 0 <= lc.gamma_abs.lo.as_fraction()
            assert lc.gamma_abs.hi.as_fraction() < 1
            assert lc.q.lo.as_fraction() > 0

    @pytest.mark.parametrize("bits", [128, 256, 512, 1024, 2048])
    @pytest.mark.parametrize("a,b", [(1, -1), (2, -1), (3, 2), (5, 6), (6, 2)])
    def test_enclosures_contain_oracle_and_nest(self, a, b, bits):
        lc = lucas_constants(a, b, bits)
        coarse = lucas_constants(a, b, bits // 2)
        with mpmath.workprec(3 * bits + 64):
            gamma = (a - mpmath.sqrt(a * a - 4 * b)) ** 2 / (4 * b)
            q = -mpmath.log(1 - abs(gamma)) / abs(gamma)
            for name, value in (("gamma", gamma), ("gamma_abs", abs(gamma)), ("q", q)):
                iv = getattr(lc, name)
                m, e = value.man_exp  # the magnitude; the sign is apart
                v = Fraction(m) * Fraction(2) ** e * (-1 if value < 0 else 1)
                pad = abs(v) / 2 ** (2 * bits)
                assert iv.lo.as_fraction() <= v + pad and v - pad <= iv.hi.as_fraction(), name
                assert getattr(coarse, name).encloses(iv), name
        if (a, b) == (3, 2):
            assert lc.gamma.is_point() and lc.gamma.lo.as_fraction() == Fraction(1, 2)

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            lucas_constants(2, 1, 64)
        with pytest.raises(InvalidParameters):
            lucas_constants(-1, -1, 64)
