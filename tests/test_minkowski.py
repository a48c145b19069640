import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab.arith import primes_up_to
from semistab.errors import InvalidInputError
from semistab.minkowski import (
    MinkowskiReport,
    asymptotic_ratio_diagnostic,
    gl_cardinality,
    minkowski_bound,
    minkowski_exponent,
    to_scientific,
)

BOUND_TABLE = {1: 24, 2: 5760, 3: 2903040, 4: 1393459200}


class TestExponent:
    def test_empty_sum_when_p_minus_1_exceeds_2g(self):
        assert minkowski_exponent(1, 5) == 0

    def test_hand_sum_g1_p2(self):
        # floor(2/1) + floor(2/2) + floor(2/4) = 2 + 1 + 0
        assert minkowski_exponent(1, 2) == 3

    def test_g2_exponents_multiply_to_table_entry(self):
        assert minkowski_exponent(2, 2) == 7
        assert minkowski_exponent(2, 3) == 2
        assert minkowski_exponent(2, 5) == 1
        assert 2**7 * 3**2 * 5 == BOUND_TABLE[2]

    def test_nonprime_rejected(self):
        with pytest.raises(InvalidInputError):
            minkowski_exponent(1, 4)

    def test_g_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            minkowski_exponent(0, 2)

    @pytest.mark.parametrize("g", range(1, 11))
    def test_brute_force_series_oracle(self, g):
        # Independent oracle: sum the series term by term far past the
        # cutoff instead of relying on the implementation's stop rule.
        for p in primes_up_to(2 * g + 2):
            expected = sum((2 * g) // (p**i * (p - 1)) for i in range(64))
            assert minkowski_exponent(g, p) == expected


class TestBound:
    @pytest.mark.parametrize("g,expected", sorted(BOUND_TABLE.items()))
    def test_table(self, g, expected):
        assert minkowski_bound(g) == expected

    def test_g_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            minkowski_bound(0)

    @pytest.mark.parametrize("g", range(1, 11))
    def test_product_formula_consistency(self, g):
        product = 1
        for p in primes_up_to(2 * g + 1):
            product *= p ** minkowski_exponent(g, p)
        assert minkowski_bound(g) == product

    @pytest.mark.parametrize("g", range(1, 11))
    def test_large_primes_do_not_contribute(self, g):
        for p in primes_up_to(4 * g + 20):
            if p - 1 > 2 * g:
                assert minkowski_exponent(g, p) == 0

    @pytest.mark.parametrize("g", range(1, 65))
    def test_two_part_at_least_g_minus_1(self, g):
        assert minkowski_exponent(g, 2) >= g - 1
        assert minkowski_bound(g) % 2 ** (g - 1) == 0


def brute_force_gl_count(n: int, m: int) -> int:
    """Count invertible matrices by checking the determinant is a unit."""

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = 0
        for j in range(len(rows)):
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            sign = -1 if j % 2 else 1
            total += sign * rows[0][j] * det(minor)
        return total

    count = 0
    for entries in itertools.product(range(m), repeat=n * n):
        rows = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        if math.gcd(det(rows) % m, m) == 1:
            count += 1
    return count


class TestGlCardinality:
    def test_table_entry_mod_12(self):
        assert gl_cardinality(2, 12) == 4608

    def test_trivial_ring(self):
        assert gl_cardinality(3, 1) == 1

    def test_rounded_table_entries(self):
        assert to_scientific(gl_cardinality(4, 12)) == "3.2e+16"
        assert to_scientific(gl_cardinality(6, 12)) == "1.2e+38"
        assert to_scientific(gl_cardinality(8, 12)) == "1.9e+68"

    def test_scientific_beyond_float_range(self):
        # float() overflows above about 1.8e308; the rounding is integer-only.
        assert to_scientific(10**400 + 5 * 10**398) == "1.0e+400"
        assert to_scientific(10**400 + 5 * 10**398 + 1) == "1.1e+400"
        assert to_scientific(-(996 * 10**350)) == "-1.0e+353"
        assert to_scientific(gl_cardinality(18, 12)).endswith("e+348")

    def test_scientific_matches_float_formatting_when_exact(self):
        # Below 2**53 float(n) is exact, and format() rounds half to even.
        for n in (1, 9, 10, 15, 25, 35, 95, 96, 994, 995, 1005, 2**53 - 1):
            assert to_scientific(n) == format(float(n), ".1e")

    @pytest.mark.parametrize("m", range(2, 13))
    def test_brute_force_n1(self, m):
        assert gl_cardinality(1, m) == brute_force_gl_count(1, m)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_brute_force_n2(self, m):
        assert gl_cardinality(2, m) == brute_force_gl_count(2, m)

    @pytest.mark.parametrize("m", range(1, 1001))
    def test_n1_is_euler_totient(self, m):
        totient = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
        assert gl_cardinality(1, m) == totient

    @given(
        n=st.integers(min_value=1, max_value=4),
        m1=st.integers(min_value=1, max_value=60),
        m2=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_over_coprime_moduli(self, n, m1, m2):
        if math.gcd(m1, m2) != 1:
            return
        assert gl_cardinality(n, m1 * m2) == gl_cardinality(n, m1) * gl_cardinality(
            n, m2
        )

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            gl_cardinality(0, 12)
        with pytest.raises(InvalidInputError):
            gl_cardinality(2, 0)


class TestAsymptoticDiagnostic:
    def test_n2(self):
        assert asymptotic_ratio_diagnostic(2) == pytest.approx(
            math.sqrt(24 / 2), rel=1e-12
        )

    def test_n4(self):
        assert asymptotic_ratio_diagnostic(4) == pytest.approx(
            (5760 / 24) ** 0.25, rel=1e-12
        )

    def test_large_n_near_limit(self):
        assert abs(asymptotic_ratio_diagnostic(10**5) - 3.4109) < 0.35

    @pytest.mark.parametrize("n", [1, 3, 7, 0, -2])
    def test_odd_or_small_rejected(self, n):
        with pytest.raises(InvalidInputError):
            asymptotic_ratio_diagnostic(n)


class TestReport:
    def test_report_invariants(self):
        for g in range(1, 6):
            report = MinkowskiReport.build(g)
            product = 1
            for p, e in report.exponents.items():
                assert e > 0
                product *= p**e
            assert product == report.bound
            assert all(p - 1 <= 2 * g for p in report.exponents)
