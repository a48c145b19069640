import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab.arith import primes_up_to
from semistab.errors import InvalidInputError
from semistab.minkowski import (
    MinkowskiReport,
    _decimal_digits,
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
        # str() refuses ints of more than 4300 digits by default.
        assert to_scientific(10**5000) == "1.0e+5000"
        assert to_scientific(-(10**5000 - 1)) == "-1.0e+5000"
        assert to_scientific(0) == "0"

    def test_decimal_digits_around_powers_of_ten(self):
        # math.log10 rounds, so near 10^k the first guess is corrected up or
        # down; 10^k - 1 needs the downward correction for most k < 400.
        for k in range(1, 1001):
            for n in (10**k - 1, 10**k, 10**k + 1):
                assert _decimal_digits(n) == len(str(n)), (k, n - 10**k)

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


def small_primes(limit: int) -> list[int]:
    """The primes up to limit, by trial division."""
    return [q for q in range(2, limit + 1) if all(q % d for d in range(2, q))]


def sylow_permutations(m: int, ell: int) -> list[tuple[int, ...]]:
    """Generators of an ell-Sylow subgroup of S_m, each a tuple of images.

    range(m) splits into blocks of ell^k points, one per unit of the base-ell
    digit of m at k. On a block, the k permutations that rotate the ell runs
    of ell^j points at its start (j < k) generate the iterated wreath product
    C_ell wr ... wr C_ell, an ell-Sylow subgroup of S_(ell^k).
    """
    gens = []
    start, k, rest = 0, 0, m
    while rest:
        rest, digit = divmod(rest, ell)
        for _ in range(digit):
            for j in range(k):
                run = ell**j
                perm = list(range(m))
                for a in range(run):
                    for b in range(ell):
                        perm[start + a + b * run] = start + a + (b + 1) % ell * run
                gens.append(tuple(perm))
            start += ell**k
        k += 1
    return gens


def attaining_generators(g: int, ell: int) -> list[tuple[tuple[int, ...], ...]]:
    """Integer matrices generating a finite ell-subgroup of GL_2g(Z) whose
    order should have ell-part ell^r(g, ell).

    m = 2g // (ell - 1) diagonal blocks, each the companion matrix of the
    ell-th cyclotomic polynomial (order ell), permuted by the ell-Sylow
    subgroup of S_m; the coordinates past the blocks are fixed. At ell = 2
    the blocks are the 1 x 1 matrix -1, so this is the 2-Sylow subgroup of
    the signed permutation matrices, of order 2^(n + v2(n!)), n = 2g.
    """
    n = 2 * g

    def matrix(entries: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), x in entries.items():
            rows[i][j] = x
        return tuple(map(tuple, rows))

    d = ell - 1
    m = n // d
    gens = []
    for block in range(m):
        o = block * d
        # multiplication by x on Z[x]/(1 + x + ... + x^d) in the basis
        # 1, ..., x^(d-1): x^t -> x^(t+1), and x^(d-1) -> -(1 + ... + x^(d-1))
        companion = {(o + t, o + t): 0 for t in range(d)}
        companion |= {(o + t + 1, o + t): 1 for t in range(d - 1)}
        companion |= {(o + t, o + d - 1): -1 for t in range(d)}
        gens.append(matrix(companion))
    for perm in sylow_permutations(m, ell):
        moved = {(i, i): 0 for i in range(m * d)}
        moved |= {
            (p * d + t, b * d + t): 1 for b, p in enumerate(perm) for t in range(d)
        }
        gens.append(matrix(moved))
    return gens


def group_order(n: int, gens: list[tuple[tuple[int, ...], ...]]) -> int:
    """The order of the group the n x n integer matrices gens generate, by
    closing {1} under right multiplication by the generators."""
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for a in frontier:
            for b in gens:
                product = tuple(
                    tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                    for row in a
                )
                if product not in seen:
                    seen.add(product)
                    grown.append(product)
        assert len(seen) <= 4096, "group is not finite, or larger than expected"
        frontier = grown
    return len(seen)


class TestExponentsByIndependentRoutes:
    """r(g, ell) and M(2g) against two routes that use no formula of the
    library: finite subgroups of GL_2g(Z) that attain the ell-part, and the
    gcd of |GL_2g(F_q)| over odd primes q, into which every finite subgroup
    of GL_2g(Z) injects."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_groups_attain_each_prime_part(self, g):
        # Primes up to 2g + 3: past 2g + 1 there is no block, so the group
        # is trivial and r(g, ell) = 0.
        orders = {}
        for ell in small_primes(2 * g + 3):
            order = orders[ell] = group_order(2 * g, attaining_generators(g, ell))
            r = 0
            while order % ell == 0:
                order //= ell
                r += 1
            assert order == 1, (g, ell, orders[ell])
            assert minkowski_exponent(g, ell) == r, (g, ell)
        assert minkowski_bound(g) == math.prod(orders.values())

    @pytest.mark.parametrize("g", range(1, 6))
    def test_gcd_over_reductions(self, g):
        # Measured for g = 1..5 only: the odd parts agree, and the gcd's
        # 2-part is larger by exactly 2^g (48/24, 23040/5760, ...), where
        # the bound is tight only up to its 2-part.
        n = 2 * g
        gcd = 0
        for q in small_primes(399)[1:]:
            gcd = math.gcd(gcd, math.prod(q**n - q**i for i in range(n)))
        bound = minkowski_bound(g)
        two = gcd & -gcd
        assert gcd // two == bound // (bound & -bound)
        assert two == (bound & -bound) * 2**g
        assert two == 2 ** (minkowski_exponent(g, 2) + g)
        for ell in small_primes(2 * g + 1)[1:]:
            r = minkowski_exponent(g, ell)
            assert gcd % ell**r == 0 and gcd % ell ** (r + 1) != 0, (g, ell)
