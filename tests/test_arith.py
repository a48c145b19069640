import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semistab.arith
from semistab.arith import (
    INFINITY,
    factorize,
    is_prime,
    parse_rational,
    primes_up_to,
    residue,
    valuation,
)
from semistab.errors import InvalidInputError, SizeLimitError


class TestPrimes:
    def test_sieve_small(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]

    def test_is_prime_agrees_with_sieve(self):
        sieve = set(primes_up_to(2000))
        for n in range(2001):
            assert is_prime(n) == (n in sieve)

    def test_is_prime_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**61 - 1))


class TestFactorize:
    def test_small(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(-7) == {7: 1}
        assert factorize(1) == {}

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            factorize(0)

    def test_large_prime_cofactor(self):
        p = 1_000_003
        assert factorize(4 * p * p) == {2: 2, p: 2}

    @pytest.mark.parametrize("p, q", [(10289, 57301), (14821, 44123)])
    def test_rho_retries_with_next_constant(self, p, q):
        # Rho with c = 1 finds only p * q itself on these semiprimes, so
        # _pollard_rho walks again with c = 2.
        assert factorize(p * q) == {p: 1, q: 1}

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_reconstructs_input(self, n):
        product = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            product *= p**e
        assert product == n


def factorize_oracle(n: int) -> dict[int, int]:
    """Trial division by every d up to sqrt(n), with no prime table."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


class TestFactorizeOracle:
    def test_matches_oracle_up_to_20000(self):
        for n in range(1, 20_001):
            got = factorize(n)
            assert got == factorize_oracle(n), n
            assert list(got) == sorted(got), n

    @pytest.mark.parametrize(
        "n",
        [
            1, 2, -1, 97**2, 97 * 101, 9973**2, 9973 * 10007, 10007**2,
            2 * 10007, -2 * 10007,
        ],
    )
    def test_boundary_values(self, n):
        got = factorize(n)
        assert got == factorize_oracle(abs(n))
        assert list(got) == sorted(got)


def _is_prime_by_trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestTrialDivisionEdges:
    """factorize on products of consecutive primes below 10^4: every pair
    straddles or shares a block of the trial division, whatever its size."""

    def test_consecutive_prime_pairs(self):
        primes = [n for n in range(2, 10**4) if _is_prime_by_trial_division(n)]
        assert _is_prime_by_trial_division(10007)
        for p, q in zip(primes, primes[1:]):
            assert factorize(p * q) == {p: 1, q: 1}
            assert factorize(p * p * q) == {p: 2, q: 1}
            assert factorize(q * q * 10007) == {q: 2, 10007: 1}


#: The first 64 primes: factorize's first two trial-division blocks of 32,
#: whose last primes are 131 and 311.
FIRST_PRIMES = [n for n in range(2, 312) if _is_prime_by_trial_division(n)]

#: A 60-bit prime, the largest below 2^60 (2^60 - 93, from the tables of
#: primes just below powers of two).
PRIME_60_BITS = 2**60 - 93


class TestTrialDivisionEarlyExit:
    """factorize divides a block only by the primes of its gcd with n and
    leaves the block at the last of them: every prime of a block, the last
    one above all, must still be divided out, to its full power."""

    def test_blocks_are_as_named(self):
        assert len(FIRST_PRIMES) == 64
        assert (FIRST_PRIMES[31], FIRST_PRIMES[63]) == (131, 311)
        assert PRIME_60_BITS.bit_length() == 60

    def test_matches_trial_division_up_to_100000(self):
        for n in range(1, 100_001):
            assert factorize(n) == factorize_oracle(n), n

    def test_products_with_the_last_prime_of_a_block(self):
        rng = random.Random(4101)
        for last in (131, 311):
            for _ in range(300):
                primes = [last] + rng.sample(FIRST_PRIMES, rng.randrange(0, 5))
                n = math.prod(p ** rng.randrange(1, 4) for p in set(primes))
                n *= rng.choice((1, 10007, 99991, PRIME_60_BITS))
                got = factorize(n)
                expected = factorize_oracle(n // math.gcd(n, PRIME_60_BITS))
                if n % PRIME_60_BITS == 0:
                    expected[PRIME_60_BITS] = 1
                assert got == expected, n
                assert list(got) == sorted(got), n

    def test_powers_and_the_whole_first_block(self):
        for p in FIRST_PRIMES[:32]:
            for k in range(1, 12):
                assert factorize(p**k) == {p: k}
        block = math.prod(FIRST_PRIMES[:32])
        assert factorize(block) == dict.fromkeys(FIRST_PRIMES[:32], 1)
        assert factorize(block * PRIME_60_BITS) == {
            **dict.fromkeys(FIRST_PRIMES[:32], 1), PRIME_60_BITS: 1,
        }

def _seeded_primes(count: int, seed: int) -> list[int]:
    """Distinct primes in (10^4, 10^9), drawn from random.Random(seed) and
    checked by trial division, so that rho, not the trial-division table,
    has to split their products."""
    rng = random.Random(seed)
    primes: set[int] = set()
    while len(primes) < count:
        n = rng.randrange(10**4 + 1, 10**9) | 1
        if _is_prime_by_trial_division(n):
            primes.add(n)
    return sorted(primes)


LARGE_PRIMES = _seeded_primes(24, seed=0x5EED)
MERSENNE_SEMIPRIME = (2**31 - 1) * (2**61 - 1)


class TestRhoOracle:
    """factorize against factorizations known by construction: products of
    primes above the trial-division table, which only Pollard rho splits."""

    def test_two_and_three_distinct_factors(self):
        rng = random.Random(1)
        for size in (2, 3):
            for _ in range(20):
                primes = rng.sample(LARGE_PRIMES, size)
                got = factorize(rng.choice((-1, 1)) * math.prod(primes))
                assert got == {p: 1 for p in primes}
                assert list(got) == sorted(got)

    def test_squares_and_cubes(self):
        q = LARGE_PRIMES[-1]
        for p in LARGE_PRIMES[:8]:
            assert factorize(p**2) == {p: 2}
            assert factorize(p**3) == {p: 3}
            got = factorize(6 * p**2 * q)
            assert got == {2: 1, 3: 1, p: 2, q: 1}
            assert list(got) == sorted(got)

    def test_mersenne_semiprime(self):
        assert factorize(MERSENNE_SEMIPRIME) == {2**31 - 1: 1, 2**61 - 1: 1}

    @given(
        st.lists(st.sampled_from(LARGE_PRIMES), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=10**4),
    )
    @settings(max_examples=60, deadline=None)
    def test_products_of_seeded_primes(self, primes, small):
        expected = dict(factorize_oracle(small))
        for p in primes:
            expected[p] = expected.get(p, 0) + 1
        got = factorize(small * math.prod(primes))
        assert got == expected
        assert list(got) == sorted(got)


class TestRhoBudget:
    def test_tiny_budget_refuses_at_once(self, monkeypatch):
        monkeypatch.setattr(semistab.arith, "RHO_BUDGET", 16)
        with pytest.raises(SizeLimitError, match=r"92-bit cofactor .* 16 Pollard rho"):
            factorize(MERSENNE_SEMIPRIME)


#: OEIS A014233: psi_k, the least strong pseudoprime to all of the first k
#: prime bases, for k = 1..13.
PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)


class TestMillerRabinBounds:
    """is_prime at the bounds below which k Miller-Rabin bases are proven."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_pseudoprimes_below_the_last_bound_are_composite(self, k):
        assert not is_prime(PSI[k - 1])

    def test_last_bound_is_refused(self):
        with pytest.raises(SizeLimitError, match="82-bit number"):
            is_prime(PSI[12])
        with pytest.raises(SizeLimitError, match="82-bit number"):
            factorize(PSI[12])

    def test_psi_12_is_split(self):
        assert factorize(PSI[11]) == {399165290221: 1, 798330580441: 1}

    @pytest.mark.parametrize("bound", sorted(set(PSI)))
    def test_neighbours_match_trial_division(self, bound):
        # psi_k is odd, so psi_k +- 1 is even and the oracle is cheap; the
        # odd neighbours are checked where trial division is.
        offsets = (-2, -1, 1, 2) if bound < 10**10 else (-1, 1)
        for n in (bound + offset for offset in offsets):
            assert is_prime(n) == _is_prime_by_trial_division(n), n


def naive_valuation(x: Fraction, p: int):
    """v_p(x) by testing growing powers of p against num(x) and den(x)."""
    if x == 0:
        return INFINITY
    up = down = 0
    num, den = x.numerator, x.denominator
    while num % p ** (up + 1) == 0:
        up += 1
    while den % p ** (down + 1) == 0:
        down += 1
    return up - down


class TestValuation:
    @given(
        x=st.integers(min_value=-(10**12), max_value=10**12),
        p=st.sampled_from([2, 3, 5, 7, 11, 9973, 10007]),
    )
    @settings(max_examples=300, deadline=None)
    def test_int_matches_naive_count(self, x, p):
        assert valuation(x, p) == naive_valuation(Fraction(x), p)

    @given(
        x=st.fractions(max_denominator=10**6),
        p=st.sampled_from([2, 3, 5, 7, 11, 9973, 10007]),
    )
    @settings(max_examples=300, deadline=None)
    def test_fraction_matches_naive_count(self, x, p):
        assert valuation(x, p) == naive_valuation(x, p)

    @pytest.mark.parametrize("x", [2**40 * 3**7, -(3**20), 5**9 * 7])
    def test_int_and_fraction_agree_on_high_powers(self, x):
        for p in (2, 3, 5, 7):
            assert valuation(x, p) == valuation(Fraction(x), p)
            assert valuation(Fraction(1, x), p) == -valuation(x, p)

    @pytest.mark.parametrize(
        "p", [0, 1, 4, 9999, 10001, (2**31 - 1) * (2**61 - 1), -3]
    )
    def test_nonprime_modulus_rejected(self, p):
        with pytest.raises(InvalidInputError, match="is not prime"):
            valuation(12, p)
        with pytest.raises(InvalidInputError, match="is not prime"):
            valuation(Fraction(1, 12), p)

    @pytest.mark.parametrize("p", [2, 9973, 10007, 2**61 - 1])
    def test_primes_on_both_sides_of_the_table_accepted(self, p):
        assert valuation(p**3, p) == 3
        assert valuation(Fraction(5, p), p) == -1
        assert valuation(0, p) == INFINITY


    def test_examples(self):
        assert valuation(12, 2) == 2
        assert valuation(12, 3) == 1
        assert valuation(Fraction(5, 9), 3) == -2
        assert valuation(0, 7) == INFINITY

    def test_nonprime_rejected(self):
        with pytest.raises(InvalidInputError):
            valuation(12, 6)

    @given(
        x=st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
        p=st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=300, deadline=None)
    def test_valuation_is_additive(self, x, p):
        if x == 0:
            return
        assert valuation(x * p, p) == valuation(x, p) + 1
        assert valuation(x * x, p) == 2 * valuation(x, p)


class TestResidue:
    def test_integer(self):
        assert residue(10, 9) == 1
        assert residue(-1, 9) == 8

    @given(
        n=st.integers(min_value=-(10**12), max_value=10**12),
        modulus=st.sampled_from([1, 4, 9, 16, 27, 243]),
    )
    @settings(max_examples=200, deadline=None)
    def test_int_matches_fraction_route(self, n, modulus):
        assert residue(n, modulus) == residue(Fraction(n, 1), modulus)

    def test_rational(self):
        # 10/7 mod 9: inverse of 7 is 4, 40 mod 9 = 4.
        assert residue(Fraction(10, 7), 9) == 4

    def test_noninvertible_denominator_rejected(self):
        with pytest.raises(InvalidInputError):
            residue(Fraction(1, 3), 9)

    @pytest.mark.parametrize("modulus", [2, 4, 9, 3**6, 2**5 * 3**5])
    def test_integer_is_int_mod(self, modulus):
        # A denominator of 1 takes no inverse: the image is n % modulus, on
        # the int route and the Fraction route alike.
        rng = random.Random(modulus)
        for _ in range(200):
            n = rng.randint(-(10**30), 10**30)
            assert residue(n, modulus) == n % modulus == residue(Fraction(n), modulus)

    @pytest.mark.parametrize(
        "x, modulus, text",
        [
            (Fraction(1, 3), 9, "1/3 has no well-defined residue mod 9"),
            (Fraction(-5, 2), 4, "-5/2 has no well-defined residue mod 4"),
            (Fraction(7, 6), 2**5 * 3**5, "7/6 has no well-defined residue mod 7776"),
        ],
    )
    def test_shared_factor_message(self, x, modulus, text):
        with pytest.raises(InvalidInputError) as exc:
            residue(x, modulus)
        assert str(exc.value) == text


class TestParseRational:
    def test_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational("-5/7") == Fraction(-5, 7)
        assert parse_rational("  8/4 ") == 2

    @pytest.mark.parametrize("text", ["1.5", "a", "1/0", "1/2/3", ""])
    def test_rejects(self, text):
        with pytest.raises(InvalidInputError):
            parse_rational(text)

