"""Exact integer/rational helpers: primes, factorization, p-adic valuations.

All arithmetic is on Python ints and fractions.Fraction; nothing here ever
touches floating point. Every answer is exact or refused: is_prime is
Miller-Rabin to a base set proven deterministic for the size of n, and
raises SizeLimitError where none is proven (from about 3.3e24 up) rather
than guess; factorize trial-divides by blocks of primes below 10^4, one gcd
per block, and splits what is left by Pollard rho within a fixed budget.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import InvalidInputError, SizeLimitError

#: Valuation of zero; compares greater than any finite valuation.
INFINITY = math.inf

Rational = Fraction | int


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


#: The Miller-Rabin bases: the first 13 primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: (psi_k, the first k primes): Miller-Rabin to these k bases is proven
#: deterministic below psi_k, the least strong pseudoprime to all of them
#: (OEIS A014233). k = 8, 10 and 11 are left out: their bounds are those of
#: 7, 9 and 9.
_MR_TABLE = tuple(
    (bound, _MR_BASES[:k])
    for bound, k in (
        (2_047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),
        (3_825_123_056_546_413_051, 9),
        (318_665_857_834_031_151_167_461, 12),
        (3_317_044_064_679_887_385_961_981, 13),
    )
)

#: The product of the bases; a common factor with n settles n at once.
_MR_BASES_PRODUCT = math.prod(_MR_BASES)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven below 3,317,044,064,679,887,385,961,981.

    n below psi_k (_MR_TABLE, OEIS A014233) is tested to the first k primes
    as bases, the fewest proven deterministic there: 2 to 4 bases for n from
    10^4 to 10^9, 9 from 3.4e14 to 3.8e18, 13 (2..41) from 3.2e23 to the
    last bound psi_13, about 3.3e24. From psi_13 up no base set is proven:
    False is still exact (a base witnesses that n is composite), but an n
    that passes all 13 bases raises SizeLimitError naming its bit length
    rather than be called prime.
    """
    if n < 2:
        return False
    if math.gcd(n, _MR_BASES_PRODUCT) != 1:
        return n in _MR_BASES
    m = n - 1
    r = (m & -m).bit_length() - 1
    d = m >> r
    for bound, bases in _MR_TABLE:
        if n < bound:
            break
    # Past the loop without a break, bases are all 13 and n >= bound.
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    if n >= bound:
        raise SizeLimitError(
            f"is_prime: a {n.bit_length()}-bit number passes Miller-Rabin to "
            f"the bases 2..41, which proves primality only below {bound}"
        )
    return True


#: Pollard rho iterations (evaluations of x -> x^2 + c) that one factorize
#: call may spend in all; past it factorize raises SizeLimitError. No
#: factorization of the numbers behind the benchmark's curve-large inputs
#: (integers up to 10^18, discriminants up to about 10^20) took more than
#: 2.5e5 iterations; 2^20 iterations on a 128-bit cofactor take about 1 s.
RHO_BUDGET = 2**21

#: Brent's method multiplies this many differences x - y mod n together
#: before taking one gcd.
_RHO_BLOCK = 64


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """A nontrivial factor of odd composite n and the iterations spent on it.

    Pollard rho on x -> x^2 + c with Brent's cycle finding (BIT 1980): y
    walks ahead of a saved x in runs of doubling length r, and the
    differences x - y are multiplied mod n in blocks of _RHO_BLOCK, one gcd
    per block. A block whose gcd is n is walked again from its start, one
    gcd per step; a walk that still finds only n is retried with c + 1.
    More than budget iterations raise SizeLimitError.
    """
    spent = 0

    def spend(steps: int) -> None:
        nonlocal spent
        spent += steps
        if spent > budget:
            raise SizeLimitError(
                f"factorize: a {n.bit_length()}-bit cofactor is not split "
                f"within {RHO_BUDGET} Pollard rho iterations"
            )

    c = 1
    while True:
        y = 2
        r = 1
        q = 1
        g = 1
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                m = min(_RHO_BLOCK, r - k)
                spend(m)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, spent
        c += 1


#: Trial division covers the primes below this bound.
_TRIAL_BOUND = 10_000

#: factorize tries the trial-division primes this many at a time, by one gcd
#: with their product.
_TRIAL_BLOCK = 32


@functools.cache
def _trial_blocks() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The primes below _TRIAL_BOUND in runs of _TRIAL_BLOCK, in increasing
    order, each with its product; sieved once on first use."""
    primes = tuple(primes_up_to(_TRIAL_BOUND - 1))
    starts = range(0, len(primes), _TRIAL_BLOCK)
    blocks = (primes[i : i + _TRIAL_BLOCK] for i in starts)
    return tuple((math.prod(block), block) for block in blocks)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division runs over the primes below 10^4 in blocks of 32: a block
    whose product is coprime to what is left is skipped after one gcd, and
    the others are divided one prime at a time. It stops at the first block
    whose first prime p has p^2 above what is left, which is then 1 or a
    prime, as is a rest below 10^8 once every block is done. Pollard rho
    with Brent's cycle finding and batched gcds splits a larger rest, and
    is_prime settles each piece. All rho calls of one factorization share
    RHO_BUDGET iterations: an input that needs more, such as a semiprime
    whose smaller factor has more than about 40 bits, is refused with
    SizeLimitError naming the bit length of the cofactor left unsplit. So
    is a piece from about 3.3e24 up that is_prime cannot prove prime. The
    keys come out sorted.
    """
    n = abs(n)
    if n == 0:
        raise InvalidInputError("cannot factorize 0")
    factors: dict[int, int] = {}
    for product, block in _trial_blocks():
        if block[0] * block[0] > n:
            break
        if math.gcd(n, product) == 1:
            continue
        for p in block:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                factors[p] = e
    else:
        if n >= _TRIAL_BOUND * _TRIAL_BOUND:
            budget = RHO_BUDGET
            stack = [n]
            while stack:
                m = stack.pop()
                if is_prime(m):
                    factors[m] = factors.get(m, 0) + 1
                    continue
                d, spent = _pollard_rho(m, budget)
                budget -= spent
                stack.extend((d, m // d))
            return dict(sorted(factors.items()))
    if n > 1:
        factors[n] = 1
    return factors


def valuation(x: Rational, p: int) -> int | float:
    """p-adic valuation v_p(x), normalized v_p(p) = 1; v_p(0) = +infinity.

    p must be prime (is_prime), else InvalidInputError. x is read as
    x.numerator / x.denominator, which an int has as x / 1.
    """
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    return _prime_valuation(x, p)


def _prime_valuation(x: Rational, p: int) -> int | float:
    """valuation(x, p) for a p already known to be prime: no primality test."""
    num, den = x.numerator, x.denominator
    if num == 0:
        return INFINITY
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def residue(x: Rational, modulus: int) -> int:
    """Image of a rational with denominator invertible mod modulus.

    The denominator is inverted mod modulus; this is the canonical image of
    x in Z/modulus when x is a p-adic integer for every p | modulus. x is
    read as x.numerator / x.denominator, which an int has as x / 1; a
    denominator of 1 needs no inverse, and the image is num % modulus.
    """
    num, den = x.numerator, x.denominator
    if den == 1:
        return num % modulus
    if math.gcd(den, modulus) != 1:
        raise InvalidInputError(
            f"{x} has no well-defined residue mod {modulus}"
        )
    return num * pow(den, -1, modulus) % modulus


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or an integer literal; floating point is rejected."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse rational {text!r}") from exc

