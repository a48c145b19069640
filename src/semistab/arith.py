"""Exact integer/rational helpers: primes, factorization, p-adic valuations.

All arithmetic is on Python ints and fractions.Fraction; nothing here ever
touches floating point.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit (and larger) inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These witnesses are a proven deterministic set below 3.3e24.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    """A nontrivial factor of composite n and the iterations spent on it.

    Pollard rho on x -> x^2 + c with Brent's cycle finding (BIT 1980): y
    walks ahead of a saved x in runs of doubling length r, and the
    differences x - y are multiplied mod n in blocks of _RHO_BLOCK, one gcd
    per block. A block whose gcd is n is walked again from its start, one
    gcd per step; a walk that still finds only n is retried with c + 1.
    More than budget iterations raise SizeLimitError.
    """
    if n % 2 == 0:
        return 2, 0
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


#: Trial division covers the primes below this bound, and so does the
#: table lookup in valuation's primality check.
_TRIAL_BOUND = 10_000


@functools.cache
def _trial_primes() -> tuple[int, ...]:
    """The primes below _TRIAL_BOUND, sieved once on first use."""
    return tuple(primes_up_to(_TRIAL_BOUND - 1))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division by the primes below 10^4 stops once p^2 exceeds what is
    left, which is then 1 or a prime; Pollard rho with Brent's cycle finding
    and batched gcds splits a cofactor with no prime factor below 10^4. All
    rho calls of one factorization share RHO_BUDGET iterations: an input
    that needs more, such as a semiprime whose smaller factor has more than
    about 40 bits, is refused with SizeLimitError naming the bit length of
    the cofactor left unsplit. The keys come out sorted.
    """
    n = abs(n)
    if n == 0:
        raise InvalidInputError("cannot factorize 0")
    factors: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            if n > 1:
                factors[n] = 1
            return factors
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    budget = RHO_BUDGET
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d, spent = _pollard_rho(m, budget)
        budget -= spent
        stack.extend((d, m // d))
    return dict(sorted(factors.items()))


def valuation(x: Rational, p: int) -> int | float:
    """p-adic valuation v_p(x), normalized v_p(p) = 1; v_p(0) = +infinity.

    p must be prime, else InvalidInputError. Below 10^4 (_TRIAL_BOUND) that
    is a lookup in factorize's table of trial-division primes; from 10^4 up
    it is Miller-Rabin (is_prime). An int x is read as x/1, with no Fraction
    built.
    """
    if p < _TRIAL_BOUND:
        table = _trial_primes()
        i = bisect_left(table, p)
        prime = i < len(table) and table[i] == p
    else:
        prime = is_prime(p)
    if not prime:
        raise InvalidInputError(f"{p} is not prime")
    if isinstance(x, int):
        num, den = x, 1
    else:
        if not isinstance(x, Fraction):
            x = Fraction(x)
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
    x in Z/modulus when x is a p-adic integer for every p | modulus. An int
    is reduced directly.
    """
    if isinstance(x, int):
        return x % modulus
    x = Fraction(x)
    if math.gcd(x.denominator, modulus) != 1:
        raise InvalidInputError(
            f"{x} has no well-defined residue mod {modulus}"
        )
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


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

