"""Minkowski exponents r(g, p), the bound M(2g), and GL_n(Z/m) cardinalities.

M(2g) = prod_p p^(r(g,p)) with r(g,p) = sum_{i>=0} floor(2g / (p^i (p-1)))
is the lcm of the orders of the finite subgroups of GL_{2g}(Q). Only primes
with p - 1 <= 2g contribute, so the product runs over p <= 2g + 1.

The cardinality of GL_n over Z/m is multiplicative over the prime-power
factors of m, and over Z/p^k it is

    |GL_n(Z/p^k)| = p^((k-1) n^2) * prod_{i=0}^{n-1} (p^n - p^i),

obtained from the exact count over F_p (choose the rows of an invertible
matrix one at a time) lifted through the reduction map GL_n(Z/p^k) ->
GL_n(Z/p), which is surjective with kernel of size p^((k-1) n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factorize, is_prime, primes_up_to
from .errors import InvalidInputError


def minkowski_exponent(g: int, p: int) -> int:
    """r(g, p) = sum over i of floor(2g / (p^i (p - 1)))."""
    if g < 1:
        raise InvalidInputError("g must be a positive integer")
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    return _exponent(g, p)


def _exponent(g: int, p: int) -> int:
    """minkowski_exponent for g >= 1 and a prime p, unchecked."""
    total = 0
    term = p - 1
    while term <= 2 * g:
        total += (2 * g) // term
        term *= p
    return total


def minkowski_bound(g: int) -> int:
    """M(2g), the exact product of p^r(g,p) over primes p <= 2g + 1."""
    if g < 1:
        raise InvalidInputError("g must be a positive integer")
    bound = 1
    for p in primes_up_to(2 * g + 1):
        bound *= p ** _exponent(g, p)
    return bound


def gl_cardinality(n: int, m: int) -> int:
    """Exact number of invertible n x n matrices over Z/m."""
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    if m < 1:
        raise InvalidInputError("m must be a positive integer")
    if m == 1:
        return 1
    card = 1
    for p, k in factorize(m).items():
        local = p ** ((k - 1) * n * n)
        pn = p**n
        for i in range(n):
            local *= pn - p**i
        card *= local
    return card


def asymptotic_ratio_diagnostic(n: int) -> float:
    """(M(n) / n!)^(1/n) evaluated in the log domain.

    A convergence diagnostic only: the limit is approached at a Mertens-type
    rate, so even n = 10^5 is a few tenths away from the limiting value.
    This is the single deliberately inexact result in the library.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidInputError("n must be an even integer >= 2")
    g = n // 2
    log_m = math.fsum(
        _exponent(g, p) * math.log(p) for p in primes_up_to(n + 1)
    )
    log_fact = math.lgamma(n + 1)
    return math.exp((log_m - log_fact) / n)


@dataclass(frozen=True)
class MinkowskiReport:
    """One row of the comparison table for dimension g."""

    g: int
    exponents: dict[int, int]
    bound: int
    gl12_card: int

    @classmethod
    def build(cls, g: int, gl_modulus: int = 12) -> "MinkowskiReport":
        # Every prime p <= 2g + 1 has p - 1 <= 2g, so r(g, p) >= 1.
        exponents = {p: _exponent(g, p) for p in primes_up_to(2 * g + 1)}
        return cls(
            g=g,
            exponents=exponents,
            bound=minkowski_bound(g),
            gl12_card=gl_cardinality(2 * g, gl_modulus),
        )


def to_scientific(n: int) -> str:
    """Round an exact integer to two significant figures, as 'a.be+XX'.

    Used for eyeballing table entries against their printed approximations;
    the exact integer is always reported alongside. The rounding is exact
    integer arithmetic (half to even, as `format` rounds a float), so
    integers beyond the float range are fine.
    """
    if n == 0:
        return "0"
    sign = "-" if n < 0 else ""
    n = abs(n)
    exponent = len(str(n)) - 1
    drop = exponent - 1
    if drop > 0:
        kept, rest = divmod(n, 10**drop)
        if 2 * rest > 10**drop or (2 * rest == 10**drop and kept % 2):
            kept += 1
        if kept == 100:
            kept //= 10
            exponent += 1
    else:
        kept = n * 10**-drop
    figures = str(kept)
    return f"{sign}{figures[0]}.{figures[1]}e{exponent:+03d}"
