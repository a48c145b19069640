import random
from fractions import Fraction

import pytest

from semistab.errors import NotTabulatedError

# Primes >= 5 used to build desk-scale random family parameters whose
# factorizations stay trivial.
TAME_PRIME_POOL = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def make_tabulated_s(rng: random.Random) -> Fraction:
    """A random family parameter with v2 in {0,1,2} and v3 in {0..4}."""
    sign = rng.choice([1, -1])
    a = rng.randrange(0, 3)
    b = rng.randrange(0, 5)
    num = den = 1
    for p in rng.sample(TAME_PRIME_POOL, rng.randrange(0, 3)):
        num *= p ** rng.randrange(1, 4)
    for p in rng.sample(TAME_PRIME_POOL, rng.randrange(0, 2)):
        den *= p ** rng.randrange(1, 4)
    return Fraction(sign * 2**a * 3**b * num, den)


def integer_parameters(seed: int) -> list[int]:
    """Seeded nonzero integers s of both signs: 3^b * m with b in 0..7, and
    as many again times 2^a with a in 3..8, which the family refuses at 2
    when v2(s) mod 6 is 3, 4 or 5."""
    rng = random.Random(seed)
    values = []
    for _ in range(30):
        s = rng.choice([1, -1]) * 3 ** rng.randrange(0, 8) * rng.randint(1, 10**4)
        values += [s, s * 2 ** rng.randrange(3, 9)]
    return values


def as_each_type(s: int) -> list:
    """s as an int, a Fraction, a str and an integral float."""
    return [s, Fraction(s), str(s), float(s)]


def answer_or_refusal(fn, *args):
    """fn(*args), or the text of the NotTabulatedError it raises."""
    try:
        return fn(*args)
    except NotTabulatedError as exc:
        return str(exc)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def tabulated_s():
    return make_tabulated_s
