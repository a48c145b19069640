"""Maps between curves whose effect on the local monodromy is known without
any reduction rule: a 2-isogeny, a 3-isogeny and a quadratic twist, and a
point count to check an isogeny formula by.

They act on bare coefficient tuples (a1, a2, a3, a4, a6) of integral models
and import nothing from semistab, so a check built on them shares no code
with the rules it checks.

- Isogenous curves have the same Galois representation on V_l, so the same
  finite monodromy group at every p.
- Twisting by d multiplies that representation by the quadratic character
  of Q(sqrt d). Where Q_p(sqrt d) is unramified the character is trivial on
  inertia, and the group at p does not change. Where it is ramified and
  p >= 5, inertia acts through a cyclic group of order e generated by some
  zeta, and after the twist through -zeta, whose order is RAMIFIED_TWIST[e].
"""

from __future__ import annotations

Coefficients = tuple[int, int, int, int, int]

#: order of the monodromy group at p >= 5 -> its order after a twist ramified
#: at p: the order of -zeta for zeta of order e.
RAMIFIED_TWIST = {1: 2, 2: 1, 3: 6, 6: 3, 4: 4}


def c_invariants(a: Coefficients) -> tuple[int, int]:
    """(c4, c6) of the model, from the textbook b2, b4, b6."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    return b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6


def discriminant(a: Coefficients) -> int:
    """The discriminant of the model, (c4^3 - c6^2) / 1728."""
    c4, c6 = c_invariants(a)
    return (c4**3 - c6**2) // 1728


def two_isogenous(a: int, b: int) -> tuple[Coefficients, Coefficients]:
    """y^2 = x^3 + a x^2 + b x and its 2-isogenous curve y^2 = x^3 - 2a x^2 +
    (a^2 - 4b) x, the quotient by the 2-torsion point (0, 0) (Silverman,
    Example III.4.5). Both are nonsingular when b (a^2 - 4b) != 0."""
    return (0, a, 0, b, 0), (0, -2 * a, 0, a * a - 4 * b, 0)


def three_isogenous(a1: int, a3: int) -> tuple[Coefficients, Coefficients]:
    """y^2 + a1 xy + a3 y = x^3, with the rational 3-torsion point (0, 0), and
    its quotient by that point from Velu's formulas (C. R. Acad. Sci. Paris
    1971): y^2 + a1 xy + a3 y = x^3 - 5 a1 a3 x - a1^3 a3 - 7 a3^2. The first
    has discriminant a3^3 (a1^3 - 27 a3), so both are nonsingular when that
    is nonzero."""
    return (a1, 0, a3, 0, 0), (a1, 0, a3, -5 * a1 * a3, -(a1**3) * a3 - 7 * a3 * a3)


def count_points(a: Coefficients, p: int) -> int:
    """#E(F_p) of the model reduced mod an odd prime p, the point at infinity
    included. y^2 + (a1 x + a3) y = x^3 + a2 x^2 + a4 x + a6 has 1, 2 or 0
    solutions y as its discriminant in y, (a1 x + a3)^2 + 4 (x^3 + a2 x^2 +
    a4 x + a6), is 0, a nonzero square or a non-square mod p."""
    a1, a2, a3, a4, a6 = a
    squares = {y * y % p for y in range(1, p)}
    count = 1
    for x in range(p):
        disc = ((a1 * x + a3) ** 2 + 4 * (((x + a2) * x + a4) * x + a6)) % p
        count += 1 if disc == 0 else 2 if disc in squares else 0
    return count


def quadratic_twist(a: Coefficients, d: int) -> Coefficients:
    """The twist by d as the short model y^2 = x^3 - 27 d^2 c4 x - 54 d^3 c6.

    A short-form model y^2 = x^3 + a4 x + a6 has c4 = -48 a4 and c6 =
    -864 a6, so that model's (a4, a6) are (6^4 d^2 a4, 6^6 d^3 a6): the same
    curve as y^2 = x^3 + d^2 a4 x + d^3 a6, which is returned instead. For
    d prime to 6 it keeps the input's valuations at 2 and 3, so a family
    curve y^2 = x^3 + s stays in the strata its tables cover.
    """
    a1, a2, a3, a4, a6 = a
    if a1 == a2 == a3 == 0:
        return (0, 0, 0, d * d * a4, d**3 * a6)
    c4, c6 = c_invariants(a)
    return (0, 0, 0, -27 * d * d * c4, -54 * d**3 * c6)


def unramified_at(d: int, p: int) -> bool:
    """Whether Q_p(sqrt d) is unramified over Q_p, for squarefree d."""
    if p == 2:
        return d % 4 == 1
    return d % p != 0
