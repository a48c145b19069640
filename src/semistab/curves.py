"""Weierstrass equations over Q: invariants, the family y^2 = x^3 + s, the
minimal model at p >= 5 and the reduction type there, read off v_p(delta) and
v_p(c4) of any model (_tame_valuations, for a p a caller names) by one rule,
_reduction_class.

Sign convention note: we use the standard c6 = -b2^3 + 36 b2 b4 - 216 b6,
which gives c6 = -864 s for the family curve (0,0,0,0,s). Some tables print
the opposite sign for c6; no congruence condition used anywhere downstream
depends on it (they are all stated on s directly).

Minimalization at 2 and 3 for arbitrary curves is deliberately not
implemented; the family's reduction data at 2 and 3 enters through
monodromy.FAMILY_TABLES instead, rows at 2 and one closed rule at 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import INFINITY, Rational, _prime_valuation, valuation
from .errors import (
    InvalidInputError,
    SingularCurveError,
    TheoremViolationError,
    UnsupportedPrimeError,
)


@dataclass(frozen=True)
class WeierstrassCurve:
    """Long Weierstrass equation y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    The attribute invariants holds compute_invariants(curve), computed once
    when the curve is made; it is not a field, so equality, hash and repr
    see only the coefficients.
    """

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        # raises SingularCurveError when delta = 0
        object.__setattr__(self, "invariants", compute_invariants(self))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """(a1, a2, a3, a4, a6), the order `semistab curve --a` takes."""
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def is_short_form(self) -> bool:
        return self.a1 == self.a2 == self.a3 == 0

    def is_family_form(self) -> bool:
        """True for y^2 = x^3 + s, i.e. a1 = a2 = a3 = a4 = 0."""
        return self.is_short_form() and self.a4 == 0


@dataclass(frozen=True)
class CurveInvariants:
    b2: Fraction
    b4: Fraction
    b6: Fraction
    b8: Fraction
    c4: Fraction
    c6: Fraction
    delta: Fraction
    j: Fraction


def compute_invariants(curve: WeierstrassCurve) -> CurveInvariants:
    """All derived b/c invariants, discriminant and j of a Weierstrass curve.

    The arithmetic is on plain ints, on the integral model with coefficients
    a_i u^i, where u is the lcm of the coefficient denominators. Every
    invariant is isobaric, of weight 2 (b2), 4 (b4, c4), 6 (b6, c6), 8 (b8)
    or 12 (delta), so an invariant of weight k of the curve is that of the
    integral model over u^k, and j = c4^3/delta is the same for both. The
    exact identities 1728*delta = c4^3 - c6^2 and 4*b8 = b2*b6 - b4^2 are
    checked on every call, on the integral model (TheoremViolationError if
    one fails); a vanishing discriminant raises SingularCurveError.
    """
    u = math.lcm(*(a.denominator for a in curve.coefficients))
    a1, a2, a3, a4, a6 = (
        a.numerator * u**weight // a.denominator
        for a, weight in zip(curve.coefficients, (1, 2, 3, 4, 6))
    )
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    if delta == 0:
        raise SingularCurveError(
            "singular curve: " + ",".join(map(str, curve.coefficients))
        )
    if 4 * b8 != b2 * b6 - b4**2 or 1728 * delta != c4**3 - c6**2:
        raise TheoremViolationError(f"b/c invariant identities fail for {curve}")
    return CurveInvariants(
        b2=Fraction(b2, u**2),
        b4=Fraction(b4, u**4),
        b6=Fraction(b6, u**6),
        b8=Fraction(b8, u**8),
        c4=Fraction(c4, u**4),
        c6=Fraction(c6, u**6),
        delta=Fraction(delta, u**12),
        j=Fraction(c4**3, delta),
    )


def family_curve(s: Rational) -> WeierstrassCurve:
    """The member y^2 = x^3 + s of the parameterized family; s = 0 is singular
    (SingularCurveError, from the curve's own discriminant check)."""
    return WeierstrassCurve(0, 0, 0, 0, s)


def _tame_valuations(curve: WeierstrassCurve, p: int) -> tuple[int, int | float]:
    """(v_p(delta), v_p(c4)) of this model (INFINITY when c4 = 0) at p >= 5;
    UnsupportedPrimeError at 2 and 3, InvalidInputError (from valuation) at a
    p that is not prime. p is tested for primality once, by the valuation of
    delta."""
    if p in (2, 3):
        raise UnsupportedPrimeError(
            "only p >= 5 supported; reduction at 2 and 3 is handled through "
            "the family's tabulated valuation ranges"
        )
    inv = curve.invariants
    return valuation(inv.delta, p), _prime_valuation(inv.c4, p)


def minimalize_at_p(
    curve: WeierstrassCurve, p: int
) -> tuple[WeierstrassCurve, int]:
    """Minimal model at p >= 5 of a short-form curve integral at p (else
    InvalidInputError), and the steps to it, each the substitution (x, y) ->
    (p^2 x, p^3 y) dividing (a4, a6) by (p^4, p^6). A model is minimal at
    p >= 5 iff v_p(delta) < 12 or v_p(c4) < 4 (Silverman VII.1), so there are
    min(v_p(c4) // 4, v_p(delta) // 12) steps on its _tame_valuations, fewer
    than 0 exactly when the model is not integral at p."""
    v_delta, v_c4 = _tame_valuations(curve, p)
    steps = v_delta // 12
    if v_c4 != INFINITY:  # math.inf // 4 is nan, not +infinity
        steps = min(v_c4 // 4, steps)
    if not curve.is_short_form():
        raise InvalidInputError(
            "minimalization implemented for short-form curves only"
        )
    if steps < 0:
        raise InvalidInputError(
            f"curve is not integral at {p}; clear denominators first"
        )
    if steps == 0:
        return curve, 0
    scale = p**steps
    return WeierstrassCurve(0, 0, 0, curve.a4 / scale**4, curve.a6 / scale**6), steps


def reduction_class_at_p(curve: WeierstrassCurve, p: int) -> str:
    """Reduction type at p >= 5 of any model, minimal or integral at p or not,
    _reduction_class of its _tame_valuations: 'good', 'multiplicative',
    'additive-potentially-good' or 'additive-potentially-multiplicative'."""
    return _reduction_class(*_tame_valuations(curve, p))


def _reduction_class(v_delta: int, v_c4: int | float) -> str:
    """reduction_class_at_p from v_p(delta) and v_p(c4) (INFINITY for c4 = 0)
    of any model. v_p(j) = 3 v_p(c4) - v_p(delta) < 0 is the Tate curve
    (Silverman, Advanced Topics V.5.3); c4^3 - c6^2 = 1728 delta then makes
    v_p(c4) even, and the minimal model's, v_p(c4) mod 4, is 0 (multiplicative)
    or 2 (additive). Otherwise the minimal model's v_p(delta) is v_p(delta) mod
    12: good reduction when that is 0, else additive-potentially-good."""
    if 3 * v_c4 < v_delta:
        return "additive-potentially-multiplicative" if v_c4 % 4 else "multiplicative"
    return "good" if v_delta % 12 == 0 else "additive-potentially-good"
