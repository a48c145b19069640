"""Weierstrass equations over Q: invariants, the family y^2 = x^3 + s,
and local minimalization at primes p >= 5.

Sign convention note: we use the standard c6 = -b2^3 + 36 b2 b4 - 216 b6,
which gives c6 = -864 s for the family curve (0,0,0,0,s). Some tables print
the opposite sign for c6; no congruence condition used anywhere downstream
depends on it (they are all stated on s directly).

Minimalization at 2 and 3 for arbitrary curves is deliberately not
implemented; the family's reduction data at 2 and 3 enters through the
rows of monodromy.FAMILY_TABLES instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Rational, valuation
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


def _require_tame_prime(p: int) -> None:
    if p in (2, 3):
        raise UnsupportedPrimeError(
            "only p >= 5 supported; reduction at 2 and 3 is handled through "
            "the family's tabulated valuation ranges"
        )


def minimalize_at_p(
    curve: WeierstrassCurve, p: int
) -> tuple[WeierstrassCurve, int]:
    """Minimal model at p >= 5 for a short-form curve, with scaling exponent.

    Each step is the substitution (x, y) -> (p^2 x, p^3 y), dividing
    (a4, a6) by (p^4, p^6); it drops v_p(delta) by 12 and preserves j. A step
    needs v_p(c4) >= 4, v_p(c6) >= 6 and v_p(delta) >= 12. At p >= 5, 48 and
    864 are p-units, so c4 = -48 a4 and c6 = -864 a6 make that v_p(a4) >= 4
    and v_p(a6) >= 6, from which v_p(delta) >= 12 follows. A zero coefficient
    puts no bound on the steps.
    """
    _require_tame_prime(p)
    if not curve.is_short_form():
        raise InvalidInputError(
            "minimalization implemented for short-form curves only"
        )
    coefficients = ((curve.a4, 4), (curve.a6, 6))
    valuations = [(valuation(a, p), weight) for a, weight in coefficients if a]
    if any(v < 0 for v, _ in valuations):
        raise InvalidInputError(
            f"curve is not integral at {p}; clear denominators first"
        )
    steps = min(v // weight for v, weight in valuations)
    if steps == 0:
        return curve, 0
    scale = p**steps
    return WeierstrassCurve(0, 0, 0, curve.a4 / scale**4, curve.a6 / scale**6), steps


def reduction_class_at_p(curve: WeierstrassCurve, p: int) -> str:
    """Reduction type at p >= 5 of a curve already minimal at p.

    One of 'good', 'multiplicative', 'additive-potentially-good',
    'additive-potentially-multiplicative', read off v_p(delta) and v_p(c4)
    by _reduction_class; a model that is not minimal at p is refused.
    """
    _require_tame_prime(p)
    inv = curve.invariants
    return _reduction_class(valuation(inv.delta, p), valuation(inv.c4, p))


def _reduction_class(v_delta: int, v_c4: int | float) -> str:
    """reduction_class_at_p from v_p(delta) and v_p(c4) (+infinity for c4 = 0).
    Additive reduction is potentially multiplicative when v_p(j) = 3 v_p(c4) -
    v_p(delta) < 0. v_p(delta) >= 12 and v_p(c4) >= 4, so v_p(c6) >= 6 by
    1728 delta = c4^3 - c6^2, is a model not minimal at p: InvalidInputError."""
    if v_delta >= 12 and v_c4 >= 4:
        raise InvalidInputError(
            f"model not minimal at p: v_p(delta) = {v_delta}, v_p(c4) = {v_c4}"
        )
    if v_delta == 0:
        return "good"
    if v_c4 == 0:
        return "multiplicative"
    if 3 * v_c4 < v_delta:
        return "additive-potentially-multiplicative"
    return "additive-potentially-good"
