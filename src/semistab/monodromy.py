"""Finite monodromy groups of y^2 = x^3 + s and the semi-stability degree.

The local monodromy group at a prime p is the Galois group of the smallest
extension of the maximal unramified local field over which the curve becomes
semi-stable; its order always divides 24. The semi-stability degree d(E) is
the lcm of these orders over all bad primes of the minimal model.

At p = 2 and p = 3 the groups come from the family's reduction tables,
stated once in FAMILY_TABLES, one row per valuation stratum of s; a stratum
without a row is refused (NotTabulatedError) rather than extrapolated. The
p-adic ball covers in the cover module read the same rows. At p >= 5
reduction is tame (Serre-Tate) and the group follows from the valuation of
the minimal discriminant.

This module is the one place that derives a curve's per-prime results:
family_report and curve_report return every bad prime in prime order, a
refused prime carried as data (group None, the refusal's text as its
provenance), together with the lcm, which is checked to divide 24.
semistability_degree is family_report that raises on the first refusal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Rational, factorize, residue, valuation
from .curves import (
    WeierstrassCurve,
    _reduction_class,
    _require_tame_prime,
    minimalize_at_p,
    valuation_profile,
)
from .errors import (
    InvalidInputError,
    NotTabulatedError,
    SingularCurveError,
    TheoremViolationError,
)

class MonodromyGroup(enum.Enum):
    """The finite groups arising as local monodromy of the family."""

    C1 = ("C1", 1)
    C2 = ("C2", 2)
    C3 = ("C3", 3)
    C4 = ("C4", 4)
    C6 = ("C6", 6)
    DIC3 = ("Dic3", 12)  # Z/3 : Z/4, dicyclic of order 12
    SL2F3 = ("SL2(F3)", 24)

    def __init__(self, label: str, order: int):
        self.label = label
        self.order = order


_CYCLIC_BY_ORDER = {
    1: MonodromyGroup.C1,
    2: MonodromyGroup.C2,
    3: MonodromyGroup.C3,
    4: MonodromyGroup.C4,
    6: MonodromyGroup.C6,
}

_C4_OR_DIC3_MOD_9 = {
    1: MonodromyGroup.C4,
    8: MonodromyGroup.C4,
    2: MonodromyGroup.DIC3,
    4: MonodromyGroup.DIC3,
    5: MonodromyGroup.DIC3,
    7: MonodromyGroup.DIC3,
}
_DIC3_MOD_3 = {1: MonodromyGroup.DIC3, 2: MonodromyGroup.DIC3}

#: The reduction tables of y^2 = x^3 + s at 2 and 3. Row v of FAMILY_TABLES[p]
#: covers the stratum v_p(s) = v and is (d, {u: group}): the group of s is
#: read off u = s / p^v mod p^d, so the stratum splits into the p-adic balls
#: u * p^v + p^(v + d) Z_p, one per entry. A stratum without a row is refused.
FAMILY_TABLES: dict[int, tuple[tuple[int, dict[int, MonodromyGroup]], ...]] = {
    2: (
        (2, {1: MonodromyGroup.C3, 3: MonodromyGroup.C6}),
        (1, {1: MonodromyGroup.C2}),
        (2, {1: MonodromyGroup.SL2F3, 3: MonodromyGroup.C3}),
    ),
    3: (
        (2, _C4_OR_DIC3_MOD_9),
        (1, _DIC3_MOD_3),
        (1, _DIC3_MOD_3),
        (2, _C4_OR_DIC3_MOD_9),
        (1, _DIC3_MOD_3),
    ),
}


@dataclass(frozen=True)
class LocalMonodromyResult:
    """The monodromy group at p, or None when the tables refuse p."""

    p: int
    group: MonodromyGroup | None
    # family-table-2 | family-table-3 | tame-rule | good-reduction, or the
    # NotTabulatedError text when group is None
    provenance: str

    def __post_init__(self) -> None:
        if self.group is None:
            return
        ok = {
            "family-table-2": self.p == 2,
            "family-table-3": self.p == 3,
            "tame-rule": self.p >= 5,
            "good-reduction": True,
        }
        if not ok.get(self.provenance, False):
            raise TheoremViolationError(
                f"provenance {self.provenance} inconsistent with p={self.p}"
            )


@dataclass(frozen=True)
class DegreeReport:
    """Local data of one curve at its bad primes, in prime order, and d(E).

    s is the family parameter, None for a curve outside the family. degree
    is None when some prime is refused.
    """

    s: Fraction | None
    locals: tuple[LocalMonodromyResult, ...]
    degree: int | None

    def local_at(self, p: int) -> LocalMonodromyResult | None:
        for entry in self.locals:
            if entry.p == p:
                return entry
        return None


def _family_group(p: int, s: Rational) -> MonodromyGroup:
    """The group of y^2 = x^3 + s at p in {2, 3}, read off FAMILY_TABLES.

    With v = v_p(s) and row v = (d, groups), s = p^v * u gives
    s mod p^(v + d) = p^v * (u mod p^d), so the unit part is never built.
    """
    s = Fraction(s)
    if s == 0:
        raise SingularCurveError("s = 0")
    v = valuation(s, p)
    rows = FAMILY_TABLES[p]
    if not 0 <= v < len(rows):
        raise NotTabulatedError(
            f"v{p}(s) = {v} outside tabulated range 0..{len(rows) - 1}"
        )
    d, groups = rows[v]
    return groups[residue(s, p ** (v + d)) // p**v]


def phi_family_at_3(s: Rational) -> MonodromyGroup:
    """Monodromy group at 3 of y^2 = x^3 + s, for v3(s) in {0..4}.

    v3(s) = 0: C4 when s = +-1 mod 9, else Dic3. v3(s) in {1, 2, 4}: Dic3.
    v3(s) = 3, s = 27u: C4 when u = +-1 mod 9, else Dic3. Congruences of a
    rational unit are taken on its image in the 3-adic units mod 9.
    """
    return _family_group(3, s)


def phi_family_at_2(s: Rational) -> MonodromyGroup:
    """Monodromy group at 2 of y^2 = x^3 + s, for v2(s) in {0, 1, 2}.

    v2(s) = 0: C3 when s = 1 mod 4, else C6. v2(s) = 1: C2. v2(s) = 2:
    C3 when s/4 = -1 mod 4, else SL2(F3).
    """
    return _family_group(2, s)


def phi_tame(curve: WeierstrassCurve, p: int) -> MonodromyGroup:
    """Monodromy group at a tame prime p >= 5, for a curve minimal at p.

    Good or multiplicative reduction: trivial. Additive potentially
    multiplicative: C2. Additive potentially good: cyclic of order
    12 / gcd(v_p(delta_min), 12), always in {2, 3, 4, 6}.
    """
    _require_tame_prime(p)
    profile = valuation_profile(curve, p)
    klass = _reduction_class(profile)
    if klass in ("good", "multiplicative"):
        return MonodromyGroup.C1
    if klass == "additive-potentially-multiplicative":
        return MonodromyGroup.C2
    v_delta = profile.v_delta
    e = 12 // math.gcd(int(v_delta), 12)
    if e not in (2, 3, 4, 6):
        raise TheoremViolationError(
            f"tame semistability defect {e} outside {{2,3,4,6}} "
            f"(v_p(delta) = {v_delta}, p = {p}); curve not minimal?"
        )
    return _CYCLIC_BY_ORDER[e]


def bad_primes(s: Fraction) -> dict[int, int]:
    """Primes of bad reduction of the minimal model of y^2 = x^3 + s, in
    prime order, each mapped to v_p(s).

    Candidates divide 432 * num(s) * den(s); a candidate p >= 5 is good
    exactly when v_p(s) = 0 mod 6 (the curve minimalizes to a unit
    parameter there). 2 and 3 always remain bad (432 = 2^4 * 3^3). The
    valuations are read off one factorization of num(s) and one of den(s).
    """
    # v_p(s) for every p dividing s; numerator and denominator are coprime.
    valuations = factorize(s.numerator)
    valuations.update((p, -e) for p, e in factorize(s.denominator).items())
    bad = {2, 3} | {p for p, v in valuations.items() if v % 6}
    return {p: valuations.get(p, 0) for p in sorted(bad)}


def _tame_result(p: int, group: MonodromyGroup) -> LocalMonodromyResult:
    provenance = "good-reduction" if group is MonodromyGroup.C1 else "tame-rule"
    return LocalMonodromyResult(p=p, group=group, provenance=provenance)


def _phi_family(s: Fraction, p: int, v: int) -> LocalMonodromyResult:
    """Local monodromy of y^2 = x^3 + s at p, given v = v_p(s): the tables at
    2 and 3, the closed-form tame rule at p >= 5: order 6 / gcd(v, 6), which
    is phi_tame on the model minimalized at p (s rescaled by a 6th power of
    p, negative valuations too), whose v_p(delta_min) is 2 * (v mod 6)."""
    if p == 2:
        return LocalMonodromyResult(2, phi_family_at_2(s), "family-table-2")
    if p == 3:
        return LocalMonodromyResult(3, phi_family_at_3(s), "family-table-3")
    return _tame_result(p, _CYCLIC_BY_ORDER[6 // math.gcd(v, 6)])


def phi_general_curve(curve: WeierstrassCurve, p: int) -> LocalMonodromyResult:
    """Local monodromy of an arbitrary integral Weierstrass curve at p.

    Family-form curves take the family's route. Otherwise, for p >= 5 the
    curve is minimalized and the tame rule applies; at 2 and 3 it is only
    resolved when the given model is integral at p (else InvalidInputError)
    and has good reduction there.
    """
    if curve.is_family_form():
        return _phi_family(curve.a6, p, valuation(curve.a6, p))
    if p >= 5:
        return _tame_result(p, phi_tame(minimalize_at_p(curve, p)[0], p))
    if any(valuation(a, p) < 0 for a in curve.coefficients):
        raise InvalidInputError(
            f"curve is not integral at {p}; clear denominators first"
        )
    if valuation(curve.invariants.delta, p) == 0:
        return LocalMonodromyResult(
            p=p, group=MonodromyGroup.C1, provenance="good-reduction"
        )
    raise NotTabulatedError(
        f"monodromy at {p} is tabulated only for family curves y^2 = x^3 + s"
    )


def _or_refusal(p: int, derive, *args) -> LocalMonodromyResult:
    """derive(*args), the local result at p, or the refusal of p carried as
    data."""
    try:
        return derive(*args)
    except NotTabulatedError as exc:
        return LocalMonodromyResult(p=p, group=None, provenance=str(exc))


def _degree_report(
    s: Fraction | None, locals_: list[LocalMonodromyResult]
) -> DegreeReport:
    """Attach d(E), the lcm of the local orders, unless a prime is refused."""
    if any(entry.group is None for entry in locals_):
        return DegreeReport(s=s, locals=tuple(locals_), degree=None)
    degree = math.lcm(*(entry.group.order for entry in locals_))
    if 24 % degree != 0:
        raise TheoremViolationError(
            f"degree {degree} does not divide the g=1 bound 24 (s = {s})"
        )
    return DegreeReport(s=s, locals=tuple(locals_), degree=degree)


def family_report(s: Rational) -> DegreeReport:
    """Local monodromy of y^2 = x^3 + s at every bad prime, and d(E_s).

    Primes outside the tabulated ranges are refused as data; the degree is
    then None.
    """
    s = Fraction(s)
    if s == 0:
        raise SingularCurveError("s = 0")
    return _degree_report(
        s, [_or_refusal(p, _phi_family, s, p, v) for p, v in bad_primes(s).items()]
    )


def curve_report(curve: WeierstrassCurve) -> DegreeReport:
    """Local monodromy of a curve at its primes of nontrivial monodromy.

    Family-form curves take family_report. Any other curve must have
    integral coefficients (else InvalidInputError); the primes dividing its
    discriminant are tried and those with trivial monodromy (good or
    multiplicative reduction) are left out.
    """
    if curve.is_family_form():
        return family_report(curve.a6)
    if any(a.denominator != 1 for a in curve.coefficients):
        raise InvalidInputError("general mode requires an integral model")
    results = [
        _or_refusal(p, phi_general_curve, curve, p)
        for p in factorize(curve.invariants.delta.numerator)
    ]
    return _degree_report(
        None, [entry for entry in results if entry.group is not MonodromyGroup.C1]
    )


def semistability_degree(s: Rational) -> DegreeReport:
    """d(E_s) = lcm over bad primes of the local monodromy orders.

    Requires v2(s) in {0,1,2} and v3(s) in {0..4}: otherwise raises
    NotTabulatedError with the first refused prime's reason. The result
    always divides 24, and this is checked.
    """
    report = family_report(s)
    for entry in report.locals:
        if entry.group is None:
            raise NotTabulatedError(entry.provenance)
    return report
