"""Finite monodromy groups of y^2 = x^3 + s and the semi-stability degree.

The local monodromy group at a prime p is the Galois group of the smallest
extension of the maximal unramified local field over which the curve becomes
semi-stable; its order always divides 24. The semi-stability degree d(E) is
the lcm of these orders over all bad primes of the minimal model.

At p = 2 and p = 3 the groups come from the family's reduction tables,
stated once in FAMILY_TABLES, one row per stratum v_p(s): at 3 one closed
rule over v mod 6, at 2 rows 0..2 or a refusal, no guess. The result of each
ball of a row is built once, at import, into _FAMILY_RESULTS; one lookup,
_family_ball, returns the one of s, with its group and its p-adic ball, for
the rules here and for the cover module's balls and locate (a v outside the
rows gets row v mod 6's result with s's own ball, by _replace). At p >= 5 one
tame rule (Serre-Tate), _tame_rule, serves every model; for the family it is
read once, at import, into six rows _FAMILY_TAME, one per v_p(s) mod 6,
since v_p(delta) = 2 v_p(s) and c4 = 0. family_report takes v_p(s) from the
one factorization in bad_primes, and curve_report takes v_p(delta) from the
one factorization of delta for _phi_model, the rule of any other model: one
call per prime, and no valuation call of their own.

This module is the one place that derives a curve's per-prime results. A rule
that refuses a prime returns a result with group None and the refusal's text
as its provenance; family_report and curve_report return every bad prime in
prime order, refused ones too, with the lcm, checked to divide M(2) = 24
(minkowski_bound(1)). Only the one-answer functions raise that text as
NotTabulatedError (_answer).

The results and reports are immutable tuple records (LocalMonodromyResult,
DegreeReport), cheap to build once per prime of every sweep record. An int s
stays an int on the family route (_nonzero_parameter); any other s becomes a
Fraction. The rules read only its .numerator and .denominator.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple

from .arith import INFINITY, Rational, _prime_valuation, factorize, residue, valuation
from .curves import WeierstrassCurve, _reduction_class, _tame_valuations
from .errors import (
    InvalidInputError,
    NotTabulatedError,
    SingularCurveError,
    TheoremViolationError,
)
from .minkowski import minkowski_bound

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

#: The reduction tables of y^2 = x^3 + s at 2 and 3. Row v of FAMILY_TABLES[p]
#: covers the stratum v_p(s) = v and is (d, {u: group}): the group of s is
#: read off u = s / p^v mod p^d, so the stratum splits into the p-adic balls
#: u * p^v + p^(v + d) Z_p, one per entry. _family_ball reads any other v in
#: row v mod 6; at 2 rows 3..5 are missing. At 3 one rule gives rows 0..5: C4
#: when v = 0 mod 3 and u = +-1 mod 9, else Dic3. Proof: v3(delta) = 3 + 2v is
#: odd, so 4 divides |Phi_3|, which leaves C4 and Dic3 (Kraus 1990); Phi_3 /
#: +-1 acts faithfully on E[2] (Serre-Tate 1968), whose field Q3^ur(zeta3,
#: cbrt(s)) has degree 2, not 6, exactly when cbrt(s) is unramified: v = 0
#: mod 3 and u = +-1 mod 9. Row 5 is row 2 moved by the 3-isogeny s -> -27s.
FAMILY_TABLES: dict[int, tuple[tuple[int, dict[int, MonodromyGroup]], ...]] = {
    2: (
        (2, {1: MonodromyGroup.C3, 3: MonodromyGroup.C6}),
        (1, {1: MonodromyGroup.C2}),
        (2, {1: MonodromyGroup.SL2F3, 3: MonodromyGroup.C3}),
    ),
    3: tuple(
        (2, {u: MonodromyGroup.C4 if u in (1, 8) else MonodromyGroup.DIC3
             for u in (1, 2, 4, 5, 7, 8)})
        if v % 3 == 0
        else (1, dict.fromkeys((1, 2), MonodromyGroup.DIC3))
        for v in range(6)
    ),
}


class _LocalFields(NamedTuple):
    p: int
    group: MonodromyGroup | None
    # family-table-2 | family-table-3 | tame-rule | good-reduction, or the
    # refusal's text when group is None
    provenance: str
    # (center, k): the ball center + p^k Z_p of s a family table read, else None
    ball: tuple[int, int] | None = None


class LocalMonodromyResult(_LocalFields):
    """The monodromy group at p, or None when the tables refuse p.

    An immutable tuple record (p, group, provenance, ball): its repr, == and
    hash are those of its fields. A result with a group must carry a
    provenance that holds at p, else TheoremViolationError.
    """

    __slots__ = ()

    def __new__(
        cls,
        p: int,
        group: MonodromyGroup | None,
        provenance: str,
        ball: tuple[int, int] | None = None,
    ) -> LocalMonodromyResult:
        if group is not None and not (
            provenance == "tame-rule" and p >= 5
            or provenance == "good-reduction"
            or p in (2, 3) and provenance == f"family-table-{p}"
        ):
            raise TheoremViolationError(
                f"provenance {provenance} inconsistent with p={p}"
            )
        return tuple.__new__(cls, (p, group, provenance, ball))

    @classmethod
    def _make(cls, iterable) -> LocalMonodromyResult:
        """The result of the fields in iterable, checked as in __new__; the
        tuple's _replace builds its copy here."""
        return cls(*iterable)


#: The result of every ball of FAMILY_TABLES, built once from the rows: row v
#: of FAMILY_TABLES[p] becomes (p^(v + d), {center: result}), the result of
#: the ball center + p^(v + d) Z_p, center = u * p^v, for each entry u.
_FAMILY_RESULTS: dict[
    int, tuple[tuple[int, dict[int, LocalMonodromyResult]], ...]
] = {
    p: tuple(
        (
            p ** (v + d),
            {
                u * p**v: LocalMonodromyResult(
                    p, group, f"family-table-{p}", (u * p**v, v + d)
                )
                for u, group in groups.items()
            },
        )
        for v, (d, groups) in enumerate(rows)
    )
    for p, rows in FAMILY_TABLES.items()
}


class DegreeReport(NamedTuple):
    """Local data of one curve at its bad primes, in prime order, and d(E):
    an immutable tuple record (s, locals, degree).

    s is the family parameter, the int given or else a Fraction of it, None
    for a curve outside the family. degree is None when some prime is refused.
    """

    s: int | Fraction | None
    locals: tuple[LocalMonodromyResult, ...]
    degree: int | None

    def local_at(self, p: int) -> LocalMonodromyResult | None:
        for entry in self.locals:
            if entry.p == p:
                return entry
        return None


def _nonzero_parameter(s: Rational) -> Rational:
    """s itself when it is an int, else s as a Fraction; SingularCurveError
    when s = 0, a singular cubic ("0", 0.0 and Fraction(0) are refused as 0
    is). Either has .numerator and .denominator, which is all the rules read."""
    if type(s) is not int:
        s = Fraction(s)
    if not s:
        raise SingularCurveError("s = 0")
    return s


def _family_ball(p: int, s: Rational, v: int) -> LocalMonodromyResult:
    """The family's result at p in {2, 3} for s != 0, given v = v_p(s): the
    _FAMILY_RESULTS entry of the ball center + p^k Z_p of s, with that ball
    as its .ball = (center, k) and its group. Row v = (d, groups) of
    FAMILY_TABLES has k = v + d and center s mod p^k = p^v * (u mod p^d), so
    u is never built. Another v takes the result of s * p^(w - v) in row
    w = v mod 6, the sextic twist, with s's own ball (its ball scaled by
    p^(v - w), None if v < 0); a w without a row (3..5 at 2) is refused.
    """
    rows = _FAMILY_RESULTS[p]
    if 0 <= v < len(rows):
        modulus, results = rows[v]
        if (result := results.get(residue(s, modulus))) is None:
            raise TheoremViolationError(f"{s} escaped every ball of the cover at {p}")
        return result
    if (w := v % 6) >= len(rows):
        return LocalMonodromyResult(
            p, None, f"v{p}(s) = {v} outside tabulated range 0..{len(rows) - 1}"
        )
    result = _family_ball(p, s * Fraction(p) ** (w - v), w)
    center, k = result.ball
    return result._replace(ball=(center * p ** (v - w), k + v - w) if v >= 0 else None)


def phi_family_at_3(s: Rational) -> MonodromyGroup:
    """Monodromy group at 3 of y^2 = x^3 + s, for every s = 3^v u != 0: C4
    when v = 0 mod 3 and u = +-1 mod 9, else Dic3. Congruences of a rational
    unit are taken on its image in the 3-adic units mod 9.
    """
    s = _nonzero_parameter(s)
    return _family_ball(3, s, valuation(s, 3)).group


def phi_family_at_2(s: Rational) -> MonodromyGroup:
    """Monodromy group at 2 of y^2 = x^3 + s, for v2(s) mod 6 in {0, 1, 2}.

    v2(s) = 0: C3 when s = 1 mod 4, else C6. v2(s) = 1: C2. v2(s) = 2: C3
    when s/4 = -1 mod 4, else SL2(F3). Another v = v2(s) is read for the same
    curve s * 2^(-6 floor(v/6)); v mod 6 in {3, 4, 5}: NotTabulatedError.
    """
    s = _nonzero_parameter(s)
    return _answer(_family_ball(2, s, valuation(s, 2))).group


def _tame_rule(v_delta: int, v_c4: int | float) -> tuple[MonodromyGroup, str]:
    """The tame rule (Serre-Tate) at p >= 5: (group, provenance) from the
    _reduction_class of v_p(delta) and v_p(c4) (INFINITY when c4 = 0) of any
    model. Good reduction: C1, good-reduction. Else tame-rule: multiplicative,
    C1; additive potentially multiplicative, C2; additive potentially good,
    cyclic of order 12 / gcd(v_p(delta), 12), always in {2, 3, 4, 6}; every
    model's v_p(delta) is the minimal model's plus a multiple of 12.
    """
    klass = _reduction_class(v_delta, v_c4)
    if klass in ("good", "multiplicative"):
        return MonodromyGroup.C1, "good-reduction" if klass == "good" else "tame-rule"
    if klass == "additive-potentially-multiplicative":
        return MonodromyGroup.C2, "tame-rule"
    e = 12 // math.gcd(v_delta, 12)
    if e not in (2, 3, 4, 6):
        raise TheoremViolationError(
            f"tame semistability defect {e} outside {{2,3,4,6}} "
            f"(v_p(delta) = {v_delta})"
        )
    return _CYCLIC_BY_ORDER[e], "tame-rule"


#: The family's tame rule at p >= 5, one (group, provenance) row per v_p(s)
#: mod 6. The model y^2 = x^3 + s has v_p(delta) = 2 v_p(s) and c4 = 0, so
#: _tame_rule depends on 2 v_p(s) mod 12 alone: row w is _tame_rule at
#: v_p(delta) = 2w, which also runs its check on every case the family
#: reaches. Row 0 is good reduction, C1; row w != 0 is the cyclic group of
#: order 6 / gcd(w, 6), by the tame rule.
_FAMILY_TAME: tuple[tuple[MonodromyGroup, str], ...] = tuple(
    _tame_rule(2 * w, INFINITY) for w in range(6)
)


def phi_tame(curve: WeierstrassCurve, p: int) -> MonodromyGroup:
    """Monodromy group at a tame prime p >= 5 of any model of the curve,
    minimal or integral at p or not: _tame_rule on its _tame_valuations."""
    return _tame_rule(*_tame_valuations(curve, p))[0]


def bad_primes(s: Rational) -> dict[int, int]:
    """Primes of bad reduction of the minimal model of y^2 = x^3 + s, in
    prime order, each mapped to v_p(s).

    Candidates divide 432 * num(s) * den(s), and 2 and 3 always remain bad
    (432 = 2^4 * 3^3); p >= 5 is bad unless its _FAMILY_TAME row, v_p(s) mod
    6, has the trivial group (good reduction). The valuations are read off
    one factorization of num(s) and, when den(s) > 1, one of den(s); one
    loop then enters 2 and 3 and each bad p > 3 in prime order.
    """
    # v_p(s) for every p dividing s, in prime order (factorize's keys are).
    valuations = factorize(s.numerator)
    if s.denominator != 1:
        # Coprime to the numerator: its primes are new keys, merged in order.
        valuations = dict(sorted([
            *valuations.items(),
            *((p, -e) for p, e in factorize(s.denominator).items()),
        ]))
    bad = {2: valuations.get(2, 0), 3: valuations.get(3, 0)}
    for p, v in valuations.items():
        if p > 3 and _FAMILY_TAME[v % 6][0].order > 1:
            bad[p] = v
    return bad


def _phi_family(s: Rational, p: int, v: int) -> LocalMonodromyResult:
    """Local monodromy of y^2 = x^3 + s at p, given v = v_p(s) (in family_report
    the v that bad_primes read): at 2 and 3 the result _family_ball returns,
    built once per ball, else the group and provenance of the _FAMILY_TAME
    row v mod 6, for v < 0 too."""
    if p in FAMILY_TABLES:
        return _family_ball(p, s, v)
    group, provenance = _FAMILY_TAME[v % 6]
    return LocalMonodromyResult(p, group, provenance)


def _phi_model(curve: WeierstrassCurve, p: int, v_delta: int) -> LocalMonodromyResult:
    """Local monodromy at a prime p of any model, given v_delta = v_p(delta):
    at p >= 5 the tame rule on v_delta and v_p(c4); at 2 and 3, for a model
    not of family form and integral at p, good reduction when v_delta = 0,
    else a refusal (group None)."""
    if p not in FAMILY_TABLES:
        v_c4 = _prime_valuation(curve.invariants.c4, p)
        return LocalMonodromyResult(p, *_tame_rule(v_delta, v_c4))
    if v_delta == 0:
        return LocalMonodromyResult(p, MonodromyGroup.C1, "good-reduction")
    return LocalMonodromyResult(
        p, None, f"monodromy at {p} is tabulated only for family curves y^2 = x^3 + s"
    )


def _answer(result: LocalMonodromyResult) -> LocalMonodromyResult:
    """result, for the functions that return one answer; a refusal (group
    None) raises NotTabulatedError with its provenance as the text."""
    if result.group is None:
        raise NotTabulatedError(result.provenance)
    return result


def phi_general_curve(curve: WeierstrassCurve, p: int) -> LocalMonodromyResult:
    """Local monodromy of an arbitrary Weierstrass curve at p.

    A family-form curve takes _phi_family on v_p(s) at every p, as
    family_report does; any other model takes _phi_model on v_p(delta) and
    must be integral at p = 2 or 3 (else InvalidInputError). A p that is not
    prime is InvalidInputError, a refusal NotTabulatedError.
    """
    if curve.is_family_form():
        return _answer(_phi_family(curve.a6, p, valuation(curve.a6, p)))
    if p in FAMILY_TABLES and any(a.denominator % p == 0 for a in curve.coefficients):
        raise InvalidInputError(
            f"curve is not integral at {p}; clear denominators first"
        )
    return _answer(_phi_model(curve, p, valuation(curve.invariants.delta, p)))


#: M(2) = 24, the lcm of the finite subgroups of GL_2(Q): d(E) divides it.
_ELLIPTIC_BOUND = minkowski_bound(1)


def _degree_report(
    s: Rational | None, locals_: list[LocalMonodromyResult]
) -> DegreeReport:
    """Attach d(E), the lcm of the local orders (1 for no entry), in one pass:
    degree None at the first refused prime, else the lcm, which must divide
    the g = 1 bound _ELLIPTIC_BOUND (TheoremViolationError if not)."""
    degree = 1
    for entry in locals_:
        if entry.group is None:
            return DegreeReport(s, tuple(locals_), None)
        degree = math.lcm(degree, entry.group.order)
    if _ELLIPTIC_BOUND % degree != 0:
        raise TheoremViolationError(
            f"degree {degree} does not divide the g=1 bound {_ELLIPTIC_BOUND} (s = {s})"
        )
    return DegreeReport(s, tuple(locals_), degree)


def family_report(s: Rational) -> DegreeReport:
    """Local monodromy of y^2 = x^3 + s at every bad prime, and d(E_s).

    One _phi_family call per prime that bad_primes returns, on the v_p(s) it
    read. A refused prime is an entry with group None; the degree is then None.
    """
    s = _nonzero_parameter(s)
    locals_ = []
    for p, v in bad_primes(s).items():
        locals_.append(_phi_family(s, p, v))
    return _degree_report(s, locals_)


def curve_report(curve: WeierstrassCurve) -> DegreeReport:
    """Local monodromy of a curve at its primes of nontrivial monodromy.

    Family-form curves take family_report. Any other curve must have
    integral coefficients (else InvalidInputError); the primes dividing its
    discriminant are tried and those with trivial monodromy (good or
    multiplicative reduction) are left out. delta is then an integer, and
    the exponents of its factorization are the v_p(delta) that _phi_model
    takes: no prime is tested or counted again. A refused prime has group None.
    """
    if curve.is_family_form():
        return family_report(curve.a6)
    if any(a.denominator != 1 for a in curve.coefficients):
        raise InvalidInputError("general mode requires an integral model")
    results = []
    for p, v_delta in factorize(curve.invariants.delta.numerator).items():
        entry = _phi_model(curve, p, v_delta)
        if entry.group is not MonodromyGroup.C1:
            results.append(entry)
    return _degree_report(None, results)


def semistability_degree(s: Rational) -> DegreeReport:
    """d(E_s) = lcm over bad primes of the local monodromy orders.

    family_report(s), which requires v2(s) mod 6 in {0,1,2}: its first refused
    entry raises NotTabulatedError with the entry's provenance as the text.
    Every v3(s) is answered. The result always divides 24, and this is checked.
    """
    report = family_report(s)
    for entry in report.locals:
        _answer(entry)
    return report
