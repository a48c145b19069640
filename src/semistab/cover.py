"""Congruence-class covers of the family parameter space at p = 2 and 3.

The family's monodromy group at p is locally constant: the parameter line
splits into disjoint p-adic balls (congruence classes center + p^k Z_p) on
each of which the group is constant. This module enumerates those balls, one
per entry of a row of monodromy.FAMILY_TABLES (strata 0..2 at 2; 0..5, one
period of the rule, at 3), and checks the covering properties.

A ball is stored as (center, modulus_exponent k) with v_p(center) < k, so
every element of center + p^k Z_p automatically shares the center's
valuation; the stratum is readable off the center. All balls of a stratum
share one modulus exponent. The cli writes the label of a ball in `sweep`.

`locate` reads the ball of s off the family's result at p that
monodromy._family_ball returns (the lookup that builds the balls too, one per
row entry) and takes the ball keyed by (v, center) from an index kept on the
CoverReport. Building that index is the exact-cover check, stated on the
balls: each stratum v in range has one modulus exponent k, no center twice,
and (p - 1) * p^(k - v - 1) balls, the number of units mod p^(k - v). A
ball's center is reduced mod p^k and has valuation v < k, so distinct centers
with one modulus are disjoint balls, and that many of them are every class
u * p^v mod p^k: the stratum exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import Rational, is_prime, residue, valuation
from .errors import InvalidInputError, NotTabulatedError, TheoremViolationError
from .monodromy import FAMILY_TABLES, MonodromyGroup, _family_ball, _nonzero_parameter


@dataclass(frozen=True)
class PadicBall:
    """The congruence class center + p^k Z_p with constant monodromy group."""

    p: int
    center: int
    modulus_exponent: int
    group: MonodromyGroup

    def __post_init__(self) -> None:
        if not 0 <= self.center < self.p**self.modulus_exponent:
            raise TheoremViolationError("center not reduced mod p^k")
        if valuation(self.center, self.p) >= self.modulus_exponent:
            raise TheoremViolationError("center does not determine the stratum")

    @property
    def stratum(self) -> int:
        """The common valuation v_p of every element of the ball."""
        return int(valuation(self.center, self.p))

    def contains(self, x: Rational) -> bool:
        x = Fraction(x)
        if x == 0 or valuation(x, self.p) != self.stratum:
            return False
        modulus = self.p**self.modulus_exponent
        return residue(x, modulus) == self.center


@dataclass(frozen=True)
class CoverReport:
    p: int
    valuation_range: tuple[int, int]  # inclusive
    balls: tuple[PadicBall, ...]

    def classes(self) -> list[tuple[MonodromyGroup, int]]:
        """Groups occurring in the cover with their ball counts."""
        counts: dict[MonodromyGroup, int] = {}
        for ball in self.balls:
            counts[ball.group] = counts.get(ball.group, 0) + 1
        return sorted(counts.items(), key=lambda kv: kv[0].order)

    @cached_property
    def _index(self) -> dict[tuple[int, int], PadicBall]:
        """The ball per (stratum, center).

        Raises TheoremViolationError unless the balls cover each stratum in
        range exactly: one modulus exponent k, no center twice, and
        (p - 1) * p^(k - v - 1) balls, one per unit class mod p^(k - v).
        """
        p = self.p
        exponents: dict[int, int] = {}
        counts: dict[int, int] = {}
        by_center: dict[tuple[int, int], PadicBall] = {}
        for ball in self.balls:
            v = ball.stratum
            if exponents.setdefault(v, ball.modulus_exponent) != ball.modulus_exponent:
                raise TheoremViolationError(
                    f"stratum {v} at {p} has balls of different moduli"
                )
            if (v, ball.center) in by_center:
                raise TheoremViolationError(
                    f"center {ball.center} at {p} has two balls"
                )
            by_center[(v, ball.center)] = ball
            counts[v] = counts.get(v, 0) + 1
        lo, hi = self.valuation_range
        for v in range(lo, hi + 1):
            k = exponents.get(v, v + 1)
            units = (p - 1) * p ** (k - v - 1)
            if counts.get(v, 0) != units:
                raise TheoremViolationError(
                    f"stratum {v} at {p} has {counts.get(v, 0)} balls "
                    f"mod {p}^{k}, not {units}"
                )
        return by_center


def enumerate_cover(p: int, valuation_range: tuple[int, int]) -> CoverReport:
    """Disjoint-ball decomposition of the strata v_p(s) in the given range.

    Only the strata with a row in FAMILY_TABLES[p] are available: 0..5 at
    p = 3, 0..2 at p = 2; a p that is not prime and an empty range (min >
    max) are invalid input, refused before any table lookup.
    The report's index is built before it is returned, which checks that
    the balls cover each stratum exactly (CoverReport._index).
    """
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    lo, hi = valuation_range
    if lo > hi:
        raise InvalidInputError(f"empty valuation range {lo}..{hi}")
    if p not in FAMILY_TABLES:
        raise NotTabulatedError(f"no reduction tables at p = {p}")
    top = len(FAMILY_TABLES[p]) - 1
    if lo < 0 or hi > top:
        raise NotTabulatedError(
            f"valuation range {lo}..{hi} outside tabulated 0..{top}"
        )
    results = (
        _family_ball(p, u * p**v, v)
        for v in range(lo, hi + 1)
        for u in sorted(FAMILY_TABLES[p][v][1])
    )
    balls = tuple(PadicBall(p, *r.ball, r.group) for r in results)
    report = CoverReport(p=p, valuation_range=(lo, hi), balls=balls)
    report._index  # builds the index, which checks the cover
    return report


def locate(s: Rational, report: CoverReport) -> PadicBall:
    """The unique ball of the report containing s != 0 (SingularCurveError)."""
    p = report.p
    s = _nonzero_parameter(s)
    v = valuation(s, p)
    if p not in FAMILY_TABLES:
        raise NotTabulatedError(f"no reduction tables at p = {p}")
    lo, hi = report.valuation_range
    if not lo <= v <= hi:
        raise NotTabulatedError(
            f"v_{p}(s) = {v} outside report range {lo}..{hi}"
        )
    center, k = _family_ball(p, s, v).ball
    ball = report._index.get((v, center))
    if ball is None or ball.modulus_exponent != k:
        raise TheoremViolationError(
            f"{s} escaped every ball of the cover at {p}"
        )
    return ball
