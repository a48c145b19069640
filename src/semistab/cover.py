"""Congruence-class covers of the family parameter space at p = 2 and 3.

The family's monodromy group at p is locally constant: the parameter line
splits into disjoint p-adic balls (congruence classes center + p^k Z_p) on
each of which the group is constant. This module enumerates those balls for
the valuation strata that have a row in monodromy.FAMILY_TABLES, one ball
per entry of the row, and checks the covering properties.

A ball is stored as (center, modulus_exponent k) with v_p(center) < k, so
every element of center + p^k Z_p automatically shares the center's
valuation; the stratum is readable off the center. All balls of a stratum
share one modulus exponent.

`locate` is one indexed lookup, not a scan over the balls: it computes
v = v_p(s) once, takes stratum v's exponent k and looks up the ball keyed by
(v, s mod p^k) in an index kept on the CoverReport. The exact-cover check
walks the units u of each stratum v in range, r = u * p^v mod p^m (m the
check's exponent), and counts r's balls in a Counter keyed by
(p^k, center): one lookup per distinct ball modulus, with no valuation
computed per residue.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import INFINITY, Rational, is_prime, residue, valuation
from .errors import InvalidInputError, NotTabulatedError, TheoremViolationError
from .monodromy import FAMILY_TABLES, MonodromyGroup


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

    def label(self) -> str:
        return f"{self.center}+{self.p}^{self.modulus_exponent}"


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
    def _index(self) -> tuple[dict[int, int], dict[tuple[int, int], PadicBall]]:
        """Modulus exponent per stratum, and ball per (stratum, center)."""
        exponents: dict[int, int] = {}
        by_center: dict[tuple[int, int], PadicBall] = {}
        for ball in self.balls:
            v = ball.stratum
            if exponents.setdefault(v, ball.modulus_exponent) != ball.modulus_exponent:
                raise TheoremViolationError(
                    f"stratum {v} at {self.p} has balls of different moduli"
                )
            by_center[(v, ball.center)] = ball
        return exponents, by_center


def _stratum_balls(p: int, v: int) -> list[PadicBall]:
    """The balls u * p^v + p^(v + d) Z_p of the row FAMILY_TABLES[p][v] =
    (d, {u: group}), one per entry."""
    d, groups = FAMILY_TABLES[p][v]
    return [
        PadicBall(p=p, center=u * p**v, modulus_exponent=v + d, group=group)
        for u, group in groups.items()
    ]


def enumerate_cover(p: int, valuation_range: tuple[int, int]) -> CoverReport:
    """Disjoint-ball decomposition of the strata v_p(s) in the given range.

    Only the strata with a row in FAMILY_TABLES[p] are available: 0..4 at
    p = 3, 0..2 at p = 2; a p that is not prime and an empty range (min >
    max) are invalid input, refused before any table lookup.
    Disjointness and exact coverage of each stratum are asserted before the
    report is returned.
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
    balls: list[PadicBall] = []
    for v in range(lo, hi + 1):
        balls.extend(_stratum_balls(p, v))
    balls.sort(key=lambda b: (b.stratum, b.center))
    report = CoverReport(p=p, valuation_range=(lo, hi), balls=tuple(balls))
    _assert_disjoint_exact_cover(report)
    return report


def _assert_disjoint_exact_cover(report: CoverReport) -> None:
    """Every residue of the covered strata lies in exactly one ball."""
    p = report.p
    lo, hi = report.valuation_range
    max_exp = max(max(b.modulus_exponent for b in report.balls) + 2, 7)
    hits_by_key = Counter((p**b.modulus_exponent, b.center) for b in report.balls)
    moduli = sorted({modulus for modulus, _ in hits_by_key})
    # Residues r in 1..p^max_exp - 1 have v_p(r) < max_exp. Stratum v's
    # residues are u * p^v for the units u, the multiples of p^v that p^(v+1)
    # does not divide.
    for v in range(max(lo, 0), min(hi, max_exp - 1) + 1):
        for r in range(p**v, p**max_exp, p**v):
            if r % p ** (v + 1) == 0:
                continue
            hits = 0
            for m in moduli:
                hits += hits_by_key.get((m, r % m), 0)
            if hits != 1:
                raise TheoremViolationError(
                    f"residue {r} mod {p}^{max_exp} lies in {hits} balls"
                )


def locate(s: Rational, report: CoverReport) -> PadicBall:
    """The unique ball of the report containing s."""
    p = report.p
    v = valuation(s, p)
    lo, hi = report.valuation_range
    if v == INFINITY or not lo <= v <= hi:
        raise NotTabulatedError(
            f"v_{p}(s) = {v} outside report range {lo}..{hi}"
        )
    exponents, by_center = report._index
    ball = by_center.get((v, residue(s, p ** exponents.get(v, 0))))
    if ball is None:
        raise TheoremViolationError(
            f"{Fraction(s)} escaped every ball of the cover at {p}"
        )
    return ball
