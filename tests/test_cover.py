import random
from fractions import Fraction

import pytest

from semistab.arith import valuation
from semistab.cover import (
    CoverReport,
    PadicBall,
    enumerate_cover,
    locate,
)
from semistab.errors import (
    InvalidInputError,
    NotTabulatedError,
    SingularCurveError,
    TheoremViolationError,
)
from semistab.monodromy import (
    MonodromyGroup,
    family_report,
    phi_family_at_2,
    phi_family_at_3,
)
from conftest import answer_or_refusal, as_each_type, integer_parameters

G = MonodromyGroup

FULL_RANGE = {2: (0, 2), 3: (0, 4)}


@pytest.fixture(scope="module")
def reports():
    return {p: enumerate_cover(p, FULL_RANGE[p]) for p in (2, 3)}


def random_ball_member(rng, ball: PadicBall) -> Fraction:
    """A random rational in the ball: center + p^k * (p-integral rational)."""
    p, k = ball.p, ball.modulus_exponent
    num = rng.randint(-(10**4), 10**4)
    den = rng.randint(1, 10**3)
    while den % p == 0:
        den = rng.randint(1, 10**3)
    return ball.center + Fraction(num * p**k, den)


class TestEnumerate:
    def test_the_four_c4_balls_at_3(self, reports):
        c4_balls = {
            (b.center, b.modulus_exponent)
            for b in reports[3].balls
            if b.group is G.C4
        }
        assert {(1, 2), (8, 2), (27, 5), (216, 5)} <= c4_balls

    def test_unit_stratum_at_2(self):
        report = enumerate_cover(2, (0, 0))
        assert [(b.center, b.modulus_exponent, b.group) for b in report.balls] == [
            (1, 2, G.C3),
            (3, 2, G.C6),
        ]

    def test_single_ball_stratum_at_2(self):
        report = enumerate_cover(2, (1, 1))
        assert [(b.center, b.modulus_exponent, b.group) for b in report.balls] == [
            (2, 2, G.C2)
        ]

    def test_ball_counts(self, reports):
        assert len(reports[2].balls) == 5
        assert len(reports[3].balls) == 18

    def test_class_counts_at_2(self, reports):
        assert dict(reports[2].classes()) == {G.C2: 1, G.C3: 2, G.C6: 1, G.SL2F3: 1}

    def test_deterministic_ordering(self, reports):
        keys = [(b.stratum, b.center) for b in reports[3].balls]
        assert keys == sorted(keys)

    def test_stratum_five_at_3(self):
        # v3 = 5 is v3 = 2 moved by the 3-isogeny s -> -27s: Dic3 on both
        # unit classes
        report = enumerate_cover(3, (5, 5))
        assert [(b.center, b.modulus_exponent, b.group) for b in report.balls] == [
            (243, 6, G.DIC3),
            (486, 6, G.DIC3),
        ]

    @pytest.mark.parametrize("p,rng_pair", [(5, (0, 1)), (2, (0, 3)), (3, (0, 6))])
    def test_untabulated_ranges(self, p, rng_pair):
        with pytest.raises(NotTabulatedError):
            enumerate_cover(p, rng_pair)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reversed_range_invalid(self, p):
        # An empty range is invalid input at every prime, tabulated or not.
        with pytest.raises(InvalidInputError, match=r"^empty valuation range 2\.\.1$"):
            enumerate_cover(p, (2, 1))

    @pytest.mark.parametrize("p", [4, 1, 0, -2, 9])
    def test_non_prime_rejected(self, p):
        with pytest.raises(InvalidInputError, match="not prime"):
            enumerate_cover(p, (0, 1))


class TestCoverProperties:
    @pytest.mark.parametrize("p", [2, 3])
    def test_disjoint_exact_cover_mod_p7(self, p, reports):
        report = reports[p]
        lo, hi = report.valuation_range
        modulus = p**7
        for r in range(1, modulus):
            v = valuation(r, p)
            if not lo <= v <= hi:
                continue
            hits = [
                b for b in report.balls if r % p**b.modulus_exponent == b.center
            ]
            assert len(hits) == 1, (p, r)

    @pytest.mark.parametrize("p", [2, 3])
    def test_group_constant_on_each_ball(self, p, reports, rng):
        phi = phi_family_at_2 if p == 2 else phi_family_at_3
        for ball in reports[p].balls:
            for _ in range(200):
                x = random_ball_member(rng, ball)
                assert ball.contains(x)
                assert phi(x) is ball.group


class TestExactCoverCheck:
    """The check enumerate_cover runs must reject every broken cover."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_dropped_ball(self, p, reports):
        report = reports[p]
        for i in range(len(report.balls)):
            broken = CoverReport(
                p, report.valuation_range, report.balls[:i] + report.balls[i + 1 :]
            )
            with pytest.raises(TheoremViolationError, match=r"balls mod \d\^\d, not "):
                broken._index

    @pytest.mark.parametrize("p", [2, 3])
    def test_duplicated_ball(self, p, reports):
        report = reports[p]
        for ball in report.balls:
            broken = CoverReport(p, report.valuation_range, report.balls + (ball,))
            with pytest.raises(TheoremViolationError, match="has two balls$"):
                broken._index

    def test_coarser_ball_overlapping_two_finer(self, reports):
        # 4 + 2^3 Z_2 holds both 4 + 2^4 Z_2 and 12 + 2^4 Z_2.
        report = reports[2]
        fine = [b for b in report.balls if b.stratum == 2]
        assert [(b.center, b.modulus_exponent) for b in fine] == [(4, 4), (12, 4)]
        coarse = PadicBall(p=2, center=4, modulus_exponent=3, group=G.C3)
        broken = CoverReport(2, report.valuation_range, report.balls + (coarse,))
        with pytest.raises(TheoremViolationError, match="different moduli"):
            broken._index

    @pytest.mark.parametrize("p", [2, 3])
    def test_agrees_with_residue_walk(self, p, reports):
        # The check is stated on the balls; the reference walks every
        # residue of every stratum mod p^m. They must reject the same covers.
        rng = random.Random(13 + p)
        report = reports[p]
        verdicts = set()
        for balls in perturbed_covers(report, rng):
            broken = CoverReport(p, report.valuation_range, balls)
            try:
                broken._index
            except TheoremViolationError:
                rejected = True
            else:
                rejected = False
            assert rejected == (not walk_finds_exact_cover(broken)), balls
            verdicts.add(rejected)
        assert verdicts == {True, False}


def perturbed_covers(report: CoverReport, rng: random.Random):
    """Up to 300 seeded perturbations of a full cover: a random ball dropped,
    duplicated, re-centred mod p^(k +- 1) or moved to another unit, or a
    whole stratum removed; about half of them perturbed twice, which can
    give an exact cover again."""
    p, balls = report.p, report.balls

    def rebuilt(ball: PadicBall, center: int, k: int) -> PadicBall | None:
        center %= p**k
        if valuation(center, p) >= k:  # also center 0
            return None
        return PadicBall(p=p, center=center, modulus_exponent=k, group=ball.group)

    def single(balls):
        i = rng.randrange(len(balls))
        ball = balls[i]
        v, k = ball.stratum, ball.modulus_exponent
        kind = rng.choice(("drop", "duplicate", "modulus", "move", "stratum"))
        if kind == "drop":
            return balls[:i] + balls[i + 1 :]
        if kind == "duplicate":
            return balls + (ball,)
        if kind == "modulus":
            new = rebuilt(ball, ball.center, k + rng.choice((-1, 1)))
        elif kind == "move":
            unit = rng.randrange(1, p ** (k - v))
            new = rebuilt(ball, unit * p**v, k) if unit % p else None
        else:
            return tuple(b for b in balls if b.stratum != v)
        return None if new is None else balls[:i] + (new,) + balls[i + 1 :]

    for _ in range(300):
        candidate = single(balls)
        if candidate is not None and rng.random() < 0.5:
            candidate = single(candidate) if candidate else None
        if candidate:
            yield candidate


def walk_finds_exact_cover(report: CoverReport) -> bool:
    """The reference: every residue of every stratum in range, mod p^m with
    m two past the largest modulus exponent (and at least 7), lies in exactly
    one ball, and no stratum mixes moduli."""
    p = report.p
    lo, hi = report.valuation_range
    m = max(max(b.modulus_exponent for b in report.balls) + 2, 7)
    moduli: dict[int, set[int]] = {}
    for b in report.balls:
        moduli.setdefault(b.stratum, set()).add(b.modulus_exponent)
    if any(len(ks) > 1 for ks in moduli.values()):
        return False
    for r in range(1, p**m):
        if lo <= valuation(r, p) <= hi:
            hits = sum(1 for b in report.balls if r % p**b.modulus_exponent == b.center)
            if hits != 1:
                return False
    return True


def linear_scan(s, report: CoverReport) -> PadicBall:
    """locate's oracle: the one ball whose contains() accepts s."""
    (ball,) = [b for b in report.balls if b.contains(s)]
    return ball


class TestLocate:
    @pytest.mark.parametrize("p", [2, 3])
    def test_agrees_with_linear_scan(self, p, reports, rng):
        report = reports[p]
        for ball in report.balls:
            k = ball.modulus_exponent
            for _ in range(50):
                members = (
                    ball.center + p**k * rng.randint(-(10**6), 10**6),
                    random_ball_member(rng, ball),
                )
                for s in members:
                    assert locate(s, report) is ball
                    assert linear_scan(s, report) is ball
        for _ in range(2000):
            s = rng.choice(
                [
                    rng.randint(-(10**7), 10**7),
                    Fraction(rng.randint(-(10**7), 10**7), rng.randint(1, 10**4)),
                ]
            )
            lo, hi = report.valuation_range
            if s == 0 or not lo <= valuation(s, p) <= hi:
                with pytest.raises(NotTabulatedError):
                    locate(s, report)
                continue
            assert locate(s, report) is linear_scan(s, report)

    def test_known_members(self, reports):
        ball = locate(10, reports[3])
        assert (ball.center, ball.modulus_exponent) == (1, 2)
        assert ball.group is G.C4
        ball = locate(4, reports[2])
        assert (ball.center, ball.modulus_exponent) == (4, 4)
        assert ball.group is G.SL2F3
        assert (locate(1, reports[3]).center, locate(1, reports[3]).group) == (1, G.C4)

    def test_locate_agrees_with_table(self, reports, rng, tabulated_s):
        for _ in range(1000):
            s = tabulated_s(rng)
            assert locate(s, reports[2]).group is phi_family_at_2(s)
            assert locate(s, reports[3]).group is phi_family_at_3(s)

    def test_stratum_with_two_moduli_rejected(self, reports):
        # The index reads one modulus per stratum off the balls; a report
        # that mixes 1 + 3^2 Z_3 with 2 + 3 Z_3 cannot be indexed.
        balls = (
            next(b for b in reports[3].balls if b.center == 1),
            PadicBall(p=3, center=2, modulus_exponent=1, group=G.DIC3),
        )
        with pytest.raises(TheoremViolationError, match="different moduli"):
            locate(2, CoverReport(3, (0, 0), balls))

    def test_report_split_unlike_the_table_refused(self):
        # locate takes the center of s from the table (mod 2^2 at v2 = 0);
        # an exact cover of that stratum mod 2^3 has a ball 1 + 2^3 Z_2, which
        # does not hold s = 5.
        balls = tuple(
            PadicBall(p=2, center=c, modulus_exponent=3, group=phi_family_at_2(c))
            for c in (1, 3, 5, 7)
        )
        report = CoverReport(2, (0, 0), balls)
        assert len(report._index) == 4
        with pytest.raises(TheoremViolationError, match="escaped every ball"):
            locate(5, report)

    def test_untabulated_prime_refused(self):
        with pytest.raises(NotTabulatedError, match="no reduction tables at p = 5"):
            locate(1, CoverReport(5, (0, 0), ()))
        with pytest.raises(InvalidInputError, match="4 is not prime"):
            locate(1, CoverReport(4, (0, 0), ()))

    @pytest.mark.parametrize("s", [0, Fraction(0)])
    def test_zero_is_singular(self, reports, s):
        # s = 0 is the singular cubic: invalid input (exit 2), as for
        # phi_family_at_2(0), not a stratum outside the tables (exit 3).
        for report in reports.values():
            with pytest.raises(SingularCurveError, match="s = 0"):
                locate(s, report)

    def test_out_of_range(self, reports):
        with pytest.raises(NotTabulatedError):
            locate(8, reports[2])
        with pytest.raises(NotTabulatedError):
            locate(Fraction(1, 3), reports[3])

    def test_same_ball_for_every_type(self, reports):
        for s in integer_parameters(4142):
            for report in reports.values():
                outcomes = [
                    answer_or_refusal(locate, x, report) for x in as_each_type(s)
                ]
                assert all(o == outcomes[0] for o in outcomes), (report.p, s)

    def test_zero_of_every_type_is_singular(self, reports):
        for zero in as_each_type(0):
            for report in reports.values():
                with pytest.raises(SingularCurveError, match="^s = 0$"):
                    locate(zero, report)

# FAMILY_TABLES written out again, (p, v) -> (d, {u: group label}): the ball
# u * p^v + p^(v + d) Z_p of the stratum v_p(s) = v has that group.
ROWS = {
    (2, 0): (2, {1: "C3", 3: "C6"}),
    (2, 1): (1, {1: "C2"}),
    (2, 2): (2, {1: "SL2(F3)", 3: "C3"}),
    (3, 0): (2, {1: "C4", 2: "Dic3", 4: "Dic3", 5: "Dic3", 7: "Dic3", 8: "C4"}),
    (3, 1): (1, {1: "Dic3", 2: "Dic3"}),
    (3, 2): (1, {1: "Dic3", 2: "Dic3"}),
    (3, 3): (2, {1: "C4", 2: "Dic3", 4: "Dic3", 5: "Dic3", 7: "Dic3", 8: "C4"}),
    (3, 4): (1, {1: "Dic3", 2: "Dic3"}),
}


def rows_lookup(p: int, s) -> tuple[str, int, int]:
    """(group label, center, k) of a p-integral s != 0 from ROWS, by integer
    arithmetic alone: v = v_p(s), u = s / p^v mod p^d."""
    s = Fraction(s)
    num, v = s.numerator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    d, groups = ROWS[(p, v)]
    u = num * pow(s.denominator, -1, p**d) % p**d
    return groups[u], u * p**v, v + d


def row_ball_members(rng, p: int, v: int, u: int) -> list:
    """Seeded members of the ball u * p^v + p^(v + d) Z_p of row v: positive
    and negative integers, and rationals whose denominator is prime to p."""
    m = p ** ROWS[(p, v)][0]
    members = []
    for _ in range(6):
        t = rng.randint(0, 10**4)
        members += [p**v * (u + m * t), p**v * (u - m * (t + 1))]
        den = rng.randint(2, 10**3)
        while den % p == 0:
            den = rng.randint(2, 10**3)
        w = u * den % m + m * rng.randint(-(10**4), 10**4)
        members.append(Fraction(p**v * w, den))
    return members


class TestEveryBallAgainstTheRows:
    @pytest.mark.parametrize("p", [2, 3])
    def test_cover_balls(self, p, reports):
        assert [
            (b.stratum, b.center, b.modulus_exponent, b.group.label)
            for b in reports[p].balls
        ] == [
            (v, u * p**v, v + d, label)
            for (q, v), (d, groups) in sorted(ROWS.items())
            if q == p
            for u, label in sorted(groups.items())
        ]

    def check(self, p: int, s, reports) -> None:
        label, center, k = rows_lookup(p, s)
        entry = family_report(s).local_at(p)
        assert (entry.group.label, entry.provenance, entry.ball) == (
            label, f"family-table-{p}", (center, k)
        ), s
        ball = locate(s, reports[p])
        assert (ball.group.label, ball.center, ball.modulus_exponent) == (
            label, center, k
        ), s

    @pytest.mark.parametrize("p, v", sorted(ROWS))
    def test_seeded_members_of_every_ball(self, p, v, reports, rng):
        for u, label in ROWS[(p, v)][1].items():
            for s in row_ball_members(rng, p, v, u):
                assert rows_lookup(p, s)[1:] == (u * p**v, v + ROWS[(p, v)][0])
                self.check(p, s, reports)

    def test_v3_four_both_signs(self, reports, rng):
        # 81 + 3^5 Z_3 and 162 + 3^5 Z_3, which the golden sweep file never
        # reaches: +-81 u and +-162 u for seeded units u.
        units = [1, 2] + [rng.randint(4, 10**5) for _ in range(40)]
        for u in (u for u in units if u % 3):
            for s in (81 * u, -81 * u, 162 * u, -162 * u):
                self.check(3, s, reports)


class TestBallInvariants:
    def test_center_must_determine_stratum(self):
        with pytest.raises(TheoremViolationError):
            PadicBall(p=3, center=0, modulus_exponent=2, group=G.C4)
        with pytest.raises(TheoremViolationError):
            PadicBall(p=3, center=9, modulus_exponent=2, group=G.C4)

    def test_contains_checks_stratum_and_residue(self, reports):
        ball = next(b for b in reports[3].balls if b.center == 27)
        assert ball.contains(27)
        assert ball.contains(27 + 3**5)
        assert not ball.contains(27 * 4)  # 4 is not 1 mod 9
        assert not ball.contains(9)  # wrong stratum
