import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import semistab.arith
import semistab.cover
from semistab.arith import factorize, residue, valuation
from semistab.cli import main
from semistab.cover import PadicBall, enumerate_cover, locate
from semistab.curves import (
    WeierstrassCurve,
    compute_invariants,
    family_curve,
    minimalize_at_p,
    reduction_class_at_p,
)
from semistab.errors import (
    InvalidInputError,
    NotTabulatedError,
    SemistabError,
    SingularCurveError,
    TheoremViolationError,
    UnsupportedPrimeError,
)
from semistab.monodromy import (
    FAMILY_TABLES,
    LocalMonodromyResult,
    MonodromyGroup,
    _degree_report,
    bad_primes,
    curve_report,
    family_report,
    phi_family_at_2,
    phi_family_at_3,
    phi_general_curve,
    phi_tame,
    semistability_degree,
)
from conftest import (
    TAME_PRIME_POOL,
    answer_or_refusal,
    as_each_type,
    integer_parameters,
)
from curve_oracles import (
    RAMIFIED_TWIST,
    count_points,
    discriminant,
    quadratic_twist,
    three_isogenous,
    two_isogenous,
    unramified_at,
)

G = MonodromyGroup


class TestGroupData:
    def test_orders_match_names(self):
        assert [g.order for g in G] == [1, 2, 3, 4, 6, 12, 24]

    def test_orders_divide_24(self):
        assert all(24 % g.order == 0 for g in G)


class TestPhiAt3:
    @pytest.mark.parametrize("s", [1, 8, 10, 17, 216, -1, 19])
    def test_c4_cases(self, s):
        assert phi_family_at_3(s) is G.C4

    @pytest.mark.parametrize("s", [2, 9, 81, 27 * 2, 3, 4, 5, 27 * 4])
    def test_dic3_cases(self, s):
        assert phi_family_at_3(s) is G.DIC3

    def test_rational_unit_congruence(self):
        # 10/7 = 10 * 7^(-1) = 40 = 4 mod 9
        assert phi_family_at_3(Fraction(10, 7)) is G.DIC3
        # 8/17 = 8 * 8 = 64 = 1 mod 9  (17 = -1 mod 9)
        assert phi_family_at_3(Fraction(8, 17)) is G.C4

    # Strata outside 0..4, the rows branch_table_at_3 writes out: s * 3^(6j)
    # is the same curve, and v3(s) = 5 is v3(s) = 2 moved by the 3-isogeny
    # s -> -27s.
    BEYOND_THE_WRITTEN_ROWS = {
        3**5: G.DIC3,
        3**7: G.DIC3,
        Fraction(1, 3): G.DIC3,
        Fraction(5, 81): G.DIC3,
        3**6: G.C4,
        Fraction(1, 27): G.C4,
    }

    @pytest.mark.parametrize("s", list(BEYOND_THE_WRITTEN_ROWS))
    def test_untabulated_valuations(self, s):
        assert phi_family_at_3(s) is self.BEYOND_THE_WRITTEN_ROWS[s]

    def test_no_valuation_refused_and_sextic_twists_agree(self, rng):
        values = [Fraction(s) for n in range(1, 20001) for s in (n, -n)]
        for _ in range(2000):
            sign = rng.choice((1, -1))
            unit = Fraction(sign * _coprime_to_6(rng), _coprime_to_6(rng))
            values.append(unit * Fraction(3) ** rng.randint(-12, 12))
        for s in values:
            t = Fraction(rng.choice((1, -1)) * rng.randint(1, 200), rng.randint(1, 200))
            entry = family_report(s).local_at(3)
            assert entry.group is not None, s
            assert phi_family_at_3(s * t**6) is entry.group, (s, t)

    def test_singular(self):
        with pytest.raises(SingularCurveError):
            phi_family_at_3(0)


class TestPhiAt2:
    @pytest.mark.parametrize("s", [1, 5, 12, -3, 9])
    def test_c3_cases(self, s):
        assert phi_family_at_2(s) is G.C3

    @pytest.mark.parametrize("s", [3, 7, -1])
    def test_c6_cases(self, s):
        assert phi_family_at_2(s) is G.C6

    @pytest.mark.parametrize("s", [2, 6, -2, 10])
    def test_c2_cases(self, s):
        assert phi_family_at_2(s) is G.C2

    @pytest.mark.parametrize("s", [4, 20, 36])
    def test_sl2f3_cases(self, s):
        assert phi_family_at_2(s) is G.SL2F3

    def test_negative_quarter_unit(self):
        # -4/4 = -1 mod 4, the C3 branch of the v2 = 2 case
        assert phi_family_at_2(-4) is G.C3

    @pytest.mark.parametrize("s", [8, 16, Fraction(1, 2), Fraction(3, 4)])
    def test_untabulated_valuations(self, s):
        with pytest.raises(NotTabulatedError):
            phi_family_at_2(s)

    def test_singular(self):
        with pytest.raises(SingularCurveError):
            phi_family_at_2(0)


def branch_table_at_3(s: Fraction) -> MonodromyGroup:
    """The 3-adic reduction table as the branches phi_family_at_3 held
    before FAMILY_TABLES, for v3(s) in 0..4; an oracle for the table's rows.
    Any other v3(s) is first carried into 0..5 by s -> s * 3^(-6k), the same
    curve, and then from 5 to 2 by s -> -s/27, a 3-isogenous curve."""
    v = valuation(s, 3)
    s, v = s / Fraction(3) ** (v - v % 6), v % 6
    if v == 5:
        s, v = -s / 27, 2
    if v == 0:
        return G.C4 if residue(s, 9) in (1, 8) else G.DIC3
    if v == 3:
        u = s / Fraction(3) ** v
        return G.C4 if residue(u, 9) in (1, 8) else G.DIC3
    return G.DIC3


def branch_table_at_2(s: Fraction) -> MonodromyGroup:
    """The 2-adic reduction table as the branches phi_family_at_2 held
    before FAMILY_TABLES, for v2(s) in 0..2; an oracle for the table's rows.
    Any other v2(s) is first carried into 0..5 by s -> s * 2^(-6k), the same
    curve; 3..5 have no branch and are refused."""
    v = valuation(s, 2)
    if v % 6 not in range(0, 3):
        raise NotTabulatedError(f"v2(s) = {v} outside tabulated range 0..2")
    s, v = s / Fraction(2) ** (v - v % 6), v % 6
    if v == 0:
        return G.C3 if residue(s, 4) == 1 else G.C6
    if v == 1:
        return G.C2
    u = s / Fraction(2) ** v
    return G.C3 if residue(u, 4) == 3 else G.SL2F3


def group_or_refusal(phi, s):
    try:
        return phi(s)
    except NotTabulatedError as exc:
        return str(exc)


def _coprime_to_6(rng) -> int:
    while True:
        n = rng.randint(1, 10**4)
        if n % 2 and n % 3:
            return n


class TestFamilyTablesMatchBranches:
    def test_integers_and_rationals(self, rng):
        values = [Fraction(s) for n in range(1, 20001) for s in (n, -n)]
        for _ in range(4000):
            sign = rng.choice((1, -1))
            unit = Fraction(sign * _coprime_to_6(rng), _coprime_to_6(rng))
            values.append(
                unit
                * Fraction(2) ** rng.randint(-14, 14)
                * Fraction(3) ** rng.randint(-8, 8)
            )
        mismatches = [
            s
            for s in values
            for phi, oracle in (
                (phi_family_at_2, branch_table_at_2),
                (phi_family_at_3, branch_table_at_3),
            )
            if group_or_refusal(phi, s) != group_or_refusal(oracle, s)
        ]
        assert mismatches == []


def serre_tate_order_at_2(s: Fraction) -> int:
    """|Phi_2| = e(sqrt(s)) * e(cbrt(4s)), from the 3-torsion field.

    Serre-Tate: Phi_2 = Gal(Q_2^ur(E[3]) / Q_2^ur) = Gal(Q_2^ur(sqrt(s),
    cbrt(4s)) / Q_2^ur). sqrt(s) is unramified iff v_2(s) is even and the
    unit part is 1 mod 4; cbrt(4s) iff 3 divides v_2(4s) = 2 + v_2(s).
    """
    v = valuation(s, 2)
    unit = s / Fraction(2) ** v
    unit_mod_4 = unit.numerator * pow(unit.denominator, -1, 4) % 4
    e_sqrt = 1 if v % 2 == 0 and unit_mod_4 == 1 else 2
    e_cbrt = 1 if v % 3 == 1 else 3
    return e_sqrt * e_cbrt


def parameters_with_v2(rng, wanted):
    """+-1..20000 with v_2 in wanted, then 2,000 rationals with odd
    denominator and v_2 in wanted."""
    values = [
        Fraction(s)
        for n in range(1, 20001)
        for s in (n, -n)
        if valuation(n, 2) in wanted
    ]
    for _ in range(2000):
        den = 2 * rng.randint(0, 500) + 1
        odd = 2 * rng.randint(-500, 500) + 1
        values.append(odd * Fraction(2) ** rng.choice(wanted) / den)
    return values


class TestSerreTateAt2:
    def test_table_agrees_for_v2_0_and_1(self, rng):
        values = parameters_with_v2(rng, (0, 1))
        assert len(values) == 32000
        mismatches = [
            s for s in values if phi_family_at_2(s).order != serre_tate_order_at_2(s)
        ]
        assert mismatches == []

    @pytest.mark.xfail(
        strict=True,
        reason="The v_2(s) = 2 row of the 2-adic table disagrees with "
        "Serre-Tate. For s = 4: with pi^3 = 2, x = pi^4 X and y = pi^6 Y + 2 "
        "give Y^2 + Y = X^3, which has good reduction, so Phi_2(E_4) = C3 and "
        "d(E_4) = 12, not SL2(F3) and 24. The pinned values stay until the "
        "table is replaced by the derivation.",
    )
    def test_table_agrees_for_v2_2(self, rng):
        values = parameters_with_v2(rng, (2,))
        mismatches = [
            s for s in values if phi_family_at_2(s).order != serre_tate_order_at_2(s)
        ]
        assert mismatches == []

    def test_twisted_strata_agree_for_v2_0_and_1_mod_6(self, rng):
        # v2(s) outside the rows, read in row v2(s) mod 6; the oracle reads
        # no row, so it checks the twist and not only the table.
        values = parameters_with_v2(rng, (6, 7, 12, 13, -6, -5))
        assert len(values) == 2474
        mismatches = [
            s for s in values if phi_family_at_2(s).order != serre_tate_order_at_2(s)
        ]
        assert mismatches == []

    @pytest.mark.xfail(
        strict=True,
        reason="The v_2(s) = 2 row of the 2-adic table disagrees with "
        "Serre-Tate. For s = 4: with pi^3 = 2, x = pi^4 X and y = pi^6 Y + 2 "
        "give Y^2 + Y = X^3, which has good reduction, so Phi_2(E_4) = C3 and "
        "d(E_4) = 12, not SL2(F3) and 24. The pinned values stay until the "
        "table is replaced by the derivation.",
    )
    def test_twisted_strata_agree_for_v2_2_mod_6(self, rng):
        values = parameters_with_v2(rng, (8, 14, -4))
        mismatches = [
            s for s in values if phi_family_at_2(s).order != serre_tate_order_at_2(s)
        ]
        assert mismatches == []


class TestThreeIsogeny:
    def test_s_and_minus_27s_agree(self, rng):
        # y^2 = x^3 + s and y^2 = x^3 - 27 s are 3-isogenous, so their local
        # monodromy groups agree at every prime.
        values = [Fraction(n) for n in range(-3000, 3001) if n]
        values += [
            Fraction(rng.randint(-300, 300) or 1, rng.randint(1, 300))
            for _ in range(1000)
        ]
        compared = {2: 0, 3: 0}
        for s in values:
            report, isogenous = family_report(s), family_report(-27 * s)
            assert [e.p for e in report.locals] == [e.p for e in isogenous.locals]
            for entry, other in zip(report.locals, isogenous.locals):
                if entry.group is None or other.group is None:
                    continue
                assert entry.group is other.group, (s, entry.p)
                compared[entry.p] = compared.get(entry.p, 0) + 1
        # 3 is never refused, so every s is compared there
        assert compared[2] > 1000 and compared[3] == len(values)


class TestPhiTame:
    def test_family_order_formula(self):
        assert phi_tame(family_curve(5), 5) is G.C6
        assert phi_tame(family_curve(7**3), 7) is G.C2
        assert phi_tame(family_curve(7**2), 7) is G.C3

    def test_good_after_minimalization(self):
        minimal, _ = minimalize_at_p(family_curve(5**6), 5)
        assert phi_tame(minimal, 5) is G.C1

    def test_multiplicative_is_trivial(self):
        assert phi_tame(WeierstrassCurve(0, 0, 0, -1, 1), 23) is G.C1

    def test_not_minimal_refused_as_input(self):
        # y^2 = x^3 + 5^6 is not minimal at 5; phi_tame answers for its
        # minimal model y^2 = x^3 + 1, which is good there.
        assert phi_tame(family_curve(5**6), 5) is G.C1
        assert phi_tame(minimalize_at_p(family_curve(5**6), 5)[0], 5) is G.C1

    def test_non_integral_model_answers_for_its_minimal_model(self):
        # y^2 = x^3 + x/625 + 1 is y^2 = x^3 + x + 5^6 over Z_5 (u = 1/5), which
        # reduces to y^2 = x^3 + x mod 5: good reduction, though this model's
        # own v_5(delta) = -12 and v_5(c4) = -4.
        curve = WeierstrassCurve(0, 0, 0, Fraction(1, 625), 1)
        assert reduction_class_at_p(curve, 5) == "good"
        assert phi_tame(curve, 5) is G.C1
        assert phi_general_curve(curve, 5).group is G.C1

    @pytest.mark.parametrize("p", [2, 3])
    def test_wild_primes_rejected(self, p):
        with pytest.raises(UnsupportedPrimeError):
            phi_tame(family_curve(1), p)

    def test_degree_report_matches_curve_route(self, rng, tabulated_s):
        # The batch path feeds the tame rule v_p(delta_min) = 2 * (v mod 6);
        # check it against minimalizing the actual curve and phi_tame.
        for _ in range(300):
            s = tabulated_s(rng)
            report = semistability_degree(s)
            for entry in report.locals:
                if entry.p < 5:
                    continue
                shift = 6 * (int(valuation(s, entry.p)) // 6)
                curve = family_curve(s / Fraction(entry.p) ** shift)
                assert entry.group is phi_tame(curve, entry.p)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_family_route_matches_minimalized_curve(self, p):
        # Every v_p(s) in -12..12: the family's route at p against phi_tame
        # on the curve made integral at p by a 6th power of p, then
        # minimalized; no entry at p when 6 | v.
        for v in range(-12, 13):
            for u in (1, -2, Fraction(-17, 4)):
                s = u * Fraction(p) ** v
                lift = 6 * max(0, -(v // 6))
                minimal, _ = minimalize_at_p(family_curve(s * p**lift), p)
                expected = phi_tame(minimal, p)
                entry = family_report(s).local_at(p)
                if v % 6 == 0:
                    assert entry is None and expected is G.C1, (s, p)
                else:
                    assert entry.group is expected, (s, p)
                    assert entry.provenance == "tame-rule", (s, p)

    @pytest.mark.parametrize("p", [5, 7, 10007])
    def test_family_rows_match_closed_form(self, p):
        # The route above runs _tame_rule on both sides, so a wrong divisor
        # there passes it. Here the order is written out: v_p(delta) = 2v
        # gives 12 / gcd(2v, 12) = 6 / gcd(v, 6), and no entry when 6 | v.
        cyclic = {2: G.C2, 3: G.C3, 6: G.C6}
        for v in range(-13, 14):
            for u in (1, -2, Fraction(-17, 4)):
                entry = family_report(u * Fraction(p) ** v).local_at(p)
                if v % 6 == 0:
                    assert entry is None, (u, p, v)
                else:
                    expected = (cyclic[6 // math.gcd(v, 6)], "tame-rule")
                    assert (entry.group, entry.provenance) == expected, (u, p, v)

    def test_trivial_iff_good_or_multiplicative(self, rng):
        for _ in range(300):
            p = rng.choice(TAME_PRIME_POOL)
            k = rng.randrange(0, 6)
            unit = rng.randint(1, 500)
            while unit % p == 0:
                unit = rng.randint(1, 500)
            curve = family_curve(unit * p**k)
            klass = reduction_class_at_p(curve, p)
            trivial = phi_tame(curve, p) is G.C1
            assert trivial == (klass in ("good", "multiplicative"))


class TestSemistabilityDegree:
    def test_maximal_example(self):
        report = semistability_degree(4)
        assert report.degree == 24
        assert report.local_at(2).group is G.SL2F3
        assert report.local_at(3).group is G.DIC3
        assert 24 % report.degree == 0

    def test_s1(self):
        report = semistability_degree(1)
        assert report.degree == 12
        assert report.local_at(2).group is G.C3
        assert report.local_at(3).group is G.C4

    def test_s2(self):
        report = semistability_degree(2)
        assert report.degree == 12
        assert report.local_at(2).group is G.C2
        assert report.local_at(3).group is G.DIC3

    def test_degree_is_lcm_of_local_orders(self):
        report = semistability_degree(Fraction(5, 7))
        assert report.degree == math.lcm(
            *(entry.group.order for entry in report.locals)
        )
        assert {entry.p for entry in report.locals} == {2, 3, 5, 7}

    def test_tame_primes_with_sixth_power_valuation_are_good(self):
        report = semistability_degree(5**6)
        assert report.local_at(5) is None
        assert 5 not in bad_primes(Fraction(5**6))

    def test_not_tabulated_propagates(self):
        with pytest.raises(NotTabulatedError):
            semistability_degree(8)

    def test_singular(self):
        with pytest.raises(SingularCurveError):
            semistability_degree(0)

    def test_divisibility_random(self, rng, tabulated_s):
        for _ in range(2000):
            report = semistability_degree(tabulated_s(rng))
            assert 24 % report.degree == 0
            assert report.degree > 1  # Phi at 3 is never trivial here

    def test_orders_land_in_divisor_set(self, rng, tabulated_s):
        allowed = {1, 2, 3, 4, 6, 12, 24}
        for _ in range(500):
            report = semistability_degree(tabulated_s(rng))
            assert all(e.group.order in allowed for e in report.locals)

    def test_sextic_twist_invariance(self, rng, tabulated_s):
        units = [u for u in TAME_PRIME_POOL] + [25, 35, 49, 55]
        for _ in range(300):
            s = tabulated_s(rng)
            u = rng.choice(units)
            base = semistability_degree(s)
            twisted = semistability_degree(s * Fraction(u) ** 6)
            assert twisted.degree == base.degree
            assert twisted.locals == base.locals

    def test_empty_lcm_convention(self):
        # No local result leaves d(E) = 1, the lcm of nothing.
        assert _degree_report(None, []).degree == 1


class TestSexticTwist:
    def test_reports_agree_for_s_and_s_times_t_to_the_6(self):
        # y^2 = x^3 + s and y^2 = x^3 + s t^6 are the same curve over Q, by
        # (x, y) -> (t^2 x, t^3 y), and the local monodromy groups belong to
        # the curve, not to the equation: the same bad primes, the same group
        # and provenance at each, refusals at the same primes, the same degree.
        def key(entry):
            # a refusal's text names v2(s), which the twist moves
            return entry.p, entry.group, entry.group is None or entry.provenance

        rng = random.Random(4545)
        pairs = [(Fraction(1), Fraction(2))]
        while len(pairs) < 5000:
            sign = rng.choice((1, -1))
            unit = Fraction(sign * _coprime_to_6(rng), _coprime_to_6(rng))
            a, b = rng.randint(-12, 12), rng.randint(-12, 12)
            t = Fraction(rng.choice((1, -1)) * rng.randint(1, 200), rng.randint(1, 200))
            pairs.append((unit * Fraction(2) ** a * Fraction(3) ** b, t))
        for s, t in pairs:
            base, twisted = family_report(s), family_report(s * t**6)
            assert list(map(key, twisted.locals)) == list(map(key, base.locals)), (s, t)
            assert twisted.degree == base.degree, (s, t)


def stub_entry(order: int | None) -> SimpleNamespace:
    """A local entry as _degree_report reads it: a group with an order, or
    no group (a refused prime). Real orders all divide 24, so only a stub
    reaches the divisibility check."""
    return SimpleNamespace(group=None if order is None else SimpleNamespace(order=order))


class TestDegreeReportContract:
    def test_order_not_dividing_24_raises(self):
        for orders, degree in (((5,), 5), ((3, 5), 15), ((4, 5, 1), 20), ((8, 3, 16), 48)):
            with pytest.raises(TheoremViolationError) as excinfo:
                _degree_report(None, [stub_entry(order) for order in orders])
            assert str(excinfo.value) == (
                f"degree {degree} does not divide the g=1 bound 24 (s = None)"
            )

    def test_orders_dividing_24_pass(self):
        # The check is on the lcm, not on the set of group orders: 8 | 24.
        for orders, degree in (((8,), 8), ((8, 3), 24), ((2, 3), 6), ((1,), 1)):
            report = _degree_report(Fraction(7), [stub_entry(order) for order in orders])
            assert (report.s, report.degree) == (Fraction(7), degree)

    def test_refusal_anywhere_gives_no_degree(self):
        # A refused prime before, between or after the entries whose lcm
        # would fail the check: degree None, no raise, every entry kept.
        for orders in ((5,), (4, 5), (8, 16)):
            for at in range(len(orders) + 1):
                entries = [stub_entry(order) for order in orders]
                entries.insert(at, stub_entry(None))
                report = _degree_report(None, entries)
                assert report.degree is None, (orders, at)
                assert report.locals == tuple(entries)


PROVENANCE_PRIMES = (2, 3, 5, 7, 11)

# Whether a result with a group may carry the provenance at p = 2, 3, 5, 7,
# 11: a family table only at its own tabulated prime, the tame rule only at
# p >= 5, good reduction anywhere, and nothing else anywhere.
PROVENANCE_ACCEPTED = {
    "family-table-2": (True, False, False, False, False),
    "family-table-3": (False, True, False, False, False),
    "family-table-5": (False, False, False, False, False),
    "tame-rule": (False, False, True, True, True),
    "good-reduction": (True, True, True, True, True),
    "bogus": (False, False, False, False, False),
}


def provenance_accepted(p: int, group, provenance: str) -> bool:
    try:
        result = LocalMonodromyResult(p, group, provenance)
    except TheoremViolationError as exc:
        assert str(exc) == f"provenance {provenance} inconsistent with p={p}"
        return False
    assert (result.p, result.group, result.provenance) == (p, group, provenance)
    return True


class TestProvenanceCheck:
    def test_truth_table_with_a_group(self):
        assert {
            provenance: tuple(
                provenance_accepted(p, G.C2, provenance) for p in PROVENANCE_PRIMES
            )
            for provenance in PROVENANCE_ACCEPTED
        } == PROVENANCE_ACCEPTED

    def test_a_refusal_carries_any_text(self):
        # group None: the provenance is the refusal's text, unchecked.
        assert all(
            provenance_accepted(p, None, provenance)
            for provenance in PROVENANCE_ACCEPTED
            for p in PROVENANCE_PRIMES
        )


class TestRecordContract:
    """The two per-record types as callers see them: repr, hash, equality
    and immutability, with the values of the frozen-dataclass records."""

    TAME = LocalMonodromyResult(7, G.C6, "tame-rule")
    TABLE = LocalMonodromyResult(3, G.DIC3, "family-table-3", (5, 2))
    REFUSAL = LocalMonodromyResult(2, None, "v2(s) = 3 outside tabulated range 0..2")

    def test_result_reprs(self):
        assert repr(self.TAME) == (
            "LocalMonodromyResult(p=7, group=<MonodromyGroup.C6: ('C6', 6)>, "
            "provenance='tame-rule', ball=None)"
        )
        assert repr(self.TABLE) == (
            "LocalMonodromyResult(p=3, group=<MonodromyGroup.DIC3: ('Dic3', 12)>, "
            "provenance='family-table-3', ball=(5, 2))"
        )
        assert repr(self.REFUSAL) == (
            "LocalMonodromyResult(p=2, group=None, "
            "provenance='v2(s) = 3 outside tabulated range 0..2', ball=None)"
        )

    def test_report_repr(self):
        assert repr(family_report(Fraction(-7, 25))) == (
            "DegreeReport(s=Fraction(-7, 25), locals=("
            "LocalMonodromyResult(p=2, group=<MonodromyGroup.C3: ('C3', 3)>, "
            "provenance='family-table-2', ball=(1, 2)), "
            "LocalMonodromyResult(p=3, group=<MonodromyGroup.C4: ('C4', 4)>, "
            "provenance='family-table-3', ball=(8, 2)), "
            "LocalMonodromyResult(p=5, group=<MonodromyGroup.C3: ('C3', 3)>, "
            "provenance='tame-rule', ball=None), "
            "LocalMonodromyResult(p=7, group=<MonodromyGroup.C6: ('C6', 6)>, "
            "provenance='tame-rule', ball=None)), degree=12)"
        )

    def test_hash_is_the_hash_of_the_fields(self):
        for r in (self.TAME, self.TABLE, self.REFUSAL):
            assert hash(r) == hash((r.p, r.group, r.provenance, r.ball))

    def test_fields_are_read_only(self):
        # FrozenInstanceError is an AttributeError.
        report = family_report(12)
        for record, field in (
            (self.TAME, "group"), (self.TABLE, "ball"), (self.REFUSAL, "provenance"),
            (report, "degree"), (report, "s"),
        ):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_equal_fields_compare_equal(self):
        assert LocalMonodromyResult(3, G.DIC3, "family-table-3", (5, 2)) == self.TABLE
        assert LocalMonodromyResult(7, G.C6, "tame-rule", None) == self.TAME
        assert LocalMonodromyResult(7, G.C6, "tame-rule") != self.TABLE
        assert family_report(Fraction(-7, 25)) == family_report(Fraction(-7, 25))
        assert family_report(12).local_at(3) == LocalMonodromyResult(
            3, G.DIC3, "family-table-3", (3, 2)
        )
        assert family_report(12).local_at(5) is None

    def test_a_copy_is_checked_as_a_new_result(self):
        assert self.TABLE._replace(ball=(5, 2)) == self.TABLE
        assert self.TAME._replace(p=11) == LocalMonodromyResult(11, G.C6, "tame-rule")
        with pytest.raises(TheoremViolationError, match="inconsistent with p=2"):
            self.TABLE._replace(p=2)
        with pytest.raises(TheoremViolationError, match="inconsistent with p=3"):
            LocalMonodromyResult._make((3, G.C2, "tame-rule", None))


class TestParameterType:
    """An int, a Fraction, a str and an integral float name the same s and
    get the same answers, with the same str(report.s)."""

    def test_same_answers_for_every_type(self):
        for s in integer_parameters(4141):
            reports = [family_report(x) for x in as_each_type(s)]
            assert all(report == reports[0] for report in reports), s
            assert {str(report.s) for report in reports} == {str(s)}
            for fn in (semistability_degree, phi_family_at_2, phi_family_at_3):
                outcomes = [answer_or_refusal(fn, x) for x in as_each_type(s)]
                assert all(o == outcomes[0] for o in outcomes), (fn, s)

    def test_an_int_stays_an_int(self):
        assert type(family_report(12).s) is int
        assert repr(family_report(12)).startswith("DegreeReport(s=12, ")
        for x in (Fraction(12), "12", 12.0, True):
            assert type(family_report(x).s) is Fraction, x

    def test_the_seeds_reach_every_case(self):
        values = integer_parameters(4141)
        assert any(s < 0 for s in values)
        assert any(s % 3 == 0 for s in values)
        assert any(family_report(s).degree is None for s in values)
        assert any(family_report(s).degree is not None for s in values)

    @pytest.mark.parametrize("fn", [
        family_report, semistability_degree, phi_family_at_2, phi_family_at_3,
    ])
    def test_zero_of_every_type_is_singular(self, fn):
        for zero in as_each_type(0):
            with pytest.raises(SingularCurveError, match="^s = 0$"):
                fn(zero)


class TestReports:
    @pytest.mark.parametrize("zero", [0, Fraction(0, 7), 0.0, "0"])
    def test_zero_parameter_is_singular(self, zero):
        with pytest.raises(SingularCurveError, match="^s = 0$"):
            family_report(zero)

    def test_refusals_are_data_in_prime_order(self):
        report = family_report(1944)  # 2^3 * 3^5: refused at 2 only
        assert report.degree is None
        assert [(e.p, e.group) for e in report.locals] == [(2, None), (3, G.DIC3)]
        assert report.local_at(2).provenance.startswith("v2(s) = 3")
        assert report.local_at(3).provenance == "family-table-3"

    def test_partial_refusal_keeps_resolved_primes(self):
        report = family_report(8 * 19)  # = -1 mod 9
        assert report.degree is None
        assert report.local_at(2).group is None
        assert report.local_at(3).group is G.C4
        assert report.local_at(19).group is G.C6

    def test_semistability_degree_raises_first_refusal(self):
        with pytest.raises(NotTabulatedError) as exc:
            semistability_degree(1944)
        assert str(exc.value) == family_report(1944).local_at(2).provenance

    def test_reports_build_no_exception(self, monkeypatch):
        # A refusal is a value from the rule that refuses: the reports carry
        # it as an entry and construct no NotTabulatedError; only the
        # one-answer functions raise one.
        made = []

        class Counted(NotTabulatedError):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr("semistab.monodromy.NotTabulatedError", Counted)
        refused = [
            s for s in range(700_000, 700_100)
            if family_report(s).local_at(2).group is None
        ]
        assert len(refused) == 11
        rng = random.Random(4000)
        at = {2: 0, 3: 0}
        while min(at.values()) < 30:
            a = [rng.randint(-3, 3) for _ in range(3)]
            a += [rng.randint(-10**4, 10**4), rng.randint(-10**6, 10**6)]
            try:
                curve = WeierstrassCurve(*a)
            except SingularCurveError:
                continue
            if curve.is_family_form():
                continue
            for entry in curve_report(curve).locals:
                if entry.group is None:
                    at[entry.p] += 1
        assert made == []
        # the patch is in place: a one-answer function constructs one
        with pytest.raises(Counted):
            semistability_degree(refused[0])
        assert len(made) == 1

    def test_curve_report_omits_trivial_primes(self):
        # delta = -368 = -2^4 * 23: refused at 2, multiplicative at 23.
        report = curve_report(WeierstrassCurve(0, 0, 0, -1, 1))
        assert report.s is None
        assert report.degree is None
        assert [e.p for e in report.locals] == [2]

    def test_curve_report_family_form(self):
        assert curve_report(family_curve(4)) == family_report(4)

    def test_curve_report_refuses_non_integral_model(self):
        # delta = -433 is an integer, but the integral model y^2 = x^3 + 4x + 64
        # has v_2(delta) = 12 and no integral model is good at 2 (Kraus).
        curve = WeierstrassCurve(0, 0, 0, Fraction(1, 4), 1)
        assert compute_invariants(curve).delta == -433
        with pytest.raises(InvalidInputError, match="integral model"):
            curve_report(curve)


class TestPhiGeneralCurve:
    def test_tame_good(self):
        result = phi_general_curve(WeierstrassCurve(0, 0, 0, -1, 0), 5)
        assert result.group is G.C1
        assert result.provenance == "good-reduction"

    def test_family_dispatch_consistency(self):
        result = phi_general_curve(family_curve(4), 3)
        assert result.group is phi_family_at_3(4)
        assert result.provenance == "family-table-3"
        result2 = phi_general_curve(family_curve(4), 2)
        assert result2.group is phi_family_at_2(4)
        # A family curve takes the family's rules at every p, whichever entry
        # point is asked: phi_general_curve gives family_report's entry at p,
        # or C1 where the report has none. Where that entry is a refusal,
        # each one-answer function raises it, with its provenance as text.
        refused = 0
        for p in (2, 3, 5, 7, 11):
            for v in range(-12, 13):
                for u in (1, -2, 3, Fraction(-17, 4)):
                    s = u * Fraction(p) ** v
                    curve = family_curve(s)
                    entry = family_report(s).local_at(p)
                    if entry is None:
                        result = phi_general_curve(curve, p)
                        assert result.group is G.C1, (s, p)
                        assert result.provenance == "good-reduction", (s, p)
                    elif entry.group is not None:
                        assert phi_general_curve(curve, p) == entry, (s, p)
                    else:
                        assert p == 2, s  # the rule at 3 answers every v3(s)
                        refused += 1
                        for call in (
                            lambda: phi_general_curve(curve, p),
                            lambda: phi_family_at_2(s),
                            lambda: semistability_degree(s),
                        ):
                            with pytest.raises(NotTabulatedError) as exc:
                                call()
                            assert str(exc.value) == entry.provenance, s
        # v2(s) runs over 25 consecutive values, -12..12 shifted by 0, 1, 0
        # and -2 for the four u; 12 of them are 3..5 mod 6, and 13 for
        # u = -17/4 (-14..10): the other v2(s) take the sextic twist.
        assert refused == 12 + 12 + 12 + 13, refused

    def test_non_family_bad_at_2_refused(self):
        curve = WeierstrassCurve(0, 0, 0, -1, 0)  # delta = 64
        with pytest.raises(NotTabulatedError):
            phi_general_curve(curve, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_non_integral_at_p_refused(self, p):
        curve = WeierstrassCurve(0, 0, 0, Fraction(1, p**2), 1)
        with pytest.raises(InvalidInputError, match=f"not integral at {p}"):
            phi_general_curve(curve, p)

    def test_non_integral_elsewhere_still_resolved(self):
        # integral at 3 with v_3(delta) = v_3(-433) = 0: good reduction there
        curve = WeierstrassCurve(0, 0, 0, Fraction(1, 4), 1)
        assert phi_general_curve(curve, 3).group is G.C1

    def test_tame_provenance(self):
        result = phi_general_curve(family_curve(5), 5)
        assert result.provenance == "tame-rule"
        assert result.group is G.C6
        # delta = -368 = -2^4 * 23, c4 = 48: C1 at 23, but from multiplicative
        # reduction, so from the tame rule and not from good reduction.
        curve = WeierstrassCurve(0, 0, 0, -1, 1)
        assert reduction_class_at_p(curve, 23) == "multiplicative"
        result = phi_general_curve(curve, 23)
        assert (result.group, result.provenance) == (G.C1, "tame-rule")


class TestTameRefusalContract:
    """What the four per-prime entry points return or raise at 2, 3, 5 and 7
    and at numbers that are not prime, on a short-form, a long-form, a family
    and a non-integral model (a4 = 1/2500, not integral at 2 and 5). A p
    that is not prime is refused alike by all four."""

    MODELS = {
        "short": WeierstrassCurve(0, 0, 0, -1, 0),  # delta = 64
        "long": WeierstrassCurve(-1, 0, 0, 0, 1),  # delta = -433
        "family": family_curve(5 * 7**2),
        "non-integral": WeierstrassCurve(0, 0, 0, Fraction(1, 2500), 1),
    }
    WILD = (
        UnsupportedPrimeError,
        "only p >= 5 supported; reduction at 2 and 3 is handled through the "
        "family's tabulated valuation ranges",
    )
    TABLES_ONLY = (
        NotTabulatedError,
        "monodromy at 2 is tabulated only for family curves y^2 = x^3 + s",
    )
    LONG = (
        InvalidInputError,
        "minimalization implemented for short-form curves only",
    )

    # Outcomes at p = 2, 3, 5, 7: the group label, "label provenance" for
    # phi_general_curve, the class, the steps of minimalize_at_p, or the
    # (type, message) of the refusal.
    OUTCOMES = {
        phi_tame: {
            "short": (WILD, WILD, "C1", "C1"),
            "long": (WILD, WILD, "C1", "C1"),
            "family": (WILD, WILD, "C6", "C3"),
            "non-integral": (WILD, WILD, "C1", "C1"),
        },
        phi_general_curve: {
            "short": (
                TABLES_ONLY,
                "C1 good-reduction",
                "C1 good-reduction",
                "C1 good-reduction",
            ),
            "long": (
                "C1 good-reduction",
                "C1 good-reduction",
                "C1 good-reduction",
                "C1 good-reduction",
            ),
            "family": (
                "C3 family-table-2",
                "Dic3 family-table-3",
                "C6 tame-rule",
                "C3 tame-rule",
            ),
            "non-integral": (
                (
                    InvalidInputError,
                    "curve is not integral at 2; clear denominators first",
                ),
                "C1 good-reduction",
                "C1 good-reduction",
                "C1 good-reduction",
            ),
        },
        reduction_class_at_p: {
            "short": (WILD, WILD, "good", "good"),
            "long": (WILD, WILD, "good", "good"),
            "family": (
                WILD,
                WILD,
                "additive-potentially-good",
                "additive-potentially-good",
            ),
            "non-integral": (WILD, WILD, "good", "good"),
        },
        minimalize_at_p: {
            "short": (WILD, WILD, 0, 0),
            "long": (WILD, WILD, LONG, LONG),
            "family": (WILD, WILD, 0, 0),
            "non-integral": (
                WILD,
                WILD,
                (
                    InvalidInputError,
                    "curve is not integral at 5; clear denominators first",
                ),
                0,
            ),
        },
    }

    @staticmethod
    def outcome(fn, curve, p):
        try:
            value = fn(curve, p)
        except SemistabError as exc:
            return type(exc), str(exc)
        if isinstance(value, MonodromyGroup):
            return value.label
        if isinstance(value, LocalMonodromyResult):
            return f"{value.group.label} {value.provenance}"
        if isinstance(value, tuple):  # minimalize_at_p: (model, steps)
            return value[1]
        return value

    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize(
        "fn", [phi_tame, phi_general_curve, reduction_class_at_p, minimalize_at_p]
    )
    def test_outcomes(self, fn, model):
        curve = self.MODELS[model]
        for p, expected in zip((2, 3, 5, 7), self.OUTCOMES[fn][model]):
            assert self.outcome(fn, curve, p) == expected, (p, expected)
        for p in (4, 25, 1, 0, -5):
            expected = (InvalidInputError, f"{p} is not prime")
            assert self.outcome(fn, curve, p) == expected, p


_CYCLIC = {1: G.C1, 2: G.C2, 3: G.C3, 4: G.C4, 6: G.C6}


def coefficient_rule_class(curve: WeierstrassCurve, p: int) -> tuple[str, int]:
    """Reduction class at p >= 5 of a p-integral curve by a route that shares
    nothing with the library's rule: the short model y^2 = x^3 + A x + B,
    A = -27 c4 and B = -54 c6 (the curve's model with u = 1/6, a unit at p),
    minimalized by its coefficients, min(v_p(A) // 4, v_p(B) // 6) steps over
    the nonzero ones, then classified by the textbook criteria on delta, c4
    and j of that minimal model. Returns (class, v_p(delta_min))."""
    inv = compute_invariants(curve)
    a, b = -27 * inv.c4, -54 * inv.c6
    k = min(valuation(x, p) // w for x, w in ((a, 4), (b, 6)) if x)
    a, b = a / Fraction(p) ** (4 * k), b / Fraction(p) ** (6 * k)
    delta = -16 * (4 * a**3 + 27 * b**2)
    v_delta = valuation(delta, p)
    if v_delta == 0:
        return "good", v_delta
    if a and valuation(a, p) == 0:
        return "multiplicative", v_delta
    if a and valuation((-48 * a) ** 3 / delta, p) < 0:
        return "additive-potentially-multiplicative", v_delta
    return "additive-potentially-good", v_delta


def coefficient_rule_group(curve: WeierstrassCurve, p: int) -> MonodromyGroup:
    """phi_tame by coefficient_rule_class and the order 12 / gcd(v_p(delta_min),
    12)."""
    klass, v_delta = coefficient_rule_class(curve, p)
    if klass in ("good", "multiplicative"):
        return G.C1
    if klass == "additive-potentially-multiplicative":
        return G.C2
    return _CYCLIC[12 // math.gcd(int(v_delta), 12)]


def random_long_form(rng: random.Random, p: int) -> list[int]:
    """Integral coefficients a1, a2, a3, a4, a6 of a long-form model at p:
    a short model y^2 = x^3 + A x + B that is arbitrary, has a node mod p
    (multiplicative) or is a node's twist by p (potentially multiplicative),
    moved by x -> x + r, y -> y + s x + t (u = 1) and then 0..2 steps
    (x, y) -> (p^2 x, p^3 y) further from its minimal model."""
    kind = rng.choice(("any", "node", "twisted node"))
    if kind == "any":
        A = rng.randint(-30, 30) * p ** rng.randrange(0, 6)
        B = rng.randint(-30, 30) * p ** rng.randrange(0, 9)
    else:
        m = rng.randint(1, 9)
        A = -3 * m * m
        B = 2 * m**3 + rng.choice((-1, 1)) * rng.randint(1, 9) * p ** rng.randint(1, 8)
        if kind == "twisted node":
            A, B = A * p**2, B * p**3
    r, s, t = (rng.randint(-9, 9) for _ in range(3))
    k = rng.randrange(0, 3)
    a4, a6 = A + 3 * r * r - 2 * s * t, B + r * A + r**3 - t * t
    a = [2 * s, 3 * r - s * s, 2 * t, a4, a6]
    return [c * p ** (w * k) for c, w in zip(a, (1, 2, 3, 4, 6))]


class TestAnyModelAtTamePrimes:
    def test_long_form_matches_short_model(self):
        rng = random.Random(2400)
        classes = {}
        for _ in range(600):
            p = rng.choice((5, 7, 11, 13))
            a = random_long_form(rng, p)
            try:
                curve = WeierstrassCurve(*a)
            except SingularCurveError:
                continue
            klass, _ = coefficient_rule_class(curve, p)
            group = coefficient_rule_group(curve, p)
            assert reduction_class_at_p(curve, p) == klass, (a, p)
            assert phi_tame(curve, p) is group, (a, p)
            assert phi_general_curve(curve, p).group is group, (a, p)
            entry = curve_report(curve).local_at(p)
            assert (G.C1 if entry is None else entry.group) is group, (a, p)
            classes[klass] = classes.get(klass, 0) + 1
        assert len(classes) == 4 and min(classes.values()) > 50, classes

    def test_invariant_under_powers_of_p(self):
        # (x, y) -> (u^2 x, u^3 y) with u = p^k divides a_i by u^i: the same
        # curve, so the same answers, on models that are not minimal (k < 0)
        # or not integral (k > 0) at p; family-form models included, which
        # phi_general_curve sends to phi_tame like any other model.
        rng = random.Random(2401)
        for _ in range(300):
            p = rng.choice((5, 7, 11, 13))
            a = random_long_form(rng, p)
            if rng.random() < 0.25:
                a[:4] = [0, 0, 0, 0]
            elif rng.random() < 0.3:
                a[:3] = [0, 0, 0]
            try:
                curve = WeierstrassCurve(*a)
            except SingularCurveError:
                continue
            klass, _ = coefficient_rule_class(curve, p)
            group = coefficient_rule_group(curve, p)
            general = phi_general_curve(curve, p)
            assert general.group is group, (a, p)
            for k in range(-2, 3):
                u = Fraction(p) ** k
                scaled = WeierstrassCurve(
                    *(c / u**w for c, w in zip(a, (1, 2, 3, 4, 6)))
                )
                assert reduction_class_at_p(scaled, p) == klass, (a, p, k)
                assert phi_tame(scaled, p) is group, (a, p, k)
                assert phi_general_curve(scaled, p) == general, (a, p, k)


def curve_report_answer(curve: WeierstrassCurve, p: int) -> MonodromyGroup | None:
    """curve_report's group at p: C1 where it has no entry, None where it
    refuses p."""
    entry = curve_report(curve).local_at(p)
    return G.C1 if entry is None else entry.group


class TestIsogenyAndTwistOracles:
    """phi_tame at p >= 5, and curve_report at 2 and 3 wherever both curves
    answer, against the 2-isogeny and quadratic twist of curve_oracles. The
    curves are made bad at primes of TAME_PRIME_POOL, and every prime of the
    pool is checked."""

    def test_two_isogenous_curves_agree(self, rng):
        orders, compared = set(), 0
        for _ in range(300):
            p, q = rng.sample(TAME_PRIME_POOL, 2)
            a = rng.randint(-9, 9) * p ** rng.randrange(0, 5)
            b = rng.choice((-1, 1)) * rng.randint(1, 9) * p ** rng.randrange(0, 9)
            b *= q ** rng.randrange(0, 3)
            if a * a == 4 * b:
                continue
            curve, isogenous = (WeierstrassCurve(*x) for x in two_isogenous(a, b))
            for ell in TAME_PRIME_POOL:
                group = phi_tame(curve, ell)
                assert phi_tame(isogenous, ell) is group, (a, b, ell)
                orders.add(group.order)
        # A rational 2-torsion point leaves inertia no element of order 3.
        assert orders == {1, 2, 4}, orders
        # curve_report factorizes the discriminant: small coefficients here.
        # Both curves are refused at 2 (16 | delta) and answer at 3 when good.
        for a in range(-6, 7):
            for b in range(-6, 7):
                if b == 0 or a * a == 4 * b:
                    continue
                curve, isogenous = (WeierstrassCurve(*x) for x in two_isogenous(a, b))
                for ell in (2, 3):
                    group = curve_report_answer(curve, ell)
                    other = curve_report_answer(isogenous, ell)
                    if group is not None and other is not None:
                        assert group is other, (a, b, ell)
                        compared += 1
        assert compared > 50, compared

    def test_twists(self, rng):
        ramified, compared = set(), {2: 0, 3: 0}
        for _ in range(400):
            p = rng.choice(TAME_PRIME_POOL)
            if rng.random() < 0.5:
                a = tuple(random_long_form(rng, p))
            else:
                s = rng.choice((-1, 1)) * rng.randint(1, 30) * p ** rng.randrange(0, 12)
                s *= 2 ** rng.randrange(0, 3) * 3 ** rng.randrange(0, 5)
                a = (0, 0, 0, 0, s)
            # squarefree: p itself half the time, so ramified at p
            primes = rng.sample([ell for ell in TAME_PRIME_POOL if ell != p], 2)
            d = rng.choice((-1, 1)) * math.prod(primes[: rng.randrange(0, 3)])
            d *= p if rng.random() < 0.5 else 1
            try:
                curve = WeierstrassCurve(*a)
            except SingularCurveError:
                continue
            twist = WeierstrassCurve(*quadratic_twist(a, d))
            for ell in TAME_PRIME_POOL:
                group, twisted = phi_tame(curve, ell), phi_tame(twist, ell)
                if unramified_at(d, ell):
                    assert twisted is group, (a, d, ell)
                else:
                    assert twisted.order == RAMIFIED_TWIST[group.order], (a, d, ell)
                    ramified.add((group.order, twisted.order))
            # Other models answer at 2 and 3 only where good, which the c4, c6
            # model of their twist never is there.
            if not curve.is_family_form():
                continue
            for ell in (2, 3):
                if not unramified_at(d, ell):
                    continue
                group = curve_report_answer(curve, ell)
                other = curve_report_answer(twist, ell)
                if group is not None and other is not None:
                    assert group is other, (a, d, ell)
                    compared[ell] += 1
        assert ramified == set(RAMIFIED_TWIST.items()), ramified
        assert min(compared.values()) > 20, compared

    def test_three_isogeny_formula_by_point_counts(self, rng):
        # Isogenous curves have as many points over F_p at every good prime
        # p, and the rational 3-torsion point makes that a multiple of 3.
        primes = [p for p in range(5, 60) if all(p % q for q in range(2, p))]
        compared = 0
        for _ in range(40):
            a1, a3 = rng.randint(-30, 30), rng.randint(-30, 30)
            if a3 == 0 or a1**3 == 27 * a3:
                continue
            curve, isogenous = three_isogenous(a1, a3)
            for p in primes:
                if discriminant(curve) % p == 0:
                    continue
                count = count_points(curve, p)
                assert count_points(isogenous, p) == count, (a1, a3, p)
                assert count % 3 == 0 and (p + 1 - count) ** 2 <= 4 * p
                compared += 1
        assert compared > 400, compared

    def test_three_isogenous_curves_agree(self, rng):
        # A rational 3-torsion point is fixed by inertia, and an element of
        # order 2, 4 or 6 of Phi_p fixes no point of E[3]: the orders are 1
        # and 3, and a twist reaches 2 and 6.
        orders = {"curves": set(), "twists": set()}
        for _ in range(300):
            p, q = rng.sample(TAME_PRIME_POOL, 2)
            a1 = rng.randint(-9, 9) * p ** rng.randrange(0, 3)
            a3 = rng.choice((-1, 1)) * rng.randint(1, 9) * p ** rng.randrange(0, 6)
            a3 *= q ** rng.randrange(0, 2)
            if a1**3 == 27 * a3:
                continue
            # squarefree: p itself half the time, so ramified at p
            others = [ell for ell in TAME_PRIME_POOL if ell != p]
            d = rng.choice((-1, 1)) * math.prod(rng.sample(others, rng.randrange(0, 3)))
            d *= p if rng.random() < 0.5 else 1
            pair = three_isogenous(a1, a3)
            twists = tuple(quadratic_twist(a, d) for a in pair)
            # Every prime >= 5 of the four discriminants divides a3 * b * d,
            # whose factors stay small.
            b = a1**3 - 27 * a3
            assert [discriminant(a) for a in pair] == [a3**3 * b, a3 * b**3]
            assert [discriminant(a) for a in twists] == [
                6**12 * d**6 * discriminant(a) for a in pair
            ]
            primes = factorize(a3) | factorize(b) | factorize(d)
            curves = [WeierstrassCurve(*a) for a in pair + twists]
            for ell in filter(lambda ell: ell >= 5, primes):
                group, isogenous, twist, twisted_isogenous = (
                    phi_tame(curve, ell) for curve in curves
                )
                assert isogenous is group, (a1, a3, ell)
                assert twisted_isogenous is twist, (a1, a3, d, ell)
                if unramified_at(d, ell):
                    assert twist is group, (a1, a3, d, ell)
                else:
                    assert twist.order == RAMIFIED_TWIST[group.order], (a1, a3, d, ell)
                orders["curves"].add(group.order)
                orders["twists"].add(twist.order)
        assert orders == {"curves": {1, 3}, "twists": {1, 2, 3, 6}}, orders
        # curve_report factorizes the discriminant: small coefficients here.
        compared = {2: 0, 3: 0}
        for a1 in range(-9, 10):
            for a3 in range(-9, 10):
                if a3 == 0 or a1**3 == 27 * a3:
                    continue
                curve, isogenous = (
                    WeierstrassCurve(*a) for a in three_isogenous(a1, a3)
                )
                for ell in (2, 3):
                    group = curve_report_answer(curve, ell)
                    other = curve_report_answer(isogenous, ell)
                    if group is not None and other is not None:
                        assert group is other, (a1, a3, ell)
                        compared[ell] += 1
        assert min(compared.values()) > 50, compared


def valuation_route_family_report(s: Fraction):
    """family_report by the route it took before bad_primes returned v_p(s):
    the bad primes from both factorizations' exponents, then valuation(s, p)
    again for every tame prime. Returns (p, group, provenance) per bad prime
    and the degree."""
    exponents = factorize(s.numerator) | factorize(s.denominator)
    locals_ = []
    for p in sorted({2, 3} | {p for p, e in exponents.items() if e % 6}):
        if p in (2, 3):
            phi = phi_family_at_2 if p == 2 else phi_family_at_3
            try:
                group, provenance = phi(s), f"family-table-{p}"
            except NotTabulatedError as exc:
                group, provenance = None, str(exc)
        else:
            group = _CYCLIC[6 // math.gcd(int(valuation(s, p)), 6)]
            provenance = "good-reduction" if group is G.C1 else "tame-rule"
        locals_.append((p, group, provenance))
    if any(group is None for _, group, _ in locals_):
        return locals_, None
    return locals_, math.lcm(*(group.order for _, group, _ in locals_))


def profile_route_tame_group(curve: WeierstrassCurve, p: int) -> MonodromyGroup:
    """phi_tame on the model minimalized at p, by a second route: the public
    reduction_class_at_p, then the order 12 / gcd(v_p(delta_min), 12) with
    v_p(delta_min) from compute_invariants."""
    minimal, _ = minimalize_at_p(curve, p)
    klass = reduction_class_at_p(minimal, p)
    if klass in ("good", "multiplicative"):
        return G.C1
    if klass == "additive-potentially-multiplicative":
        return G.C2
    v_delta = valuation(compute_invariants(minimal).delta, p)
    return _CYCLIC[12 // math.gcd(int(v_delta), 12)]


def trial_division(n: int) -> dict[int, int]:
    """{p: e} for |n| >= 1, by trial division alone (no arith)."""
    n, factors, d = abs(n), {}, 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def count_calls(monkeypatch, originals: dict) -> dict[str, int]:
    """{name: calls}, counting from 0 the calls of each function of
    originals through every semistab module that binds it under its name."""
    calls = dict.fromkeys(originals, 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != "semistab":
            continue
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    return calls


class TestOneFactorizationRoutes:
    def _family_parameters(self):
        rng = random.Random(20250)
        for n in range(1, 20_001):
            yield Fraction(n)
            yield Fraction(-n)
        for _ in range(2_000):
            num = rng.choice((-1, 1)) * rng.randint(1, 10**7)
            yield Fraction(num, rng.randint(1, 10**5))
        # every v2, v3 stratum, tabulated and refused, negative ones included
        for a in range(-12, 13):
            for b in range(-12, 13):
                for u in (1, 5, 7, 11):
                    s = Fraction(2) ** a * Fraction(3) ** b * u
                    yield s
                    yield -s

    def test_family_report_matches_valuation_route(self):
        for s in self._family_parameters():
            report = family_report(s)
            locals_, degree = valuation_route_family_report(s)
            assert [(e.p, e.group, e.provenance) for e in report.locals] == locals_, s
            assert report.degree == degree, s

    def test_family_report_computes_no_valuation(self, monkeypatch):
        # bad_primes reads v_p(s) off its factorization; every per-prime rule
        # takes that v instead of calling valuation again.
        calls = []

        def counted(x, p):
            calls.append((x, p))
            return valuation(x, p)

        monkeypatch.setattr("semistab.monodromy.valuation", counted)
        rng = random.Random(1500)
        params = [Fraction(sign * n) for n in range(1, 2_001) for sign in (1, -1)]
        params += [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**7), rng.randint(1, 10**5))
            for _ in range(500)
        ]
        for s in params:
            family_report(s)
        assert calls == []
        # the public rules still compute their own valuation
        phi_family_at_2(12)
        phi_family_at_3(12)
        assert calls == [(12, 2), (12, 3)]

    def test_curve_report_tests_no_prime_of_delta_again(self, monkeypatch):
        # factorize settles the primes of delta; curve_report reads v_p(delta)
        # at p >= 5 with no second Miller-Rabin. A p that a caller names is
        # still tested.
        curve = WeierstrassCurve(0, 0, 0, -123457, 987654331)
        # -2^4 5^2 11 19 53 107 131 6783164363: the last is the only piece
        # factorize itself hands to is_prime
        delta = curve.invariants.delta.numerator
        is_prime = semistab.arith.is_prime
        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(semistab.arith, "is_prime", counted)
        factorize(delta)
        assert calls == [6783164363]
        calls.clear()
        curve_report(curve)
        assert [p for p in calls if p >= 5] == [6783164363]
        calls.clear()
        assert phi_general_curve(curve, 6783164363).group is MonodromyGroup.C1
        assert calls == [6783164363]

    def test_curve_command_computes_no_valuation(self, monkeypatch):
        # curve --a on seeded short-form models reads v_p(delta) off the one
        # factorization of delta: no valuation call, and no primality test
        # beyond those factorize makes.
        calls = count_calls(monkeypatch, {
            "valuation": semistab.arith.valuation,
            "is_prime": semistab.arith.is_prime,
        })
        rng = random.Random(7)
        models = 0
        while models < 200:
            a4, a6 = rng.randint(-10**6, 10**6), rng.randint(-10**9, 10**9)
            if not 4 * a4**3 + 27 * a6**2:
                continue
            models += 1
            factorize(-16 * (4 * a4**3 + 27 * a6**2))
            in_factorize, calls["is_prime"] = calls["is_prime"], 0
            assert main(["curve", f"--a=0,0,0,{a4},{a6}", "--json"]) in (0, 3)
            assert calls == {"valuation": 0, "is_prime": in_factorize}, (a4, a6)
            calls["is_prime"] = 0
        # the wrappers are in place: a p that a caller names is tested
        semistab.arith.valuation(12, 5)
        assert calls == {"valuation": 1, "is_prime": 1}

    def test_sweep_computes_no_valuation_and_no_cover(self, monkeypatch, tmp_path):
        # A sweep record's ball labels ride on family_report's results, read
        # with the v that bad_primes read: no valuation, cover or locate.
        originals = {
            "valuation": semistab.arith.valuation,
            "locate": semistab.cover.locate,
            "enumerate_cover": semistab.cover.enumerate_cover,
        }
        calls = count_calls(monkeypatch, originals)
        out = str(tmp_path / "sweep.jsonl")
        assert main(["sweep", "--from", "700000", "--to", "700099", "--out", out]) == 0
        assert calls == dict.fromkeys(originals, 0)
        # the wrappers are in place: the cover's own route is counted
        semistab.cover.locate(10, semistab.cover.enumerate_cover(3, (0, 4)))
        assert calls["locate"] == calls["enumerate_cover"] == 1
        assert calls["valuation"] > 0

    def test_ball_matches_locate_route(self):
        # The route sweep took before the ball rode on the local results:
        # locate on the full cover at p, None where locate refuses s.
        covers = {
            p: enumerate_cover(p, (0, len(rows) - 1))
            for p, rows in FAMILY_TABLES.items()
        }
        for s in self._family_parameters():
            report = family_report(s)
            for p, cover in covers.items():
                # a stratum v >= 6 is the stratum v mod 6 scaled by
                # p^(v - v mod 6), the same curve; a negative one has no ball
                v = valuation(s, p)
                shift = v - v % 6 if v >= 6 else 0
                try:
                    ball = locate(s / p**shift, cover)
                except NotTabulatedError:
                    expected = None
                else:
                    assert ball.contains(s / p**shift), (s, p)
                    expected = (ball.center * p**shift, ball.modulus_exponent + shift)
                    assert PadicBall(p, *expected, ball.group).contains(s), (s, p)
                assert report.local_at(p).ball == expected, (s, p)
            assert all(e.ball is None for e in report.locals if e.p not in covers)

    def test_bad_primes_carry_signed_valuations(self):
        rng = random.Random(6)
        for _ in range(500):
            s = Fraction(
                rng.choice((-1, 1)) * rng.randint(1, 10**6) * 5 ** rng.randrange(0, 13),
                rng.randint(1, 10**4) * 7 ** rng.randrange(0, 13),
            )
            primes = bad_primes(s)
            assert list(primes) == sorted(primes)
            assert primes == {p: valuation(s, p) for p in primes}, s

    def test_bad_primes_match_trial_division_oracle(self):
        # {2, 3} and every p >= 5 with v_p(s) != 0 mod 6, in prime order,
        # each with the signed v_p(s); num and den factorized here by trial
        # division, s = u 5^a / (w 7^b) before any cancellation.
        rng = random.Random(32)
        cases = [(n, 1) for n in range(-20_000, 20_001) if n]
        for _ in range(2_000):
            num = rng.choice((-1, 1)) * rng.randint(1, 10**6) * 5 ** rng.randrange(0, 13)
            cases.append((num, rng.randint(1, 10**4) * 7 ** rng.randrange(0, 13)))
        for num, den in cases:
            signed: dict[int, int] = {}
            for n, sign in ((num, 1), (den, -1)):
                for p, e in trial_division(n).items():
                    signed[p] = signed.get(p, 0) + sign * e
            keys = sorted({2, 3} | {p for p, v in signed.items() if p >= 5 and v % 6})
            expected = [(p, signed.get(p, 0)) for p in keys]
            assert list(bad_primes(Fraction(num, den)).items()) == expected, (num, den)

    def test_curve_report_matches_phi_general_curve(self):
        # The two callers of the one per-prime rule for a model not of family
        # form: curve_report, on the exponents of its factorization of delta,
        # and phi_general_curve, on its own valuation. At every p | delta,
        # 2 and 3 included, the whole entry agrees, provenance and refusal
        # text too; C1 is left out of the report.
        rng = random.Random(3800)
        primes = {2: 0, 3: 0, 5: 0}
        for n in range(400):
            if n % 2:
                a = random_long_form(rng, rng.choice((5, 7, 11, 13)))
            else:
                # short form when 4 | n, else small a1, a2, a3
                head = [rng.randint(-3, 3) for _ in range(3)] if n % 4 else [0, 0, 0]
                a = head + [rng.randint(-10**4, 10**4), rng.randint(-10**6, 10**6)]
            try:
                curve = WeierstrassCurve(*a)
            except SingularCurveError:
                continue
            if curve.is_family_form():
                continue
            report = curve_report(curve)
            for p in factorize(curve.invariants.delta.numerator):
                try:
                    expected = phi_general_curve(curve, p)
                except NotTabulatedError as exc:
                    expected = LocalMonodromyResult(p, None, str(exc))
                if expected.group is G.C1:
                    assert report.local_at(p) is None, (a, p)
                else:
                    assert report.local_at(p) == expected, (a, p)
                primes[min(p, 5)] += 1
        assert min(primes.values()) > 50, primes

    def test_curve_report_matches_profile_route(self):
        rng = random.Random(1300)
        not_minimal = 0
        for _ in range(300):
            # k minimalization steps at p on top of a model with v_p(a4) < 4
            # or v_p(a6) < 6; the discriminant's cofactor stays below 2^53.
            p = rng.choice((5, 7, 11, 13))
            k = rng.randrange(0, 3)
            while True:
                a4 = rng.choice((-1, 1)) * rng.randint(1, 30) * p ** (4 * k + rng.randrange(0, 4))
                a6 = rng.choice((-1, 1, 0)) * rng.randint(1, 30) * p ** (6 * k + rng.randrange(0, 6))
                if 4 * a4**3 + 27 * a6**2:
                    break
            curve = WeierstrassCurve(0, 0, 0, a4, a6)
            report = curve_report(curve)
            for q in (5, 7, 11, 13):
                not_minimal += minimalize_at_p(curve, q)[1] > 0
                entry = report.local_at(q)
                got = G.C1 if entry is None else entry.group
                assert got is profile_route_tame_group(curve, q), (a4, a6, q)
        assert not_minimal >= 50

