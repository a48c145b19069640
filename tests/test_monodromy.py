import math
import random
from fractions import Fraction

import pytest

from semistab.arith import factorize, residue, valuation
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
    SingularCurveError,
    UnsupportedPrimeError,
)
from semistab.monodromy import (
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
from conftest import TAME_PRIME_POOL

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

    @pytest.mark.parametrize("s", [3**5, 3**7, Fraction(1, 3), Fraction(5, 81)])
    def test_untabulated_valuations(self, s):
        with pytest.raises(NotTabulatedError):
            phi_family_at_3(s)

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
    before FAMILY_TABLES; an oracle for the table's rows."""
    v = valuation(s, 3)
    if v not in range(0, 5):
        raise NotTabulatedError(f"v3(s) = {v} outside tabulated range 0..4")
    if v == 0:
        return G.C4 if residue(s, 9) in (1, 8) else G.DIC3
    if v == 3:
        u = s / Fraction(3) ** v
        return G.C4 if residue(u, 9) in (1, 8) else G.DIC3
    return G.DIC3


def branch_table_at_2(s: Fraction) -> MonodromyGroup:
    """The 2-adic reduction table as the branches phi_family_at_2 held
    before FAMILY_TABLES; an oracle for the table's rows."""
    v = valuation(s, 2)
    if v not in range(0, 3):
        raise NotTabulatedError(f"v2(s) = {v} outside tabulated range 0..2")
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
        values.append(Fraction(odd * 2 ** rng.choice(wanted), den))
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
        assert compared[2] > 1000 and compared[3] > 1000


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

    @pytest.mark.parametrize("p", [2, 3])
    def test_wild_primes_rejected(self, p):
        with pytest.raises(UnsupportedPrimeError):
            phi_tame(family_curve(1), p)

    def test_degree_report_matches_curve_route(self, rng, tabulated_s):
        # The batch path uses a closed form at tame primes; check it against
        # minimalizing the actual curve and applying the tame rule.
        for _ in range(300):
            s = tabulated_s(rng)
            report = semistability_degree(s)
            for entry in report.locals:
                if entry.p < 5:
                    continue
                shift = 6 * (int(valuation(s, entry.p)) // 6)
                curve = family_curve(s / Fraction(entry.p) ** shift)
                assert entry.group is phi_tame(curve, entry.p)

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


class TestReports:
    def test_refusals_are_data_in_prime_order(self):
        report = family_report(1944)  # 2^3 * 3^5
        assert report.degree is None
        assert [(e.p, e.group) for e in report.locals] == [(2, None), (3, None)]
        assert report.local_at(2).provenance.startswith("v2(s) = 3")
        assert report.local_at(3).provenance.startswith("v3(s) = 5")

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


_CYCLIC = {1: G.C1, 2: G.C2, 3: G.C3, 4: G.C4, 6: G.C6}


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
    """phi_tame on the model minimalized at p, by the route it took before
    one valuation profile served both the class and v_p(delta): the public
    reduction_class_at_p, then v_p(delta_min) from compute_invariants."""
    minimal, _ = minimalize_at_p(curve, p)
    klass = reduction_class_at_p(minimal, p)
    if klass in ("good", "multiplicative"):
        return G.C1
    if klass == "additive-potentially-multiplicative":
        return G.C2
    v_delta = valuation(compute_invariants(minimal).delta, p)
    return _CYCLIC[12 // math.gcd(int(v_delta), 12)]


class TestOneFactorizationRoutes:
    def _family_parameters(self):
        rng = random.Random(20250)
        for n in range(1, 20_001):
            yield Fraction(n)
            yield Fraction(-n)
        for _ in range(2_000):
            num = rng.choice((-1, 1)) * rng.randint(1, 10**7)
            yield Fraction(num, rng.randint(1, 10**5))

    def test_family_report_matches_valuation_route(self):
        for s in self._family_parameters():
            report = family_report(s)
            locals_, degree = valuation_route_family_report(s)
            assert [(e.p, e.group, e.provenance) for e in report.locals] == locals_, s
            assert report.degree == degree, s

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

