import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab.arith import INFINITY, valuation
from semistab.curves import (
    CurveInvariants,
    WeierstrassCurve,
    compute_invariants,
    family_curve,
    minimalize_at_p,
    reduction_class_at_p,
)
from semistab.errors import (
    InvalidInputError,
    SingularCurveError,
    UnsupportedPrimeError,
)

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


class TestInvariants:
    def test_family_s1(self):
        inv = compute_invariants(family_curve(1))
        assert inv.c4 == 0
        assert inv.c6 == -864
        assert inv.delta == -432
        assert inv.j == 0

    def test_j_1728_curve(self):
        inv = compute_invariants(WeierstrassCurve(0, 0, 0, -1, 0))
        assert inv.c4 == 48
        assert inv.c6 == 0
        assert inv.delta == 64
        assert inv.j == 1728
        assert 1728 * 64 == 48**3

    def test_family_s4(self):
        inv = compute_invariants(family_curve(4))
        assert inv.delta == -6912 == -(2**8) * 3**3

    def test_singular_rejected(self):
        with pytest.raises(SingularCurveError):
            family_curve(0)
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(0, 0, 0, 0, 0)

    @given(
        a1=rationals, a2=rationals, a3=rationals, a4=rationals, a6=rationals
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_identities(self, a1, a2, a3, a4, a6):
        try:
            curve = WeierstrassCurve(a1, a2, a3, a4, a6)
        except SingularCurveError:
            return
        inv = compute_invariants(curve)
        assert 1728 * inv.delta == inv.c4**3 - inv.c6**2
        assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4**2
        assert inv.j == inv.c4**3 / inv.delta

    def test_family_closed_forms(self, rng):
        for _ in range(1000):
            s = Fraction(
                rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**4)
            )
            inv = compute_invariants(family_curve(s))
            assert inv.c4 == 0
            assert inv.c6 == -864 * s
            assert inv.delta == -432 * s**2
            assert inv.j == 0


def invariants_by_fractions(a1, a2, a3, a4, a6) -> CurveInvariants:
    """Reference: the b/c invariants, discriminant and j by the textbook
    formulas on Fractions, compute_invariants' former route; raises
    SingularCurveError with its text when delta = 0."""
    a1, a2, a3, a4, a6 = map(Fraction, (a1, a2, a3, a4, a6))
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    if delta == 0:
        raise SingularCurveError(
            "singular curve: " + ",".join(map(str, (a1, a2, a3, a4, a6)))
        )
    return CurveInvariants(
        b2=b2, b4=b4, b6=b6, b8=b8, c4=c4, c6=c6, delta=delta, j=c4**3 / delta
    )


def change_coordinates(a, r, s, t):
    """The coefficients after x -> x + r, y -> y + s x + t (Silverman,
    Table III.1.2 with u = 1); the discriminant is unchanged."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s**2,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r**2 - 2 * s * t,
        a6 + r * a4 + r**2 * a2 + r**3 - t * a3 - t**2 - r * t * a1,
    )


class TestInvariantsOracle:
    """compute_invariants, on the integral model, against the Fraction
    formulas: every field, value and type, and the singular-curve text."""

    @staticmethod
    def coefficient(rng, kind):
        """Zero one time in five, else a signed integer or a rational with
        denominator up to 10^3."""
        if rng.random() < 0.2:
            return 0
        num = rng.randint(-(10 ** rng.randint(1, 8)), 10 ** rng.randint(1, 8))
        return num if kind == "integer" else Fraction(num, rng.randint(1, 1000))

    def test_agrees_with_fraction_formulas(self, rng):
        kinds = dict.fromkeys(["integer", "rational", "singular"], 0)
        for _ in range(6000):
            kind = rng.choice(list(kinds))
            if kind == "singular":
                # y^2 = x^3 + a2 x^2 is singular at the origin (a node, or a
                # cusp at a2 = 0), and stays so under a change of coordinates.
                node = (0, self.coefficient(rng, "rational"), 0, 0, 0)
                a = change_coordinates(
                    node, *(self.coefficient(rng, "rational") for _ in range(3))
                )
            else:
                a = tuple(self.coefficient(rng, kind) for _ in range(5))
            try:
                expected = invariants_by_fractions(*a)
            except SingularCurveError as exc:
                with pytest.raises(SingularCurveError) as got:
                    WeierstrassCurve(*a)
                assert str(got.value) == str(exc)
                kinds[kind] += 1
                continue
            assert kind != "singular", a
            got = compute_invariants(WeierstrassCurve(*a))
            for field in dataclasses.fields(CurveInvariants):
                value = getattr(got, field.name)
                assert type(value) is Fraction, (a, field.name)
                assert value == getattr(expected, field.name), (a, field.name)
            kinds[kind] += 1
        assert min(kinds.values()) > 1800, kinds


class TestMinimalize:
    def test_family_sixth_power_collapses(self):
        minimal, steps = minimalize_at_p(family_curve(5**6), 5)
        assert steps == 1
        assert minimal.a6 == 1

    def test_family_cube_untouched(self):
        curve = family_curve(5**3)
        assert valuation(compute_invariants(curve).delta, 5) == 6
        minimal, steps = minimalize_at_p(curve, 5)
        assert steps == 0
        assert minimal == curve

    def test_good_curve_untouched(self):
        curve = WeierstrassCurve(0, 0, 0, -1, 0)
        minimal, steps = minimalize_at_p(curve, 7)
        assert steps == 0
        assert minimal == curve

    @pytest.mark.parametrize("p", [2, 3])
    def test_wild_primes_rejected(self, p):
        with pytest.raises(UnsupportedPrimeError):
            minimalize_at_p(family_curve(1), p)

    def test_long_form_rejected(self):
        with pytest.raises(InvalidInputError):
            minimalize_at_p(WeierstrassCurve(1, 0, 0, 0, 1), 5)

    def test_idempotent_and_preserves_j(self, rng):
        primes = [5, 7, 11, 13]
        for _ in range(200):
            p = rng.choice(primes)
            a4 = Fraction(rng.randint(-50, 50)) * p ** rng.randrange(0, 9)
            a6 = Fraction(rng.randint(-50, 50)) * p ** rng.randrange(0, 13)
            try:
                curve = WeierstrassCurve(0, 0, 0, a4, a6)
            except SingularCurveError:
                continue
            j_before = compute_invariants(curve).j
            minimal, steps = minimalize_at_p(curve, p)
            assert compute_invariants(minimal).j == j_before
            again, more_steps = minimalize_at_p(minimal, p)
            assert more_steps == 0
            assert again == minimal
            assert valuation(compute_invariants(minimal).delta, p) == valuation(
                compute_invariants(curve).delta, p
            ) - 12 * steps


def minimalize_by_steps(a4: Fraction, a6: Fraction, p: int):
    """Independent oracle: divide (a4, a6) by (p^4, p^6) one step at a time
    while v_p(c4) >= 4, v_p(c6) >= 6 and v_p(delta) >= 12."""
    steps = 0
    while True:
        c4 = -48 * a4
        c6 = -864 * a6
        delta = -16 * (4 * a4**3 + 27 * a6**2)
        if valuation(c4, p) < 4 or valuation(c6, p) < 6 or valuation(delta, p) < 12:
            return a4, a6, steps
        a4 /= p**4
        a6 /= p**6
        steps += 1


def random_coefficient(rng, p: int, max_exponent: int) -> Fraction:
    """Zero one time in ten, else a p-integral rational times p^k."""
    if rng.random() < 0.1:
        return Fraction(0)
    den = rng.randint(1, 30)
    while den % p == 0:
        den = rng.randint(1, 30)
    num = rng.randint(-30, 30) or 1
    return Fraction(num, den) * p ** rng.randrange(0, max_exponent)


class TestMinimalizeOracle:
    def test_agrees_with_step_loop(self, rng):
        checked = 0
        for _ in range(3000):
            p = rng.choice([5, 7, 11, 13])
            a4, a6 = random_coefficient(rng, p, 17), random_coefficient(rng, p, 25)
            try:
                curve = WeierstrassCurve(0, 0, 0, a4, a6)
            except SingularCurveError:
                continue
            minimal, steps = minimalize_at_p(curve, p)
            assert (minimal.a4, minimal.a6, steps) == minimalize_by_steps(
                curve.a4, curve.a6, p
            )
            checked += 1
        assert checked > 2500

    @pytest.mark.parametrize(
        "a4, a6", [(Fraction(1, 5), 1), (1, Fraction(3, 25)), (0, Fraction(1, 5))]
    )
    def test_not_integral_rejected(self, a4, a6):
        with pytest.raises(InvalidInputError, match="not integral at 5"):
            minimalize_at_p(WeierstrassCurve(0, 0, 0, a4, a6), 5)


def profile_by_direct_valuations(curve: WeierstrassCurve, p: int) -> tuple:
    """Independent route: delta, c4, c6 and j each valued directly; returns
    (v_delta, v_c4, v_c6, v_j)."""
    inv = compute_invariants(curve)
    v_j = valuation(inv.j, p) if inv.j != 0 else INFINITY
    return (
        valuation(inv.delta, p),
        valuation(inv.c4, p),
        valuation(inv.c6, p),
        v_j,
    )


def class_by_direct_valuations(curve: WeierstrassCurve, p: int) -> str:
    """reduction_class_at_p by the textbook criteria on the direct valuations
    of a p-integral model, first stepped down one (x, y) -> (p^2 x, p^3 y) at
    a time while it is not minimal at p >= 5 (v_p(c4) >= 4, v_p(c6) >= 6 and
    v_p(delta) >= 12); v_p(j) is the same on every model."""
    v_delta, v_c4, v_c6, v_j = profile_by_direct_valuations(curve, p)
    while v_delta >= 12 and v_c4 >= 4 and v_c6 >= 6:
        v_delta, v_c4, v_c6 = v_delta - 12, v_c4 - 4, v_c6 - 6
    if v_delta == 0:
        return "good"
    if v_c4 == 0:
        return "multiplicative"
    if v_j < 0:
        return "additive-potentially-multiplicative"
    return "additive-potentially-good"


class TestValuationProfileOracle:
    def test_derived_v_j_agrees(self, rng):
        # reduction_class_at_p derives v_p(j) < 0 as 3 v_p(c4) < v_p(delta);
        # the oracle values j itself, and tells a non-minimal model by c6 too.
        kinds = dict.fromkeys(["short", "scaled", "long", "c4=0"], 0)
        for _ in range(2000):
            p = rng.choice([5, 7, 11, 13, 10007])
            kind = rng.choice(list(kinds))
            a = [0, 0, 0, random_coefficient(rng, p, 9), random_coefficient(rng, p, 13)]
            if kind == "scaled":
                # Not minimal at p: k >= 1 steps above the unscaled model,
                # whose class the oracle reads off that model itself.
                k = rng.randint(1, 3)
                a[4] = a[4] or 1
                try:
                    unscaled = class_by_direct_valuations(WeierstrassCurve(*a), p)
                except SingularCurveError:
                    continue
                a[3], a[4] = a[3] * p ** (4 * k), a[4] * p ** (6 * k)
            elif kind == "long":
                a[:3] = [rng.randint(-20, 20) for _ in range(3)]
            elif kind == "c4=0":
                # b2 = b4 = 0, so c4 = 0 and v_p(c4) = v_p(j) = +infinity.
                a[2], a[3] = rng.randint(-20, 20), 0
            try:
                curve = WeierstrassCurve(*a)
            except SingularCurveError:
                continue
            expected = class_by_direct_valuations(curve, p)
            if kind == "scaled":
                v_delta, v_c4, v_c6, _ = profile_by_direct_valuations(curve, p)
                assert v_delta >= 12 and v_c4 >= 4 and v_c6 >= 6, (a, p)
                assert expected == unscaled, (a, p)
            assert reduction_class_at_p(curve, p) == expected, (a, p)
            kinds[kind] += 1
        assert min(kinds.values()) > 400, kinds


class TestReductionClass:
    def test_family_good(self):
        assert reduction_class_at_p(family_curve(1), 5) == "good"

    def test_family_additive_potentially_good(self):
        assert (
            reduction_class_at_p(family_curve(5), 5)
            == "additive-potentially-good"
        )

    def test_multiplicative_witness(self):
        # delta = -368 = -16 * 23, c4 = 48: minimal at 23 with v(c4) = 0.
        curve = WeierstrassCurve(0, 0, 0, -1, 1)
        v_delta, v_c4, _, _ = profile_by_direct_valuations(curve, 23)
        assert v_delta > 0 and v_c4 == 0
        assert reduction_class_at_p(curve, 23) == "multiplicative"

    def test_potentially_multiplicative_witness(self):
        # v_p(j) < 0 with additive reduction: scale a multiplicative curve.
        base = WeierstrassCurve(0, 0, 0, -1, 1)
        scaled = WeierstrassCurve(0, 0, 0, base.a4 * 23**4, base.a6 * 23**6)
        minimal, _ = minimalize_at_p(scaled, 23)
        assert minimal == base  # sanity: scaling is undone by minimalization
        twisted = WeierstrassCurve(0, 0, 0, base.a4 * 23**2, base.a6 * 23**3)
        assert (
            reduction_class_at_p(twisted, 23)
            == "additive-potentially-multiplicative"
        )

    @pytest.mark.parametrize("p", [2, 3])
    def test_wild_primes_rejected(self, p):
        with pytest.raises(UnsupportedPrimeError):
            reduction_class_at_p(family_curve(1), p)

    @pytest.mark.parametrize(
        "a4, a6, minimal_class",
        [
            (0, 5**6, "good"),
            (0, 2 * 5**7, "additive-potentially-good"),
            (5**4, 5**6, "good"),
        ],
    )
    def test_not_minimal_refused(self, a4, a6, minimal_class):
        # One step (x, y) -> (5^2 x, 5^3 y) above a minimal model. Read off
        # this model's own valuations, y^2 = x^3 + 5^6 would look additive,
        # though y^2 = x^3 + 1 is good at 5: the class is the minimal model's.
        curve = WeierstrassCurve(0, 0, 0, a4, a6)
        assert reduction_class_at_p(curve, 5) == minimal_class
        assert reduction_class_at_p(minimalize_at_p(curve, 5)[0], 5) == minimal_class

    def test_family_good_iff_valuation_multiple_of_6(self, rng):
        primes = [5, 7, 11, 13, 17]
        for _ in range(500):
            p = rng.choice(primes)
            k = rng.randrange(0, 13)
            unit = rng.randint(1, 1000)
            while unit % p == 0:
                unit = rng.randint(1, 1000)
            s = Fraction(unit * p**k)
            minimal, _ = minimalize_at_p(family_curve(s), p)
            klass = reduction_class_at_p(minimal, p)
            assert (klass == "good") == (valuation(s, p) % 6 == 0)
