import itertools
import json
import random

import pytest

import semistab.galois
from semistab.cli import main
from semistab.errors import (
    DisconnectedCoverError,
    InvalidInputError,
    SizeLimitError,
    TheoremViolationError,
)
from semistab.galois import (
    FiniteCover,
    GaloisClosure,
    PermutationGroup,
    Subgroup,
    _element_orders,
    _generator_mapping_search,
    _GroupIndex,
    _indexed,
    _is_abelian,
    classify_point,
    compose,
    enumerate_subgroups,
    fixed_point_check,
    format_cycles,
    galois_closure,
    identity,
    inverse,
    isomorphic,
    parse_cycles,
    perm_order,
)

# Named covers whose deck groups exercise the lemmas; all orders <= 72.
NAMED_COVERS = {
    "C2": FiniteCover(2, ((1, 0),)),
    "C3": FiniteCover(3, ((1, 2, 0),)),
    "S3": FiniteCover(3, ((1, 0, 2), (1, 2, 0))),
    "C4": FiniteCover(4, ((1, 2, 3, 0),)),
    "V4": FiniteCover(4, ((1, 0, 3, 2), (2, 3, 0, 1))),
    "D4": FiniteCover(4, ((1, 2, 3, 0), (0, 3, 2, 1))),
    "A4": FiniteCover(4, ((1, 2, 0, 3), (0, 2, 3, 1))),
    "S4": FiniteCover(4, ((1, 2, 3, 0), (1, 0, 2, 3))),
    "C6": FiniteCover(6, ((1, 2, 3, 4, 5, 0),)),
    "D6": FiniteCover(6, ((1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1))),
    "A5": FiniteCover(5, ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4))),
}
EXPECTED_ORDERS = {
    "C2": 2, "C3": 3, "S3": 6, "C4": 4, "V4": 4, "D4": 8,
    "A4": 12, "S4": 24, "C6": 6, "D6": 12, "A5": 60,
}
# S5 (order 120, 156 subgroups).
S5_COVER = FiniteCover(5, ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)))
# S4 x C2 (order 48, 98 subgroups), acting on six points.
S4XC2_COVER = FiniteCover(
    6, ((1, 0, 2, 3, 4, 5), (2, 3, 4, 5, 0, 1), (2, 3, 0, 1, 4, 5))
)

# A transitive group of order 64 on 8 points, inside a Sylow 2-subgroup of
# S8: 225 subgroups in 16 isomorphism classes. Two pairs of its classes, at
# orders 16 and 32, agree on order, element orders and abelianness, so only
# the generator-mapping search tells the two classes of a pair apart.
ORDER64_GENS = (
    "(1 3)(2 4)(5 7 6 8);(1 3 2 4)(5 7)(6 8);(1 3 2 4)(5 7 6 8);"
    "(1 5)(2 6)(3 7 4 8)"
)
ORDER64_COVER = FiniteCover(
    8, tuple(parse_cycles(g, 8) for g in ORDER64_GENS.split(";"))
)

# `semistab galois --check-all --json` stdout, recorded before the subgroup
# lattice moved to an indexed group (Cayley table and bitmask subgroups).
PINNED_LATTICE_JSON = {
    ("4", "(1 2);(1 2 3 4)"): (
        '{"classes": [{"order": 1, "subgroups": 1}, {"order": 2, '
        '"subgroups": 9}, {"order": 3, "subgroups": 4}, {"order": 4, '
        '"subgroups": 4}, {"order": 4, "subgroups": 3}, {"order": 6, '
        '"subgroups": 4}, {"order": 8, "subgroups": 3}, {"order": 12, '
        '"subgroups": 1}, {"order": 24, "subgroups": 1}], '
        '"classified_subgroups": 30, "deck_group_order": 24, "degree": 4, '
        '"generators": ["(1 2)", "(1 2 3 4)"], "orbit_size": 24, '
        '"subgroup_count": 30}' "\n"
    ),
    ("5", "(1 2 3);(1 2 3 4 5)"): (
        '{"classes": [{"order": 1, "subgroups": 1}, {"order": 2, '
        '"subgroups": 15}, {"order": 3, "subgroups": 10}, {"order": 4, '
        '"subgroups": 5}, {"order": 5, "subgroups": 6}, {"order": 6, '
        '"subgroups": 10}, {"order": 10, "subgroups": 6}, {"order": 12, '
        '"subgroups": 5}, {"order": 60, "subgroups": 1}], '
        '"classified_subgroups": 59, "deck_group_order": 60, "degree": 5, '
        '"generators": ["(1 2 3)", "(1 2 3 4 5)"], "orbit_size": 60, '
        '"subgroup_count": 59}' "\n"
    ),
    ("6", "(1 2);(1 3 5)(2 4 6);(1 3)(2 4)"): (
        '{"classes": [{"order": 1, "subgroups": 1}, {"order": 2, '
        '"subgroups": 19}, {"order": 3, "subgroups": 4}, {"order": 4, '
        '"subgroups": 25}, {"order": 4, "subgroups": 6}, {"order": 6, '
        '"subgroups": 8}, {"order": 6, "subgroups": 4}, {"order": 8, '
        '"subgroups": 12}, {"order": 8, "subgroups": 4}, {"order": 8, '
        '"subgroups": 3}, {"order": 12, "subgroups": 1}, {"order": 12, '
        '"subgroups": 4}, {"order": 16, "subgroups": 3}, {"order": 24, '
        '"subgroups": 1}, {"order": 24, "subgroups": 2}, {"order": 48, '
        '"subgroups": 1}], "classified_subgroups": 98, '
        '"deck_group_order": 48, "degree": 6, "generators": ["(1 2)", '
        '"(1 3 5)(2 4 6)", "(1 3)(2 4)"], "orbit_size": 48, '
        '"subgroup_count": 98}' "\n"
    ),
}
# The same for S5, `--gens '(1 2);(1 2 3 4 5)'`, recorded before isomorphism
# classes were numbered per subgroup and route (b) moved to the conjugates
# of I.
PINNED_S5_JSON = (
    '{"classes": [{"order": 1, "subgroups": 1}, {"order": 2, "subgroups": '
    '25}, {"order": 3, "subgroups": 10}, {"order": 4, "subgroups": 20}, '
    '{"order": 4, "subgroups": 15}, {"order": 5, "subgroups": 6}, {"order": '
    '6, "subgroups": 20}, {"order": 6, "subgroups": 10}, {"order": 8, '
    '"subgroups": 15}, {"order": 10, "subgroups": 6}, {"order": 12, '
    '"subgroups": 10}, {"order": 12, "subgroups": 5}, {"order": 20, '
    '"subgroups": 6}, {"order": 24, "subgroups": 5}, {"order": 60, '
    '"subgroups": 1}, {"order": 120, "subgroups": 1}], '
    '"classified_subgroups": 156, "deck_group_order": 120, "degree": 5, '
    '"generators": ["(1 2)", "(1 2 3 4 5)"], "orbit_size": 120, '
    '"subgroup_count": 156}' "\n"
)
# The same for S6, `--degree 6 --gens '(1 2);(1 2 3 4 5 6)'`, recorded
# before the subgroup lattice was built one conjugacy class at a time and
# route (b)'s cells were kept per conjugacy class.
PINNED_S6_JSON = (
    '{"classes": [{"order": 1, "subgroups": 1}, {"order": 2, '
    '"subgroups": 75}, {"order": 3, "subgroups": 40}, {"order": 4, '
    '"subgroups": 165}, {"order": 4, "subgroups": 90}, {"order": 5, '
    '"subgroups": 36}, {"order": 6, "subgroups": 160}, {"order": 6, '
    '"subgroups": 120}, {"order": 8, "subgroups": 180}, {"order": 8, '
    '"subgroups": 30}, {"order": 8, "subgroups": 45}, {"order": 9, '
    '"subgroups": 10}, {"order": 10, "subgroups": 36}, {"order": 12, '
    '"subgroups": 120}, {"order": 12, "subgroups": 30}, {"order": 16, '
    '"subgroups": 45}, {"order": 18, "subgroups": 40}, {"order": 18, '
    '"subgroups": 10}, {"order": 20, "subgroups": 36}, {"order": 24, '
    '"subgroups": 60}, {"order": 24, "subgroups": 30}, {"order": 36, '
    '"subgroups": 20}, {"order": 36, "subgroups": 10}, {"order": 48, '
    '"subgroups": 30}, {"order": 60, "subgroups": 12}, {"order": 72, '
    '"subgroups": 10}, {"order": 120, "subgroups": 12}, {"order": '
    '360, "subgroups": 1}, {"order": 720, "subgroups": 1}], '
    '"classified_subgroups": 1455, "deck_group_order": 720, "degree": '
    '6, "generators": ["(1 2)", "(1 2 3 4 5 6)"], "orbit_size": 720, '
    '"subgroup_count": 1455}' "\n"
)
# The same for the order-64 group, `--degree 8 --gens ORDER64_GENS`,
# recorded before isomorphism classes looked their representatives up by
# element orders and abelianness.
PINNED_ORDER64_JSON = (
    '{"classes": [{"order": 1, "subgroups": 1}, {"order": 2, "subgroups": '
    '27}, {"order": 4, "subgroups": 61}, {"order": 4, "subgroups": 18}, '
    '{"order": 8, "subgroups": 20}, {"order": 8, "subgroups": 42}, {"order": '
    '8, "subgroups": 15}, {"order": 8, "subgroups": 2}, {"order": 16, '
    '"subgroups": 1}, {"order": 16, "subgroups": 15}, {"order": 16, '
    '"subgroups": 9}, {"order": 16, "subgroups": 6}, {"order": 32, '
    '"subgroups": 3}, {"order": 32, "subgroups": 1}, {"order": 32, '
    '"subgroups": 3}, {"order": 64, "subgroups": 1}], '
    '"classified_subgroups": 225, "deck_group_order": 64, "degree": 8, '
    '"generators": ["(1 3)(2 4)(5 7 6 8)", "(1 3 2 4)(5 7)(6 8)", '
    '"(1 3 2 4)(5 7 6 8)", "(1 5)(2 6)(3 7 4 8)"], "orbit_size": 64, '
    '"subgroup_count": 225}' "\n"
)


def coset_fixed_point_oracle(deck: PermutationGroup, H: Subgroup, I: Subgroup):
    """Independent oracle: does I fix a left coset of H in the deck group?

    Enumerates the cosets gH explicitly and checks i*g in gH for every
    i in I, without any conjugation.
    """
    elements = deck.sorted_elements()
    seen = set()
    cosets = []
    for g in elements:
        coset = frozenset(compose(g, h) for h in H.elements)
        if coset not in seen:
            seen.add(coset)
            cosets.append((g, coset))
    for g, coset in cosets:
        if all(compose(i, g) in coset for i in I.elements):
            return True
    return False


def subgroup_oracle(group: PermutationGroup) -> set[frozenset]:
    """Independent oracle: every subgroup as a join of cyclic subgroups.

    Joins each known subgroup with each cyclic subgroup, closing the union
    of their generators under `compose`, until nothing new appears.
    """
    one = identity(group.degree)

    def generated(gens):
        closed = {one}
        frontier = [one]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = compose(x, g)
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return frozenset(closed)

    generators = {generated((x,)): (x,) for x in group.elements}
    cyclic = [gens[0] for gens in generators.values()]
    frontier = list(generators)
    while frontier:
        nxt = []
        for sub in frontier:
            for x in cyclic:
                if x in sub:
                    continue
                gens = generators[sub] + (x,)
                joined = generated(gens)
                if joined not in generators:
                    generators[joined] = gens
                    nxt.append(joined)
        frontier = nxt
    return set(generators)


def reference_subgroups(group: PermutationGroup) -> list[int]:
    """Every subgroup's bitmask, in enumerate_subgroups order, found by
    extending every known subgroup (not one per conjugacy class) by one
    element per left coset and closing."""
    index = group._index
    trivial = 1 << index.identity
    # subgroup bitmask -> the generators it was closed from
    known: dict[int, list[int]] = {trivial: []}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            gens, members = known[sub], index.members(sub)
            tried = sub
            for x in range(index.order):
                if tried >> x & 1:
                    continue
                tried |= index.mask(index.table[x][h] for h in members)
                extended = index.close(gens + [x])
                if extended not in known:
                    known[extended] = gens + [x]
                    nxt.append(extended)
        frontier = nxt
    return sorted(known, key=lambda mask: (mask.bit_count(), index.members(mask)))


def closed_under_compose(group: PermutationGroup, mask: int) -> bool:
    """Independent oracle for _GroupIndex.is_subgroup: the mask's bits name
    elements of sorted_elements(), include the identity, and the products of
    every pair, taken with `compose`, stay among them. No Cayley table."""
    if mask <= 0 or mask >> group.order:
        return False
    members = {
        x for i, x in enumerate(group.sorted_elements()) if mask >> i & 1
    }
    return identity(group.degree) in members and all(
        compose(a, b) in members for a in members for b in members
    )


def random_transitive_cover(rng, max_degree=6) -> FiniteCover:
    while True:
        n = rng.randrange(2, max_degree + 1)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            perm = list(range(n))
            rng.shuffle(perm)
            gens.append(tuple(perm))
        try:
            return FiniteCover(n, tuple(gens))
        except DisconnectedCoverError:
            continue


def relabelled(cover: FiniteCover, seed: int) -> FiniteCover:
    """The cover with its fiber points renamed by a seeded permutation."""
    perm = list(range(cover.degree))
    random.Random(seed).shuffle(perm)
    renamed = []
    for g in cover.generators:
        image = [0] * cover.degree
        for i, gi in enumerate(g):
            image[perm[i]] = perm[gi]
        renamed.append(tuple(image))
    return FiniteCover(cover.degree, tuple(renamed))


def uncached_isomorphic(a, b) -> bool:
    """The isomorphism test without class numbers: invariants, then the
    generator-mapping search, on the groups' own indexed elements."""
    if a.order != b.order:
        return False
    indexed_a, indexed_b = _indexed(a), _indexed(b)
    if _element_orders(indexed_a) != _element_orders(indexed_b):
        return False
    abelian = _is_abelian(indexed_a)
    if abelian != _is_abelian(indexed_b):
        return False
    return abelian or _generator_mapping_search(indexed_a, indexed_b)


def linear_scan_class_numbers(subs: list[Subgroup]) -> list[int]:
    """Oracle for _GroupIndex.isomorphism_class by a linear scan: each
    subgroup, in order, compared with every earlier representative of its
    order by uncached_isomorphic, and numbered by the first match's mask or
    its own."""
    reps: dict[int, list[Subgroup]] = {}
    numbers = []
    for sub in subs:
        same_order = reps.setdefault(sub.order, [])
        rep = next((r for r in same_order if uncached_isomorphic(sub, r)), None)
        if rep is None:
            same_order.append(sub)
            rep = sub
        numbers.append(rep.mask)
    return numbers


def center_and_squares(sub: Subgroup) -> tuple[int, int]:
    """|Z(H)| and the number of distinct squares in H, with `compose` only:
    two isomorphism invariants that neither element orders nor abelianness
    determine."""
    members = sub.elements
    center = sum(
        all(compose(z, x) == compose(x, z) for x in members) for z in members
    )
    return center, len({compose(x, x) for x in members})


def full_lookup_table(group: PermutationGroup) -> list[list[int]]:
    """Oracle for _GroupIndex's table of a group that is not regular: one
    full-tuple lookup per product, with `compose`."""
    elements = group.sorted_elements()
    number = {x: i for i, x in enumerate(elements)}
    return [[number[compose(a, b)] for b in elements] for a in elements]


def all_pairs_cells(closure: GaloisClosure, I: Subgroup) -> list[Subgroup]:
    """Route (b)'s cells found the direct way: every subgroup H with
    fixed_point_check(H, I), then those with no proper subgroup in the list."""
    with_point = [
        H
        for H in enumerate_subgroups(closure.deck_group)
        if fixed_point_check(closure, H, I)
    ]
    return [
        H
        for H in with_point
        if not any(
            G.mask != H.mask and G.mask | H.mask == H.mask for G in with_point
        )
    ]


# The groups whose every subgroup pair is checked against the direct tests.
LATTICE_COVERS = {
    "S4": NAMED_COVERS["S4"],
    "A5": NAMED_COVERS["A5"],
    "S4xC2": S4XC2_COVER,
}
# LATTICE_COVERS and NAMED_COVERS together.
ALL_COVERS = {**NAMED_COVERS, **LATTICE_COVERS}


class TestPermutationBasics:
    def test_parse_and_format_roundtrip(self):
        perm = parse_cycles("(1 2 3)(4 5)", 6)
        assert perm == (1, 2, 0, 4, 3, 5)
        assert parse_cycles(format_cycles(perm), 6) == perm
        assert format_cycles(identity(4)) == "()"
        assert parse_cycles("", 3) == identity(3)
        assert parse_cycles("1,2", 2) == (1, 0)
        assert parse_cycles("1,2,3", 3) == (1, 2, 0)
        assert parse_cycles("(1 2) (3 4)", 4) == (1, 0, 3, 2)
        assert parse_cycles("()", 3) == identity(3)
        assert parse_cycles("(1)(2 3)", 3) == (0, 2, 1)

    def test_parse_rejects_bad_input(self):
        bad = [
            ("(1 2 9)", 4),
            ("(1 1 2)", 4),
            # Tokens that are not point numbers.
            ("(1 a)", 3),
            ("1,x", 3),
            # Text outside the parentheses.
            ("(1 2 3)(4", 4),
            ("(1 2 3) junk", 4),
            ("((", 3),
            # A point in two cycles: the cycles are not disjoint.
            ("(1 2)(1 2)", 3),
            ("(1 2)x(2 3)", 3),
            ("(1 2)(2 3)", 3),
        ]
        for text, degree in bad:
            with pytest.raises(InvalidInputError):
                parse_cycles(text, degree)

    def test_compose_inverse_order(self):
        a = parse_cycles("(1 2 3)", 4)
        assert compose(a, inverse(a)) == identity(4)
        assert perm_order(a) == 3
        assert perm_order(identity(5)) == 1


class TestGaloisClosure:
    def test_cyclic_cover(self):
        closure = galois_closure(NAMED_COVERS["C3"])
        assert len(closure.orbit) == 3
        assert closure.deck_group.order == 3

    def test_s3_cover(self):
        closure = galois_closure(NAMED_COVERS["S3"])
        assert len(closure.orbit) == 6
        assert closure.deck_group.order == 6

    def test_regular_cover_is_its_own_closure(self):
        # V4 acting on itself: 4 points, group of order 4.
        closure = galois_closure(NAMED_COVERS["V4"])
        assert len(closure.orbit) == 4
        assert closure.deck_group.order == 4
        # Projections are permuted simply transitively by the deck group.
        images = {
            tuple(closure.deck_action_on_fiber(d))
            for d in closure.deck_group.elements
        }
        assert len(images) == 4
        # A transposition of the orbit is no deck element of a regular group.
        with pytest.raises(InvalidInputError, match="not a deck group element"):
            closure.deck_action_on_fiber((1, 0, 2, 3))

    @pytest.mark.parametrize("name", sorted(NAMED_COVERS))
    def test_named_deck_orders(self, name):
        closure = galois_closure(NAMED_COVERS[name])
        assert closure.deck_group.order == EXPECTED_ORDERS[name]
        assert len(closure.orbit) == EXPECTED_ORDERS[name]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedCoverError):
            FiniteCover(4, ((1, 0, 2, 3),))

    def test_transitivity_matches_orbit_walk_with_inverses(self):
        # Seeded generator sets of degree 2..7. About half keep the blocks
        # {0..k-1} and {k..n-1} of a random split, under a random relabelling
        # of the points, so they are not transitive.
        rng = random.Random(20240607)
        verdicts = []
        for _ in range(400):
            n = rng.randrange(2, 8)
            split = rng.randrange(1, n) if rng.random() < 0.5 else n
            relabel = rng.sample(range(n), n)
            gens = []
            for _ in range(rng.randrange(1, 4)):
                block_perm = rng.sample(range(split), split) + rng.sample(
                    range(split, n), n - split
                )
                image = [0] * n
                for i, pi in enumerate(block_perm):
                    image[relabel[i]] = relabel[pi]
                gens.append(tuple(image))
            # The orbit of 0, walked with the generators and their inverses.
            moves = gens + [tuple(sorted(range(n), key=g.__getitem__)) for g in gens]
            reached, frontier = {0}, [0]
            while frontier:
                i = frontier.pop()
                for g in moves:
                    if g[i] not in reached:
                        reached.add(g[i])
                        frontier.append(g[i])
            transitive = len(reached) == n
            verdicts.append(transitive)
            if transitive:
                assert FiniteCover(n, tuple(gens)).generators == tuple(gens)
            else:
                with pytest.raises(DisconnectedCoverError):
                    FiniteCover(n, tuple(gens))
        assert 100 < sum(verdicts) < 300

    def test_non_permutation_generator_rejected(self):
        with pytest.raises(InvalidInputError, match="not a permutation of 0..2"):
            FiniteCover(3, ((0, 0, 1),))

    def test_size_limits(self, monkeypatch):
        monkeypatch.setattr(semistab.galois, "MAX_DEGREE", 2)
        with pytest.raises(SizeLimitError, match="exceeds limit 2$"):
            galois_closure(NAMED_COVERS["C3"])
        monkeypatch.undo()
        monkeypatch.setattr(semistab.galois, "MAX_GROUP_ORDER", 10)
        with pytest.raises(SizeLimitError, match="exceeds limit 10$"):
            galois_closure(NAMED_COVERS["S4"])
        # A group built directly, not by generate, meets the limit wherever
        # its Cayley table would be built.
        s4 = PermutationGroup(4, (), frozenset(itertools.permutations(range(4))))
        for build in (
            lambda: enumerate_subgroups(s4),
            lambda: isomorphic(s4, s4),
            lambda: Subgroup(s4, 1),
        ):
            with pytest.raises(
                SizeLimitError, match="24 exceeds enumeration limit 10$"
            ):
                build()

    def test_random_covers_closure_properties(self, rng):
        for _ in range(200):
            cover = random_transitive_cover(rng)
            closure = galois_closure(cover)
            n = cover.degree
            # Orbit size equals the monodromy group order.
            assert len(closure.orbit) == closure.monodromy_group.order
            assert closure.deck_group.order == len(closure.orbit)
            # Evaluation at the base tuple is a bijection onto the fiber.
            ev = closure.evaluation_map()
            assert sorted(ev.values()) == list(range(n))
            # Deck action on the projections is faithful and transitive.
            fiber_images = [
                closure.deck_action_on_fiber(d)
                for d in closure.deck_group.elements
            ]
            assert len(set(fiber_images)) == closure.deck_group.order
            assert {img[0] for img in fiber_images} == set(range(n))

    @staticmethod
    def right_multiplications(closure, perms):
        """j -> index(orbit[j] * h) for each h, built with `compose`."""
        index = {t: j for j, t in enumerate(closure.orbit)}
        return [
            tuple(index[compose(t, h)] for t in closure.orbit) for h in perms
        ]

    def test_deck_group_is_right_multiplication(self, rng):
        covers = list(NAMED_COVERS.values()) + [S4XC2_COVER]
        covers += [random_transitive_cover(rng, max_degree=5) for _ in range(30)]
        for cover in covers:
            closure = galois_closure(cover)
            deck = closure.deck_group
            assert deck.elements == frozenset(
                self.right_multiplications(
                    closure, closure.monodromy_group.elements
                )
            )
            assert deck.generators == tuple(
                self.right_multiplications(closure, cover.generators)
            )
            assert deck.degree == len(closure.orbit)

    def test_base_point_independence(self, rng):
        for _ in range(20):
            cover = random_transitive_cover(rng, max_degree=5)
            closure = galois_closure(cover)
            sigma = rng.choice(sorted(closure.deck_group.elements))
            # Re-run the orbit construction from a deck translate of the
            # base tuple: same orbit set, hence an isomorphic closure.
            start = closure.orbit[sigma[closure.base_index]]
            orbit = {start}
            frontier = [start]
            while frontier:
                t = frontier.pop()
                for g in cover.generators:
                    image = tuple(g[x] for x in t)
                    if image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            assert orbit == set(closure.orbit)


class TestSubgroupEnumeration:
    def test_cyclic_c6(self):
        deck = galois_closure(NAMED_COVERS["C6"]).deck_group
        subs = enumerate_subgroups(deck)
        assert sorted(s.order for s in subs) == [1, 2, 3, 6]

    def test_s3(self):
        deck = galois_closure(NAMED_COVERS["S3"]).deck_group
        subs = enumerate_subgroups(deck)
        assert sorted(s.order for s in subs) == [1, 2, 2, 2, 3, 6]

    def test_klein_four(self):
        deck = galois_closure(NAMED_COVERS["V4"]).deck_group
        subs = enumerate_subgroups(deck)
        assert sorted(s.order for s in subs) == [1, 2, 2, 2, 4]

    def test_s4_and_a5_counts(self):
        s4 = galois_closure(NAMED_COVERS["S4"]).deck_group
        assert len(enumerate_subgroups(s4)) == 30
        a5 = galois_closure(NAMED_COVERS["A5"]).deck_group
        assert len(enumerate_subgroups(a5)) == 59

    def test_lagrange_and_closure(self):
        deck = galois_closure(NAMED_COVERS["D4"]).deck_group
        for sub in enumerate_subgroups(deck):
            assert deck.order % sub.order == 0
            assert all(
                compose(a, b) in sub.elements
                for a in sub.elements
                for b in sub.elements
            )

    @pytest.mark.parametrize(
        "name, count",
        [("D4", 10), ("A4", 10), ("S4", 30), ("A5", 59), ("S4xC2", 98)],
    )
    def test_agrees_with_join_oracle(self, name, count):
        deck = galois_closure(ALL_COVERS[name]).deck_group
        subs = enumerate_subgroups(deck)
        assert len(subs) == count
        assert {s.elements for s in subs} == subgroup_oracle(deck)
        assert subs == sorted(subs, key=Subgroup.sort_key)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", ["D4", "A4", "D6", "S4"])
    def test_relabelled_agrees_with_join_oracle(self, name, seed):
        deck = galois_closure(relabelled(ALL_COVERS[name], seed)).deck_group
        subs = enumerate_subgroups(deck)
        assert {s.elements for s in subs} == subgroup_oracle(deck)

    def test_equal_groups_keep_their_own_subgroups(self):
        # Two closures of one cover give equal but distinct deck groups;
        # each group's subgroups name that group as their parent.
        first = galois_closure(NAMED_COVERS["S3"]).deck_group
        second = galois_closure(NAMED_COVERS["S3"]).deck_group
        assert first == second and first is not second
        assert all(s.parent is first for s in enumerate_subgroups(first))
        assert all(s.parent is second for s in enumerate_subgroups(second))

    def test_non_subgroup_rejected(self):
        deck = galois_closure(NAMED_COVERS["S3"]).deck_group
        some = next(x for x in deck.elements if perm_order(x) == 3)
        with pytest.raises(InvalidInputError):
            Subgroup(parent=deck, mask=1 << deck.sorted_elements().index(some))

    def test_bad_masks_rejected(self):
        deck = galois_closure(NAMED_COVERS["S3"]).deck_group
        some = next(x for x in deck.elements if perm_order(x) == 3)
        identity_only = 1 << deck.sorted_elements().index(identity(6))
        not_closed = identity_only | 1 << deck.sorted_elements().index(some)
        full = (1 << deck.order) - 1
        for mask in (0, -1, -full, 1 << deck.order, full | 1 << deck.order,
                     not_closed):
            with pytest.raises(InvalidInputError):
                Subgroup(parent=deck, mask=mask)
        assert Subgroup(parent=deck, mask=full).elements == deck.elements
        assert Subgroup(parent=deck, mask=identity_only).order == 1

    @pytest.mark.parametrize("seed", [None, 1, 2])
    @pytest.mark.parametrize("name", sorted(ALL_COVERS))
    def test_per_class_expansion_matches_reference(self, name, seed):
        cover = ALL_COVERS[name]
        if seed is not None:
            cover = relabelled(cover, seed)
        deck = galois_closure(cover).deck_group
        subs = enumerate_subgroups(deck)
        masks = [s.mask for s in subs]
        assert masks == reference_subgroups(deck)
        # The subgroups fall into whole conjugacy classes.
        index = deck._index
        classes: dict[tuple[int, ...], list[int]] = {}
        for mask in masks:
            classes.setdefault(index.conjugates(mask), []).append(mask)
        for conjugates, members in classes.items():
            assert set(members) == set(conjugates)

    def test_normalizer_orbits_match_reference_beyond_named_covers(self, rng):
        # S5, where most subgroups have a proper normalizer, and 30 seeded
        # random covers of degree <= 6. A deck group over order 120 (A6, S6)
        # is replaced by the next draw: the reference walk takes 1-14 s on it.
        decks = [galois_closure(S5_COVER).deck_group]
        while len(decks) < 31:
            deck = galois_closure(random_transitive_cover(rng, 6)).deck_group
            if deck.order <= 120:
                decks.append(deck)
        for deck in decks:
            masks = [s.mask for s in enumerate_subgroups(deck)]
            assert masks == reference_subgroups(deck)

    @pytest.mark.parametrize(
        "cover",
        [NAMED_COVERS["S3"], NAMED_COVERS["D4"], S4XC2_COVER, S5_COVER],
        ids=["S3", "D4", "S4xC2", "S5"],
    )
    def test_is_subgroup_matches_compose_oracle(self, cover):
        deck = galois_closure(cover).deck_group
        index = deck._index
        full = (1 << deck.order) - 1
        subgroup_masks = [s.mask for s in enumerate_subgroups(deck)]
        rng = random.Random(deck.order)
        if deck.order <= 8:
            # Every mask in range, and one past each end of it.
            drawn = list(range(-1, 2**deck.order + 1))
        else:
            drawn = [rng.getrandbits(deck.order) for _ in range(200)]
            drawn += [mask | 1 << index.identity for mask in drawn]
            drawn += [mask ^ 1 << rng.randrange(deck.order) for mask in subgroup_masks]
        out_of_range = [0, -1, -full, 1 << deck.order, full | 1 << deck.order]
        no_identity = [full & ~(1 << index.identity)] + [
            mask & ~(1 << index.identity) for mask in subgroup_masks[1:]
        ]
        for mask in subgroup_masks + drawn + out_of_range + no_identity:
            assert index.is_subgroup(mask) == closed_under_compose(deck, mask)
        assert all(map(index.is_subgroup, subgroup_masks))
        assert not any(map(index.is_subgroup, out_of_range + no_identity))

    @pytest.mark.parametrize(
        "cover",
        [*NAMED_COVERS.values(), S5_COVER, ORDER64_COVER],
        ids=[*NAMED_COVERS, "S5", "order 64"],
    )
    def test_enumerated_masks_pass_compose_oracle(self, cover):
        # The enumeration builds its subgroups without is_subgroup.
        deck = galois_closure(cover).deck_group
        for sub in enumerate_subgroups(deck):
            assert closed_under_compose(deck, sub.mask)

    @pytest.mark.parametrize("name", ["S4xC2", "S5"])
    def test_order_is_size_then_sorted_elements(self, name):
        cover = S4XC2_COVER if name == "S4xC2" else S5_COVER
        subs = enumerate_subgroups(galois_closure(cover).deck_group)
        assert subs == sorted(
            subs, key=lambda s: (len(s.elements), tuple(sorted(s.elements)))
        )


def symmetric_group(n: int) -> PermutationGroup:
    """S_n on n points, built directly: not regular for n >= 3."""
    return PermutationGroup(n, (), frozenset(itertools.permutations(range(n))))


def isomorphism_class_orders(group: PermutationGroup) -> list[tuple[int, int]]:
    """(order, number of subgroups) per isomorphism class, sorted."""
    classes: dict[int, list[int]] = {}
    for sub in enumerate_subgroups(group):
        classes.setdefault(sub.isomorphism_class, []).append(sub.order)
    return sorted((orders[0], len(orders)) for orders in classes.values())


class TestCayleyTable:
    """Both paths of _GroupIndex: a regular group's rows are its element
    tuples, any other group's table is looked up by full tuple."""

    GROUPS = {
        **{name: lambda cover=cover: galois_closure(cover).deck_group
           for name, cover in ALL_COVERS.items()},
        "S4 on 4 points": lambda: symmetric_group(4),
        "S5 on 5 points": lambda: symmetric_group(5),
    }

    NOT_REGULAR = {
        "S4 on 4 points": lambda: symmetric_group(4),
        "S5 on 5 points": lambda: symmetric_group(5),
        "S6 on 6 points": lambda: symmetric_group(6),
        "S6 from (1 2), (1 2 3 4 5 6)": lambda: PermutationGroup.generate(
            [parse_cycles("(1 2)", 6), parse_cycles("(1 2 3 4 5 6)", 6)], 6
        ),
        # Generators that span only C2: the lowest element not reached
        # becomes the next generator.
        "S4 listing one transposition": lambda: PermutationGroup(
            4, ((1, 0, 2, 3),), symmetric_group(4).elements
        ),
    }

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_table_orders_and_inverses(self, name):
        index = self.GROUPS[name]()._index
        elements = index.elements
        assert (index.table is elements) == (name in ALL_COVERS)
        number = {x: i for i, x in enumerate(elements)}
        for a, x in enumerate(elements):
            assert list(index.table[a]) == [
                number[compose(x, y)] for y in elements
            ]
            assert elements[index.inverse[a]] == inverse(x)
        assert index.orders == [perm_order(x) for x in elements]

    @pytest.mark.parametrize("name", sorted(NOT_REGULAR))
    def test_left_multiplications_match_full_lookup(self, name):
        group = self.NOT_REGULAR[name]()
        index = group._index
        assert index.table is not index.elements
        assert [list(row) for row in index.table] == full_lookup_table(group)

    def test_random_groups_match_full_lookup(self, rng):
        # Seeded groups of degree 3..5, transitive or not, that do not act
        # regularly.
        checked = 0
        while checked < 40:
            n = rng.randrange(3, 6)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 4))]
            group = PermutationGroup.generate(gens, n)
            index = group._index
            if index.table is index.elements:
                continue
            assert [list(row) for row in index.table] == full_lookup_table(group)
            checked += 1

    def test_s4_on_4_points_matches_the_deck(self):
        deck = galois_closure(NAMED_COVERS["S4"]).deck_group
        s4 = symmetric_group(4)
        assert len(enumerate_subgroups(s4)) == 30
        assert isomorphism_class_orders(s4) == isomorphism_class_orders(deck)


@pytest.fixture(scope="module")
def s3():
    closure = galois_closure(NAMED_COVERS["S3"])
    return closure, enumerate_subgroups(closure.deck_group)


class TestFixedPointCheck:
    def test_conjugate_order_two_subgroups(self, s3):
        closure, subs = s3
        two = [s for s in subs if s.order == 2]
        assert fixed_point_check(closure, two[0], two[1])

    def test_order_three_in_order_two_fails(self, s3):
        closure, subs = s3
        h2 = next(s for s in subs if s.order == 2)
        i3 = next(s for s in subs if s.order == 3)
        assert not fixed_point_check(closure, h2, i3)

    def test_trivial_subgroup_always_fits(self, s3):
        closure, subs = s3
        trivial = next(s for s in subs if s.order == 1)
        assert all(fixed_point_check(closure, h, trivial) for h in subs)

    def test_subgroups_of_another_group_rejected(self, s3):
        closure, subs = s3
        c6 = galois_closure(NAMED_COVERS["C6"]).deck_group
        other = enumerate_subgroups(c6)[0]
        for H, I in ((subs[0], other), (other, subs[0])):
            with pytest.raises(InvalidInputError, match="subgroups of the deck"):
                fixed_point_check(closure, H, I)

    @pytest.mark.parametrize("name", ["S3", "D4", "A4", "C6", "S4"])
    def test_agrees_with_coset_oracle(self, name):
        closure = galois_closure(NAMED_COVERS[name])
        subs = enumerate_subgroups(closure.deck_group)
        for H, I in itertools.product(subs, repeat=2):
            assert fixed_point_check(closure, H, I) == coset_fixed_point_oracle(
                closure.deck_group, H, I
            )


class TestIsomorphism:
    def test_c4_vs_klein(self):
        c4 = galois_closure(NAMED_COVERS["C4"]).deck_group
        v4 = galois_closure(NAMED_COVERS["V4"]).deck_group
        top_c4 = next(
            s for s in enumerate_subgroups(c4) if s.order == 4
            and s.elements == c4.elements
        )
        top_v4 = next(
            s for s in enumerate_subgroups(v4) if s.elements == v4.elements
        )
        assert not isomorphic(top_c4, top_v4)

    def test_c6_vs_s3(self):
        c6 = galois_closure(NAMED_COVERS["C6"]).deck_group
        s3 = galois_closure(NAMED_COVERS["S3"]).deck_group
        top_c6 = next(
            s for s in enumerate_subgroups(c6) if s.elements == c6.elements
        )
        top_s3 = next(
            s for s in enumerate_subgroups(s3) if s.elements == s3.elements
        )
        assert not isomorphic(top_c6, top_s3)

    def test_nonabelian_cross_group_match(self):
        # S3 itself vs the S3 subgroups of S4.
        s3 = galois_closure(NAMED_COVERS["S3"]).deck_group
        s4 = galois_closure(NAMED_COVERS["S4"]).deck_group
        top_s3 = next(
            s for s in enumerate_subgroups(s3) if s.elements == s3.elements
        )
        six = [s for s in enumerate_subgroups(s4) if s.order == 6]
        assert six and all(isomorphic(s, top_s3) for s in six)

    @pytest.mark.parametrize(
        "a, b, expected",
        [("C4", "V4", False), ("C6", "S3", False), ("A4", "D6", False),
         ("D4", "D4", True)],
    )
    def test_whole_deck_groups(self, a, b, expected):
        deck_a = galois_closure(NAMED_COVERS[a]).deck_group
        deck_b = galois_closure(NAMED_COVERS[b]).deck_group
        assert isomorphic(deck_a, deck_b) is expected
        assert isomorphic(deck_b, deck_a) is expected

    def test_equal_element_orders_differ_in_abelianness(self):
        # The Heisenberg group mod 3, (x, y) -> (x + a, y + b x + c) on F_3^2,
        # and C3^3, both of order 27 on 9 points, have 26 elements of order 3
        # each: only abelianness tells them apart.
        def point(x, y):
            return 3 * (x % 3) + y % 3

        plane = [(x, y) for x in range(3) for y in range(3)]
        heisenberg = PermutationGroup.generate(
            [
                tuple(point(x + 1, y) for x, y in plane),
                tuple(point(x, y + x) for x, y in plane),
            ],
            9,
        )
        c3_cubed = PermutationGroup.generate(
            [parse_cycles(c, 9) for c in ("(1 2 3)", "(4 5 6)", "(7 8 9)")], 9
        )
        assert heisenberg.order == c3_cubed.order == 27
        a, b = _indexed(heisenberg), _indexed(c3_cubed)
        assert _element_orders(a) == _element_orders(b) == [1] + [3] * 26
        assert (_is_abelian(a), _is_abelian(b)) == (False, True)
        assert isomorphic(heisenberg, c3_cubed) is False
        assert isomorphic(c3_cubed, heisenberg) is False

    def test_order_64_classes_need_the_mapping_search(self):
        # Classes with equal order, element orders and abelianness, told
        # apart only by the generator-mapping search; |Z(H)| and the number
        # of squares, computed with `compose`, show that they differ.
        subs = enumerate_subgroups(galois_closure(ORDER64_COVER).deck_group)
        assert len(subs) == 225
        invariants: dict[int, set] = {}
        for sub in subs:
            members = sub.elements
            abelian = all(
                compose(a, b) == compose(b, a) for a in members for b in members
            )
            orders = tuple(sorted(map(perm_order, members)))
            invariants.setdefault(sub.isomorphism_class, set()).add(
                (sub.order, orders, abelian, center_and_squares(sub))
            )
        # Isomorphic subgroups agree on every invariant.
        assert all(len(found) == 1 for found in invariants.values())
        assert len(invariants) == 16
        split: dict[tuple, list] = {}
        for ((order, orders, abelian, extra),) in invariants.values():
            split.setdefault((order, orders, abelian), []).append(extra)
        assert sorted(
            (key[0], sorted(extras)) for key, extras in split.items()
            if len(extras) > 1
        ) == [(16, [(4, 2), (4, 3)]), (32, [(2, 2), (4, 4)])]

    def test_deck_group_vs_its_top_subgroup(self):
        deck = galois_closure(NAMED_COVERS["S3"]).deck_group
        top = next(s for s in enumerate_subgroups(deck) if s.order == deck.order)
        assert isomorphic(deck, top) is True
        assert isomorphic(top, deck) is True

    @pytest.mark.parametrize("name", ["D4", "S4"])
    def test_conjugate_by_matches_compose(self, name):
        # Oracle: every g x g^-1 built with `compose`, numbered in sorted order.
        deck = galois_closure(NAMED_COVERS[name]).deck_group
        number = {x: i for i, x in enumerate(deck.sorted_elements())}
        for sub in enumerate_subgroups(deck):
            expected = set()
            for g in deck.elements:
                g_inv = inverse(g)
                expected.add(sum(
                    1 << number[compose(compose(g, x), g_inv)] for x in sub.elements
                ))
            assert set(deck._index.conjugates(sub.mask)) == expected

    def test_conjugates_are_isomorphic(self):
        deck = galois_closure(NAMED_COVERS["D4"]).deck_group
        for sub in enumerate_subgroups(deck):
            for mask in deck._index.conjugates(sub.mask):
                assert isomorphic(sub, Subgroup(deck, mask))


class TestClassifyPoint:
    @staticmethod
    def class_reps(subs):
        reps = []
        for s in subs:
            if not any(isomorphic(s, r) for r in reps):
                reps.append(s)
        return reps

    def test_s3_examples(self):
        closure = galois_closure(NAMED_COVERS["S3"])
        subs = enumerate_subgroups(closure.deck_group)
        reps = self.class_reps(subs)
        rep_orders = [r.order for r in reps]
        i2 = next(s for s in subs if s.order == 2)
        assert reps[classify_point(closure, i2, reps)].order == 2
        full = next(s for s in subs if s.order == 6)
        assert reps[classify_point(closure, full, reps)].order == 6
        trivial = next(s for s in subs if s.order == 1)
        assert reps[classify_point(closure, trivial, reps)].order == 1
        assert rep_orders == [1, 2, 3, 6]

    @pytest.mark.parametrize("name", ["S3", "D4", "A4", "D6"])
    def test_both_routes_agree_everywhere(self, name):
        closure = galois_closure(NAMED_COVERS[name])
        subs = enumerate_subgroups(closure.deck_group)
        reps = self.class_reps(subs)
        assignment = {}
        for sub in subs:
            assignment[sub.elements] = classify_point(closure, sub, reps)
        # The cells partition the subgroup set.
        assert len(assignment) == len(subs)
        assert set(assignment.values()) <= set(range(len(reps)))
        for i, rep in enumerate(reps):
            cell = [s for s in subs if assignment[s.elements] == i]
            assert all(isomorphic(s, rep) for s in cell)

    def test_reps_of_an_equal_deck_group(self):
        # Representatives (and I) may belong to an equal but distinct deck
        # group object; they classify as the deck group's own do.
        closure = galois_closure(NAMED_COVERS["D4"])
        other = galois_closure(NAMED_COVERS["D4"]).deck_group
        assert other == closure.deck_group and other is not closure.deck_group
        subs = enumerate_subgroups(closure.deck_group)
        other_subs = enumerate_subgroups(other)
        reps = self.class_reps(subs)
        other_reps = self.class_reps(other_subs)
        for sub, other_sub in zip(subs, other_subs):
            expected = classify_point(closure, sub, reps)
            assert classify_point(closure, sub, other_reps) == expected
            assert classify_point(closure, other_sub, other_reps) == expected
            assert classify_point(closure, other_sub, reps) == expected
        with pytest.raises(InvalidInputError):
            classify_point(closure, subs[0], reps + other_reps[:1])

    def test_incomplete_reps_rejected(self):
        closure = galois_closure(NAMED_COVERS["S3"])
        subs = enumerate_subgroups(closure.deck_group)
        trivial = next(s for s in subs if s.order == 1)
        with pytest.raises(InvalidInputError):
            classify_point(closure, trivial, [])
        # I or a representative from another group's lattice
        c6 = galois_closure(NAMED_COVERS["C6"]).deck_group
        other = enumerate_subgroups(c6)[0]
        reps = self.class_reps(subs)
        for I, class_reps in ((other, reps), (trivial, reps + [other])):
            with pytest.raises(InvalidInputError, match="subgroups of the deck"):
                classify_point(closure, I, class_reps)


class TestMaskClassification:
    """The bitmask forms of route (b) and of `isomorphic`, checked on every
    subgroup pair against the direct tests."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", sorted(LATTICE_COVERS))
    def test_point_from_conjugates_of_I(self, name, seed):
        # I lies in a conjugate of H exactly when a conjugate of I lies in H.
        closure = galois_closure(relabelled(LATTICE_COVERS[name], seed))
        deck = closure.deck_group
        subs = enumerate_subgroups(deck)
        for I in subs:
            conjugates = deck._index.conjugates(I.mask)
            for H in subs:
                assert any(c & ~H.mask == 0 for c in conjugates) == (
                    fixed_point_check(closure, H, I)
                )

    @pytest.mark.parametrize("name", sorted(ALL_COVERS))
    def test_cells_match_all_pairs_filter(self, name):
        # Route (b)'s lemma: the minimal subgroups with a point, found the
        # direct way, are the conjugates of I.
        closure = galois_closure(ALL_COVERS[name])
        deck = closure.deck_group
        for I in enumerate_subgroups(deck):
            cells = {H.mask for H in all_pairs_cells(closure, I)}
            assert cells == set(deck._index.conjugates(I.mask))

    @pytest.mark.parametrize("name", ["A5", "S4xC2"])
    def test_isomorphic_matches_uncached(self, name):
        subs = enumerate_subgroups(galois_closure(LATTICE_COVERS[name]).deck_group)
        for a, b in itertools.product(subs, repeat=2):
            assert isomorphic(a, b) == uncached_isomorphic(a, b)

    @pytest.mark.parametrize(
        "cover",
        [LATTICE_COVERS["A5"], S4XC2_COVER, S5_COVER, ORDER64_COVER],
        ids=["A5", "S4xC2", "S5", "order 64"],
    )
    def test_class_numbers_match_linear_scan(self, cover):
        subs = enumerate_subgroups(galois_closure(cover).deck_group)
        numbers = [sub.isomorphism_class for sub in subs]
        assert numbers == linear_scan_class_numbers(subs)

    def test_equal_but_distinct_decks(self):
        first = galois_closure(NAMED_COVERS["S4"]).deck_group
        second = galois_closure(NAMED_COVERS["S4"]).deck_group
        assert first == second and first is not second
        subs_first, subs_second = (
            enumerate_subgroups(first), enumerate_subgroups(second)
        )
        # Number the classes of one parent before mixing the two.
        assert [isomorphic(a, a) for a in subs_first] == [True] * len(subs_first)
        for a, (j, b) in itertools.product(subs_first, enumerate(subs_second)):
            expected = uncached_isomorphic(a, b)
            assert isomorphic(a, b) == isomorphic(b, a) == expected
            # b's twin in the first group is compared by class numbers.
            assert isomorphic(a, subs_first[j]) == expected


class TestConjugationChecks:
    """The orbit-stabilizer check in the enumeration and the class-number
    check in classify_point, against a broken conjugation path."""

    @staticmethod
    def drop_last_conjugate(monkeypatch):
        conjugates = _GroupIndex.conjugates

        def broken(self, mask):
            found = conjugates(self, mask)
            return found[:-1] if len(found) > 1 else found

        monkeypatch.setattr(_GroupIndex, "conjugates", broken)

    @pytest.mark.parametrize(
        "cover", [NAMED_COVERS["S4"], S5_COVER], ids=["S4", "S5"]
    )
    def test_dropped_conjugate_raises(self, monkeypatch, cover):
        deck = galois_closure(cover).deck_group
        self.drop_last_conjugate(monkeypatch)
        with pytest.raises(TheoremViolationError):
            enumerate_subgroups(deck)

    @pytest.mark.parametrize(
        "degree, gens", [("4", "(1 2);(1 2 3 4)"), ("5", "(1 2);(1 2 3 4 5)")]
    )
    def test_dropped_conjugate_exits_internal(self, monkeypatch, capsys, degree, gens):
        self.drop_last_conjugate(monkeypatch)
        argv = ["galois", "--degree", degree, "--gens", gens, "--check-all", "--json"]
        assert main(argv) == 4
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("number", ["fresh", "other class"])
    def test_conjugates_in_different_classes_raise(self, monkeypatch, number):
        closure = galois_closure(NAMED_COVERS["S4"])
        deck = closure.deck_group
        reps = TestClassifyPoint.class_reps(enumerate_subgroups(deck))
        index = deck._index
        # A representative with more than one conjugate, and one of them.
        I = next(rep for rep in reps if len(index.conjugates(rep.mask)) > 1)
        odd_one = next(c for c in index.conjugates(I.mask) if c != I.mask)
        assert classify_point(closure, I, reps) == reps.index(I)
        other = next(rep.isomorphism_class for rep in reps if rep is not I)
        wrong = -1 if number == "fresh" else other
        isomorphism_class = _GroupIndex.isomorphism_class

        def patched(self, mask):
            return wrong if mask == odd_one else isomorphism_class(self, mask)

        monkeypatch.setattr(_GroupIndex, "isomorphism_class", patched)
        with pytest.raises(TheoremViolationError):
            classify_point(closure, I, reps)

    @pytest.mark.parametrize("name", sorted(LATTICE_COVERS))
    def test_normalizer_oracle(self, name):
        # |N_G(H)| counted by composing permutations, not off the table.
        deck = galois_closure(LATTICE_COVERS[name]).deck_group
        for H in enumerate_subgroups(deck):
            members = H.elements
            normalizer = 0
            for g in deck.elements:
                g_inv = inverse(g)
                normalizer += all(
                    compose(compose(g, h), g_inv) in members for h in members
                )
            assert normalizer * len(deck._index.conjugates(H.mask)) == deck.order


class TestGaloisCommand:
    @pytest.mark.parametrize("name", sorted(NAMED_COVERS))
    def test_classes_match_uncached_grouping(self, capsys, name):
        cover = NAMED_COVERS[name]
        reps, counts = [], []
        for sub in enumerate_subgroups(galois_closure(cover).deck_group):
            i = next(
                (i for i, rep in enumerate(reps) if uncached_isomorphic(sub, rep)),
                None,
            )
            if i is None:
                reps.append(sub)
                counts.append(1)
            else:
                counts[i] += 1
        gens = ";".join(format_cycles(g) for g in cover.generators)
        argv = ["galois", "--degree", str(cover.degree), "--gens", gens, "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["classes"] == [
            {"order": rep.order, "subgroups": count}
            for rep, count in zip(reps, counts)
        ]

    @pytest.mark.parametrize("degree, gens", sorted(PINNED_LATTICE_JSON))
    def test_check_all_stdout_pinned(self, capsys, degree, gens):
        argv = ["galois", "--degree", degree, "--gens", gens, "--check-all", "--json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == PINNED_LATTICE_JSON[degree, gens]

    def test_s5_check_all(self, capsys):
        argv = [
            "galois", "--degree", "5", "--gens", "(1 2);(1 2 3 4 5)",
            "--check-all", "--json",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == PINNED_S5_JSON
        data = json.loads(out)
        assert data["deck_group_order"] == 120
        assert data["subgroup_count"] == data["classified_subgroups"] == 156

    def test_s6_check_all(self, capsys):
        argv = [
            "galois", "--degree", "6", "--gens", "(1 2);(1 2 3 4 5 6)",
            "--check-all", "--json",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == PINNED_S6_JSON
        data = json.loads(out)
        assert data["deck_group_order"] == 720
        assert data["subgroup_count"] == data["classified_subgroups"] == 1455

    def test_order_64_check_all(self, capsys):
        argv = [
            "galois", "--degree", "8", "--gens", ORDER64_GENS,
            "--check-all", "--json",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == PINNED_ORDER64_JSON
        data = json.loads(out)
        assert data["subgroup_count"] == data["classified_subgroups"] == 225
        assert len(data["classes"]) == 16
