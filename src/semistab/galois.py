"""Finite connected covers as permutation actions and their Galois closures.

A degree-n connected cover is modeled by a transitive action of finitely
many monodromy generators on the fiber {0..n-1}. Its Galois closure is the
orbit of the base tuple (0,..,n-1) under the diagonal action inside the
n-fold product of the fiber; the deck group is the commuting (right
multiplication) action on that orbit, simply transitive by construction.
It is generated, like every group here, from the right multiplications by
the cover's generators: right multiplication reverses products, so these
generate exactly the right multiplications by the whole monodromy group.

A subgroup is stored once, as an int bitmask over its parent's elements
numbered in sorted order; its permutations are derived from the mask when
first read. Products and inverses of elements, and the conjugates of a
subgroup (_GroupIndex.conjugates, the one conjugation path), are read off
the parent's Cayley table. A deck group acts regularly, so its elements are
numbered by the image of point 0 and its Cayley table is its element list.

The subgroup lattice is built one conjugacy class at a time: only one
representative per class is extended, and the rest of the class comes from
its conjugates (enumerate_subgroups), each new representative checked by
orbit-stabilizer. The classification's covering route rests on a lemma:
the minimal subgroups that contain a conjugate of I are the conjugates of I.
Each gIg^-1 contains itself, its proper subgroups are too small to contain
one, and a subgroup that contains a conjugate c is minimal only if it is c.

The module constants MAX_DEGREE and MAX_GROUP_ORDER bound every closure and
subgroup lattice; past them a SizeLimitError names the limit. They are read
at call time, not bound as defaults.

Points are 0-based internally; cycle notation at the I/O boundary is
1-based.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

from .errors import (
    DisconnectedCoverError,
    InvalidInputError,
    SizeLimitError,
    TheoremViolationError,
)

Perm = tuple[int, ...]

MAX_DEGREE = 10
MAX_GROUP_ORDER = 10_000


# ---------------------------------------------------------------------------
# permutation primitives


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, ai in enumerate(a):
        inv[ai] = i
    return tuple(inv)


def perm_order(a: Perm) -> int:
    order = 1
    seen = [False] * len(a)
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = a[i]
            length += 1
        order = math.lcm(order, length)
    return order


def check_degree(n: int) -> None:
    """Refuse a cover degree over MAX_DEGREE, before anything of size n is built."""
    if n > MAX_DEGREE:
        raise SizeLimitError(f"degree {n} exceeds limit {MAX_DEGREE}")


def check_perm(a, degree: int) -> Perm:
    a = tuple(a)
    if sorted(a) != list(range(degree)):
        raise InvalidInputError(f"{a} is not a permutation of 0..{degree - 1}")
    return a


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based disjoint-cycle notation like '(1 2 3)(4 5)' or '1,2,3'."""
    text = text.strip()
    if not text:
        return identity(degree)
    if "(" in text or ")" in text:
        cycle_re = r"\(([^()]*)\)"
        if re.sub(cycle_re, "", text).strip():
            raise InvalidInputError(f"text outside cycles in {text!r}")
        cycles = re.findall(cycle_re, text)
    else:
        cycles = [text]
    image = list(range(degree))
    moved: set[int] = set()
    for cycle in cycles:
        tokens = [tok for tok in re.split(r"[,\s]+", cycle.strip()) if tok]
        try:
            points = [int(tok) - 1 for tok in tokens]
        except ValueError:
            raise InvalidInputError(f"non-integer point in {text!r}") from None
        if moved.intersection(points) or len(set(points)) != len(points):
            raise InvalidInputError(f"repeated point in {text!r}")
        moved.update(points)
        for pt in points:
            if not 0 <= pt < degree:
                raise InvalidInputError(
                    f"point {pt + 1} outside 1..{degree} in {text!r}"
                )
        for i, pt in enumerate(points):
            image[pt] = points[(i + 1) % len(points)]
    return tuple(image)


def format_cycles(a: Perm) -> str:
    """1-based disjoint-cycle string; '()' for the identity."""
    out = []
    seen = [False] * len(a)
    for start in range(len(a)):
        if seen[start] or a[start] == start:
            seen[start] = True
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(str(i + 1))
            i = a[i]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


# ---------------------------------------------------------------------------
# permutation groups


@dataclass(frozen=True)
class PermutationGroup:
    """A finite permutation group given by its full element set."""

    degree: int
    generators: tuple[Perm, ...]
    elements: frozenset[Perm]

    @classmethod
    def generate(
        cls, generators: list[Perm] | tuple[Perm, ...], degree: int
    ) -> "PermutationGroup":
        gens = tuple(check_perm(g, degree) for g in generators)
        elements = {identity(degree)}
        frontier = [identity(degree)]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = compose(g, x)
                    if y not in elements:
                        elements.add(y)
                        nxt.append(y)
                        if len(elements) > MAX_GROUP_ORDER:
                            raise SizeLimitError(
                                f"group order exceeds limit {MAX_GROUP_ORDER}"
                            )
            frontier = nxt
        return cls(degree=degree, generators=gens, elements=frozenset(elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm: Perm) -> bool:
        return perm in self.elements

    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements)

    @functools.cached_property
    def _index(self) -> "_GroupIndex":
        # Kept on the object, not in a cache keyed by group equality: two
        # equal groups built separately would otherwise compare their full
        # element sets on every lookup and every parent check.
        return _GroupIndex(self)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a parent group, as a bitmask over the parent's element
    numbers (sorted_elements() order), validated to be closed."""

    parent: PermutationGroup
    mask: int

    def __post_init__(self) -> None:
        if not self.parent._index.is_subgroup(self.mask):
            raise InvalidInputError("bitmask is not a subgroup of the parent")

    @functools.cached_property
    def elements(self) -> frozenset[Perm]:
        """The permutations the mask numbers, built on first read."""
        index = self.parent._index
        return frozenset(map(index.elements.__getitem__, index.members(self.mask)))

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def isomorphism_class(self) -> int:
        """The number of the subgroup's isomorphism class among the parent's
        subgroups (_GroupIndex.isomorphism_class)."""
        return self.parent._index.isomorphism_class(self.mask)

    def sort_key(self) -> tuple:
        # Element numbers follow sorted order, so this sorts by order, then
        # by the sorted element tuple.
        return (self.order, self.parent._index.members(self.mask))


class _GroupIndex:
    """A group's elements numbered in sorted order, with a Cayley table.

    table[i][j] is the number of elements[i] * elements[j]. Element subsets
    are int bitmasks over the numbers. A regular group (a deck group) is
    numbered by the image of point 0, so a's tuple is its row: a(b(0)) = a[j]
    for b numbered j. Any other group's |G|^2 table is built by full-tuple
    lookup. Only the subgroup-lattice functions build the index, once per
    group object.
    """

    def __init__(self, group: PermutationGroup) -> None:
        self.group = group
        self.elements = elements = group.sorted_elements()
        self.order = len(elements)
        self.identity = 0  # identity(degree) sorts first
        if [x[0] for x in elements] == list(range(group.degree)):
            self.table = elements
        else:
            number = {x: i for i, x in enumerate(elements)}
            self.table = [
                [number[tuple(map(a.__getitem__, b))] for b in elements]
                for a in elements
            ]
        self.inverse = [row.index(self.identity) for row in self.table]
        # ord(x) steps along row x, through the powers of x to the identity
        self.orders = []
        for x, row in enumerate(self.table):
            power, order = x, 1
            while power != self.identity:
                power, order = row[power], order + 1
            self.orders.append(order)
        self._conjugates: dict[int, tuple[int, ...]] = {}
        # subgroup bitmask -> the number of its isomorphism class
        self._classes: dict[int, int] = {}
        # order -> the classes of that order, as (number, representative's
        # element numbers)
        self._class_reps: dict[int, list[tuple[int, list[int]]]] = {}

    @staticmethod
    def mask(members) -> int:
        mask = 0
        for i in members:
            mask |= 1 << i
        return mask

    @staticmethod
    def members(mask: int) -> list[int]:
        # bin(mask)[:1:-1] lists the bits from the lowest up.
        return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]

    def is_subgroup(self, mask: int) -> bool:
        """Whether the bitmask is a subset of G that contains the identity and
        is closed under products."""
        if mask <= 0 or mask >= 1 << self.order:
            return False
        members = self.members(mask)
        closed = set(members)
        return self.identity in closed and all(
            closed.issuperset(map(self.table[a].__getitem__, members))
            for a in members
        )

    def close(self, gens: list[int]) -> int:
        """The bitmask of the subgroup generated by the numbered elements gens."""
        table = self.table
        closed = {self.identity}
        frontier = [self.identity]
        while frontier:
            row = table[frontier.pop()]
            for g in gens:
                y = row[g]
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
                    # More than half the group generates the whole group.
                    if 2 * len(closed) > self.order:
                        return (1 << self.order) - 1
        return self.mask(closed)

    def conjugates(self, mask: int) -> tuple[int, ...]:
        """The distinct conjugates g H g^-1 of the subgroup H, as bitmasks.

        Every conjugate of H has the same conjugates, so one walk over the
        cosets answers for the whole conjugacy class.
        """
        found = self._conjugates.get(mask)
        if found is None:
            table, members = self.table, self.members(mask)
            tried = 0
            distinct = set()
            for g in range(self.order):
                if tried >> g & 1:
                    continue
                # Every element of the left coset gH conjugates H alike.
                coset = [table[g][h] for h in members]
                tried |= self.mask(coset)
                g_inv = self.inverse[g]
                distinct.add(self.mask(table[x][g_inv] for x in coset))
            found = tuple(sorted(distinct))
            self._conjugates.update(dict.fromkeys(found, found))
        return found

    def isomorphism_class(self, mask: int) -> int:
        """The number of the subgroup's isomorphism class: the bitmask of the
        first subgroup of that class asked about. Two subgroups are
        isomorphic exactly when their numbers are equal.

        Computed on first request, by comparing the subgroup only with the
        earlier class representatives of the same order: element orders,
        abelianness, then the generator-mapping search (_isomorphic_indexed).
        """
        number = self._classes.get(mask)
        if number is None:
            members = self.members(mask)
            reps = self._class_reps.setdefault(len(members), [])
            number = next(
                (
                    rep
                    for rep, rep_members in reps
                    if _isomorphic_indexed((self, members), (self, rep_members))
                ),
                None,
            )
            if number is None:
                number = mask
                reps.append((mask, members))
            self._classes[mask] = number
        return number

    def _check_orbit_stabilizer(self, mask: int, gens: list[int]) -> None:
        """Raise unless |N_G(R)| * |conjugates(R)| = |G| for R = <gens> = mask.

        g normalizes R when g r g^-1 lies in R for each generator r, read off
        the Cayley table and the inverses, not off conjugates.
        """
        table, inverse = self.table, self.inverse
        normalizer = 0
        for row, g_inv in zip(table, inverse):
            for r in gens:
                if not mask >> table[row[r]][g_inv] & 1:
                    break
            else:
                normalizer += 1
        count = len(self.conjugates(mask))
        if normalizer * count != self.order:
            raise TheoremViolationError(
                f"|N_G(R)| = {normalizer} times {count} conjugates of R "
                f"(order {mask.bit_count()}) is not |G| = {self.order}"
            )

    @functools.cached_property
    def subgroups(self) -> "tuple[Subgroup, ...]":
        """Every subgroup, as enumerate_subgroups describes."""
        trivial = 1 << self.identity
        known = {trivial}
        # one subgroup bitmask per conjugacy class -> its generators
        reps: dict[int, list[int]] = {trivial: []}
        frontier = [trivial]
        while frontier:
            nxt = []
            for sub in frontier:
                gens, members = reps[sub], self.members(sub)
                tried = sub
                for x in range(self.order):
                    if tried >> x & 1:
                        continue
                    tried |= self.mask(self.table[x][h] for h in members)
                    extended = self.close(gens + [x])
                    if extended not in known:
                        self._check_orbit_stabilizer(extended, gens + [x])
                        known.update(self.conjugates(extended))
                        reps[extended] = gens + [x]
                        nxt.append(extended)
            frontier = nxt
        subs = [Subgroup(self.group, sub) for sub in known]
        subs.sort(key=Subgroup.sort_key)
        return tuple(subs)


def _indexed(group: Subgroup | PermutationGroup) -> tuple[_GroupIndex, list[int]]:
    """The index a group's elements are numbered in, and their numbers."""
    if isinstance(group, Subgroup):
        index = group.parent._index
        return index, index.members(group.mask)
    index = group._index
    return index, list(range(index.order))


def enumerate_subgroups(group: PermutationGroup) -> list[Subgroup]:
    """All subgroups, by extension one element at a time, one conjugacy
    class at a time.

    Starting from the trivial subgroup, extend one representative H of each
    known conjugacy class by one element x per left coset xH (since
    <H, x> = <H, xh>) and close, until no new subgroup appears. A new
    extension becomes its class's representative, and all its conjugates
    (_GroupIndex.conjugates) join the known subgroups. Every subgroup is
    reached: it is the last link of a chain <x1> < <x1, x2> < ..., and if
    K = <H, x> and R = gHg^-1 is H's representative, then
    gKg^-1 = <R, gxg^-1> comes out of R's expansion, and K is one of its
    conjugates. Each new representative R is checked by orbit-stabilizer,
    |N_G(R)| * |conjugates(R)| = |G|, and TheoremViolationError is raised
    when it fails. Output is deterministic: sorted by order, then by element
    set. A group over MAX_GROUP_ORDER elements (possible only for one built
    directly, not by generate) raises SizeLimitError.
    """
    if group.order > MAX_GROUP_ORDER:
        raise SizeLimitError(
            f"group order {group.order} exceeds enumeration limit "
            f"{MAX_GROUP_ORDER}"
        )
    return list(group._index.subgroups)


# ---------------------------------------------------------------------------
# covers and closures


@dataclass(frozen=True)
class FiniteCover:
    """A degree-n cover: monodromy generators acting transitively on the fiber."""

    degree: int
    generators: tuple[Perm, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise InvalidInputError(
                f"cover degree must be at least 1, got {self.degree}"
            )
        object.__setattr__(
            self,
            "generators",
            tuple(check_perm(g, self.degree) for g in self.generators),
        )
        if not self.generators:
            raise InvalidInputError("at least one generator required")
        if not self.is_transitive():
            raise DisconnectedCoverError(
                "generators do not act transitively on the fiber"
            )

    def is_transitive(self) -> bool:
        moves = self.generators + tuple(inverse(g) for g in self.generators)
        reached = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for g in moves:
                j = g[i]
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
        return len(reached) == self.degree


@dataclass(frozen=True)
class GaloisClosure:
    """Galois closure data of a finite cover.

    orbit: the diagonal orbit of the base tuple, i.e. the monodromy group's
    elements written as tuples, sorted; deck_group: the commuting
    simply-transitive action on orbit indices. The n maps closure -> fiber
    are the coordinates p_i: j -> orbit[j][i], computed where needed.
    """

    base_cover: FiniteCover
    orbit: tuple[Perm, ...]
    monodromy_group: PermutationGroup
    deck_group: PermutationGroup

    @property
    def base_index(self) -> int:
        return self.orbit.index(identity(self.base_cover.degree))

    def deck_action_on_fiber(self, deck_element: Perm) -> Perm:
        """The fiber permutation induced by a deck element on the maps p_i.

        A deck element sends projection p_i to p_{h(i)} where h is the
        monodromy element it right-multiplies by; h is read off the image
        of the base (identity) tuple.
        """
        if deck_element not in self.deck_group:
            raise InvalidInputError("not a deck group element")
        return self.orbit[deck_element[self.base_index]]

    def evaluation_map(self) -> dict[int, int]:
        """Projection index -> its value on the base tuple (a bijection)."""
        base = self.orbit[self.base_index]
        return {i: base[i] for i in range(self.base_cover.degree)}


def galois_closure(cover: FiniteCover) -> GaloisClosure:
    """Construct the Galois closure of a transitive cover.

    The orbit of (0,..,n-1) under the diagonal action is in bijection with
    the generated monodromy group, so the closure is Galois with deck group
    of the same order. A cover of degree over MAX_DEGREE, or a group of
    order over MAX_GROUP_ORDER, raises SizeLimitError.
    """
    n = cover.degree
    check_degree(n)
    group = PermutationGroup.generate(cover.generators, n)
    orbit = tuple(sorted(group.elements))
    index = {t: j for j, t in enumerate(orbit)}
    # Right multiplication by h permutes the orbit and commutes with the
    # (left) diagonal monodromy action.
    def right_mult(h: Perm) -> Perm:
        return tuple(index[compose(t, h)] for t in orbit)

    deck = PermutationGroup.generate(
        [right_mult(h) for h in cover.generators], len(orbit)
    )
    if deck.order != group.order:
        raise TheoremViolationError("deck action is not simply transitive")
    return GaloisClosure(
        base_cover=cover, orbit=orbit, monodromy_group=group, deck_group=deck
    )


# ---------------------------------------------------------------------------
# rational-point lemmas


def fixed_point_check(closure: GaloisClosure, H: Subgroup, I: Subgroup) -> bool:
    """Whether I lies in some conjugate of H inside the deck group.

    This is the criterion for the H-subcover's fiber to carry a rational
    point when I is the image of the Galois action.
    """
    deck = closure.deck_group
    if H.parent != deck or I.parent != deck:
        raise InvalidInputError("H and I must be subgroups of the deck group")
    return any(I.mask & ~c == 0 for c in deck._index.conjugates(H.mask))


def isomorphic(a: Subgroup | PermutationGroup, b: Subgroup | PermutationGroup) -> bool:
    """Abstract-group isomorphism test for small groups.

    Two subgroups of the same group object compare their class numbers
    (_GroupIndex.isomorphism_class). Otherwise: cheap invariants first
    (order, element-order multiset, abelianness); a backtracking
    generator-mapping search settles the remaining cases.
    """
    if a.order != b.order:
        return False
    if isinstance(a, Subgroup) and isinstance(b, Subgroup) and a.parent is b.parent:
        return a.isomorphism_class == b.isomorphism_class
    return _isomorphic_indexed(_indexed(a), _indexed(b))


def _isomorphic_indexed(
    a: tuple[_GroupIndex, list[int]], b: tuple[_GroupIndex, list[int]]
) -> bool:
    """isomorphic() on the element numbers of two groups of equal order."""
    if _element_orders(a) != _element_orders(b):
        return False
    abelian = _is_abelian(a)
    if abelian != _is_abelian(b):
        return False
    # Finite abelian groups are determined by their element orders.
    return abelian or _generator_mapping_search(a, b)


def _element_orders(group: tuple[_GroupIndex, list[int]]) -> list[int]:
    index, members = group
    return sorted(map(index.orders.__getitem__, members))


def _is_abelian(group: tuple[_GroupIndex, list[int]]) -> bool:
    index, members = group
    table = index.table
    return all(
        table[a][b] == table[b][a] for a, b in itertools.combinations(members, 2)
    )


def _minimal_generators(index: _GroupIndex, members: list[int]) -> list[int]:
    full = index.mask(members)
    gens: list[int] = []
    span = 1 << index.identity
    for x in sorted(members, key=index.orders.__getitem__, reverse=True):
        if span >> x & 1:
            continue
        gens.append(x)
        span = index.close(gens)
        if span == full:
            break
    return gens


def _generator_mapping_search(
    a: tuple[_GroupIndex, list[int]], b: tuple[_GroupIndex, list[int]]
) -> bool:
    (index_a, members_a), (index_b, members_b) = a, b
    gens = _minimal_generators(index_a, members_a)
    b_by_order: dict[int, list[int]] = {}
    for y in members_b:
        b_by_order.setdefault(index_b.orders[y], []).append(y)

    def extends_to_isomorphism(images: tuple[int, ...]) -> bool:
        # Grow the map by closing words in the generators; reject on the
        # first multiplicative conflict.
        mapping = {index_a.identity: index_b.identity}
        frontier = [index_a.identity]
        while frontier:
            x = frontier.pop()
            row_a, row_b = index_a.table[x], index_b.table[mapping[x]]
            for g, h in zip(gens, images):
                xg, yh = row_a[g], row_b[h]
                image = mapping.get(xg)
                if image is None:
                    mapping[xg] = yh
                    frontier.append(xg)
                elif image != yh:
                    return False
        if len(mapping) != len(members_a):
            return False
        return len(set(mapping.values())) == len(members_a)

    candidates = [b_by_order.get(index_a.orders[g], []) for g in gens]
    return any(
        extends_to_isomorphism(images)
        for images in itertools.product(*candidates)
    )


def classify_point(
    closure: GaloisClosure,
    I: Subgroup,
    class_reps: list[Subgroup],
) -> int:
    """Index of the isomorphism class of I among class_reps, two ways.

    Route (a) matches I against the representatives directly. Route (b)
    replays the covering construction: I belongs to the cell of each
    subgroup H whose subcover has a rational point while no proper
    subgroup's does. H has a point when I lies in a conjugate of H, that is,
    when a conjugate of I lies in H (I <= gHg^-1 iff g^-1 I g <= H). The
    minimal such H are exactly the conjugates of I: each gIg^-1 contains
    itself, its proper subgroups are too small to contain a conjugate of I,
    and an H with a point contains some conjugate c, so H is minimal only if
    H = c. The cells are _GroupIndex.conjugates(I), looked up by mask. The
    two routes must agree, so conjugates with different class numbers raise.

    Both routes look a subgroup up by its class number among the deck
    group's subgroups (_GroupIndex.isomorphism_class) in one map built per
    call from the representatives. A subgroup of a deck group that is equal
    to this one but a distinct object is looked up the same way: equal
    groups number their elements alike (sorted_elements), so its mask
    means the same on this deck group's index.
    """
    deck = closure.deck_group
    if any(S.parent is not deck and S.parent != deck for S in (I, *class_reps)):
        raise InvalidInputError("inputs must be subgroups of the deck group")
    index = deck._index
    # class number -> the indices of the representatives of that class
    by_class: dict[int, list[int]] = {}
    for i, rep in enumerate(class_reps):
        by_class.setdefault(index.isomorphism_class(rep.mask), []).append(i)

    def matches(mask: int) -> list[int]:
        """The indices of the representatives isomorphic to the subgroup
        mask, ascending."""
        return by_class.get(index.isomorphism_class(mask), [])

    direct_matches = matches(I.mask)
    if len(direct_matches) != 1:
        raise InvalidInputError(
            "class_reps must contain exactly one representative per "
            f"isomorphism class (got {len(direct_matches)} matches)"
        )
    direct = direct_matches[0]

    via_cover = {min(matches(c), default=None) for c in index.conjugates(I.mask)}
    if via_cover != {direct}:
        raise TheoremViolationError(
            f"covering construction gives classes {via_cover}, direct gives {direct}"
        )
    return direct
