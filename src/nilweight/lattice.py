"""Subgroup lattices up to conjugacy, Carter subgroups and Carter fibers.

Subgroup classes are enumerated bottom-up by cyclic extension: a known
class representative H is extended by elements z of its normalizer with
z^p in H, so that <H, z> contains H with prime index. The normalizer is
read as an element set (`PermGroup.normalizer_elements`), so the lattice
builds no normalizer subgroup; the join pass walks N_G(H)'s orbits under
the generators that element set was spanned by. Each candidate K = <H, z> is
formed as an element set, the union of the cosets z^i H, from image
tuples; the order of z modulo H comes from membership in H's element
set. K is formed once per H: every z' in K outside H also has
prime order modulo H, so <H, z'> = K, and those z' are skipped. That
reaches exactly the solvable subgroups; for a non-solvable ambient group a
join-closure pass with prime-power cyclic subgroups picks up the perfect
overgroups, again forming each join <H, Z> as an element set first.

Run with the indices in a prime set sigma only, cyclic extension reaches
exactly the classes of solvable sigma-subgroups
(`solvable_sigma_subgroup_classes`; Neubüser, Numer. Math. 2, 1960;
Cannon–Cox–Holt, J. Symbolic Comput. 31, 2001): a solvable sigma-group
K > 1 has a normal subgroup of prime index, itself a solvable sigma-group.
Every Hall question (`PermGroup.find_hall_sigma_subgroup`) and the
weights read these classes only, unless sigma meets |G| in one prime p.
Then the weights read the classes of intersections of Sylow p-subgroups
(`sylow_intersection_classes`), which hold every p-radical subgroup and
need no p-subgroup lattice, and the Hall question reads the last of
them, P ∩ P = P.

Conjugacy of candidates is decided by the canonical key of their orbit,
its least sorted member. `PermGroup.subgroup_orbit` walks each class's
orbit once and memoizes it under every member, so the lattice, normalizers
and Carter fibers all read the same walk. A candidate whose orbit is
already walked and collected is dropped without a stabilizer chain. A
candidate of a new class gets its class's representative, the subgroup on
the canonical member, built in `_ClassCollector.add` (a join also gets
the chain that certifies it). So a representative, and every label
printed from it, is a function of the class alone, whichever route
reached it.

A conjugate Q of a class contains a nilpotent R as a Carter subgroup when
N_Q(R) = N_G(R) ∩ Q has |R| elements, one set intersection per conjugate
(`carter_members`, with N_G(R) read as an element set too). Callers read
such members as element sets, and the Carter fiber is the classes that
have one. A class is self-normalizing when |G| over its size is its order
(`carter_subgroups`), and R is self-normalizing in Q when |Q| over the
length of R's orbit under Q is |R| (`is_carter_in`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .groups import Orbit, PermGroup, Subgroup, conjugation, memoized, span
from .perms import Perm
from .sigma import PrimeSet, factorize, sigma_part


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups, carried by one representative."""

    representative: Subgroup
    class_size: int
    canonical_key: tuple

    @property
    def order(self) -> int:
        return self.representative.order

    def is_nilpotent(self) -> bool:
        return self.representative.is_nilpotent()

    def is_solvable(self) -> bool:
        return self.representative.is_solvable()

    def is_sigma_group(self, sigma: PrimeSet) -> bool:
        return sigma.is_sigma_number(self.order)

    def __repr__(self) -> str:
        gens = self.representative.generator_label()
        return f"SubgroupClass(order={self.order}, size={self.class_size}, <{gens}>)"


def _where(G: PermGroup) -> str:
    """The place a lattice certificate names: the ambient group's order."""
    return f"in the lattice of a group of order {G.order}"


class _ClassCollector:
    """Dedupes candidate subgroups into conjugacy classes by canonical key."""

    def __init__(self, G: PermGroup):
        self.G = G
        self.by_key: dict[tuple, SubgroupClass] = {}

    def knows(self, elems: frozenset) -> bool:
        """True if the subgroup with element set `elems` is in a collected class.

        Every collected class has its walk memoized under every member, so a
        subgroup whose walk is missing is in a new class; no orbit is walked.
        """
        orbit = PermGroup.subgroup_orbit.peek(self.G, elems)
        return orbit is not None and orbit.canonical_key in self.by_key

    def add(self, elems: frozenset) -> SubgroupClass:
        """Register the subgroup with element set `elems`, which `knows` does
        not place in a collected class.

        This walks its orbit unless some other caller has walked it already.
        The representative is the subgroup on the canonical member, built by
        `PermGroup._generated`, so it depends on the class alone; its chain
        must have exactly that member's elements.
        """
        G = self.G
        orbit = G.subgroup_orbit(elems)
        key = orbit.canonical_key
        if key in self.by_key:
            raise AssertionError(f"subgroup class registered twice {_where(G)}")
        H = G._generated(key)
        if H.element_set() != frozenset(key):
            raise AssertionError(
                f"class representative differs from its canonical member {_where(G)}"
            )
        cls = SubgroupClass(representative=H, class_size=len(orbit.members), canonical_key=key)
        self.by_key[key] = cls
        return cls

    def classes(self) -> list[SubgroupClass]:
        return sorted(self.by_key.values(), key=lambda c: (c.order, c.canonical_key))


@memoized(bound="subgroup-lattice")
def subgroup_classes(G: PermGroup) -> tuple[SubgroupClass, ...]:
    """All subgroup conjugacy classes of G.

    Cyclic extension through every prime reaches the solvable ones, which
    are kept as the solvable sigma-subgroup classes for sigma = all primes.
    """
    solvable = G.is_solvable()  # known before the representatives are built
    every = PrimeSet(G.primes())
    collector = _cyclic_extension(G, every)
    solvable_sigma_subgroup_classes.remember(G, tuple(collector.classes()), every)
    if not solvable:
        _nonsolvable_completion(G, collector)
    classes = collector.classes()
    if classes[0].order != 1 or classes[-1].order != G.order:
        raise AssertionError(f"lattice of a group of order {G.order} misses 1 or G")
    return tuple(classes)


@memoized(bound="subgroup-lattice")
def solvable_sigma_subgroup_classes(G: PermGroup, sigma: PrimeSet) -> tuple[SubgroupClass, ...]:
    """The classes of solvable sigma-subgroups of G, in lattice order.

    Cyclic extension through indices in sigma alone reaches them. Once the
    classes of all solvable subgroups are memoized, by this function or by
    `subgroup_classes`, they are read off those and no group is built.
    """
    solvable = solvable_sigma_subgroup_classes.peek(G, PrimeSet(G.primes()))
    if solvable is not None:
        return tuple(cls for cls in solvable if cls.is_sigma_group(sigma))
    return tuple(_cyclic_extension(G, sigma).classes())


def _cyclic_extension(G: PermGroup, primes: PrimeSet) -> _ClassCollector:
    """The classes reached from 1 by extensions <H, z> of prime index in `primes`.

    Each H tries the z of N_G(H) in sorted order. The span K of H and z is
    checked by exact facts: it lies in N_G(H), holds H and z, and has |H|
    times the order of z modulo H elements, which is |<H, z>|; and a
    conjugate of it is the element set of a class representative's chain
    (`_ClassCollector.add`). So K is a subgroup holding <H, z> and as large.
    """
    collector = _ClassCollector(G)
    frontier = [collector.add(frozenset([G.identity.images]))]
    while frontier:
        h_set = frontier.pop().representative.element_set()
        covered = set(h_set)
        n_set, _ = G.normalizer_elements(h_set)
        for images in sorted(n_set):
            if images in covered:
                continue  # in H, or in a K = <H, z> formed for an earlier z
            coset_order = _coset_order(images, h_set)
            if coset_order not in primes:
                continue  # z must have prime order modulo H, a prime in `primes`
            # z normalizes H, so K = <H, z> is the union of the cosets z^i H
            k_set = span(h_set, [images])
            if len(k_set) != coset_order * len(h_set):
                raise AssertionError(f"cyclic extension has the wrong order {_where(G)}")
            if not (h_set <= k_set <= n_set and images in k_set):
                raise AssertionError(f"cyclic extension differs from its span {_where(G)}")
            covered |= k_set
            if not collector.knows(k_set):
                frontier.append(collector.add(k_set))
    return collector


@memoized(bound="subgroup-lattice")
def sylow_intersection_classes(G: PermGroup, p: int) -> tuple[SubgroupClass, ...]:
    """The classes of intersections of Sylow p-subgroups of G, in lattice order.

    They hold every p-radical subgroup Q, one with Q = O_p(N_G(Q)), and so
    every weight for a prime set that meets the order of G in p alone
    (Alperin, Weights for finite groups, 1987). Proof: let N = N_G(Q). Then
    Q = O_p(N) is the intersection of the Sylow p-subgroups S_i of N. Each
    S_i lies in a Sylow P_i of G, and P_i ∩ N = S_i. Let D be the
    intersection of the P_i. Then Q <= D and N_D(Q) = D ∩ N = Q; D is a
    p-group, in which normalizers grow, so D = Q.

    A Sylow P is climbed from H = 1. While H < P, N_P(H) > H, so p divides
    |N_G(H) : H| and some z in N_G(H) has order p modulo H (Cauchy); the
    least such z spans K = <H, z>, checked as cyclic extension checks its
    candidates: |K| = p|H| and K lies in N_G(H). Then P's orbit is walked,
    and the canonical member of each new class is intersected with every
    Sylow subgroup, starting from P. An intersection of Sylow subgroups
    P_1 ∩ ... ∩ P_k has a conjugate C ∩ P_k^g with C the canonical member of
    the class of P_1 ∩ ... ∩ P_(k-1), so every class is reached, and no
    p-subgroup lattice is built.
    """
    order = sigma_part(G.order, PrimeSet([p]))
    h_set = frozenset([G.identity.images])
    while len(h_set) < order:
        n_set, _ = G.normalizer_elements(h_set)
        z = next((x for x in sorted(n_set) if _coset_order(x, h_set) == p), None)
        k_set = span(h_set, [z]) if z is not None else h_set
        if len(k_set) != p * len(h_set) or not k_set <= n_set:
            raise AssertionError(f"Sylow {p}-subgroup climb step has the wrong order {_where(G)}")
        h_set = k_set
    sylows = G.subgroup_orbit(h_set).members
    collector = _ClassCollector(G)
    frontier = [collector.add(h_set)]
    while frontier:
        d_set = frontier.pop().representative.element_set()
        for s_set in sylows:
            meet = d_set & s_set
            if not collector.knows(meet):
                frontier.append(collector.add(meet))
    return tuple(collector.classes())


def _coset_order(z: tuple, h_set: frozenset) -> int:
    """The least k >= 1 with z^k in H, for z given by its image tuple."""
    times_z = itemgetter(*z)  # x -> z * x on image tuples
    k = 1
    x = z
    while x not in h_set:
        x = times_z(x)
        k += 1
    return k


def _nonsolvable_completion(G: PermGroup, collector: _ClassCollector) -> None:
    """Join-closure with prime-power cyclic subgroups; finds perfect overgroups.

    Every subgroup is generated by its cyclic subgroups of prime-power
    order, so closing the solvable layer under these joins reaches every
    remaining class. For n in N_G(H), <H, Z^n> = <H, Z>^n, so H is joined
    with the first Z outside H of each N_G(H)-orbit only, and the element
    set of <H, Z> is spanned from one generator of Z.
    """
    cyclic_of: dict[tuple, frozenset] = {}  # each element x of prime-power order -> <x>
    for c in G.conjugacy_classes():
        if len(factorize(c.element_order)) == 1:
            z_set = frozenset((c.representative**i).images for i in range(c.element_order))
            for conj_set in G.subgroup_orbit(z_set).members:
                cyclic_of.update((x, conj_set) for x in conj_set & c.members)
    generator = {Z: x for x, Z in cyclic_of.items()}  # each cyclic Z -> one generator
    frontier = list(collector.by_key.values())
    while frontier:
        H = frontier.pop().representative
        h_set = H.element_set()
        h_gens = [h.images for h in H.generators]
        # N_G(H) keeps the cyclic subgroups inside H among themselves
        normalizing = H.generators + G.normalizer_elements(h_set)[1]
        outside = [Z for Z, x in generator.items() if x not in h_set]
        for Z in _orbit_firsts(G.identity, normalizing, outside, generator, cyclic_of):
            k_set = span(h_set, h_gens + [generator[Z]])
            if collector.knows(k_set):
                continue
            K = G.subgroup(H.generators + (Perm(generator[Z]),))
            if K.element_set() != k_set:
                raise AssertionError(f"join differs from its span {_where(G)}")
            frontier.append(collector.add(k_set))


def _orbit_firsts(identity: Perm, gens: list, cyclics: list, generator: dict, cyclic_of: dict):
    """The first cyclic subgroup of each <gens>-orbit on `cyclics`, in order.

    An element n carries <x> to <x^n>, so only `generator[Z]` is conjugated,
    and `cyclic_of` names the cyclic subgroup that its conjugate generates.
    The walks step from every member of `cyclics` by every generator, so
    each generator's permutation of `cyclics` is tabulated first.
    """
    moves = []
    for g in gens:
        conjugate = conjugation(g)
        table = {Z: cyclic_of[conjugate(generator[Z])] for Z in cyclics}
        moves.append((g, table.__getitem__))
    seen: set = set()
    for start in cyclics:
        if start not in seen:
            seen |= Orbit(identity, start, moves).members
            yield start


def nilpotent_sigma_subgroup_classes(
    G: PermGroup, sigma: PrimeSet
) -> tuple[SubgroupClass, ...]:
    """The nilpotent subgroup classes of sigma-order, in lattice order."""
    return tuple(cls for cls in solvable_sigma_subgroup_classes(G, sigma) if cls.is_nilpotent())


@memoized()
def _classes_by_key(G: PermGroup) -> dict[tuple, SubgroupClass]:
    return {cls.canonical_key: cls for cls in subgroup_classes(G)}


def subgroup_class_of(G: PermGroup, H: PermGroup) -> SubgroupClass:
    """The class of subgroup H within G's lattice."""
    if not H.is_subset(G):
        raise ValueError("subgroup not found in the lattice (is it a subgroup of G?)")
    by_key = _classes_by_key(G)
    # the lattice walked every class, so the walk of H is memoized
    return by_key[G.subgroup_orbit(H.element_set()).canonical_key]


def carter_subgroups(G: PermGroup) -> SubgroupClass:
    """The unique class of self-normalizing nilpotent subgroups of solvable G."""
    if not G.is_solvable():
        raise ValueError("Carter subgroups require a solvable group")
    hits = [
        cls
        for cls in subgroup_classes(G)
        if cls.is_nilpotent() and G.order // cls.class_size == cls.order  # |N_G(H)| = |H|
    ]
    if len(hits) != 1:
        raise AssertionError(
            f"expected exactly one self-normalizing nilpotent class, found {len(hits)} "
            + _where(G)
        )
    return hits[0]


def is_carter_in(R: PermGroup, Q: PermGroup) -> bool:
    """True iff R is a self-normalizing nilpotent subgroup of Q."""
    if not R.is_subset(Q):
        raise ValueError("R is not a subgroup of Q")
    if not R.is_nilpotent():
        return False
    # |N_Q(R)| is |Q| over the length of R's orbit
    return Q.order == R.order * len(Q.subgroup_orbit(R.element_set()).members)


def carter_fiber(G: PermGroup, sigma: PrimeSet, R: PermGroup) -> tuple[SubgroupClass, ...]:
    """The classes of G's lattice with a member that contains R as Carter subgroup.

    They are sigma'-classes; `carter_members` yields those members.
    """
    coprimes = sigma.complement_within(G.order)
    if not coprimes.is_sigma_number(R.order):
        raise ValueError("R is not a sigma'-subgroup")
    if not R.is_nilpotent():
        raise ValueError("R is not nilpotent")
    return tuple(
        cls
        for cls in subgroup_classes(G)
        if coprimes.is_sigma_number(cls.order)
        and cls.order % R.order == 0
        and next(carter_members(G, cls, R), None) is not None
    )


def carter_members(G: PermGroup, cls: SubgroupClass, R: PermGroup):
    """The conjugates in a class of G that contain a nilpotent R as Carter subgroup.

    They are yielded lazily as element sets, in order of their sorted
    elements. For R <= Q <= G, N_Q(R) = N_G(R) ∩ Q, so R is self-normalizing
    in Q exactly when that intersection has |R| elements.
    """
    r_set = R.element_set()
    nr_set, _ = G.normalizer_elements(r_set)
    members = G.subgroup_orbit(cls.representative.element_set()).members
    for member in sorted((m for m in members if r_set <= m), key=sorted):
        if len(nr_set & member) == len(r_set):
            yield member
