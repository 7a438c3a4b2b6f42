"""Subgroup lattices up to conjugacy, Carter subgroups and Carter fibers.

Subgroup classes are enumerated bottom-up by cyclic extension: a known
class representative H is extended by elements z of its normalizer with
z^p in H, so that <H, z> contains H with prime index. Each such overgroup
K = <H, z> is built once per H: every z' in K outside H also has prime
order modulo H, so <H, z'> = K, and those z' are skipped. That reaches every
solvable subgroup; for a non-solvable ambient group a join-closure pass
with prime-power cyclic subgroups picks up the perfect overgroups.
Conjugacy of candidates is decided by the canonical key of their orbit.
`PermGroup.subgroup_orbit` walks each class's orbit once and memoizes it
under every member, so the lattice, normalizers and Carter fibers all read
the same walk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .groups import PermGroup, Subgroup, memoized
from .perms import Perm
from .sigma import PrimeSet, factorize, is_prime


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


class _ClassCollector:
    """Dedupes candidate subgroups into conjugacy classes by canonical key."""

    def __init__(self, G: PermGroup):
        self.G = G
        self.by_key: dict[tuple, SubgroupClass] = {}

    def add(self, H: Subgroup) -> SubgroupClass | None:
        """Register H; returns its new class, or None if already known.

        The walk of a known class is memoized under every member, so only
        a new class costs a walk.
        """
        orbit = self.G.subgroup_orbit(H.element_set())
        key = orbit.canonical_key
        if key in self.by_key:
            return None
        cls = SubgroupClass(
            representative=H, class_size=len(orbit.members), canonical_key=key
        )
        self.by_key[key] = cls
        return cls

    def classes(self) -> list[SubgroupClass]:
        return sorted(self.by_key.values(), key=lambda c: (c.order, c.canonical_key))


@memoized(bound="subgroup-lattice")
def subgroup_classes(G: PermGroup) -> tuple[SubgroupClass, ...]:
    """All subgroup conjugacy classes of G."""
    collector = _ClassCollector(G)
    trivial = collector.add(G.subgroup([]))
    frontier = [trivial]
    while frontier:
        cls = frontier.pop()
        H = cls.representative
        N = G.normalizer(H)
        covered = set(H.element_set())
        for images in sorted(N.element_set()):
            if images in covered:
                continue  # in H, or in a K = <H, z> built for an earlier z
            z = Perm(images)
            coset_order = _coset_order(z, H)
            if not is_prime(coset_order):
                continue  # z must have prime order modulo H
            # z normalizes H, so |<H, z>| = coset_order * |H| exactly
            K = G.subgroup(tuple(H.generators) + (z,), order=coset_order * H.order)
            assert K.order == coset_order * H.order
            covered |= K.element_set()
            new_cls = collector.add(K)
            if new_cls is not None:
                frontier.append(new_cls)
    if not G.is_solvable():
        _nonsolvable_completion(G, collector)
    classes = collector.classes()
    assert classes[0].order == 1 and classes[-1].order == G.order
    return tuple(classes)


def _coset_order(z: Perm, H: PermGroup) -> int:
    k = 1
    x = z
    while not H.contains(x):
        x = x * z
        k += 1
    return k


def _nonsolvable_completion(G: PermGroup, collector: _ClassCollector) -> None:
    """Join-closure with prime-power cyclic subgroups; finds perfect overgroups.

    Every subgroup is generated by its cyclic subgroups of prime-power
    order, so closing the solvable layer under these joins reaches every
    remaining class.
    """
    cyclics = []
    seen = set()
    for c in G.conjugacy_classes():
        if len(factorize(c.element_order)) == 1:
            Z = G.subgroup([c.representative])
            for conj_set in G.subgroup_orbit(Z.element_set()).members:
                if conj_set not in seen:
                    seen.add(conj_set)
                    cyclics.append([Perm(im) for im in conj_set if not Perm(im).is_identity()])
    frontier = list(collector.by_key.values())
    while frontier:
        cls = frontier.pop()
        H = cls.representative
        h_set = H.element_set()
        for zgens in cyclics:
            if all(z.images in h_set for z in zgens):
                continue
            K = G.subgroup(tuple(H.generators) + tuple(zgens))
            if K.order == H.order:
                continue
            new_cls = collector.add(K)
            if new_cls is not None:
                frontier.append(new_cls)


def nilpotent_sigma_subgroup_classes(
    G: PermGroup, sigma: PrimeSet
) -> tuple[SubgroupClass, ...]:
    """The nilpotent subgroup classes of sigma-order, in lattice order."""
    return tuple(
        cls
        for cls in subgroup_classes(G)
        if cls.is_sigma_group(sigma) and cls.is_nilpotent()
    )


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
        if cls.is_nilpotent() and G.normalizer(cls.representative).order == cls.order
    ]
    if len(hits) != 1:
        raise AssertionError(
            f"expected exactly one self-normalizing nilpotent class, found {len(hits)}"
        )
    return hits[0]


def is_carter_in(R: PermGroup, Q: PermGroup) -> bool:
    """True iff R is a self-normalizing nilpotent subgroup of Q."""
    if not R.is_subset(Q):
        raise ValueError("R is not a subgroup of Q")
    if not R.is_nilpotent():
        return False
    return Q.normalizer(R).order == R.order


def carter_fiber(G: PermGroup, sigma: PrimeSet, R: PermGroup) -> tuple[SubgroupClass, ...]:
    """Classes of sigma'-subgroups with a conjugate containing R as Carter subgroup.

    Each returned class carries a representative that actually contains R.
    """
    coprimes = sigma.complement_within(G.order)
    if not coprimes.is_sigma_number(R.order):
        raise ValueError("R is not a sigma'-subgroup")
    if not R.is_nilpotent():
        raise ValueError("R is not nilpotent")
    out = []
    for cls in subgroup_classes(G):
        if not coprimes.is_sigma_number(cls.order):
            continue
        if cls.order < R.order or cls.order % R.order:
            continue
        for Q in conjugates_containing(G, cls, R):
            if is_carter_in(R, Q):
                out.append(replace(cls, representative=Q))
                break
    return tuple(out)


def conjugates_containing(G: PermGroup, cls: SubgroupClass, R: PermGroup):
    """The conjugates of a subgroup class of G that contain R, as subgroups.

    They are yielded lazily, in order of their sorted element sets.
    """
    r_set = R.element_set()
    for conj_set in sorted(
        G.subgroup_orbit(cls.representative.element_set()).members,
        key=lambda s: tuple(sorted(s)),
    ):
        if r_set <= conj_set:
            yield G.subgroup([Perm(im) for im in conj_set if not Perm(im).is_identity()])
