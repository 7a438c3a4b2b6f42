"""Permutation groups with a certified stabilizer chain.

Construction is a deterministic Schreier-Sims: no randomization, base
points picked greedily by largest orbit, ties broken by smallest point.
The group order is the product of the basic orbit lengths, which the test
suite cross-checks against brute-force closure on small groups.

A caller that has proved an upper bound on the order of the group its
generators span passes it as `order=`, and the chain stops growing once
the product of its basic orbit lengths reaches that bound. That product
never exceeds the order of the group, so when it reaches an upper bound
the chain is already a complete base and strong generating set, every
Schreier generator the full run would still sift gives the identity, and
the chain is the one the full run builds. If the product stays short of
the bound, the run completes as without it.

Schreier generators are formed and sifted as image tuples, and only a
residue that joins the chain becomes a `Perm`. A level's transversal is
rebuilt exactly when its generators change, and a level resumes after the
(point, generator) pair that last added a generator: the pairs before it
sifted to the identity through a complete deeper chain, and the deeper
groups only grow. The chain is the one a run that rechecks every pair
builds.

Conjugacy classes, centralizers and normalizers are computed by explicit
orbit/stabilizer runs at desk scale; resource bounds guard against inputs
far beyond the intended corpus. Every orbit is walked by one class,
`Orbit`: conjugacy classes, stabilizers under any action
(`PermGroup.stabilizer`), the cosets of `PermGroup.coset_action`, the
point orbits (`PermGroup.point_orbits`, read by `PermGroup.quotient` for
a normal subgroup and by the character tables' direct-product test), the
subgroup orbits that `PermGroup.subgroup_orbit` memoizes and normalizers
read off, and the lattice's orbits of cyclic subgroups. N_G(H) has one
computation, `PermGroup.normalizer_elements`: H's element set spanned by
the Schreier images of H's orbit, with the generators it kept, and
`PermGroup.normalizer` is the subgroup on it. The action of a
normalizing element on the classes comes from one memoized map,
`PermGroup.class_image`, and class functions are conjugated through it by
`PermGroup.conjugate_class_function`.

Each normal-structure question has one implementation. `is_solvable` runs
the derived series alone; a subgroup made after its parent is known to be
solvable is solvable without a series of its own. `is_nilpotent` counts
p-elements, one count per prime. A normal closure is spanned from the
classes of its seeds; that of each class representative is computed
once, by `PermGroup._class_normal_closure`, for `normal_subgroups` and
the composition factors. O_sigma has one
walker, `PermGroup.o_sigma_walk`. From a normal sigma-subgroup it spans
the class of each sigma-element it meets, in sorted element order, with
the set so far, and keeps each span of sigma-number order; it builds no
class list. `o_sigma_elements` runs it to the end from the trivial group,
`o_sigma` is the subgroup on that set, and the weight gate and the
vertex certificate stop at the first span it keeps above their subgroup.
One routine, `span`, grows every element set by cosets, for O_sigma,
normal closures, normalizers, the joins of `normal_subgroups` and the
lattice's candidates <H, z>; one step, `PermGroup._generated`, builds the
subgroup on a spanned set.

Resource bounds (`check_bound`) and memoization (`memoized`) live here
alone, and every module uses them. A stabilizer chain whose basic orbit
lengths multiply past the largest bound in effect stops: that product
never exceeds the group's order, and no computation takes a group above
every bound.
"""

from __future__ import annotations

import contextlib
import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from operator import itemgetter

from .perms import MalformedPermError, Perm
from .sigma import PrimeSet, factorize, prime_divisors, sigma_part

# The largest group order each computation accepts, by the name its error uses.
DEFAULT_BOUNDS = {
    "class": 100_000,
    "normalizer": 100_000,
    "subgroup-lattice": 2_000,
    "table": 20_000,
}
_bound_override: ContextVar[int | None] = ContextVar("bound_override", default=None)


class ResourceLimitError(RuntimeError):
    """An operation was asked to run past its configured desk-scale bound."""


@contextlib.contextmanager
def resource_bound(bound: int | None):
    """Within the block, `bound` replaces every default bound; None means the defaults."""
    token = _bound_override.set(bound)
    try:
        yield
    finally:
        _bound_override.reset(token)


def check_bound(kind: str, order: int) -> None:
    """Raise ResourceLimitError if `order` exceeds the bound named `kind`."""
    limit = _bound_override.get()
    if limit is None:
        limit = DEFAULT_BOUNDS[kind]
    if order > limit:
        raise ResourceLimitError(f"group order {order} exceeds {kind} bound {limit}")


def memoized(key=None, bound: str | None = None):
    """Memoize a function of a group in that group's memo.

    The memo key is `key(G, *args, **kwargs)`, by default the function's
    name followed by its positional arguments. With `bound`, the group's
    order is checked against that bound before the memo is read. The
    decorated function's `remember(G, value, *args)` stores a value under
    the key the function reads, and `peek(G, *args)` reads that key without
    computing, giving None when nothing is stored there.
    """

    def decorate(fn):
        name = fn.__name__
        key_of = key or (lambda G, *args: (name, *args))

        @functools.wraps(fn)
        def cached(G, *args, **kwargs):
            if bound is not None:
                check_bound(bound, G.order)
            k = key_of(G, *args, **kwargs)
            memo = G._memo
            if k not in memo:
                memo[k] = fn(G, *args, **kwargs)
            return memo[k]

        def remember(G, value, *args):
            G._memo[key_of(G, *args)] = value

        def peek(G, *args):
            return G._memo.get(key_of(G, *args))

        cached.remember = remember
        cached.peek = peek
        return cached

    return decorate


class _ChainLevel:
    __slots__ = ("point", "gens", "transversal", "resume")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Perm] = []
        # transversal[p] = u with point^u = p
        self.transversal: dict[int, Perm] = {}
        # the (point, generator) pairs before this index sift to the identity
        self.resume = 0

    def rebuild(self, identity: Perm) -> None:
        trans = {self.point: identity}
        frontier = [self.point]
        while frontier:
            nxt = []
            for p in frontier:
                u = trans[p]
                for g in self.gens:
                    q = g.images[p]
                    if q not in trans:
                        trans[q] = u * g
                        nxt.append(q)
            frontier = sorted(nxt)
        self.transversal = trans
        self.resume = 0


def _greedy_point(perms: list[Perm], degree: int) -> int:
    """Moved point lying in the largest orbit of <perms>; smallest point on ties."""
    seen = set()
    best = None
    for start in range(degree):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for g in perms:
                q = g.images[p]
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        seen |= orbit
        if len(orbit) > 1 and (best is None or len(orbit) > best[0]):
            best = (len(orbit), min(orbit))
    if best is None:
        raise AssertionError("no moved point")
    return best[1]


class PermGroup:
    """A finite permutation group acting on {1..degree} (0-based inside)."""

    def __init__(self, degree: int, generators, order: int | None = None):
        gens = []
        for g in generators:
            if g.degree != degree:
                raise MalformedPermError(
                    f"generator degree {g.degree} != group degree {degree}"
                )
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(gens)
        self.identity = Perm.identity(degree)
        self._levels: list[_ChainLevel] = []
        self._schreier_sims(order)
        self.order: int = math.prod(len(l.transversal) for l in self._levels) or 1
        self._memo: dict = {}

    # --- stabilizer chain -------------------------------------------------

    def _schreier_sims(self, order: int | None) -> None:
        if not self.generators:
            return
        levels = self._levels

        def new_level(seed_gens: list[Perm]) -> None:
            levels.append(_ChainLevel(_greedy_point(seed_gens, self.degree)))

        new_level(list(self.generators))
        # every generator must move some base point
        for g in self.generators:
            if all(g.images[lvl.point] == lvl.point for lvl in levels):
                new_level([g])
        # level i holds the generators fixing all earlier base points
        for i, lvl in enumerate(levels):
            lvl.gens = [
                g
                for g in self.generators
                if all(g.images[levels[k].point] == levels[k].point for k in range(i))
            ]
            lvl.rebuild(self.identity)

        identity = self.identity.images

        def strip(g: tuple, start: int):
            """Sift the image tuple g from level `start`: (residue, level it stops at)."""
            for j in range(start, len(levels)):
                lvl = levels[j]
                u = lvl.transversal.get(g[lvl.point])
                if u is None:
                    return g, j
                g = itemgetter(*g)(u.inverse().images)  # g * u^-1
            return g, len(levels)

        def process(i: int):
            """Sift the Schreier generators u * x * t^-1 of level i from its
            resume point; the first residue joins the chain at the levels it
            passes, and the level it stops at is returned."""
            lvl = levels[i]
            trans, gens = lvl.transversal, lvl.gens
            first_point, first_gen = divmod(lvl.resume, len(gens))
            for a, p in enumerate(sorted(trans)[first_point:], first_point):
                times_u = itemgetter(*trans[p].images)  # x -> u * x
                for b in range(first_gen, len(gens)):
                    x = gens[b].images
                    target = trans[x[p]].inverse().images
                    sg = itemgetter(*times_u(x))(target)
                    if sg == identity:
                        continue
                    h, j = strip(sg, i + 1)
                    if h == identity:
                        continue
                    # a complete deeper chain sifts every pair up to this one
                    lvl.resume = a * len(gens) + b + 1
                    h = Perm(h)
                    if j == len(levels):
                        new_level([h])
                        levels[-1].rebuild(self.identity)
                    for k in range(i + 1, j + 1):
                        levels[k].gens.append(h)
                        levels[k].rebuild(self.identity)
                    return j
                first_gen = 0
            return None

        limit = _bound_override.get() or max(DEFAULT_BOUNDS.values())
        i = len(levels) - 1
        while i >= 0 and (size := math.prod(len(l.transversal) for l in levels)) != order:
            if size > limit:
                raise ResourceLimitError(
                    f"group order at least {size} exceeds the largest bound {limit}"
                )
            j = process(i)
            i = i - 1 if j is None else j

    def contains(self, g: Perm) -> bool:
        """Membership, read off the element set when it is memoized and
        otherwise sifted through the chain on image tuples."""
        if g.degree != self.degree:
            raise MalformedPermError("degree mismatch in membership test")
        x = g.images
        elems = PermGroup.element_set.peek(self)
        if elems is not None:
            return x in elems
        for lvl in self._levels:
            u = lvl.transversal.get(x[lvl.point])
            if u is None:
                return False
            x = itemgetter(*x)(u.inverse().images)  # x * u^-1
        return x == self.identity.images

    __contains__ = contains

    @memoized()
    def _element_images(self) -> tuple[tuple[int, ...], ...]:
        """The image tuples of all elements h * u, composed in C along the chain.

        Levels exist only for degree >= 2, where `itemgetter` returns a tuple."""
        out = [self.identity.images]
        for lvl in reversed(self._levels):
            trans = [lvl.transversal[p].images for p in sorted(lvl.transversal)]
            out = [x for h in out for x in map(itemgetter(*h), trans)]  # (h*u)(x) = u(h(x))
        if len(out) != self.order:
            raise AssertionError(f"element count is not the group order {self.order}")
        return tuple(out)

    @memoized()
    def element_set(self) -> frozenset:
        return frozenset(self._element_images())

    # --- subgroups --------------------------------------------------------

    def subgroup(self, generators, order: int | None = None) -> "Subgroup":
        """The subgroup spanned by `generators`; `order` bounds its order from above."""
        return Subgroup(self, generators, order)

    def is_subset(self, other: "PermGroup") -> bool:
        """True if every generator of self lies in other."""
        return all(other.contains(g) for g in self.generators) or not self.generators

    # --- conjugacy classes --------------------------------------------------

    @memoized(bound="class")
    def conjugacy_classes(self) -> tuple["ConjugacyClass", ...]:
        moves = [(g, conjugation(g)) for g in self.generators]
        in_class: set = set()
        classes = []
        for images in sorted(self.element_set()):
            if images in in_class:
                continue
            members = Orbit(self.identity, images, moves).members
            in_class |= members
            rep = Perm(images)
            classes.append(
                ConjugacyClass(
                    representative=rep,
                    size=len(members),
                    element_order=rep.order(),
                    members=frozenset(members),
                )
            )
        classes.sort(key=lambda c: (c.element_order, c.size, c.representative.images))
        if sum(c.size for c in classes) != self.order:
            raise AssertionError(f"class sizes do not sum to the group order {self.order}")
        return tuple(classes)

    @memoized()
    def _class_lookup(self) -> dict:
        lookup = {}
        for i, c in enumerate(self.conjugacy_classes()):
            for images in c.members:
                lookup[images] = i
        return lookup

    def class_index_of(self, g: Perm) -> int:
        try:
            return self._class_lookup()[g.images]
        except KeyError:
            raise ValueError(f"{g!r} is not an element of this group") from None

    @memoized()
    def inverse_class_map(self) -> tuple[int, ...]:
        return tuple(
            self.class_index_of(c.representative.inverse())
            for c in self.conjugacy_classes()
        )

    def exponent(self) -> int:
        out = 1
        for c in self.conjugacy_classes():
            out = math.lcm(out, c.element_order)
        return out

    # --- orbit/stabilizer machinery ----------------------------------------

    def stabilizer(self, start, act) -> "PermGroup":
        """The stabilizer of `start` under the right action `act(point, g)`.

        The orbit walk gives the Schreier generators of the stabilizer,
        taken without repeats or the identity, and the orbit-stabilizer
        theorem certifies their span. The group itself is returned when it
        fixes `start`.
        """
        moves = [(g, lambda point, g=g: act(point, g)) for g in self.generators]
        orbit = Orbit(self.identity, start, moves)
        n = len(orbit.members)
        if n == 1:
            return self
        schreier = dict.fromkeys(orbit.schreier_images(start))
        schreier.pop(self.identity.images, None)
        T = self.subgroup(map(Perm, schreier), order=self.order // n)
        if n * T.order != self.order:
            raise AssertionError(f"orbit length times stabilizer order is not {self.order}")
        return T

    @memoized()
    def class_image(self, g: Perm) -> tuple[int, ...]:
        """Entry i is the class of g x g^-1 for x in class i.

        `g` must normalize the group; it need not lie in it. Reading a class
        function through this map gives its conjugate by g.
        """
        gi = g.inverse()
        return tuple(
            self.class_index_of(g * c.representative * gi)
            for c in self.conjugacy_classes()
        )

    def conjugate_class_function(self, values: tuple, indices, g: Perm) -> tuple:
        """The conjugate by g of the class function with `values` on the classes `indices`.

        `g` must normalize the group, and `indices` must be a union of orbits
        of `class_image(g)`, such as every class or the sigma-classes. The
        result gives the conjugate's values on the same classes, in order.
        """
        image = self.class_image(g)
        return tuple(values[indices.index(image[k])] for k in indices)

    def centralizer(self, g: Perm) -> "PermGroup":
        if not self.contains(g):
            raise ValueError("element is not in the group")
        return self.stabilizer(g, Perm.conjugate)

    def centralizer_of_subgroup(self, H: "PermGroup") -> "PermGroup":
        """C_self(H) = elements commuting with every generator of H.

        H need not be contained in self; conjugation still makes sense as
        long as degrees match.
        """
        current: PermGroup = self
        for s in H.generators:
            current = current.stabilizer(s, Perm.conjugate)
        return current

    def center(self) -> "PermGroup":
        return self.centralizer_of_subgroup(self)

    @memoized()
    def _subgroup_moves(self) -> list[tuple[Perm, object]]:
        """For each generator g, the map S -> S^g on element sets of image tuples.

        Each map conjugates elements through one map x -> x^g, filled as
        read, so conjugate sets share their image tuples.
        """
        return [
            (g, lambda s, conjugate=_Conjugation(g).__getitem__: frozenset(map(conjugate, s)))
            for g in self.generators
        ]

    @memoized()
    def subgroup_orbit(self, elems: frozenset) -> "Orbit":
        """The conjugates of the element set `elems` under this group.

        `elems` need not lie in the group. The walk is memoized under every
        member of the orbit, so each orbit is walked once per group.
        """
        orbit = Orbit(self.identity, elems, self._subgroup_moves())
        for member in orbit.members:
            PermGroup.subgroup_orbit.remember(self, orbit, member)
        return orbit

    @memoized(bound="normalizer")
    def normalizer_elements(self, h_set: frozenset) -> tuple[frozenset, tuple[Perm, ...]]:
        """N_self(H) for the subgroup H with element set `h_set`: its element
        set, and the Schreier generators that span it from H.

        N_self(H) has |self| / |H's orbit| elements (orbit-stabilizer).
        The Schreier generators of H's stabilizer are taken in walk order,
        and one is kept only when it lies outside the span so far, until the
        span has that many elements. Each kept one at least doubles the
        span, and with H's generators the kept ones generate N_self(H).
        """
        orbit = self.subgroup_orbit(h_set)
        size = self.order // len(orbit.members)
        elems, kept = h_set, []
        schreier = orbit.schreier_images(h_set)
        while len(elems) < size and (sg := next(schreier, None)) is not None:
            if sg not in elems:
                kept.append(sg)
                # each kept one normalizes H, so <kept> <H, kept> = <H, kept>
                elems = span(elems, kept)
        if len(elems) != size:
            raise AssertionError(f"orbit length times normalizer order is not {self.order}")
        return elems, tuple(map(Perm, kept))

    @memoized(lambda G, H: ("normalizer", H.element_set()), bound="normalizer")
    def normalizer(self, H: "PermGroup") -> "Subgroup":
        """N_self(H) for a subgroup H of self, built on H's generators and
        the Schreier generators of `normalizer_elements`."""
        if not H.is_subset(self):
            raise ValueError("H is not a subgroup of the group")
        elems, kept = self.normalizer_elements(H.element_set())
        N = self.subgroup(H.generators + kept, order=len(elems))
        if N.order != len(elems):
            raise AssertionError(
                f"normalizer chain misses its span in a group of order {self.order}"
            )
        return N

    # --- normal structure ---------------------------------------------------

    def normal_closure(self, seeds) -> "Subgroup":
        """The least normal subgroup holding `seeds`, spanned by their classes."""
        moves = [(g, conjugation(g)) for g in self.generators]
        members: set = set()
        for g in seeds:
            if g.images not in members:
                members |= Orbit(self.identity, g.images, moves).members
        return self._generated(members)

    def _generated(self, elements) -> "Subgroup":
        """The subgroup generated by the image tuples `elements`, built on the
        least of them that each leave the span of those before."""
        gens, spanned = [], frozenset([self.identity.images])
        for x in sorted(elements):
            if x not in spanned:
                gens.append(x)
                spanned = span(spanned, gens)
        return self.subgroup(map(Perm, gens), order=len(spanned))

    def derived_subgroup(self) -> "Subgroup":
        comms = []
        gens = self.generators
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                c = a.inverse() * b.inverse() * a * b
                if not c.is_identity():
                    comms.append(c)
        return self.normal_closure(comms)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            a.commutes_with(b) for i, a in enumerate(gens) for b in gens[i + 1 :]
        )

    @memoized()
    def is_solvable(self) -> bool:
        """True if the derived series reaches the trivial group."""
        current: PermGroup = self
        while current.order > 1:
            nxt = current.derived_subgroup()
            if nxt.order == current.order:
                return False
            current = nxt
        return True

    @memoized()
    def is_nilpotent(self) -> bool:
        """True if every Sylow subgroup is normal, that is, if it holds every
        p-element: exactly |G|_p elements have order dividing |G|_p."""
        orders = [Perm(x).order() for x in self._element_images()]
        return all(
            sum(p**e % o == 0 for o in orders) == p**e for p, e in factorize(self.order)
        )

    def is_normal(self, H: "PermGroup") -> bool:
        if not H.is_subset(self):
            return False
        return all(
            H.contains(h.conjugate(g)) for h in H.generators for g in self.generators
        )

    @memoized()
    def _class_normal_closure(self, i: int) -> "Subgroup":
        """The normal closure of class i's representative, spanned by class i;
        class 0 is the identity's."""
        return self._generated(self.conjugacy_classes()[i].members)

    @memoized()
    def normal_subgroups(self) -> tuple["Subgroup", ...]:
        """All normal subgroups, via join-closure of class-rep normal closures.

        Each join <H, A> is spanned as an element set first, as A normalizes
        H, and built only when it is new. Sorted by (order, sorted elements),
        so the last is the group itself."""
        atoms = {}
        for i in range(1, len(self.conjugacy_classes())):
            ncl = self._class_normal_closure(i)
            atoms.setdefault(ncl.element_set(), ncl)
        found = {frozenset({self.identity.images}): self.subgroup([])}
        frontier = list(found.values())
        while frontier:
            H = frontier.pop()
            for A in atoms.values():
                key = span(H.element_set(), [a.images for a in A.generators])
                if key not in found:
                    found[key] = join = self.subgroup(
                        tuple(H.generators) + tuple(A.generators), order=len(key)
                    )
                    frontier.append(join)
        subs = sorted(found.values(), key=lambda s: (s.order, sorted(s.element_set())))
        return tuple(subs)

    @memoized()
    def composition_factor_orders(self) -> tuple[int, ...]:
        """Multiset of composition factor orders, sorted ascending."""
        return tuple(sorted(_composition_factors(self)))

    def is_sigma_separable(self, sigma: PrimeSet) -> bool:
        if self.is_solvable():
            return True  # every composition factor has prime order
        return all(
            sigma.is_sigma_number(f) or sigma.is_coprime_number(f)
            for f in self.composition_factor_orders()
        )

    @memoized()
    def o_sigma_elements(self, sigma: PrimeSet) -> frozenset:
        """The element set of O_sigma, the largest normal sigma-subgroup:
        the last set `o_sigma_walk` keeps above the trivial group."""
        elems = frozenset([self.identity.images])
        for elems in self.o_sigma_walk(sigma, elems):
            pass  # each set the walk keeps contains the one before
        return elems

    def o_sigma_walk(self, sigma: PrimeSet, start: frozenset):
        """The growing normal sigma-subgroups above `start`, as element sets.

        `start` is the element set of a normal sigma-subgroup S. The walk
        visits the elements in sorted order and skips each one already
        covered or with a cycle length that is not a sigma-number. It walks
        the class of each other element and spans it with S, giving up a
        span once it outgrows |G|_sigma. A span is normal, and when its
        order is a sigma-number it is yielded and becomes S. No class list
        is built.

        A span is kept exactly when the class lies in O_sigma: the span of
        a class of O_sigma with S <= O_sigma lies in O_sigma, and a normal
        sigma-subgroup lies in O_sigma. So a set is yielded exactly when
        O_sigma > start, and the last one yielded is O_sigma.
        """
        limit = sigma_part(self.order, sigma)
        lengths = frozenset(n for n in range(1, self.degree + 1) if sigma.is_sigma_number(n))
        moves = [(g, conjugation(g)) for g in self.generators]
        elems, covered = start, set(start)
        for images in sorted(self._element_images()):
            if images in covered or not _cycle_lengths(images) <= lengths:
                continue
            members = Orbit(self.identity, images, moves).members
            covered |= members
            joined = span(elems, members, limit)
            if joined is not None and sigma.is_sigma_number(len(joined)):
                elems = joined
                covered |= joined
                yield elems

    @memoized()
    def o_sigma(self, sigma: PrimeSet) -> "Subgroup":
        """The largest normal sigma-subgroup, on `o_sigma_elements`."""
        return self._generated(self.o_sigma_elements(sigma))

    @memoized()
    def find_hall_sigma_subgroup(self, sigma: PrimeSet) -> "Subgroup | None":
        """A solvable Hall sigma-subgroup, or None if G has none.

        It is the representative of the first class of order |G|_sigma among
        the solvable sigma-subgroup classes, read off G's full lattice when
        that is memoized and otherwise found by cyclic extension through
        indices in sigma alone.
        """
        from .lattice import solvable_sigma_subgroup_classes

        target = sigma_part(self.order, sigma)
        for cls in solvable_sigma_subgroup_classes(self, sigma):
            if cls.order == target:
                return cls.representative
        return None

    def sigma_element_classes(self, sigma: PrimeSet) -> tuple["ConjugacyClass", ...]:
        classes = self.conjugacy_classes()
        return tuple(classes[i] for i in self.sigma_class_indices(sigma))

    def sigma_class_indices(self, sigma: PrimeSet) -> tuple[int, ...]:
        return tuple(
            i
            for i, c in enumerate(self.conjugacy_classes())
            if sigma.is_sigma_number(c.element_order)
        )

    # --- coset actions and quotients -----------------------------------------

    def coset_action(self, H: "PermGroup"):
        """Permutation image of the right-coset action on H\\G.

        Returns (image group, project) where project maps an element of G to
        its permutation of the cosets. A coset is labelled by the least image
        tuple among its elements, and the cosets are numbered in label order,
        so coset 0 is H itself, whose least element is the identity.
        """
        if not H.is_subset(self):
            raise ValueError("H is not a subgroup of the group")
        # (h * x).images is itemgetter(*h.images)(x.images); below degree 2
        # the identity is the only element and labels its own coset
        small = self.degree < 2
        h_getters = [] if small else [itemgetter(*h) for h in sorted(H.element_set())]

        def times(g: Perm, coset: tuple) -> tuple:
            """The label of the coset H x g, for x the element labelling H x."""
            if small:
                return coset
            images = itemgetter(*coset)(g.images)
            return min([h(images) for h in h_getters])

        moves = [(g, functools.partial(times, g)) for g in self.generators]
        cosets = sorted(Orbit(self.identity, self.identity.images, moves).members)
        number = {coset: i for i, coset in enumerate(cosets)}

        def project(g: Perm) -> Perm:
            return Perm(tuple(number[times(g, coset)] for coset in cosets))

        image = PermGroup(len(cosets), [project(g) for g in self.generators])
        return image, project

    @memoized(lambda G, H: ("quotient", H.element_set()))
    def quotient(self, H: "PermGroup"):
        """(G/H, projection) for normal H, memoized per H's element set; errors otherwise.

        The image is the first of three faithful actions of G/H that applies:
        - H = 1: the group itself, projected by the identity;
        - the action on the H-orbits of the points. H is normal, so the
          group permutes these orbits and H lies in the kernel. So |G:H|
          bounds the image's order, and the image is G/H exactly when its
          order reaches |G:H|;
        - otherwise the action on the cosets of H (`coset_action`).
        """
        if not self.is_normal(H):
            raise ValueError("quotient requested for a non-normal subgroup")
        if H.order == 1:
            return self, lambda g: g
        index = self.order // H.order
        orbits = H.point_orbits()
        orbit_of = {p: i for i, orbit in enumerate(orbits) for p in orbit}
        firsts = [orbit[0] for orbit in orbits]

        def project(g: Perm) -> Perm:
            return Perm(tuple(orbit_of[g.images[p]] for p in firsts))

        image = PermGroup(len(firsts), [project(g) for g in self.generators], order=index)
        if image.order < index:
            image, project = self.coset_action(H)
        if image.order * H.order != self.order:
            raise AssertionError(f"quotient order times subgroup order is not {self.order}")
        return image, project

    def point_orbits(self) -> tuple[tuple[int, ...], ...]:
        """The orbits on the points, each sorted, in the order of their least points."""
        moves = [(g, g.images.__getitem__) for g in self.generators]
        seen: set[int] = set()
        orbits = []
        for p in range(self.degree):
            if p not in seen:
                orbit = Orbit(self.identity, p, moves).members
                seen |= orbit
                orbits.append(tuple(sorted(orbit)))
        return tuple(orbits)

    # --- misc ---------------------------------------------------------------

    def primes(self) -> tuple[int, ...]:
        return prime_divisors(self.order)

    def generator_label(self) -> str:
        """The generators in cycle notation, comma-separated; "()" if there are none."""
        return ",".join(g.cycle_string() for g in self.generators) or "()"

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, <{gens}>)"


class Subgroup(PermGroup):
    """A PermGroup whose generators are checked to lie in a parent group."""

    def __init__(self, parent: PermGroup, generators, order: int | None = None):
        gens = tuple(generators)
        for g in gens:
            if not parent.contains(g):
                raise ValueError(f"{g!r} is not an element of the parent group")
        super().__init__(parent.degree, gens, order)
        if parent.order % self.order != 0:
            raise AssertionError(
                f"Lagrange violation: a subgroup of order {self.order} in a group of "
                f"order {parent.order}; stabilizer chain is broken"
            )
        if PermGroup.is_solvable.peek(parent):
            # every subgroup of a solvable group is solvable
            PermGroup.is_solvable.remember(self, True)


def span(h_set: frozenset, gens, limit: float = math.inf) -> frozenset | None:
    """The union of the cosets x H reached from H by left multiplication by
    `gens`; None as soon as it has more than `limit` members.

    It is <H, gens> when `gens` holds generators of H or normalizes H, and
    <gens> for H = 1. Elements and generators are image tuples of degree
    >= 2. The limit is checked once per coset.
    """
    elems = set(h_set)
    frontier = [min(h_set)]  # the identity, the least image tuple
    times = [itemgetter(*g) for g in gens]  # x -> g * x
    while frontier and len(elems) <= limit:
        x = frontier.pop()
        for g in times:
            y = g(x)
            if y not in elems:
                elems.update(map(itemgetter(*y), h_set))  # the coset y H
                frontier.append(y)
    return frozenset(elems) if len(elems) <= limit else None


def _cycle_lengths(images: tuple) -> set[int]:
    """The cycle lengths of the permutation with these images."""
    lengths, seen = set(), set()
    for p in images:
        if p not in seen:
            n, q = 0, p
            while q not in seen:
                seen.add(q)
                q = images[q]
                n += 1
            lengths.add(n)
    return lengths


def conjugation(g: Perm):
    """The map x -> x^g on image tuples of degree >= 2.

    x^g has images g[x[g^-1[i]]], the tuple `Perm.conjugate` builds.
    """
    pre, post = itemgetter(*g.inverse().images), g.images
    return lambda x: itemgetter(*pre(x))(post)


class _Conjugation(dict):
    """`conjugation(g)`, computed on a miss and kept.

    Sets conjugated through one map share its image tuples. Generators exist
    only for degree >= 2, where `itemgetter` returns a tuple.
    """

    __slots__ = ("_conjugate",)

    def __init__(self, g: Perm):
        super().__init__()
        self._conjugate = conjugation(g)

    def __missing__(self, x: tuple) -> tuple:
        y = self[x] = self._conjugate(x)
        return y


class Orbit:
    """The orbit of a point under a group, from one depth-first walk.

    `moves` holds one pair (g, f) per generator g of the group, where f is
    g's right action on points. The walk pops the point found last, steps
    from it by each move in turn, and adds each new image to `members`,
    recording the point and the generator that reached it. Conjugating
    elements, and the Schreier generators of a member's stabilizer, are
    multiplied out when first asked for, so an orbit read only for its
    members costs no products (the Schreier lemma; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, section 4.1). Set iteration
    depends on insertion order, and reports show generator lists read from
    orbits of element sets, so the walk order is part of the output.
    """

    def __init__(self, identity: Perm, start, moves):
        self.members = members = {start}
        self._start = start
        self._moves = moves
        self._conjugators = {start: identity}
        self._tree = tree = {}  # member -> (member reached from, g)
        self._popped = popped = []  # members in the order the walk left them
        frontier = [start]
        while frontier:
            current = frontier.pop()
            popped.append(current)
            for g, f in moves:
                image = f(current)
                if image not in members:
                    members.add(image)
                    tree[image] = (current, g)
                    frontier.append(image)

    def _reach(self, member) -> Perm:
        """The element taking the start to `member`: the product of its tree path.

        Products are formed on first use and kept for every member on the path.
        """
        path = []
        while member not in self._conjugators:
            parent, g = self._tree[member]
            path.append((member, g))
            member = parent
        u = self._conjugators[member]
        for member, g in reversed(path):
            u = u * g
            self._conjugators[member] = u
        return u

    def schreier_images(self, member):
        """The Schreier generators of the stabilizer of `member` as image
        tuples, one per step off the tree, with repeats and the identity.

        The steps are retaken in walk order. A tree step would give the
        identity, so it is skipped unretaken, told apart by the identity of
        the member and generator objects the walk recorded. Those of another
        member than the start are the start's, conjugated by the element
        taking the start to it. Generators exist only for degree >= 2, where
        `itemgetter` returns a tuple.
        """
        if not self._moves:
            return  # a trivial group, perhaps of degree 0, where `itemgetter()` fails
        moved = None if member == self._start else conjugation(self._reach(member))
        tree_steps = {(id(c), id(g)) for c, g in self._tree.values()}
        for current in self._popped:
            times_u = itemgetter(*self._reach(current).images)  # x -> u * x
            for g, f in self._moves:
                if (id(current), id(g)) not in tree_steps:
                    target = self._reach(f(current)).inverse().images
                    sg = itemgetter(*times_u(g.images))(target)
                    yield sg if moved is None else moved(sg)

    @functools.cached_property
    def canonical_key(self) -> tuple:
        """In an orbit of element sets, the least sorted member: equal exactly
        for conjugate element sets."""
        return min(tuple(sorted(s)) for s in self.members)



@dataclass(frozen=True)
class ConjugacyClass:
    representative: Perm
    size: int
    element_order: int
    members: frozenset

    def __repr__(self) -> str:
        return (
            f"Class(rep={self.representative.cycle_string()}, "
            f"size={self.size}, order={self.element_order})"
        )


def _composition_factors(G: PermGroup) -> list[int]:
    """Those of a least nontrivial proper normal M (primes if M is abelian) and of G/M."""
    closures = map(G._class_normal_closure, range(1, len(G.conjugacy_classes())))
    M = min((K for K in closures if K.order < G.order), key=lambda K: K.order, default=None)
    if M is None:
        return [G.order] if G.order > 1 else []
    if M.is_abelian():
        factors_m = [p for p, e in factorize(M.order) for _ in range(e)]
    else:
        factors_m = _composition_factors(M)
    Q, _ = G.quotient(M)
    return factors_m + _composition_factors(Q)


def bsgs_construct(generators, degree: int | None = None) -> PermGroup:
    """Build a group from a generator list; degree defaults to the generators'."""
    gens = list(generators)
    if degree is None:
        if not gens:
            raise MalformedPermError("degree required for an empty generating set")
        degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise MalformedPermError("generators have inconsistent degrees")
    return PermGroup(degree, gens)
