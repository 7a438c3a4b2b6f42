import ast
import hashlib
import math
from pathlib import Path

import pytest

from nilweight import bruteforce as bf
from nilweight.chartab import character_table
from nilweight.corpus import builtin_corpus, parse_group_file
from nilweight.perms import MalformedPermError, Perm
from nilweight import groups
from nilweight.groups import PermGroup, ResourceLimitError, bsgs_construct, resource_bound
from nilweight.lattice import subgroup_classes
from nilweight.properties import BRUTE_MAX_ORDER
from nilweight.sigma import PrimeSet, prime_divisors, sigma_part

from conftest import GROUPS_DIR, elements, group, perm


def brute_order(G):
    return len(bf.closure([g.images for g in G.generators], G.degree))


def builtins_up_to(order: int) -> list:
    return [d.build() for d in builtin_corpus() if d.expected_order <= order]


class TestConstruction:
    def test_s3_order(self, s3):
        assert s3.order == 6
        assert brute_order(s3) == 6

    def test_empty_generators(self):
        G = bsgs_construct([], degree=4)
        assert G.order == 1
        assert G.degree == 4

    def test_a5_order(self, a5):
        assert a5.order == 60
        assert brute_order(a5) == 60

    def test_inconsistent_degrees(self):
        with pytest.raises(MalformedPermError):
            bsgs_construct([Perm.parse("(1,2)", 2), Perm.parse("(1,2,3)", 3)])

    def test_orders_match_bruteforce_on_small_groups(self):
        cases = [
            group(4, "(1,2)", "(1,2,3,4)"),
            group(4, "(1,2,3)", "(1,2)(3,4)"),
            group(4, "(1,2,3,4)", "(1,3)"),
            group(8, "(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"),
            group(5, "(1,2,3,4,5)"),
            group(6, "(1,2,3)", "(4,5,6)", "(1,4)(2,5)(3,6)"),
            group(7, "(1,2,3,4,5,6,7)", "(2,3,5)"),
            group(6, "(1,2,3,4,5,6)", "(2,6)(3,5)"),
        ]
        for G in cases:
            assert G.order == brute_order(G), G

    def test_lagrange_violation_names_both_orders(self, monkeypatch):
        c3 = group(3, "(1,2,3)")
        monkeypatch.setattr(c3, "contains", lambda g: True)  # lets (1,2) through
        message = "^Lagrange violation: a subgroup of order 2 in a group of order 3;"
        with pytest.raises(AssertionError, match=message):
            c3.subgroup([perm("(1,2)", 3)])

    def test_order_certificate_product_of_orbits(self, s4):
        import math

        assert s4.order == math.prod(
            len(lvl.transversal) for lvl in s4._levels
        )


def chain(G):
    """Base, transversals and elements: everything the stabilizer chain determines."""
    transversals = [
        {p: u.images for p, u in lvl.transversal.items()} for lvl in G._levels
    ]
    return [lvl.point for lvl in G._levels], transversals, elements(G)


class TestKnownOrder:
    def test_stopping_at_the_order_gives_the_full_chain(self, monkeypatch):
        # the chain forms and sifts Schreier generators on image tuples,
        # one `itemgetter` per product
        products = [0]
        real_itemgetter = groups.itemgetter

        def itemgetter(*items):
            products[0] += 1
            return real_itemgetter(*items)

        monkeypatch.setattr(groups, "itemgetter", itemgetter)
        saved = 0
        for definition in builtin_corpus():
            gens = [Perm.parse(s, definition.degree) for s in definition.generators]
            products[0] = 0
            full = PermGroup(definition.degree, gens)
            full_products = products[0]
            products[0] = 0
            known = PermGroup(definition.degree, gens, order=full.order)
            assert products[0] <= full_products, definition.name
            saved += full_products - products[0]
            assert known.order == full.order == definition.expected_order
            assert chain(known) == chain(full), definition.name
            # a bound above the true order is never reached: the run completes
            loose = PermGroup(definition.degree, gens, order=2 * full.order)
            assert chain(loose) == chain(full), definition.name
        assert saved > 0  # the stop skips work somewhere in the corpus


class _ReferenceChain(PermGroup):
    """A group whose stabilizer chain is built by the earlier Schreier-Sims on
    `Perm` products, which rebuilt a level's transversal on every visit and
    took its (point, generator) pairs from the first each time."""

    def _schreier_sims(self, order):
        if not self.generators:
            return
        levels = self._levels

        def new_level(seed_gens):
            levels.append(groups._ChainLevel(groups._greedy_point(seed_gens, self.degree)))

        new_level(list(self.generators))
        for g in self.generators:
            if all(g.images[lvl.point] == lvl.point for lvl in levels):
                new_level([g])
        for i, lvl in enumerate(levels):
            lvl.gens = [
                g
                for g in self.generators
                if all(g.images[levels[k].point] == levels[k].point for k in range(i))
            ]
            lvl.rebuild(self.identity)

        def strip(g, start):
            for j in range(start, len(levels)):
                lvl = levels[j]
                p = g.images[lvl.point]
                if p not in lvl.transversal:
                    return g, j
                g = g * lvl.transversal[p].inverse()
            return g, len(levels)

        def process(i):
            lvl = levels[i]
            lvl.rebuild(self.identity)
            for p in sorted(lvl.transversal):
                u = lvl.transversal[p]
                for x in lvl.gens:
                    target = lvl.transversal[x.images[p]]
                    sg = u * x * target.inverse()
                    if sg.is_identity():
                        continue
                    h, j = strip(sg, i + 1)
                    if h.is_identity():
                        continue
                    if j == len(levels):
                        new_level([h])
                        levels[-1].rebuild(self.identity)
                    for k in range(i + 1, j + 1):
                        levels[k].gens.append(h)
                        levels[k].rebuild(self.identity)
                    return j
            return None

        limit = groups._bound_override.get() or max(groups.DEFAULT_BOUNDS.values())
        i = len(levels) - 1
        while i >= 0 and (size := math.prod(len(l.transversal) for l in levels)) != order:
            if size > limit:
                raise ResourceLimitError(
                    f"group order at least {size} exceeds the largest bound {limit}"
                )
            j = process(i)
            i = i - 1 if j is None else j


class TestChainOnImageTuples:
    """Sifting image tuples, resuming each level where it left off, gives the
    chain of the reference Schreier-Sims with fewer `Perm` products."""

    @staticmethod
    def _generator_lists():
        """(name, degree, generators, order) for every builtin, every group
        file, and every lattice representative of the builtins."""
        files = [parse_group_file(p.read_text()) for p in sorted(GROUPS_DIR.glob("*.txt"))]
        for definition in [*builtin_corpus(), *files]:
            gens = [Perm.parse(s, definition.degree) for s in definition.generators]
            yield definition.name, definition.degree, gens, None
        for definition in builtin_corpus():
            for cls in subgroup_classes(definition.build()):
                H = cls.representative
                yield definition.name, H.degree, H.generators, None
                yield definition.name, H.degree, H.generators, H.order

    def test_same_chain_as_the_reference(self, monkeypatch):
        products = [0]
        real_mul = Perm.__mul__

        def mul(a, b):
            products[0] += 1
            return real_mul(a, b)

        monkeypatch.setattr(Perm, "__mul__", mul)
        saved = 0
        for name, degree, gens, order in self._generator_lists():
            products[0] = 0
            reference = _ReferenceChain(degree, gens, order)
            reference_products = products[0]
            products[0] = 0
            G = PermGroup(degree, gens, order)
            assert chain(G) == chain(reference), name
            assert products[0] <= reference_products, name
            saved += reference_products - products[0]
        assert saved > 0


class TestLargestBound:
    def test_chain_stops_once_past_the_largest_default(self):
        # S_80 from a transposition and an 80-cycle: 80 * 79 * 78 > 100,000
        cycle = "(" + ",".join(map(str, range(1, 81))) + ")"
        with pytest.raises(ResourceLimitError, match="exceeds the largest bound 100000"):
            group(80, "(1,2)", cycle)

    def test_an_override_is_the_largest_bound(self):
        with resource_bound(100), pytest.raises(ResourceLimitError, match="bound 100$"):
            group(5, "(1,2)", "(1,2,3,4,5)")
        with resource_bound(120):
            assert group(5, "(1,2)", "(1,2,3,4,5)").order == 120


class TestMembership:
    def test_generator_is_member(self, s3):
        assert s3.contains(perm("(1,2)", 3))

    def test_identity_is_member(self, s3, a5):
        assert s3.contains(Perm.identity(3))
        assert a5.contains(Perm.identity(5))

    def test_odd_perm_not_in_a5(self, a5):
        assert not a5.contains(perm("(1,2)", 5))

    def test_membership_matches_bruteforce(self, a4):
        elems = bf.closure([g.images for g in a4.generators], 4)
        from itertools import permutations

        for images in permutations(range(4)):
            assert a4.contains(Perm(images)) == (images in elems)

    def test_degree_mismatch(self, s3):
        with pytest.raises(MalformedPermError):
            s3.contains(perm("(1,2)", 4))

    def test_sifting_and_the_element_set_agree(self):
        from itertools import permutations

        G = group(5, "(1,2,3,4,5)", "(1,2)(3,4)")  # D10, fresh: no element set yet
        elems = bf.closure([g.images for g in G.generators], 5)
        sifted = [G.contains(Perm(images)) for images in permutations(range(5))]
        assert PermGroup.element_set.peek(G) is None
        G.element_set()
        looked_up = [G.contains(Perm(images)) for images in permutations(range(5))]
        assert sifted == looked_up == [images in elems for images in permutations(range(5))]


class TestElements:
    def test_element_listing(self, s4):
        elems = elements(s4)
        assert len(elems) == 24
        assert len(set(elems)) == 24
        assert bf.closure([g.images for g in s4.generators], 4) == {
            e.images for e in elems
        }


class TestConjugacyClasses:
    def test_s3_classes(self, s3):
        cls = s3.conjugacy_classes()
        assert [c.size for c in cls] == [1, 3, 2]
        assert [c.element_order for c in cls] == [1, 2, 3]

    def test_trivial_group(self):
        G = bsgs_construct([], degree=3)
        assert len(G.conjugacy_classes()) == 1

    def test_a5_classes(self, a5):
        assert [c.size for c in a5.conjugacy_classes()] == [1, 15, 20, 12, 12]

    def test_classes_match_bruteforce(self, s4, a4, q8):
        for G in (s4, a4, q8):
            elems = bf.closure([g.images for g in G.generators], G.degree)
            expected = {
                frozenset(c) for c in bf.conjugacy_classes(elems)
            }
            got = {c.members for c in G.conjugacy_classes()}
            assert got == expected

    def test_class_sizes_sum_to_order(self, s4, a5, c3xc3_c2):
        for G in (s4, a5, c3xc3_c2):
            assert sum(c.size for c in G.conjugacy_classes()) == G.order

    def test_minimal_representatives(self, s4):
        for c in s4.conjugacy_classes():
            assert c.representative.images == min(c.members)

    def test_bound(self, s4):
        with resource_bound(10), pytest.raises(ResourceLimitError):
            s4.conjugacy_classes()


class TestCentralizer:
    def test_s3_three_cycle(self, s3):
        C = s3.centralizer(perm("(1,2,3)", 3))
        assert C.order == 3

    def test_identity_gives_group(self, s4):
        assert s4.centralizer(Perm.identity(4)).order == 24

    def test_s4_double_transposition(self, s4):
        assert s4.centralizer(perm("(1,2)(3,4)", 4)).order == 8

    def test_not_a_member(self, a5):
        with pytest.raises(ValueError):
            a5.centralizer(perm("(1,2)", 5))

    def test_matches_bruteforce(self):
        for G in builtins_up_to(BRUTE_MAX_ORDER):
            elems = G.element_set()
            for c in G.conjugacy_classes():
                C = G.centralizer(c.representative)
                assert C.element_set() == frozenset(
                    bf.centralizer(elems, c.representative.images)
                ), (G, c)

    def test_class_equation(self, s4, a5):
        for G in (s4, a5):
            for c in G.conjugacy_classes():
                C = G.centralizer(c.representative)
                assert c.size * C.order == G.order

    def test_of_a_subgroup_matches_bruteforce(self):
        for G in builtins_up_to(BRUTE_MAX_ORDER):
            elems = G.element_set()
            for H in [*(cls.representative for cls in subgroup_classes(G)), G]:
                expected = set(elems)
                for h in H.generators:
                    expected &= bf.centralizer(elems, h.images)
                assert G.centralizer_of_subgroup(H).element_set() == expected, (G, H)

    def test_of_a_subgroup_builds_only_its_stabilizers(self, monkeypatch):
        # C_S4(V4): the stabilizer of (1,2)(3,4) is D8, and that of
        # (1,3)(2,4) in D8 is V4, the result itself with no third group
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        V4 = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        built = []
        init = PermGroup.__init__

        def count(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PermGroup, "__init__", count)
        C = s4.centralizer_of_subgroup(V4)
        assert [K.order for K in built] == [8, 4]
        assert C is built[-1]


class TestClassImage:
    def test_matches_bruteforce_conjugation(self, s4):
        # S4 acts on each of its normal subgroups; g x g^-1 = conj(x, g^-1)
        for N in s4.normal_subgroups():
            classes = N.conjugacy_classes()
            for g in elements(s4):
                image = N.class_image(g)
                for i, c in enumerate(classes):
                    for x in c.members:
                        assert bf.conj(x, bf.inv(g.images)) in classes[image[i]].members


class TestNormalizer:
    def test_v4_normal_in_s4(self, s4):
        H = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        assert s4.normalizer(H).order == 24

    def test_sylow3_self_normalizing_in_a4(self, a4):
        H = a4.subgroup([perm("(1,2,3)", 4)])
        assert a4.normalizer(H).order == 3

    def test_contains_subgroup(self, s4):
        H = s4.subgroup([perm("(1,2)", 4)])
        N = s4.normalizer(H)
        assert H.is_subset(N)

    def test_matches_bruteforce(self, s4):
        # every subgroup: one walk per class serves all of its conjugates
        elems = bf.closure([g.images for g in s4.generators], 4)
        for member in bf.all_subgroups(elems, 4):
            H = s4.subgroup([Perm(im) for im in member])
            assert s4.normalizer(H).element_set() == frozenset(
                bf.normalizer(elems, member)
            )

    @pytest.mark.parametrize("degree", [0, 1])
    def test_trivial_groups_of_degree_below_two(self, degree):
        G = PermGroup(degree, [])
        assert G.normalizer(G.subgroup([])).order == 1
        assert [c.order for c in subgroup_classes(G)] == [1]

    def test_not_a_subgroup(self, a5):
        H = bsgs_construct([perm("(1,2)", 5)], 5)
        with pytest.raises(ValueError):
            a5.normalizer(H)

    @pytest.mark.parametrize(
        "degree, gens, digest",
        [
            (
                4,
                ["(1,2)", "(1,2,3,4)"],
                "36c5615e1979c7f851a599a7841c0ffa9bc6c85dcd3b34f9bfd035b20b8a2bfc",
            ),
            (
                5,
                ["(1,2,3,4,5)", "(3,4,5)"],
                "b4e060182c06867b58d1f0f0edabb0410fbad618fb3db77058ea7d3e1506a5f2",
            ),
        ],
        ids=["S4", "A5"],
    )
    def test_generator_labels_are_pinned(self, degree, gens, digest):
        # normalizer generators are H's, then the Schreier generators that
        # `normalizer_elements` kept in orbit-walk order; reports print
        # generator lists, so the order is pinned
        G = group(degree, *gens)
        classes = subgroup_classes(G)
        labels = [G.normalizer(c.representative).generator_label() for c in classes]
        assert hashlib.sha256(repr(labels).encode()).hexdigest() == digest


def test_bruteforce_oracle_imports_nothing_from_the_engine():
    for node in ast.walk(ast.parse(Path(bf.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "nilweight"
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "nilweight" for a in node.names)


def test_bounds_and_memo_have_one_home():
    # resource bounds and the memo live in `groups`; no module keeps its own
    offenders = []
    for path in sorted(Path(groups.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name != "groups.py" and "._memo" in text:
            offenders.append(f"{path.name} touches ._memo")
        for node in ast.walk(ast.parse(text)):
            name = getattr(node, "id", None) or getattr(node, "attr", "")
            stored = isinstance(getattr(node, "ctx", None), ast.Store)
            if stored and name.endswith("_BOUND"):
                offenders.append(f"{path.name} assigns {name}")
    assert offenders == []


class TestQuotients:
    def test_s4_mod_v4(self, s4):
        V = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        Q, project = s4.quotient(V)
        assert Q.order == 6
        assert not Q.is_abelian()
        # surjective homomorphism with kernel V
        kernel = [g for g in elements(s4) if project(g).is_identity()]
        assert frozenset(k.images for k in kernel) == V.element_set()

    def test_quotient_by_self(self, s4):
        Q, _ = s4.quotient(s4)
        assert Q.order == 1

    def test_d8_mod_center(self, d8):
        Z = d8.center()
        assert Z.order == 2
        Q, _ = d8.quotient(Z)
        assert Q.order == 4
        assert all(c.element_order <= 2 for c in Q.conjugacy_classes())

    def test_non_normal_rejected(self, s4):
        H = s4.subgroup([perm("(1,2)", 4)])
        with pytest.raises(ValueError):
            s4.quotient(H)

    def test_homomorphism_property(self, s4):
        V = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        _, project = s4.quotient(V)
        elems = elements(s4)
        for a in elems[::5]:
            for b in elems[::7]:
                assert project(a * b) == project(a) * project(b)

    def test_mod_trivial_is_the_group_itself(self, s4):
        Q, project = s4.quotient(s4.subgroup([]))
        assert Q is s4
        assert all(project(g) is g for g in s4.generators)

    def test_orbit_action_when_faithful(self):
        s3xs3 = group(6, "(1,2)", "(1,2,3)", "(4,5)", "(4,5,6)")
        first = s3xs3.subgroup(s3xs3.generators[:2])
        Q, _ = s3xs3.quotient(first)
        # the orbits {1,2,3}, {4}, {5}, {6}
        assert Q.degree == 4 and Q.order == 6

    def test_coset_action_when_the_orbit_action_is_short(self, s4, d8):
        V = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        # V is transitive, and Z(D8) has two orbits for a quotient of order 4
        for G, H in ((s4, V), (d8, d8.center())):
            Q, _ = G.quotient(H)
            assert Q.generators == G.coset_action(H)[0].generators
            assert Q.degree == G.order // H.order

    def test_every_normal_subgroup_and_weight_quotient_of_builtins(self):
        for G in builtins_up_to(BRUTE_MAX_ORDER):
            pairs = [(G, H) for H in G.normal_subgroups()]
            for cls in subgroup_classes(G):
                if cls.is_nilpotent():
                    pairs.append((G.normalizer(cls.representative), cls.representative))
            for N, H in pairs:
                image, project = N.quotient(H)
                assert image.order == N.order // H.order
                elems = elements(N)
                image_of = {x.images: project(x) for x in elems}
                kernel = {x for x, y in image_of.items() if y.is_identity()}
                assert kernel == H.element_set()
                for x in elems:
                    for g in N.generators:
                        assert image_of[(x * g).images] == image_of[x.images] * project(g)
                reps = [c.representative for c in N.conjugacy_classes()]

                def rows(Q, proj):
                    at = [Q.class_index_of(proj(r)) for r in reps]
                    irr = character_table(Q).irreducibles
                    return {tuple(chi.values[i] for i in at) for chi in irr}

                assert rows(image, project) == rows(*N.coset_action(H))


def brute_is_solvable(elems: set, degree: int) -> bool:
    """Whether the derived series of a group, given by its element set, reaches 1."""
    while len(elems) > 1:
        comms = {
            bf.mult(bf.mult(bf.inv(a), bf.inv(b)), bf.mult(a, b))
            for a in elems
            for b in elems
        }
        derived = bf.closure(comms, degree)
        if len(derived) == len(elems):
            return False
        elems = derived
    return True


def brute_is_nilpotent(elems: set, degree: int) -> bool:
    """Whether, for every p, the group has exactly |H|_p elements of p-power order."""
    identity = tuple(range(degree))

    def element_order(x):
        y, k = x, 1
        while y != identity:
            y, k = bf.mult(y, x), k + 1
        return k

    orders = [element_order(x) for x in elems]
    for p in prime_divisors(len(elems)):
        p_elements = sum(1 for o in orders if sigma_part(o, PrimeSet([p])) == o)
        if p_elements != sigma_part(len(elems), PrimeSet([p])):
            return False
    return True


class TestStructure:
    def test_s4(self, s4):
        assert s4.is_solvable() and not s4.is_nilpotent()
        series = [s4]
        while series[-1].order > 1:
            series.append(series[-1].derived_subgroup())
        assert [H.order for H in series] == [24, 12, 4, 1]

    def test_d8_nilpotent(self, d8):
        assert d8.is_nilpotent()

    def test_a5_neither(self, a5):
        assert not a5.is_solvable() and not a5.is_nilpotent()
        assert a5.derived_subgroup().order == 60

    def test_nilpotent_implies_solvable(self, q8, d8, s3):
        for G in (q8, d8, s3):
            assert not G.is_nilpotent() or G.is_solvable()

    def test_matches_bruteforce_on_every_subgroup_class(self):
        # S5 adds a non-solvable group whose derived subgroup is proper
        s5 = group(5, "(1,2)", "(1,2,3,4,5)")
        for G in [*builtins_up_to(BRUTE_MAX_ORDER), s5]:
            for cls in subgroup_classes(G):
                H = cls.representative
                # a fresh group runs both series itself, inheriting nothing
                fresh = PermGroup(H.degree, H.generators)
                elems = bf.closure([g.images for g in H.generators], H.degree)
                assert fresh.is_solvable() == brute_is_solvable(elems, H.degree), H
                assert fresh.is_nilpotent() == brute_is_nilpotent(elems, H.degree), H

    def test_each_series_is_memoized_alone(self, monkeypatch):
        def refuse(G):
            raise AssertionError("derived series asked for")

        G = group(4, "(1,2)", "(1,2,3,4)")
        assert G.is_solvable()
        # nothing of the nilpotency count is kept
        assert set(G._memo) == {("is_solvable",)}
        monkeypatch.setattr(PermGroup, "derived_subgroup", refuse)
        # nilpotency counts p-elements, so only the element images are kept
        for G in (group(4, "(1,2)", "(1,2,3,4)"), group(4, "(1,2,3,4)", "(1,3)")):
            G.is_nilpotent()
            assert set(G._memo) == {("is_nilpotent",), ("_element_images",)}

    def test_subgroup_of_a_solvable_group_inherits_solvability(self, monkeypatch):
        def refuse(G):
            raise AssertionError("a derived series of its own")

        G = group(4, "(1,2)", "(1,2,3,4)")
        before = G.subgroup([perm("(1,2,3)", 4)])
        assert G.is_solvable()
        after = G.subgroup([perm("(1,2,3)", 4)])
        a5 = group(5, "(1,2,3,4,5)", "(3,4,5)")
        assert not a5.is_solvable()
        a4 = a5.subgroup([perm("(1,2,3)", 5), perm("(1,2)(3,4)", 5)])
        monkeypatch.setattr(PermGroup, "derived_subgroup", refuse)
        # read from the parent, without a derived series of its own
        assert after.is_solvable()
        # a subgroup made before the parent's answer, or of a non-solvable
        # parent, runs its own series
        for H in (before, a4):
            with pytest.raises(AssertionError, match="of its own"):
                H.is_solvable()


class TestNormalStructure:
    def test_o2_of_s4(self, s4):
        O = s4.o_sigma(PrimeSet([2]))
        assert O.order == 4
        assert all(g.order() in (1, 2) for g in elements(O))

    def test_o3_of_s4(self, s4):
        assert s4.o_sigma(PrimeSet([3])).order == 1

    def test_sigma_group_case(self, d8):
        assert d8.o_sigma(PrimeSet([2])).order == 8

    def test_o_sigma_maximal(self, s4, a4, q8, c3xc3_c2):
        for G in (s4, a4, q8, c3xc3_c2):
            for sigma in (PrimeSet([2]), PrimeSet([3]), PrimeSet([2, 3])):
                O = G.o_sigma(sigma)
                assert G.is_normal(O)
                assert sigma.is_sigma_number(O.order)
                for N in G.normal_subgroups():
                    if sigma.is_sigma_number(N.order):
                        assert N.is_subset(O)

    def test_a_normal_closure_is_one_build_on_the_classes_of_its_seeds(self, monkeypatch):
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        g_elems = bf.closure([g.images for g in s4.generators], 4)
        builds = []
        real = PermGroup.subgroup

        def subgroup(self, generators, order=None):
            builds.append(self)
            return real(self, generators, order)

        monkeypatch.setattr(PermGroup, "subgroup", subgroup)
        for cycles in (["(1,2)"], ["(1,2,3)"], ["(1,2)(3,4)"], ["(1,3)(2,4)", "(1,2)(3,4)"], []):
            seeds = [perm(c, 4) for c in cycles]
            builds.clear()
            K = s4.normal_closure(seeds)
            conjugates = [s.conjugate(Perm(x)).images for s in seeds for x in g_elems]
            assert K.element_set() == frozenset(bf.closure(conjugates, 4)), cycles
            assert builds == [s4], cycles

    def test_normal_subgroups_of_s4(self, s4):
        orders = sorted(N.order for N in s4.normal_subgroups())
        assert orders == [1, 4, 12, 24]

    def test_composition_factors(self, s4, a5, q8):
        assert s4.composition_factor_orders() == (2, 2, 2, 3)
        assert a5.composition_factor_orders() == (60,)
        assert q8.composition_factor_orders() == (2, 2, 2)

    def test_a_nonabelian_minimal_normal_subgroup_is_recursed_on_as_built(self, monkeypatch):
        # S5 > A5 and S6 > A6: the least proper normal subgroup is not
        # abelian, so the factors recurse on it; the builtin A5 is simple
        # and has no such step
        built, called = [], []
        init, factors = PermGroup.__init__, groups._composition_factors

        def count(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        def record(G):
            called.append(G)
            return factors(G)

        monkeypatch.setattr(PermGroup, "__init__", count)
        monkeypatch.setattr(groups, "_composition_factors", record)
        s6 = parse_group_file((GROUPS_DIR / "S6.txt").read_text()).build()
        a5 = next(d for d in builtin_corpus() if d.name == "A5").build()
        for G, expected, builds in (
            (group(5, "(1,2)", "(1,2,3,4,5)"), (2, 60), 13),
            (s6, (2, 360), 19),
            (a5, (60,), 4),
        ):
            built.clear()
            called.clear()
            assert G.composition_factor_orders() == expected
            assert len(built) == builds, G.order
            closures = [G._class_normal_closure(i) for i in range(len(G.conjugacy_classes()))]
            assert all(any(M is K for K in closures) for M in called[1:-1]), G.order

    def test_separability(self, s4, a5):
        assert s4.is_sigma_separable(PrimeSet([2]))
        assert not a5.is_sigma_separable(PrimeSet([2]))
        assert a5.is_sigma_separable(PrimeSet([2, 3, 5]))
        assert a5.is_sigma_separable(PrimeSet())

    def test_solvable_group_skips_composition_factors(self, monkeypatch):
        def refuse(G):
            raise AssertionError("composition factors of a solvable group")

        monkeypatch.setattr(PermGroup, "composition_factor_orders", refuse)
        d10 = group(5, "(1,2,3,4,5)", "(2,5)(3,4)")
        assert all(d10.is_sigma_separable(PrimeSet(p)) for p in ([], [2], [5], [2, 5]))


class TestHallAndSigmaClasses:
    def test_hall_2_of_s4(self, s4):
        H = s4.find_hall_sigma_subgroup(PrimeSet([2]))
        assert H.order == 8

    def test_hall_full(self, s4):
        assert s4.find_hall_sigma_subgroup(PrimeSet([2, 3])).order == 24

    def test_hall_3_of_a4(self, a4):
        assert a4.find_hall_sigma_subgroup(PrimeSet([3])).order == 3

    def test_hall_missing_in_a5(self, a5):
        assert a5.find_hall_sigma_subgroup(PrimeSet([2, 5])) is None

    def test_hall_reads_only_the_solvable_sigma_lattice(self):
        a5 = group(5, "(1,2,3,4,5)", "(3,4,5)")  # fresh: no lattice memoized
        assert a5.find_hall_sigma_subgroup(PrimeSet([2, 3])).order == 12
        assert subgroup_classes.peek(a5) is None

    def test_hall_consistency(self, s4, a4, d8, c3xc3_c2):
        for G in (s4, a4, d8, c3xc3_c2):
            for sigma in (PrimeSet([2]), PrimeSet([3]), PrimeSet([2, 3])):
                H = G.find_hall_sigma_subgroup(sigma)
                assert H is not None
                assert H.order == sigma_part(G.order, sigma)

    def test_sigma_classes(self, s4, s3, a5):
        assert len(s4.sigma_element_classes(PrimeSet([3]))) == 2
        assert len(s3.sigma_element_classes(PrimeSet([2]))) == 2
        assert len(a5.sigma_element_classes(PrimeSet())) == 1


class TestCosetAction:
    def test_image_of_coset_action(self, s4):
        H = s4.subgroup([perm("(1,2)", 4), perm("(1,2,3)", 4)])  # S3, index 4
        image, project = s4.coset_action(H)
        assert image.degree == 4
        assert image.order == 24  # faithful: core of S3 in S4 is trivial

    def test_every_subgroup_class_of_builtins(self):
        for G in builtins_up_to(60):
            elems = elements(G)
            for cls in subgroup_classes(G):
                H = cls.representative
                image, project = G.coset_action(H)
                if cls.class_size == 1:  # H is normal and the kernel
                    assert image.order == G.order // H.order
                # coset 0 is H, so its stabilizer is H
                stabilizer = {x.images for x in elems if project(x).images[0] == 0}
                assert stabilizer == H.element_set()
                # a map multiplicative against every generator is a homomorphism
                assert project(G.identity).is_identity()
                for x in elems:
                    for g in G.generators:
                        assert project(x * g) == project(x) * project(g)


class TestMoreInvariants:
    def test_normalizer_idempotent(self, s4):
        H = s4.subgroup([perm("(1,2)", 4)])
        N = s4.normalizer(H)
        NN = s4.normalizer(N)
        assert N.is_subset(NN)

    def test_exponent_divides_order(self, s4, a5, q8, c3xc3_c2):
        for G in (s4, a5, q8, c3xc3_c2):
            assert G.order % G.exponent() == 0

    def test_composition_factors_of_solvable_groups_are_prime_multiset(self):
        # for solvable G the factor multiset equals the prime factorization
        from nilweight.corpus import builtin_corpus
        from nilweight.sigma import factorize

        for d in builtin_corpus():
            G = d.build()
            if not G.is_solvable() or G.order > 150:
                continue
            expected = sorted(p for p, e in factorize(G.order) for _ in range(e))
            assert list(G.composition_factor_orders()) == expected, d.name
