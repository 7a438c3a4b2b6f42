import hashlib

import pytest

from nilweight import bruteforce as bf
from nilweight import groups, lattice
from nilweight.corpus import builtin_by_name, builtin_corpus
from nilweight.groups import PermGroup, bsgs_construct
from nilweight.lattice import (
    carter_fiber,
    carter_members,
    carter_subgroups,
    is_carter_in,
    nilpotent_sigma_subgroup_classes,
    solvable_sigma_subgroup_classes,
    subgroup_class_of,
    subgroup_classes,
)
from nilweight.perms import Perm
from nilweight.sigma import PrimeSet, factorize, sigma_part
from nilweight.verify import (
    bijection_setup,
    check_canonical_bijection,
    check_weight_count,
    sigma_subsets,
)

from conftest import group, lattice_group_files, perm

# every builtin, and every desk-scale group file within the lattice bound
LATTICE_CORPUS = [*builtin_corpus(), *lattice_group_files()]


def _rows(classes):
    return [
        (c.order, c.class_size, c.canonical_key, c.representative.generator_label())
        for c in classes
    ]


class TestSubgroupClasses:
    def test_s3(self, s3):
        classes = subgroup_classes(s3)
        assert [c.order for c in classes] == [1, 2, 3, 6]
        assert [c.class_size for c in classes] == [1, 3, 1, 1]

    def test_cp(self):
        c5 = group(5, "(1,2,3,4,5)")
        assert len(subgroup_classes(c5)) == 2

    def test_s4_eleven_classes(self, s4):
        assert len(subgroup_classes(s4)) == 11

    def test_matches_bruteforce(self, s4, a4, d8, q8, c3xc3_c2):
        # S3xS3 and A4xC3 have non-cyclic quotients N(H)/H, where several
        # z give the same overgroup <H, z>
        s3xs3 = group(6, "(1,2)", "(1,2,3)", "(4,5)", "(4,5,6)")
        a4xc3 = group(7, "(1,2,3)", "(1,2)(3,4)", "(5,6,7)")
        for G in (s4, a4, d8, q8, c3xc3_c2, s3xs3, a4xc3):
            elems = bf.closure([g.images for g in G.generators], G.degree)
            expected = bf.subgroups_up_to_conjugacy(elems, G.degree)
            classes = subgroup_classes(G)
            got = {c.canonical_key: c.class_size for c in classes}
            want = {min(tuple(sorted(s)) for s in o): len(o) for o in expected}
            assert len(got) == len(classes)
            assert got == want

    def test_nonsolvable_lattice_a5(self, a5):
        # 1, C2, C3, V4, C5, S3, D10, A4, A5
        classes = subgroup_classes(a5)
        assert [c.order for c in classes] == [1, 2, 3, 4, 5, 6, 10, 12, 60]
        elems = bf.closure([g.images for g in a5.generators], 5)
        expected = bf.subgroups_up_to_conjugacy(elems, 5)
        got = {c.canonical_key: c.class_size for c in classes}
        want = {min(tuple(sorted(s)) for s in o): len(o) for o in expected}
        assert got == want

    @pytest.mark.parametrize(
        "degree, gens, count, digest",
        [
            (
                5,
                ["(1,2)", "(1,2,3,4,5)"],
                19,
                "179cc15cf162e2684fbb277066d1d8622088b03a84586b87f766b978d876176b",
            ),
            (
                7,
                ["(1,2,3,4,5)", "(3,4,5)", "(6,7)"],
                22,
                "f9e9bffc18ef7e56976f99d3549e91bd27b3f2e81221bebf276176769e74bbf5",
            ),
        ],
        ids=["S5", "A5xC2"],
    )
    def test_nonsolvable_lattice_order_120(self, degree, gens, count, digest):
        # the brute-force oracle takes many seconds at order 120, so the class
        # list is pinned by a digest of the cyclic-extension lattice that
        # built every candidate as a subgroup
        G = group(degree, *gens)
        rows = [
            (c.order, c.class_size, c.canonical_key, c.representative.generator_label())
            for c in subgroup_classes(G)
        ]
        assert len(rows) == count
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


class TestCyclicExtension:
    @pytest.mark.parametrize(
        "degree, gens",
        [(4, ["(1,2)", "(1,2,3,4)"]), (6, ["(1,2)", "(1,2,3)", "(4,5)", "(4,5,6)"])],
        ids=["S4", "S3xS3"],
    )
    def test_one_candidate_set_per_prime_index_overgroup(self, monkeypatch, degree, gens):
        G = group(degree, *gens)  # a fresh group, so the lattice is not memoized
        G.is_solvable()  # memoize the derived series before counting
        formed = []  # (H, K) element sets, one per candidate formed in H's loop
        built = []  # element sets of the subgroups built in the loops
        current = []
        real_normalizer, real_subgroup = PermGroup.normalizer_elements, PermGroup.subgroup
        real_span = lattice.span

        def normalizer(self, h_set):
            # each representative's loop starts with its normalizer's element set
            current.clear()
            n_set = real_normalizer(self, h_set)
            current.append(h_set)
            return n_set

        def span(h_set, gens):
            K = real_span(h_set, gens)
            formed.append((current[0], K))
            return K

        def subgroup(self, generators, order=None):
            K = real_subgroup(self, generators, order)
            if current and self is G:
                built.append(K.element_set())
            return K

        monkeypatch.setattr(PermGroup, "normalizer_elements", normalizer)
        monkeypatch.setattr(PermGroup, "subgroup", subgroup)
        monkeypatch.setattr(lattice, "span", span)
        classes = subgroup_classes(G)
        monkeypatch.undo()

        elems = bf.closure([g.images for g in G.generators], degree)
        pairs = set()
        for cls in classes:
            h_set = cls.representative.element_set()
            for z in bf.normalizer(elems, h_set) - h_set:
                K = frozenset(bf.closure(h_set | {z}, degree))
                index = len(K) // len(h_set)
                if all(index % d for d in range(2, index)):
                    pairs.add((h_set, K))
        assert len(formed) == len(set(formed))
        assert set(formed) == pairs
        # a subgroup is built only for a candidate of a new class, once each
        keys = [G.subgroup_orbit(k).canonical_key for k in built]
        assert sorted(keys) == sorted(c.canonical_key for c in classes[1:])


class TestCertificatesNameTheGroup:
    """Each lattice certificate, forced by a wrong span, names the group's order."""

    @staticmethod
    def _corrupt(k_set):
        """A set of the same size as `k_set` that is no subgroup."""
        return k_set - {max(k_set)} | {("not an element",)}

    def test_cyclic_extension_of_the_wrong_order(self, monkeypatch):
        s4 = group(4, "(1,2)", "(1,2,3,4)")  # fresh: the lattice is not memoized
        monkeypatch.setattr(lattice, "span", lambda h_set, gens: h_set)
        message = "^cyclic extension has the wrong order in the lattice of a group of order 24$"
        with pytest.raises(AssertionError, match=message):
            subgroup_classes(s4)

    def test_cyclic_extension_that_differs_from_its_span(self, monkeypatch):
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        real = lattice.span
        monkeypatch.setattr(lattice, "span", lambda h_set, gens: self._corrupt(real(h_set, gens)))
        message = "^cyclic extension differs from its span in the lattice of a group of order 24$"
        with pytest.raises(AssertionError, match=message):
            subgroup_classes(s4)

    def test_join_that_differs_from_its_span(self, monkeypatch):
        a5 = group(5, "(1,2,3,4,5)", "(3,4,5)")
        real_span, real_completion = lattice.span, lattice._nonsolvable_completion

        def completion(G, collector):
            # the cyclic extension is left whole; the join pass gets wrong spans
            monkeypatch.setattr(lattice, "span", lambda h_set, gens: self._corrupt(real_span(h_set, gens)))
            real_completion(G, collector)

        monkeypatch.setattr(lattice, "_nonsolvable_completion", completion)
        message = "^join differs from its span in the lattice of a group of order 60$"
        with pytest.raises(AssertionError, match=message):
            subgroup_classes(a5)

    def test_subgroup_class_registered_twice(self, monkeypatch):
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        real = lattice.span

        def forgetful(h_set, gens):
            # drops the memoized subgroup orbits, so no candidate is known
            for key in [k for k in s4._memo if k[0] == "subgroup_orbit"]:
                del s4._memo[key]
            return real(h_set, gens)

        monkeypatch.setattr(lattice, "span", forgetful)
        message = "^subgroup class registered twice in the lattice of a group of order 24$"
        with pytest.raises(AssertionError, match=message):
            subgroup_classes(s4)

    def test_no_carter_class(self, monkeypatch):
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        real = lattice.subgroup_classes

        def without_carter(G):
            # drops the self-normalizing nilpotent class, D8
            carter = [c for c in real(G) if c.is_nilpotent() and G.order == c.order * c.class_size]
            return tuple(c for c in real(G) if c not in carter)

        monkeypatch.setattr(lattice, "subgroup_classes", without_carter)
        message = (
            "^expected exactly one self-normalizing nilpotent class, found 0 "
            "in the lattice of a group of order 24$"
        )
        with pytest.raises(AssertionError, match=message):
            carter_subgroups(s4)


class TestSubgroupBuilds:
    @pytest.mark.parametrize("definition", builtin_corpus(), ids=lambda d: d.name)
    def test_builds_per_class(self, monkeypatch, definition):
        G = definition.build()  # a fresh group, so the lattice is not memoized
        solvable = G.is_solvable()  # memoize the derived series before counting
        builds = []
        real_subgroup = PermGroup.subgroup

        def subgroup(self, generators, order=None):
            builds.append(self)
            return real_subgroup(self, generators, order)

        monkeypatch.setattr(PermGroup, "subgroup", subgroup)
        classes = subgroup_classes(G)
        monkeypatch.undo()
        if solvable:
            # a representative per class, and no normalizer
            assert len(builds) == len(classes)
        else:
            # plus one cyclic subgroup per prime-power element class
            prime_power = [
                c for c in G.conjugacy_classes() if len(factorize(c.element_order)) == 1
            ]
            assert len(builds) <= len(classes) + len(prime_power)


class TestNormalizerElements:
    """N_G(H) as an element set, spanned off H's orbit with no subgroup built,
    and `PermGroup.normalizer` as the subgroup on it."""

    @pytest.mark.parametrize(
        "definition",
        [d for d in builtin_corpus() if "nonsolvable" not in d.tags],
        ids=lambda d: d.name,
    )
    def test_a_solvable_lattice_builds_no_normalizer(self, definition):
        G = definition.build()  # a fresh group, so the lattice is not memoized
        subgroup_classes(G)
        carter_subgroups(G)
        assert [key for key in G._memo if key[0] == "normalizer"] == []

    @pytest.mark.parametrize("definition", LATTICE_CORPUS, ids=lambda d: d.name)
    def test_equals_the_normalizer_subgroup(self, definition):
        G = definition.build()
        g_set = G.element_set()
        for cls in subgroup_classes(G):
            h_set = cls.representative.element_set()
            got, _ = G.normalizer_elements(h_set)
            assert got == G.normalizer(cls.representative).element_set(), cls
            if G.order <= 120:
                assert got == frozenset(bf.normalizer(g_set, h_set)), cls

    @pytest.mark.parametrize("name", ["S4", "S3xS3", "A5"])
    def test_every_member_and_a_walk_without_records(self, name):
        G = builtin_by_name(name).build()
        g_set = G.element_set()
        for cls in subgroup_classes(G):
            orbit = G.subgroup_orbit(cls.representative.element_set())
            for member in orbit.members:  # all but the start conjugate the start's
                want = frozenset(bf.normalizer(g_set, member))
                assert G.normalizer_elements(member)[0] == want
        H = builtin_by_name(name).build()  # fresh: no normalizer is memoized
        for cls in subgroup_classes(G):
            h_set = cls.representative.element_set()
            orbit = H.subgroup_orbit(h_set)
            list(orbit.schreier_images(h_set))  # reading them first changes nothing
            assert H.normalizer_elements(h_set)[0] == G.normalizer(
                cls.representative
            ).element_set()

    def test_too_few_schreier_generators_name_the_order(self, monkeypatch):
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        trivial = s4.subgroup([]).element_set()
        s4.subgroup_orbit(trivial)
        monkeypatch.setattr(groups, "span", lambda h_set, gens: h_set)
        with pytest.raises(AssertionError, match="^orbit length times normalizer order is not 24$"):
            s4.normalizer_elements(trivial)

    @pytest.mark.parametrize("definition", LATTICE_CORPUS, ids=lambda d: d.name)
    def test_each_kept_generator_at_least_doubles_the_span(self, definition):
        # so N_G(H) has at most |gens(H)| + log2 |N_G(H) : H| generators
        G = definition.build()
        for cls in subgroup_classes(G):
            H = cls.representative
            N = G.normalizer(H)
            assert 2 ** (len(N.generators) - len(H.generators)) <= N.order // H.order, cls

    def test_bijection_and_carter_tests_build_only_the_local_normalizer(self, monkeypatch):
        G = next(d for d in lattice_group_files() if d.name == "AGL116").build()
        sigma = PrimeSet([2])
        N, H = bijection_setup(G, sigma)
        built = []
        real = PermGroup.normalizer

        def normalizer(self, K):
            built.append((self, K.element_set()))
            return real(self, K)

        monkeypatch.setattr(PermGroup, "normalizer", normalizer)
        nilpotent = [c.representative for c in subgroup_classes(H) if c.is_nilpotent()]
        assert len(nilpotent) > 1
        for R in nilpotent:
            is_carter_in(R, H)
            assert built == []
            check_canonical_bijection(G, sigma, N, H, R, "AGL116")
            # N_G(R) for `_local_normalizer`, unless R is normal
            assert set(built) <= {(G, R.element_set())}
            built.clear()


class TestSolvableSigmaClasses:
    @pytest.mark.parametrize("definition", LATTICE_CORPUS, ids=lambda d: d.name)
    def test_equal_the_filter_of_the_full_lattice(self, definition):
        full_group = definition.build()
        full = subgroup_classes(full_group)
        G = definition.build()  # a fresh group, so the restricted lattices are built
        for sigma in sigma_subsets(G):
            want = [c for c in full if c.is_solvable() and c.is_sigma_group(sigma)]
            assert _rows(solvable_sigma_subgroup_classes(G, sigma)) == _rows(want), sigma
            target = sigma_part(G.order, sigma)
            hall = next((c for c in full if c.order == target), None)
            assert check_weight_count(G, sigma).hypotheses == (
                ("sigma-separable", full_group.is_sigma_separable(sigma)),
                ("solvable Hall subgroup", hall is not None and hall.is_solvable()),
            ), sigma
        assert subgroup_classes.peek(G) is None

    @pytest.mark.parametrize("known", ["full", "all-solvable"])
    @pytest.mark.parametrize("name", ["S4", "A5", "S4xC5"])
    def test_read_off_a_memoized_lattice_without_a_new_group(self, monkeypatch, name, known):
        G = builtin_by_name(name).build()
        if known == "full":
            subgroup_classes(G)
        else:
            solvable_sigma_subgroup_classes(G, PrimeSet(G.primes()))
        constructed = []
        real_init = PermGroup.__init__

        def init(self, *args, **kwargs):
            constructed.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(PermGroup, "__init__", init)
        got = {sigma: solvable_sigma_subgroup_classes(G, sigma) for sigma in sigma_subsets(G)}
        monkeypatch.undo()
        assert constructed == []
        full = subgroup_classes(G)
        for sigma, classes in got.items():
            want = [c for c in full if c.is_solvable() and c.is_sigma_group(sigma)]
            assert _rows(classes) == _rows(want), sigma


class TestNilpotentSigmaClasses:
    def test_a5_all_primes(self, a5):
        classes = nilpotent_sigma_subgroup_classes(a5, PrimeSet([2, 3, 5]))
        assert [c.order for c in classes] == [1, 2, 3, 4, 5]

    def test_empty_sigma(self, s4):
        classes = nilpotent_sigma_subgroup_classes(s4, PrimeSet())
        assert [c.order for c in classes] == [1]

    def test_s4_two_subgroups(self, s4):
        classes = nilpotent_sigma_subgroup_classes(s4, PrimeSet([2]))
        assert [c.order for c in classes] == [1, 2, 2, 4, 4, 4, 8]


class TestCarter:
    def test_s4_carter_is_d8(self, s4):
        cls = carter_subgroups(s4)
        assert cls.order == 8

    def test_nilpotent_group_is_its_own_carter(self, d8, q8):
        for G in (d8, q8):
            assert carter_subgroups(G).order == G.order

    def test_s3_carter_is_c2(self, s3):
        assert carter_subgroups(s3).order == 2

    def test_carter_requires_solvable(self, a5):
        with pytest.raises(ValueError):
            carter_subgroups(a5)

    def test_carter_uniqueness_on_solvable_groups(self, s4, a4, d8, c3xc3_c2, s3):
        for G in (s4, a4, d8, c3xc3_c2, s3):
            cls = carter_subgroups(G)
            assert G.normalizer(cls.representative).order == cls.order


class TestIsCarterIn:
    def test_self_in_nilpotent(self, d8):
        assert is_carter_in(d8, d8)

    def test_v4_in_d8_is_not(self, d8):
        V = d8.subgroup([perm("(1,3)(2,4)", 4), perm("(1,3)", 4)])
        assert V.order == 4
        assert not is_carter_in(V, d8)

    def test_c2_in_s3(self, s3):
        R = s3.subgroup([perm("(1,2)", 3)])
        assert is_carter_in(R, s3)

    def test_requires_containment(self, s4, s3):
        R = bsgs_construct([perm("(1,2,3,4)", 4)], 4)
        H = s4.subgroup([perm("(1,2)", 4)])
        with pytest.raises(ValueError):
            is_carter_in(R, H)


class TestCarterFiber:
    def test_d8_fiber_in_s4(self, s4):
        R = s4.subgroup([perm("(1,2,3,4)", 4), perm("(1,3)", 4)])
        fiber = carter_fiber(s4, PrimeSet([3]), R)
        assert [c.order for c in fiber] == [8]

    def test_v4_fiber_in_s4(self, s4):
        R = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        fiber = carter_fiber(s4, PrimeSet([3]), R)
        assert [c.order for c in fiber] == [4]
        assert R.element_set() <= fiber[0].representative.element_set()

    def test_trivial_r(self, s4):
        R = s4.subgroup([])
        fiber = carter_fiber(s4, PrimeSet([3]), R)
        assert [c.order for c in fiber] == [1]

    def test_sigma_prime_validation(self, s4):
        R = s4.subgroup([perm("(1,2,3)", 4)])
        with pytest.raises(ValueError):
            carter_fiber(s4, PrimeSet([3]), R)  # R is a 3-group, not a 3'-group


class TestClassOf:
    def test_finds_conjugate_class(self, s4):
        H = s4.subgroup([perm("(1,3)", 4)])
        cls = subgroup_class_of(s4, H)
        assert cls.order == 2
        assert cls.class_size == 6


class TestCarterMembers:
    @pytest.mark.parametrize(
        "name", ["S3", "D8", "A4", "D12", "C3:C4", "C3xC3:C2", "S4", "S3xS3", "A4xC3"]
    )
    def test_intersection_test_matches_is_carter_in(self, name):
        G = builtin_by_name(name).build()
        nilpotent = [c for c in subgroup_classes(G) if c.is_nilpotent()]
        for r_cls in nilpotent:
            R = r_cls.representative
            for cls in subgroup_classes(G):
                if cls.order % R.order:
                    continue
                members = G.subgroup_orbit(cls.representative.element_set()).members
                carter = set(carter_members(G, cls, R))
                for member in members:
                    if R.element_set() <= member:
                        Q = G.subgroup([Perm(im) for im in member if im != G.identity.images])
                        assert (member in carter) == is_carter_in(R, Q)
                    else:
                        assert member not in carter
