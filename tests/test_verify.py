from collections import Counter
from pathlib import Path

import pytest

from nilweight import pipartial, verify
from nilweight.chartab import Character, character_table
from nilweight.corpus import builtin_by_name, builtin_corpus, parse_group_file
from nilweight.groups import PermGroup, bsgs_construct
from nilweight.lattice import (
    carter_fiber,
    carter_members,
    nilpotent_sigma_subgroup_classes,
    solvable_sigma_subgroup_classes,
    subgroup_classes,
)
from nilweight.pipartial import sigma_partial_characters
from nilweight.sigma import PrimeSet, sigma_part
from nilweight.verify import (
    FAILS,
    HOLDS,
    UNMET,
    bijection_setup,
    check_canonical_bijection,
    check_carter_refinement,
    check_normalizer_counting,
    check_weight_count,
    scan_corpus,
    sigma_subsets,
)

from conftest import group, lattice_group_files, perm

AGL116 = Path(__file__).resolve().parent.parent / "tools" / "groups" / "AGL116.txt"
# (C5 x C5) : S3, the sum-zero vectors of C5^3 with S3 permuting coordinates.
# At sigma = {5}, C_N(R) does not normalize H for R of order 2, so some
# Carter members of the fiber lie outside H.
C5XC5_S3 = (
    "(1,2,3,4,5)(6,10,9,8,7)",
    "(6,7,8,9,10)(11,15,14,13,12)",
    "(1,6,11)(2,7,12)(3,8,13)(4,9,14)(5,10,15)",
    "(1,6)(2,7)(3,8)(4,9)(5,10)",
)


class TestWeightCount:
    def test_s4_at_2_holds(self, s4):
        rep = check_weight_count(s4, PrimeSet([2]), "S4")
        assert (rep.lhs, rep.rhs, rep.verdict) == (2, 2, HOLDS)
        rhs_rows = [r.label for r in rep.rows if r.side == "rhs"]
        assert any("|Q|=4" in l and "gamma_deg=2" in l for l in rhs_rows)
        assert any("|Q|=8" in l and "gamma_deg=1" in l for l in rhs_rows)

    def test_a5_full_primes_fails_with_unmet_hall(self, a5):
        rep = check_weight_count(a5, PrimeSet([2, 3, 5]), "A5")
        assert (rep.lhs, rep.rhs) == (1, 0)
        assert rep.verdict == FAILS
        assert dict(rep.hypotheses)["sigma-separable"] is True
        assert dict(rep.hypotheses)["solvable Hall subgroup"] is False

    def test_a5_single_prime_unmet_but_equal(self, a5):
        rep = check_weight_count(a5, PrimeSet([2]), "A5")
        assert (rep.lhs, rep.rhs) == (4, 4)
        assert rep.verdict == UNMET

    def test_a5_two_primes_fails(self, a5):
        rep = check_weight_count(a5, PrimeSet([2, 3]), "A5")
        assert (rep.lhs, rep.rhs) == (3, 0)
        assert rep.verdict == FAILS

    def test_trivial_group(self):
        G = bsgs_construct([], degree=1)
        rep = check_weight_count(G, PrimeSet([2]), "1")
        assert (rep.lhs, rep.rhs, rep.verdict) == (1, 1, HOLDS)

    def test_empty_sigma_counts_all_classes(self, s4):
        rep = check_weight_count(s4, PrimeSet(), "S4")
        assert rep.lhs == len(s4.conjugacy_classes())
        assert rep.verdict == HOLDS

    def test_rows_sum_to_counts(self, s4):
        rep = check_weight_count(s4, PrimeSet([2]), "S4")
        assert sum(r.count for r in rep.rows if r.side == "lhs") == rep.lhs
        assert sum(r.count for r in rep.rows if r.side == "rhs") == rep.rhs

    @pytest.mark.parametrize(
        "name, primes, restricted, total",
        [("W216", [3], 12, 60), ("S4xC5", [2, 5], 14, 22)],
    )
    def test_builds_only_the_solvable_sigma_classes(self, name, primes, restricted, total):
        G = builtin_by_name(name).build()  # a fresh group, so no lattice is memoized
        sigma = PrimeSet(primes)
        assert check_weight_count(G, sigma, name).verdict == HOLDS
        assert subgroup_classes.peek(G) is None
        assert len(solvable_sigma_subgroup_classes(G, sigma)) == restricted
        assert len(subgroup_classes(G)) == total


class TestCarterRefinement:
    def fetch(self, s4, gens):
        R = s4.subgroup([perm(g, 4) for g in gens])
        return check_carter_refinement(s4, PrimeSet([3]), R, "S4")

    def test_d8(self, s4):
        rep = self.fetch(s4, ["(1,2,3,4)", "(1,3)"])
        assert (rep.lhs, rep.rhs, rep.verdict) == (1, 1, HOLDS)

    def test_normal_v4(self, s4):
        rep = self.fetch(s4, ["(1,2)(3,4)", "(1,3)(2,4)"])
        assert (rep.lhs, rep.rhs, rep.verdict) == (1, 1, HOLDS)

    def test_c2_classes_and_c4_are_empty(self, s4):
        for gens in (["(1,2)"], ["(1,2)(3,4)"], ["(1,2,3,4)"], ["(1,2)", "(3,4)"]):
            rep = self.fetch(s4, gens)
            assert (rep.lhs, rep.rhs, rep.verdict) == (0, 0, HOLDS)

    def test_r_sums_recover_global_counts(self, s4):
        sigma = PrimeSet([3])
        coprime = sigma.complement_within(s4.order)
        lhs_total = rhs_total = 0
        for cls in subgroup_classes(s4):
            if coprime.is_sigma_number(cls.order) and cls.is_nilpotent():
                rep = check_carter_refinement(s4, sigma, cls.representative, "S4")
                assert rep.verdict == HOLDS
                lhs_total += rep.lhs
                rhs_total += rep.rhs
        assert lhs_total == len(sigma_partial_characters(s4, sigma)) == 2
        assert rhs_total == 2

    def test_weight_cross_check(self, s4):
        rep = self.fetch(s4, ["(1,2,3,4)", "(1,3)"])
        info = [r for r in rep.rows if r.side == "info"]
        assert info and info[0].count == rep.rhs

    def test_local_side_builds_no_lattice_and_searches_no_vertex(self, monkeypatch):
        # a fresh S4: the session fixtures may carry other tests' memos
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        normalizers = []
        real = PermGroup.normalizer

        def recording(G, H):
            normalizers.append((H, real(G, H)))
            return normalizers[-1][1]

        monkeypatch.setattr(PermGroup, "normalizer", recording)
        sigma = PrimeSet([3])
        R = s4.subgroup([perm("(1,2)", 4)])
        check_carter_refinement(s4, sigma, R, "S4")
        # the weights at R ask for the normalizer of R's class representative
        (NR,) = [N for H, N in normalizers if H is R]
        assert NR.order == 4
        assert subgroup_classes.peek(NR) is None
        assert all(
            pipartial._vertex_class.peek(NR, phi) is None
            for phi in sigma_partial_characters(NR, sigma)
        )

    def test_builds_no_table_of_a_normalizer_of_a_subgroup_not_normal(self):
        # the local side reads Iso(N_G(R)/R), off the quotient the weights
        # at R table; N_G(R) itself gets no character table
        cases = 0
        for definition in builtin_corpus():
            if definition.expected_order > 120:
                continue
            for sigma in sigma_subsets(definition.build()):
                G = definition.build()  # fresh: no other sigma's memos
                coprime = sigma.complement_within(G.order)
                if not G.is_sigma_separable(sigma):
                    continue
                for cls in nilpotent_sigma_subgroup_classes(G, coprime):
                    R = cls.representative
                    if G.is_normal(R):
                        continue
                    rep = check_carter_refinement(G, sigma, R, definition.name)
                    assert rep.verdict != FAILS
                    assert character_table.peek(G.normalizer(R)) is None, (definition.name, sigma)
                    cases += 1
        assert cases == 100

    def test_nonseparable_reports_unmet(self, a5):
        R = a5.subgroup([perm("(1,2)(3,4)", 5)])
        rep = check_carter_refinement(a5, PrimeSet([3, 5]), R, "A5")
        assert rep.verdict == UNMET
        assert rep.lhs is None and rep.rhs is None


class TestNormalizerCounting:
    def test_a4_instance(self, a4):
        sigma = PrimeSet([2])
        L = a4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        Q = a4.subgroup([perm("(1,2,3)", 4)])
        M = a4.subgroup([])
        phi = character_table(M).irreducibles[0]
        rep = check_normalizer_counting(a4, sigma, Q, L, M, phi, "A4")
        assert (rep.lhs, rep.rhs, rep.verdict) == (1, 1, HOLDS)

    def test_trivial_q(self, a4):
        sigma = PrimeSet([2])
        L = a4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        Q = a4.subgroup([])
        M = a4.subgroup([])
        phi = character_table(M).irreducibles[0]
        rep = check_normalizer_counting(a4, sigma, Q, L, M, phi, "A4")
        assert rep.verdict == HOLDS
        assert rep.lhs == rep.rhs == 1  # only the degree-3 member has trivial vertex

    def test_s4xc3_instance(self):
        G = group(7, "(1,2)", "(1,2,3,4)", "(5,6,7)")
        sigma = PrimeSet([2])
        L = G.subgroup([perm("(1,2)(3,4)", 7), perm("(1,3)(2,4)", 7)])
        Q = G.subgroup([perm("(5,6,7)", 7)])
        M = G.subgroup([])
        phi = character_table(M).irreducibles[0]
        rep = check_normalizer_counting(G, sigma, Q, L, M, phi, "S4xC3")
        assert rep.verdict == HOLDS

    def test_unmet_when_lq_not_normal(self, s4):
        sigma = PrimeSet([2])
        L = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        Q = s4.subgroup([perm("(1,2,3)", 4)])  # LQ = A4 is normal; use Q=C2 instead
        Q = s4.subgroup([perm("(1,2)", 4)])  # wrong side: C2 is not a 3-group
        M = s4.subgroup([])
        phi = character_table(M).irreducibles[0]
        rep = check_normalizer_counting(s4, sigma, Q, L, M, phi, "S4")
        assert rep.verdict == UNMET


class TestCanonicalBijection:
    def test_a4_with_r_c3(self, a4):
        sigma = PrimeSet([2])
        N, H = bijection_setup(a4, sigma)
        assert N.order == 4 and H.order == 3
        rep = check_canonical_bijection(a4, sigma, N, H, H, "A4")
        assert (rep.lhs, rep.rhs, rep.verdict) == (1, 1, HOLDS)

    def test_a4_with_r_trivial(self, a4):
        sigma = PrimeSet([2])
        N, H = bijection_setup(a4, sigma)
        R = a4.subgroup([])
        rep = check_canonical_bijection(a4, sigma, N, H, R, "A4")
        assert (rep.lhs, rep.rhs, rep.verdict) == (1, 1, HOLDS)

    def test_swap_group_both_r(self, c3xc3_c2):
        sigma = PrimeSet([3])
        N, H = bijection_setup(c3xc3_c2, sigma)
        assert N.order == 9 and H.order == 2
        for R, expected in ((H, 3), (c3xc3_c2.subgroup([]), 3)):
            rep = check_canonical_bijection(c3xc3_c2, sigma, N, H, R, "C3xC3:C2")
            assert (rep.lhs, rep.rhs, rep.verdict) == (expected, expected, HOLDS)

    def test_s4_does_not_qualify(self, s4):
        sigma = PrimeSet([2])
        assert bijection_setup(s4, sigma) is None
        N = s4.o_sigma(sigma)
        H = s4.subgroup([perm("(1,2,3)", 4)])
        rep = check_canonical_bijection(s4, sigma, N, H, H, "S4")
        assert rep.verdict == UNMET

    def test_a_nonsolvable_quotient_builds_no_lattice(self):
        # N = O_7(A5) = 1 is a normal Hall 7-subgroup, and its only
        # complement A5 is not solvable
        a5 = group(5, "(1,2,3,4,5)", "(3,4,5)")  # fresh: no lattice memoized
        assert bijection_setup(a5, PrimeSet([7])) is None
        assert subgroup_classes.peek(a5) is None

    def test_q_sets_from_the_fiber_of_g_equal_those_from_the_lattice_of_h(self):
        # the Q's are the subgroups of H containing R as Carter subgroup,
        # grouped by class in G; H's own lattice lists them too
        definitions = list(builtin_corpus()) + [parse_group_file(AGL116.read_text())]
        groups = [(d.name, d.build()) for d in definitions]
        groups.append(("C5xC5:S3", group(15, *C5XC5_S3)))
        cases = beyond_r = outside_h = 0
        for name, G in groups:
            for sigma in sigma_subsets(G):
                setup = bijection_setup(G, sigma)
                if not 0 < len(sigma.primes) < len(G.primes()) or setup is None:
                    continue
                _, H = setup
                h_set = H.element_set()
                for r_cls in subgroup_classes(H):
                    if not r_cls.is_nilpotent():
                        continue
                    R = r_cls.representative
                    fiber = carter_fiber(G, sigma, R)
                    from_g = {
                        cls.canonical_key: {m for m in carter_members(G, cls, R) if m <= h_set}
                        for cls in fiber
                    }
                    beyond_r += sum(cls.order > R.order for cls in fiber)
                    outside_h += sum(
                        not m <= h_set for cls in fiber for m in carter_members(G, cls, R)
                    )
                    from_h: dict[tuple, set] = {}
                    for cls in subgroup_classes(H):
                        if cls.order % R.order == 0:
                            for m in carter_members(H, cls, R):
                                key = G.subgroup_orbit(m).canonical_key
                                from_h.setdefault(key, set()).add(m)
                    assert from_g == from_h, (name, str(sigma), R.order)
                    assert all(from_g.values())
                    cases += 1
        # the builtins and AGL116 give 68 cases, none with a member outside H
        assert (cases, beyond_r, outside_h) == (73, 4, 4)

    def test_q_runs_over_the_carter_members_inside_h(self, monkeypatch):
        G = group(15, *C5XC5_S3)
        sigma = PrimeSet([5])
        N, H = bijection_setup(G, sigma)
        R = next(cls.representative for cls in subgroup_classes(H) if cls.order == 2)
        used = set()
        real = verify._invariant_constituents

        def recording(constituents, member, where):
            used.add(member)
            return real(constituents, member, where)

        monkeypatch.setattr(verify, "_invariant_constituents", recording)
        rep = check_canonical_bijection(G, sigma, N, H, R, "C5xC5:S3")
        assert (rep.lhs, rep.rhs, rep.verdict) == (5, 5, HOLDS)
        assert used == {R.element_set(), H.element_set()}

    @pytest.mark.parametrize(
        "name, patch, message",
        [
            (
                "is_invariant_character",
                lambda NR: lambda chi, elements: False,
                "no invariant constituent over the vertex",
            ),
            ("inner_product", lambda NR: lambda a, b: 2, "induced image is not irreducible"),
        ],
        ids=["no-invariant-constituent", "reducible-image"],
    )
    def test_a_failed_step_names_the_group_and_sigma(self, monkeypatch, name, patch, message):
        a4 = group(4, "(1,2,3)", "(1,2)(3,4)")
        sigma = PrimeSet([2])
        N, H = bijection_setup(a4, sigma)
        NR = a4.normalizer(H)  # N_A4(C3) = C3, memoized
        monkeypatch.setattr(verify, name, patch(NR))
        with pytest.raises(
            pipartial.InternalConsistencyError,
            match=rf"^{message} in a group of order 12, sigma=\{{2\}}$",
        ):
            check_canonical_bijection(a4, sigma, N, H, H, "A4")

    def test_an_image_outside_the_target_is_a_theorem_violation(self, monkeypatch):
        a4 = group(4, "(1,2,3)", "(1,2)(3,4)")
        sigma = PrimeSet([2])
        N, H = bijection_setup(a4, sigma)
        target = verify.ipi_with_normal_vertex

        def negated(NR, sigma, R, theta=None):
            return tuple(
                Character(NR, [-v for v in phi.values], sigma) for phi in target(NR, sigma, R, theta)
            )

        monkeypatch.setattr(verify, "ipi_with_normal_vertex", negated)
        rep = check_canonical_bijection(a4, sigma, N, H, H, "A4")
        assert (rep.lhs, rep.rhs, rep.verdict) == (1, -1, FAILS)
        assert rep.detail.endswith(" THEOREM-VIOLATION")

    def test_builds_no_table_of_a_normalizer_not_normal(self):
        G = parse_group_file(AGL116.read_text()).build()
        sigma = PrimeSet([2])
        N, H = bijection_setup(G, sigma)
        seen = []
        for cls in subgroup_classes(H):
            if cls.is_nilpotent():
                R = cls.representative
                rep = check_canonical_bijection(G, sigma, N, H, R, "AGL116")
                seen.append((R.order, rep.lhs, rep.rhs, rep.verdict))
                NR = G.normalizer(R)
                assert G.is_normal(NR) or character_table.peek(NR) is None, R.order
        assert seen == [(1, 1, 1, HOLDS), (3, 0, 0, HOLDS), (5, 0, 0, HOLDS), (15, 1, 1, HOLDS)]

    def test_reads_no_class_of_a_subgroup(self, monkeypatch):
        G = parse_group_file(AGL116.read_text()).build()
        sigma = PrimeSet([2])
        N, H = bijection_setup(G, sigma)

        def refuse(*args):
            raise AssertionError("subgroup_class_of called")

        monkeypatch.setattr(pipartial, "subgroup_class_of", refuse)
        for R in (H, G.subgroup([])):
            rep = check_canonical_bijection(G, sigma, N, H, R, "AGL116")
            assert rep.lhs and rep.verdict == HOLDS


def _full_lattice_hall(G, sigma):
    """The reference Hall subgroup: the first class of order |G|_sigma in G's
    full lattice, if that class is solvable; else None."""
    target = sigma_part(G.order, sigma)
    first = next((c for c in subgroup_classes(G) if c.order == target), None)
    return first.representative if first is not None and first.is_solvable() else None


class TestHallFlags:
    def test_match_the_first_hall_class_of_the_full_lattice(self):
        cases = 0
        for definition in [*builtin_corpus(), *lattice_group_files()]:
            # with G's full lattice memoized the flags filter it, as in verify-b;
            # TestSolvableSigmaClasses checks that the restricted lattices agree
            G = definition.build()
            for sigma in sigma_subsets(G):
                where = (definition.name, sigma)
                coprime = sigma.complement_within(G.order)
                hall = _full_lattice_hall(G, sigma)
                hallc = _full_lattice_hall(G, coprime)
                flags = dict(check_weight_count(G, sigma).hypotheses)
                assert flags["solvable Hall subgroup"] == (hall is not None), where
                # R is generated by a sigma-element: for sigma nonempty it fails
                # the R hypothesis, and the check stops after its flags
                R = G.subgroup([G.sigma_element_classes(sigma)[-1].representative])
                flags = dict(check_carter_refinement(G, sigma, R).hypotheses)
                assert flags["solvable Hall complement"] == (hallc is not None), where
                setup = bijection_setup(G, sigma)
                normal_hall = G.o_sigma(sigma).order == sigma_part(G.order, sigma)
                want = hallc.element_set() if normal_hall and hallc is not None else None
                assert (setup and setup[1].element_set()) == want, where
                cases += 1
        assert cases == 143


class TestScan:
    def test_solvable_corpus_all_hold(self, s3, s4, a4, d8):
        corpus = [("S3", s3), ("S4", s4), ("A4", a4), ("D8", d8)]
        reports = scan_corpus(corpus)
        assert all(r.verdict == HOLDS for r in reports)

    def test_a5_scan_has_known_failures(self, a5):
        reports = scan_corpus([("A5", a5)])
        by_sigma = {str(r.sigma): r.verdict for r in reports}
        assert by_sigma["-"] == HOLDS  # empty sigma
        assert by_sigma["2"] == UNMET
        assert by_sigma["3"] == UNMET
        assert by_sigma["5"] == UNMET
        assert by_sigma["2,3"] == FAILS
        assert by_sigma["2,5"] == FAILS
        assert by_sigma["3,5"] == FAILS
        assert by_sigma["2,3,5"] == FAILS

    def test_summary_counts(self, a5):
        reports = scan_corpus([("A5", a5)])
        counts = Counter(rep.verdict for rep in reports)
        assert counts == {HOLDS: 1, FAILS: 4, UNMET: 3}

    def test_trivial_scan(self):
        G = bsgs_construct([], degree=1)
        reports = scan_corpus([("1", G)])
        assert len(reports) == 1 and reports[0].verdict == HOLDS

    def test_sigma_subsets(self, s4):
        subsets = sigma_subsets(s4)
        assert [str(s) for s in subsets] == ["-", "2", "3", "2,3"]


class TestRowSums:
    def test_refinement_rows_sum_to_counts(self, s4):
        from conftest import perm

        R = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        rep = check_carter_refinement(s4, PrimeSet([3]), R, "S4")
        assert sum(r.count for r in rep.rows if r.side == "lhs") == rep.lhs
        assert sum(r.count for r in rep.rows if r.side == "rhs") == rep.rhs
