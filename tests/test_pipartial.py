import itertools
from types import SimpleNamespace

import pytest

from nilweight import pipartial
from nilweight.chartab import (
    Character,
    character_stabilizer,
    character_table,
    conjugate_character,
    has_sigma_defect_zero,
    induce_character,
    restrict_character,
)
from nilweight.cli import run_command
from nilweight.corpus import builtin_by_name, builtin_corpus
from nilweight.cyclotomic import Cyclotomic
from nilweight import groups
from nilweight.groups import PermGroup, bsgs_construct, span
from nilweight.linalg import FIRST_PRIME, nonneg_integer_solution, prime_below
from nilweight.lattice import (
    nilpotent_sigma_subgroup_classes,
    subgroup_class_of,
    subgroup_classes,
)
from nilweight.pipartial import (
    GlaubermanAction,
    InternalConsistencyError,
    _flatten,
    _hall_coprime_class,
    clifford_correspondent,
    decompose_on_subgroup,
    enumerate_weights,
    glauberman_correspondent,
    glauberman_map,
    induced_partial_values,
    ipi_with_normal_vertex,
    ipi_with_vertex,
    is_invariant_character,
    lies_over,
    partial_character_stabilizer,
    sigma_partial_characters,
    vertices,
    weights_with_first_component,
)
from nilweight.sigma import PrimeSet
from nilweight.verify import check_weight_count, sigma_subsets

from conftest import group, lattice_group_files, perm, table_group_files


def values_as_set(phis):
    return {tuple(v for v in phi.values) for phi in phis}


def by_degree(phis, d):
    out = [phi for phi in phis if phi.degree == d]
    assert len(out) == 1, f"expected one member of degree {d}"
    return out[0]


class TestSigmaPartialCharacters:
    def test_s3_at_sigma_3(self, s3):
        phis = sigma_partial_characters(s3, PrimeSet([3]))
        # sigma-classes: identity and the 3-cycles
        assert values_as_set(phis) == {
            (Cyclotomic.from_rational(1), Cyclotomic.from_rational(1)),
            (Cyclotomic.from_rational(2), Cyclotomic.from_rational(-1)),
        }
        sidx = s3.sigma_class_indices(PrimeSet([3]))
        lifts = [
            chi
            for chi in character_table(s3).irreducibles
            if tuple(chi.values[j] for j in sidx) == by_degree(phis, 1).values
        ]
        assert len(lifts) == 2  # both linear characters restrict to it

    def test_sigma_group_gives_irr(self, d8):
        phis = sigma_partial_characters(d8, PrimeSet([2]))
        tab = character_table(d8)
        assert len(phis) == len(tab.irreducibles)
        assert values_as_set(phis) == {tuple(chi.values) for chi in tab.irreducibles}

    def test_s4_at_sigma_3(self, s4):
        phis = sigma_partial_characters(s4, PrimeSet([3]))
        assert sorted(phi.degree for phi in phis) == [1, 2]

    def test_count_matches_sigma_classes(self, s4, a4, d8, q8, s3, c3xc3_c2):
        for G in (s4, a4, d8, q8, s3, c3xc3_c2):
            for primes in ([2], [3], [2, 3]):
                sigma = PrimeSet(primes)
                assert len(sigma_partial_characters(G, sigma)) == len(
                    G.sigma_element_classes(sigma)
                )

    def test_requires_separability(self, a5):
        with pytest.raises(ValueError):
            sigma_partial_characters(a5, PrimeSet([2]))

    def test_full_sigma_on_nonseparable_is_fine(self, a5):
        phis = sigma_partial_characters(a5, PrimeSet([2, 3, 5]))
        assert len(phis) == 5


def reference_restriction_values(phi, H):
    """phi on the sigma-classes of H, looked up in phi's values by class index."""
    G, sigma = phi.group, phi.sigma
    g_indices = G.sigma_class_indices(sigma)
    return tuple(
        phi.values[g_indices.index(G.class_index_of(H.conjugacy_classes()[i].representative))]
        for i in H.sigma_class_indices(sigma)
    )


def reference_induced_values(alpha, G):
    """alpha^G on the classes of G of alpha's kind, summed class by class from
    alpha's group with `Cyclotomic` operators."""
    H, sigma = alpha.group, alpha.sigma
    h_classes, g_classes = H.conjugacy_classes(), G.conjugacy_classes()
    by_target = {}
    for i, v in zip(alpha.class_indices, alpha.values):
        c = h_classes[i]
        j = G.class_index_of(c.representative)
        by_target[j] = by_target.get(j, Cyclotomic.zero()) + v * c.size
    g_indices = range(len(g_classes)) if sigma is None else G.sigma_class_indices(sigma)
    return tuple(
        by_target.get(j, Cyclotomic.zero()) * (G.order // g_classes[j].size) / H.order
        for j in g_indices
    )


class TestOneClassFunctionType:
    """A sigma-partial character is a `Character` on the sigma-classes."""

    def test_every_member_is_a_character_on_the_sigma_classes(self):
        for definition in builtin_corpus():
            G = definition.build()
            for sigma in sigma_subsets(G):
                if not G.is_sigma_separable(sigma):
                    continue
                for phi in sigma_partial_characters(G, sigma):
                    where = (definition.name, sigma)
                    assert isinstance(phi, Character), where
                    assert phi.sigma == sigma, where
                    assert phi.class_indices == G.sigma_class_indices(sigma), where

    def test_the_two_kinds_stay_unequal_on_a_sigma_group(self, d8):
        # every class of D8 is a 2-class, so the two kinds have equal values
        irreducibles = character_table(d8).irreducibles
        for phi, chi in zip(sigma_partial_characters(d8, PrimeSet([2])), irreducibles):
            assert phi.values == chi.values and phi != chi
            assert phi == Character(d8, chi.values, PrimeSet([2]))

    def test_restriction_and_induction_keep_the_partial_values(self):
        for definition in builtin_corpus():
            G = definition.build()
            for p in G.primes():
                sigma = PrimeSet([p])
                separable = G.is_sigma_separable(sigma)
                for cls in subgroup_classes(G):
                    U = cls.representative
                    where = (definition.name, p, cls.order)
                    if separable:
                        for phi in sigma_partial_characters(G, sigma):
                            res = restrict_character(phi, U)
                            assert res.group is U and res.sigma == sigma, where
                            assert res.values == reference_restriction_values(phi, U), where
                    if not U.is_sigma_separable(sigma):
                        continue  # A5 itself
                    for alpha in sigma_partial_characters(U, sigma):
                        ind = induce_character(alpha, G)
                        assert ind.group is G and ind.sigma == sigma, where
                        assert ind.values == reference_induced_values(alpha, G), where
                        assert induced_partial_values(alpha, G) == ind.values, where

    def test_induction_keeps_the_ordinary_values(self):
        # every irreducible of every subgroup class, induced to G
        for definition in builtin_corpus():
            G = definition.build()
            for cls in subgroup_classes(G):
                for theta in character_table(cls.representative).irreducibles:
                    ind = induce_character(theta, G)
                    where = (definition.name, cls.order)
                    assert ind.group is G and ind.sigma is None, where
                    assert ind.values == reference_induced_values(theta, G), where

    def test_conjugation_keeps_the_kind(self, s4):
        for p in (2, 3):
            sigma = PrimeSet([p])
            for cls in subgroup_classes(s4):
                U = cls.representative
                sidx = U.sigma_class_indices(sigma)
                for g in s4.generators:
                    Ug = s4.subgroup([x.conjugate(g) for x in U.generators])
                    g_sidx = Ug.sigma_class_indices(sigma)
                    for chi in character_table(U).irreducibles:
                        phi = Character(U, [chi.values[j] for j in sidx], sigma)
                        conjugate = conjugate_character(phi, g, Ug)
                        expected = conjugate_character(chi, g, Ug).values
                        assert conjugate.sigma == sigma
                        assert conjugate.values == tuple(expected[j] for j in g_sidx)

    def test_a_class_outside_the_sigma_classes_has_no_value(self, s3):
        phi = by_degree(sigma_partial_characters(s3, PrimeSet([3])), 2)
        assert phi(perm("(1,2,3)", 3)) == -1
        with pytest.raises(ValueError, match="not a sigma-element"):
            phi(perm("(1,2)", 3))


class TestDecompositionCertificate:
    """Every restriction must decompose over Iso(G), by one batched solve."""

    def test_batched_solutions_equal_the_per_target_solutions(self, monkeypatch):
        calls = []
        batched = pipartial.integer_solutions

        def record(columns, targets):
            calls.append((columns, targets, batched(columns, targets)))
            return calls[-1][2]

        monkeypatch.setattr(pipartial, "integer_solutions", record)
        for definition in builtin_corpus():
            G = definition.build()
            for sigma in sigma_subsets(G):
                if sigma.primes and G.is_sigma_separable(sigma):
                    sigma_partial_characters(G, sigma)
        assert len(calls) == 61
        for columns, targets, solutions in calls:
            assert None not in solutions
            assert solutions == [nonneg_integer_solution(columns, t) for t in targets]

    def test_a_restriction_that_does_not_decompose_is_refused(self, monkeypatch):
        batched = pipartial.integer_solutions
        monkeypatch.setattr(
            pipartial, "integer_solutions", lambda c, t: batched(c, t)[:-1] + [None]
        )
        with pytest.raises(
            InternalConsistencyError,
            match=r"^a restriction does not decompose over the irreducible set "
            r"in a group of order 24, sigma=\{3\}$",
        ):
            sigma_partial_characters(group(4, "(1,2)", "(1,2,3,4)"), PrimeSet([3]))


def reference_peel(G, sigma):
    """Iso(G) as one solve per restriction finds it, as value tuples: the
    distinct restrictions in (degree, values) order, each rejected when it is
    a nonnegative integer combination of accepted ones of smaller degree."""
    tab = character_table(G)
    sidx = G.sigma_class_indices(sigma)
    restrictions = {tuple(chi.values[j] for j in sidx) for chi in tab.irreducibles}
    e = G.exponent()
    ordered = sorted(
        restrictions, key=lambda v: (v[0].to_int(), [x.sort_key(e) for x in v])
    )
    flat = {v: _flatten(v, e, "") for v in ordered}
    accepted: list[tuple] = []
    for v in ordered:
        smaller = [flat[u] for u in accepted if u[0].to_int() < v[0].to_int()]
        if smaller and nonneg_integer_solution(smaller, flat[v]) is not None:
            continue
        accepted.append(v)
    return accepted


def _recording(monkeypatch, name, record):
    """Replace pipartial's `name` by a wrapper that appends record(*args) to a list."""
    calls = []
    original = getattr(pipartial, name)

    def wrapper(*args):
        calls.append(record(*args))
        return original(*args)

    monkeypatch.setattr(pipartial, name, wrapper)
    return calls


class TestOnePivotPass:
    """Iso(G) is the pivot set of one elimination, certified by one batched solve."""

    def test_the_members_are_the_peels_members_in_its_order(self):
        checked = 0
        for definition in [*builtin_corpus(), *table_group_files()]:
            G = definition.build()
            for sigma in sigma_subsets(G):
                if G.is_sigma_separable(sigma):
                    members = [phi.values for phi in sigma_partial_characters(G, sigma)]
                    assert members == reference_peel(G, sigma), (definition.name, sigma)
                    checked += 1
        assert checked == 127

    def test_ipi_solves_once_per_prime_tried(self, monkeypatch):
        per_target = _recording(monkeypatch, "nonneg_integer_solution", lambda c, t: t)
        batched = _recording(monkeypatch, "integer_solutions", lambda c, t: len(t))
        primes = _recording(monkeypatch, "rref_mod", lambda rows, q: q)
        code, text = run_command(["ipi", "--group", "S4xC5", "--pi", "2", "--format", "machine"])
        assert code == 0 and "count\t4\n" in text
        assert per_target == []
        assert primes == [FIRST_PRIME] and len(batched) == 1

    def test_a_bad_first_prime_is_redone_at_the_next(self, monkeypatch):
        # S4 on its 3-classes: the restrictions (1,1), (2,-1), (3,0). A prime at
        # which (2,-1) depends on (1,1) keeps (1,1) and (3,0) instead, and
        # (2,-1) = (3,0) - (1,1) is no nonnegative combination.
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        expected = reference_peel(s4, PrimeSet([3]))
        elimination = pipartial.rref_mod
        primes = []

        def bad_first_prime(rows, q):
            primes.append(q)
            return ([], [0, 2]) if q == FIRST_PRIME else elimination(rows, q)

        monkeypatch.setattr(pipartial, "rref_mod", bad_first_prime)
        batched = _recording(monkeypatch, "integer_solutions", lambda c, t: len(c))
        members = sigma_partial_characters(s4, PrimeSet([3]))
        assert [phi.values for phi in members] == expected
        assert primes == [FIRST_PRIME, prime_below(FIRST_PRIME)]
        assert batched == [2, 2]

    def test_a_failure_at_both_primes_names_the_group_and_sigma(self, monkeypatch):
        monkeypatch.setattr(pipartial, "rref_mod", lambda rows, q: ([], [0]))
        with pytest.raises(
            InternalConsistencyError,
            match=r"^found 1 irreducible partial characters, expected 2 \(the sigma-class "
            r"count\) in a group of order 24, sigma=\{3\}$",
        ):
            sigma_partial_characters(group(4, "(1,2)", "(1,2,3,4)"), PrimeSet([3]))

    def test_the_degree_certificate_names_the_group_and_sigma(self, monkeypatch):
        # S4 on its 2-classes keeps degrees 1, 1, 3, 3 and drops (2,0,2,0): a
        # solution through a member of degree 3 fails the degree certificate
        batched = pipartial.integer_solutions

        def through_the_last_member(columns, targets):
            solutions = batched(columns, targets)
            return [x if x.count(0) == len(x) - 1 else [0] * (len(x) - 1) + [1] for x in solutions]

        monkeypatch.setattr(pipartial, "integer_solutions", through_the_last_member)
        with pytest.raises(
            InternalConsistencyError,
            match=r"^a restriction decomposes over a member of no smaller degree "
            r"in a group of order 24, sigma=\{2\}$",
        ):
            sigma_partial_characters(group(4, "(1,2)", "(1,2,3,4)"), PrimeSet([2]))

    def test_a_solve_error_names_the_group_and_sigma(self, monkeypatch):
        def dependent(columns, targets):
            raise ValueError("columns are linearly dependent")

        monkeypatch.setattr(pipartial, "integer_solutions", dependent)
        with pytest.raises(
            InternalConsistencyError,
            match=r"^columns are linearly dependent in a group of order 24, sigma=\{3\}$",
        ):
            run_command(["ipi", "--group", "S4", "--pi", "3"])

    def test_a_failed_decomposition_names_the_group_and_sigma(self, monkeypatch, s4):
        phi = sigma_partial_characters(s4, PrimeSet([3]))[-1]
        V4 = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        monkeypatch.setattr(pipartial, "nonneg_integer_solution", lambda c, t: None)
        with pytest.raises(
            InternalConsistencyError,
            match=r"subgroup of order 4 .* in a group of order 24, sigma=\{3\}$",
        ):
            decompose_on_subgroup(phi, V4)

    def test_a_failed_clifford_correspondence_names_the_group_and_sigma(self, monkeypatch):
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        V4 = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        sigma = PrimeSet([2])
        theta = sigma_partial_characters(V4, sigma)[0]
        phi = next(phi for phi in sigma_partial_characters(s4, sigma) if lies_over(phi, theta))
        monkeypatch.setattr(pipartial, "induced_partial_values", lambda mu, G: ())
        with pytest.raises(
            InternalConsistencyError,
            match=r"^Clifford correspondence produced 0 candidates instead of 1 "
            r"in a group of order 24, sigma=\{2\}$",
        ):
            clifford_correspondent(phi, V4, theta)


class TestDecomposition:
    def test_trivial_restriction(self, s3):
        sigma = PrimeSet([3])
        phis = sigma_partial_characters(s3, sigma)
        triv = by_degree(phis, 1)
        C3 = s3.subgroup([perm("(1,2,3)", 3)])
        decomp = decompose_on_subgroup(triv, C3)
        assert len(decomp) == 1 and decomp[0][1] == 1
        assert decomp[0][0].degree == 1

    def test_degree2_on_c3(self, s3):
        sigma = PrimeSet([3])
        two = by_degree(sigma_partial_characters(s3, sigma), 2)
        C3 = s3.subgroup([perm("(1,2,3)", 3)])
        decomp = decompose_on_subgroup(two, C3)
        assert sorted(m for _, m in decomp) == [1, 1]
        assert all(mu.values[1] != 1 for mu, _ in decomp)  # the two nontrivial ones

    def test_restrict_to_self(self, s4):
        sigma = PrimeSet([3])
        for phi in sigma_partial_characters(s4, sigma):
            decomp = decompose_on_subgroup(phi, s4)
            assert decomp == [(phi, 1)]


class TestInduction:
    def test_induced_partial_from_c3(self, s3):
        sigma = PrimeSet([3])
        C3 = s3.subgroup([perm("(1,2,3)", 3)])
        nontriv = [
            mu for mu in sigma_partial_characters(C3, sigma) if mu.values[1] != 1
        ]
        two = by_degree(sigma_partial_characters(s3, sigma), 2)
        for mu in nontriv:
            assert induced_partial_values(mu, s3) == two.values


class TestClifford:
    def test_s3_over_c3(self, s3):
        sigma = PrimeSet([3])
        C3 = s3.subgroup([perm("(1,2,3)", 3)])
        two = by_degree(sigma_partial_characters(s3, sigma), 2)
        theta = next(
            mu for mu in sigma_partial_characters(C3, sigma) if mu.values[1] != 1
        )
        assert lies_over(two, theta)
        mu, T = clifford_correspondent(two, C3, theta)
        assert T.order == 3
        assert mu.values == theta.values

    def test_a4_over_v4(self, a4):
        sigma = PrimeSet([2])
        V = a4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        three = by_degree(sigma_partial_characters(a4, sigma), 3)
        theta = next(
            mu for mu in sigma_partial_characters(V, sigma) if mu.degree == 1 and
            any(v != 1 for v in mu.values)
        )
        mu, T = clifford_correspondent(three, V, theta)
        assert T.order == 4
        assert mu.values == theta.values

    def test_stabilizer_is_whole_group_for_invariant(self, s4):
        sigma = PrimeSet([3])
        V = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        triv = next(
            mu for mu in sigma_partial_characters(V, sigma) if all(v == 1 for v in mu.values)
        )
        assert partial_character_stabilizer(s4, V, triv).order == 24

    def test_one_action_serves_characters_and_partial_characters(self, a4):
        assert partial_character_stabilizer is character_stabilizer
        sigma = PrimeSet([2])
        V = a4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        for tau in sigma_partial_characters(V, sigma):
            chi = Character(V, tau.values)  # V is a 2-group: every class is a 2-class
            assert tau.class_indices == tuple(chi.class_indices)
            orders = {character_stabilizer(a4, V, theta).order for theta in (tau, chi)}
            invariant = {is_invariant_character(theta, a4.generators) for theta in (tau, chi)}
            assert orders == ({12} if all(v == 1 for v in tau.values) else {4})
            assert invariant == {orders == {12}}

    def test_correspondent_of_invariant_is_itself(self, s4):
        sigma = PrimeSet([3])
        V = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        triv_theta = next(
            mu for mu in sigma_partial_characters(V, sigma) if all(v == 1 for v in mu.values)
        )
        phi = next(
            p for p in sigma_partial_characters(s4, sigma) if lies_over(p, triv_theta)
        )
        mu, T = clifford_correspondent(phi, V, triv_theta)
        assert T.order == 24
        assert mu == phi


class TestVertices:
    def test_trivial_phi_gets_hall_complement(self, s4):
        sigma = PrimeSet([3])
        phis = sigma_partial_characters(s4, sigma)
        triv = next(p for p in phis if p.degree == 1)
        cls = vertices(triv)
        assert cls.order == 8

    def test_degree2_gets_normal_v4(self, s4):
        sigma = PrimeSet([3])
        two = by_degree(sigma_partial_characters(s4, sigma), 2)
        cls = vertices(two)
        assert cls.order == 4
        assert cls.class_size == 1  # the normal V4, not the other class of order 4

    def test_vertex_degree_law(self, s4, a4, s3, c3xc3_c2):
        for G in (s4, a4, s3, c3xc3_c2):
            for primes in ([2], [3]):
                sigma = PrimeSet(primes)
                coprimes = sigma.complement_within(G.order)
                for phi in sigma_partial_characters(G, sigma):
                    cls = vertices(phi)
                    assert coprimes.part(phi.degree) == coprimes.part(
                        G.order // cls.order
                    )

    def test_sigma_prime_defect_zero_has_trivial_vertex(self, s3, a4):
        # lifts of full coprime defect zero: the degree-2 member of S3 at
        # sigma={3} and the degree-3 member of A4 at sigma={2}
        two = by_degree(sigma_partial_characters(s3, PrimeSet([3])), 2)
        assert vertices(two).order == 1
        three = by_degree(sigma_partial_characters(a4, PrimeSet([2])), 3)
        assert vertices(three).order == 1

    def test_each_alpha_is_induced_once_per_group(self, monkeypatch):
        induced = []
        real = pipartial.induced_partial_values

        def count(alpha, G):
            induced.append((alpha, id(G)))
            return real(alpha, G)

        monkeypatch.setattr(pipartial, "induced_partial_values", count)
        for p in (2, 3, 5):
            G = builtin_by_name("S4xC5").build()
            for phi in sigma_partial_characters(G, PrimeSet([p])):
                vertices(phi)
            assert induced and len(set(induced)) == len(induced), p
            induced.clear()


class TestIpiWithVertex:
    def test_s4_transposition_is_no_vertex(self, s4):
        sigma = PrimeSet([3])
        Q = s4.subgroup([perm("(1,2)", 4)])
        assert ipi_with_vertex(s4, sigma, Q) == ()

    def test_s4_d8_vertex(self, s4):
        sigma = PrimeSet([3])
        Q = s4.subgroup([perm("(1,2,3,4)", 4), perm("(1,3)", 4)])
        phis = ipi_with_vertex(s4, sigma, Q)
        assert len(phis) == 1 and phis[0].degree == 1

    def test_trivial_vertex_contains_coprime_defect_zero(self, a4):
        sigma = PrimeSet([2])
        Q = a4.subgroup([])
        phis = ipi_with_vertex(a4, sigma, Q)
        assert [p.degree for p in phis] == [3]


def degree_law_on_the_table_of(N, sigma, R):
    """Iso(N|R) read off the table of N itself: the members of Iso(N) with
    phi(1)_{sigma'} = |N:R|_{sigma'}, each certified to have vertex R by
    R = O_{sigma'}(N)."""
    coprime = sigma.complement_within(N.order)
    law = coprime.part(N.order // R.order)
    out = tuple(
        phi for phi in sigma_partial_characters(N, sigma) if coprime.part(phi.degree) == law
    )
    assert not (out and any(N.o_sigma_walk(coprime, R.element_set())))
    return out


class TestIpiWithNormalVertex:
    """Iso(N|R) off the quotient N/R, against the exhaustive vertex search."""

    def test_equals_the_vertex_search_on_every_normalizer(self):
        # the vertex search on the builtins of order at most 120, and Iso(N)
        # by the degree law on the larger builtins and the group files
        cases = nonempty = 0
        for definition in [*builtin_corpus(), *lattice_group_files()]:
            G = definition.build()
            primes = G.primes()
            for k in range(1, len(primes) + 1):
                for subset in itertools.combinations(primes, k):
                    sigma = PrimeSet(subset)
                    if not G.is_sigma_separable(sigma):
                        continue
                    coprime = sigma.complement_within(G.order)
                    for cls in subgroup_classes(G):
                        if not coprime.is_sigma_number(cls.order):
                            continue
                        R = cls.representative
                        N = G.normalizer(R)
                        if definition.expected_order <= 120:
                            expected = ipi_with_vertex(N, sigma, N.subgroup(R.generators))
                        else:
                            expected = degree_law_on_the_table_of(N, sigma, R)
                        where = (definition.name, subset, R.order)
                        assert ipi_with_normal_vertex(N, sigma, R) == expected, where
                        cases += 1
                        nonempty += bool(expected)
        assert (cases, nonempty) == (413, 128)

    def test_rejects_a_subgroup_that_is_not_normal(self, s4):
        R = s4.subgroup([perm("(1,2)", 4)])
        with pytest.raises(ValueError, match="normal sigma'-subgroup"):
            ipi_with_normal_vertex(s4, PrimeSet([3]), R)

    def test_a_set_kept_above_r_builds_no_quotient_and_no_table(self, monkeypatch):
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        V4 = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        # a walk that keeps the whole group above R: O_{sigma'}(N) > R
        monkeypatch.setattr(PermGroup, "o_sigma_walk", lambda self, sigma, start: iter([self.element_set()]))
        assert ipi_with_normal_vertex(s4, PrimeSet([3]), V4) == ()
        assert PermGroup.quotient.peek(s4, V4) is None
        assert character_table.peek(s4) is None
        assert sigma_partial_characters.peek(s4, PrimeSet([3])) is None

    def test_reads_the_quotient_and_not_the_table_of_n(self):
        # V4 = O_2(S4): Iso(S4|V4) at sigma = {3} is the member of degree 2,
        # inflated from S4/V4 = S3; the linear one has vertex D8
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        V4 = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        sigma = PrimeSet([3])
        got = ipi_with_normal_vertex(s4, sigma, V4)
        assert [phi.degree for phi in got] == [2]
        assert character_table.peek(PermGroup.quotient.peek(s4, V4)[0]) is not None
        assert character_table.peek(s4) is None
        assert got == degree_law_on_the_table_of(s4, sigma, V4)


class TestGlauberman:
    def test_trivial_acting_group(self, s4):
        S = s4.subgroup([])
        action = GlaubermanAction(s4, S)
        tab = character_table(s4)
        for chi in tab.irreducibles:
            assert glauberman_correspondent(action, chi).values == chi.values

    def test_swap_action_squares_diagonal(self, c3xc3_c2):
        G = c3xc3_c2
        N = G.subgroup([perm("(1,2,3)", 6), perm("(4,5,6)", 6)])
        S = G.subgroup([perm("(1,4)(2,5)(3,6)", 6)])
        action = GlaubermanAction(N, S)
        C = action.fixed
        assert C.order == 3
        omega = Cyclotomic(3, {1: 1})
        tab = character_table(N)
        a = perm("(1,2,3)", 6)
        b = perm("(4,5,6)", 6)
        alpha_alpha = next(
            chi
            for chi in tab.irreducibles
            if chi(a) == omega and chi(b) == omega
        )
        assert is_invariant_character(alpha_alpha, S.generators)
        image = glauberman_correspondent(action, alpha_alpha)
        d = perm("(1,2,3)(4,5,6)", 6)
        assert image(d) == omega * omega

    def test_bijectivity_on_swap_action(self, c3xc3_c2):
        G = c3xc3_c2
        N = G.subgroup([perm("(1,2,3)", 6), perm("(4,5,6)", 6)])
        S = G.subgroup([perm("(1,4)(2,5)(3,6)", 6)])
        pairs = glauberman_map(GlaubermanAction(N, S))
        assert len(pairs) == 3

    def test_frobenius_c7_c3(self):
        G = group(7, "(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)")
        assert G.order == 21
        N = G.subgroup([perm("(1,2,3,4,5,6,7)", 7)])
        S = G.subgroup([perm("(2,3,5)(4,7,6)", 7)])
        action = GlaubermanAction(N, S)
        assert action.fixed.order == 1
        pairs = glauberman_map(action)
        # only the trivial character of C7 is invariant
        assert len(pairs) == 1

    def test_noncoprime_rejected(self, s4):
        N = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        S = s4.subgroup([perm("(1,2)", 4)])
        with pytest.raises(ValueError):
            GlaubermanAction(N, S)

    def test_series_independence_for_c6_action(self):
        # C6 = <x -> 3x on C7> acting on C7 x C5 (trivially on the C5 part);
        # descending via C3 first or via C2 first must give the same map
        ambient = group(12, "(1,2,3,4,5,6,7)", "(8,9,10,11,12)", "(2,4,3,7,5,6)")
        N = ambient.subgroup(
            [perm("(1,2,3,4,5,6,7)", 12), perm("(8,9,10,11,12)", 12)]
        )
        S = ambient.subgroup([perm("(2,4,3,7,5,6)", 12)])
        assert S.order == 6 and N.order == 35
        action = GlaubermanAction(N, S)
        assert action.fixed.order == 5

        from nilweight.sigma import is_prime

        def smallest_first(group_):
            options = [
                T
                for T in group_.normal_subgroups()
                if len(T) < group_.order and is_prime(group_.order // len(T))
            ]
            return group_._generated(min(options, key=lambda T: (len(T), sorted(T))))

        tab = character_table(N)
        invariant = [
            chi for chi in tab.irreducibles if is_invariant_character(chi, S.generators)
        ]
        assert len(invariant) == 5
        for chi in invariant:
            via_default = glauberman_correspondent(action, chi)
            via_smallest = glauberman_correspondent(action, chi, smallest_first)
            assert via_default.values == via_smallest.values


class TestWeights:
    def test_a5_has_no_full_nilpotent_weights(self, a5):
        assert enumerate_weights(a5, PrimeSet([2, 3, 5])) == ()

    def test_s4_two_weights_at_sigma_2(self, s4):
        ws = enumerate_weights(s4, PrimeSet([2]))
        assert sorted((w.q_order, w.character.degree) for w in ws) == [(4, 2), (8, 1)]

    def test_solvable_sigma_group_has_carter_weight(self, d8):
        ws = enumerate_weights(d8, PrimeSet([2]))
        assert len(ws) == 1
        assert ws[0].q_order == 8 and ws[0].character.degree == 1

    def test_c6_weight(self):
        c6 = group(6, "(1,2,3,4,5,6)")
        ws = enumerate_weights(c6, PrimeSet([2, 3]))
        assert len(ws) == 1 and ws[0].q_order == 6

    def test_weights_with_first_component(self, s4):
        sigma2 = PrimeSet([2])
        D8 = s4.subgroup([perm("(1,2,3,4)", 4), perm("(1,3)", 4)])
        assert len(weights_with_first_component(s4, sigma2, D8)) == 1
        V = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        assert len(weights_with_first_component(s4, sigma2, V)) == 1
        C2 = s4.subgroup([perm("(1,2)", 4)])
        assert len(weights_with_first_component(s4, sigma2, C2)) == 0

    def test_quotient_by_the_trivial_class_is_not_the_regular_action(self):
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        check_weight_count(s4, PrimeSet([3]))
        trivial = subgroup_classes(s4)[0]
        assert trivial.order == 1
        # N_G(1)/1 is S4 on its 4 points, not on its 24 elements
        assert weight_quotient(s4, trivial)[0].degree == 4


def weight_quotient(G, cls):
    """The memoized N_G(Q)/Q, with its projection, that the weights at the
    class of Q built, or None."""
    Q = cls.representative
    return PermGroup.quotient.peek(G.normalizer(Q), Q)


def _is_gated(G, sigma, cls):
    """The weight gate: O_sigma(N_G(Q)) > Q for the class representative Q."""
    Q = cls.representative
    return len(G.normalizer(Q).o_sigma_elements(sigma)) > Q.order


class TestNormalSigmaGate:
    """The O_sigma walk of N_G(Q) from Q decides which classes Q get a weight quotient."""

    def test_equals_o_sigma_on_every_weight_quotient(self):
        # O_sigma(N_G(Q)/Q) = O_sigma(N_G(Q))/Q, asked of both groups; a
        # gated quotient has no character of sigma-defect zero
        gated = 0
        for definition in builtin_corpus():
            G = definition.build()
            for sigma in sigma_subsets(G):
                for cls in nilpotent_sigma_subgroup_classes(G, sigma):
                    Q = cls.representative
                    upstairs = len(G.normalizer(Q).o_sigma_elements(sigma))
                    quo, _ = G.normalizer(Q).quotient(Q)
                    where = (definition.name, sigma, cls.order)
                    assert upstairs == Q.order * len(quo.o_sigma_elements(sigma)), where
                    if upstairs > Q.order:
                        gated += 1
                        irr = character_table(quo).irreducibles
                        assert not any(has_sigma_defect_zero(g, sigma) for g in irr), where
        assert gated > 0

    def test_equals_the_largest_normal_sigma_subgroup(self):
        # `normal_subgroups` joins the normal closures of the class
        # representatives as element sets, a path of its own
        cases = 0
        for definition in builtin_corpus():
            G = definition.build()
            for sigma in sigma_subsets(G):
                for cls in nilpotent_sigma_subgroup_classes(G, sigma):
                    N = G.normalizer(cls.representative)
                    sigma_normals = [K for K in N.normal_subgroups() if sigma.is_sigma_number(len(K))]
                    largest = max(sigma_normals, key=len)
                    where = (definition.name, sigma, cls.order)
                    assert N.o_sigma_elements(sigma) == largest, where
                    cases += 1
        assert cases == 341

    def test_the_walk_from_q_answers_as_the_normal_subgroups(self):
        # the gate stops at the first set the walk keeps above Q; it answers
        # on every builtin and prime set, and on every desk-scale file within
        # the lattice bound for each prime
        cases = []
        for d in builtin_corpus():
            G = d.build()
            cases += [(d.name, G, sigma) for sigma in sigma_subsets(G)]
        for d in lattice_group_files():
            G = d.build()
            cases += [(d.name, G, PrimeSet([p])) for p in G.primes()]
        asked = 0
        for name, G, sigma in cases:
            for cls in nilpotent_sigma_subgroup_classes(G, sigma):
                Q = cls.representative
                N = G.normalizer(Q)
                largest = max(len(K) for K in N.normal_subgroups() if sigma.is_sigma_number(len(K)))
                gated = any(N.o_sigma_walk(sigma, Q.element_set()))
                assert gated is (largest > Q.order), (name, sigma, cls.order)
                asked += 1
        assert asked == 606  # 341 on the builtins, 265 on the group files

    @pytest.mark.parametrize(
        "name, primes, expected",
        [
            ("A5", [2, 3, 5], True),  # A5 itself, nonabelian
            ("A5", [2], False),
            ("S4", [2], True),
            ("S3", [3], True),
            ("S3", [2], False),
            ("triv", [2], False),
        ],
    )
    def test_direct_cases(self, name, primes, expected, s3, s4, a5):
        G = {"S3": s3, "S4": s4, "A5": a5, "triv": group(1)}[name]
        assert (len(G.o_sigma_elements(PrimeSet(primes))) > 1) is expected

    def test_a_small_span_of_other_order_is_no_sigma_subgroup(self):
        # each transposition class of S3^3 spans one S3 factor: order 6,
        # below |G|_2 = 8 but not a power of 2, and O_2(S3^3) = 1
        G = group(9, "(1,2)", "(1,2,3)", "(4,5)", "(4,5,6)", "(7,8)", "(7,8,9)")
        assert G.o_sigma_elements(PrimeSet([2])) == {G.identity.images}
        assert G.o_sigma(PrimeSet([2])).order == 1

    def test_span_within_stops_past_its_limit(self, a5):
        three_cycles = next(c.members for c in a5.conjugacy_classes() if c.element_order == 3)
        trivial = frozenset([a5.identity.images])
        assert span(trivial, three_cycles, 59) is None
        assert span(trivial, three_cycles, 60) == a5.element_set()

    def test_spans_stop_at_the_sigma_part_of_the_order(self, monkeypatch):
        limits = []
        real = groups.span

        def recording(h_set, gens, limit):
            limits.append(limit)
            return real(h_set, gens, limit)

        monkeypatch.setattr(groups, "span", recording)
        a5 = group(5, "(1,2,3,4,5)", "(3,4,5)")  # fresh: the memo is empty
        assert len(a5.o_sigma_elements(PrimeSet([2]))) == 1
        assert limits == [4]  # one class of involutions, |A5|_2 = 4

    def test_verify_a_builds_no_table_for_a_gated_quotient(self):
        # fresh groups: the session fixtures may carry other tests' memos
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        a4 = group(4, "(1,2,3)", "(1,2)(3,4)")
        gated = 0
        for G, sigma in ((s4, PrimeSet([3])), (a4, PrimeSet([2]))):
            check_weight_count(G, sigma)
            for cls in nilpotent_sigma_subgroup_classes(G, sigma):
                if _is_gated(G, sigma, cls):
                    gated += 1
                    assert weight_quotient(G, cls) is None
                else:
                    assert character_table.peek(weight_quotient(G, cls)[0]) is not None
        assert gated == 2  # N(1)/1 = A4 and N(C2)/C2 = C2, at sigma = {2}

    def test_verify_a_builds_no_quotient_for_a_gated_class(self):
        gated = kept = 0
        for definition in builtin_corpus():
            for sigma in sigma_subsets(definition.build()):
                # a fresh group per sigma: quotients are memoized per normal subgroup
                G = definition.build()
                check_weight_count(G, sigma)
                for cls in nilpotent_sigma_subgroup_classes(G, sigma):
                    built = weight_quotient(G, cls) is not None
                    assert built is not _is_gated(G, sigma, cls), (definition.name, sigma, cls)
                    gated += not built
                    kept += built
        assert (gated, kept) == (220, 121)

    def test_verify_a_tables_g_itself_for_a_kept_trivial_class(self):
        # O_2(S3) = 1 keeps the trivial class at sigma = {2}; N_G(1) is G
        # itself, so the weights read G's table of N_G(1)/1 = G
        G = group(3, "(1,2)", "(1,2,3)")
        check_weight_count(G, PrimeSet([2]))
        assert character_table.peek(G) is not None
        assert G.normalizer(G.subgroup([])) is G

    def test_verify_a_builds_no_class_list_of_a_normalizer(self):
        # the gate walks the classes it needs, one at a time; Q = 1 and every
        # other normal Q are left out, as N_G(Q) is G itself and G's classes
        # are read by the count of sigma'-classes and by G's table
        asked = 0
        for definition in builtin_corpus():
            G = definition.build()  # fresh: no other test's memo
            sigmas = sigma_subsets(G)
            for sigma in sigmas:
                check_weight_count(G, sigma)
            for sigma in sigmas:
                for cls in nilpotent_sigma_subgroup_classes(G, sigma):
                    if cls.class_size > 1:
                        N = G.normalizer(cls.representative)
                        where = (definition.name, sigma, cls)
                        assert PermGroup.conjugacy_classes.peek(N) is None, where
                        asked += 1
        assert asked == 149  # 246 with the normal classes, whose N_G(Q) is G


class TestLiftConsistency:
    def test_every_member_is_the_restriction_of_an_irreducible(self, s4, a4, c3xc3_c2):
        for G in (s4, a4, c3xc3_c2):
            for primes in ([2], [3]):
                sigma = PrimeSet(primes)
                sidx = G.sigma_class_indices(sigma)
                restrictions = {
                    tuple(chi.values[j] for j in sidx) for chi in character_table(G).irreducibles
                }
                for phi in sigma_partial_characters(G, sigma):
                    assert phi.values in restrictions


class TestHallClassByScan:
    @pytest.mark.parametrize(
        "definition",
        [d for d in builtin_corpus() if "nonsolvable" not in d.tags],
        ids=lambda d: d.name,
    )
    def test_matches_the_hall_subgroup_of_each_class(self, definition):
        G = definition.build()
        for p in G.primes():
            sigma = PrimeSet([p])
            for cls in subgroup_classes(G):
                U = cls.representative
                order = sigma.copart(U.order)
                hall = U.find_hall_sigma_subgroup(sigma.complement_within(U.order))
                expected = subgroup_class_of(G, hall)
                assert _hall_coprime_class(G, U, order, "") is expected
                inside = [
                    c
                    for c in subgroup_classes(G)
                    if c.order == order
                    and any(
                        m <= U.element_set()
                        for m in G.subgroup_orbit(c.representative.element_set()).members
                    )
                ]
                assert inside == [expected]

    def test_no_member_inside_names_the_orders(self, s4):
        U = s4.subgroup([perm("(1,2,3)", 4)])
        where = "in a group of order 24, sigma={2}"
        with pytest.raises(
            InternalConsistencyError,
            match=r"0 classes of order 2 .* order 3 in a group of order 24, sigma=\{2\}",
        ):
            _hall_coprime_class(s4, U, 2, where)


class TestFlattenCoordinates:
    def test_unreduced_denominator_with_integral_coordinates(self):
        # (1 + i^2) / 2 = 0: gcd(den, nums) is 1 on the raw terms, yet the
        # power-basis coordinates (1 - 1) / 2 are integers
        zero = Cyclotomic(4, {0: 1, 2: 1}, 2)
        assert zero.den == 2
        assert _flatten([zero, Cyclotomic(4, {1: 3})], 4, "") == [0, 0, 0, 3]

    def test_rejects_a_coordinate_not_divisible_by_the_denominator(self):
        half_i = Cyclotomic(4, {1: 1}, 2)
        with pytest.raises(InternalConsistencyError, match="not an algebraic integer"):
            _flatten([half_i], 4, "")

    def test_a_value_outside_the_integers_names_the_group_and_sigma(self, monkeypatch):
        # 1/2*z4 on the last 3-class of S4: the table passes through
        # unchecked, and the restriction's coordinates are not integers
        s4 = group(4, "(1,2)", "(1,2,3,4)")
        sidx = s4.sigma_class_indices(PrimeSet([3]))
        real = character_table(s4).irreducibles
        values = list(real[-1].values)
        values[sidx[-1]] = Cyclotomic(4, {1: 1}, 2)
        table = SimpleNamespace(irreducibles=real[:-1] + (Character(s4, values),))
        monkeypatch.setattr(pipartial, "character_table", lambda G: table)
        with pytest.raises(
            InternalConsistencyError,
            match=r"^character value .* is not an algebraic integer "
            r"in a group of order 24, sigma=\{3\}$",
        ):
            sigma_partial_characters(s4, PrimeSet([3]))
