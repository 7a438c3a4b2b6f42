from fractions import Fraction

import pytest

from nilweight import chartab
from nilweight.chartab import (
    Character,
    character_stabilizer,
    character_table,
    conjugate_character,
    decompose_into_irreducibles,
    has_sigma_defect_zero,
    induce_character,
    inner_product,
    restrict_character,
)
from nilweight.cyclotomic import Cyclotomic
from nilweight.groups import bsgs_construct
from nilweight.sigma import PrimeSet

from conftest import group, perm


def zeta(m, k=1):
    return Cyclotomic.root_of_unity(m, k)


def trivial_char(tab):
    return next(c for c in tab.irreducibles if all(v == 1 for v in c.values))


class TestTableConstruction:
    def test_trivial_group(self):
        G = bsgs_construct([], degree=2)
        tab = character_table(G)
        assert tab.degrees() == (1,)
        assert tab.irreducibles[0].values[0] == 1

    def test_c3_table_is_fourier_matrix(self):
        G = group(3, "(1,2,3)")
        tab = character_table(G)
        assert tab.degrees() == (1, 1, 1)
        # rows are zeta_3^(jk) in some row order; check as a set of value tuples
        got = {tuple(chi.values) for chi in tab.irreducibles}
        want = {
            tuple(zeta(3, (j * k) % 3) for k in range(3))
            for j in range(3)
        }
        # identity class is first; class order is (), (1,2,3), (1,3,2) by min rep
        assert got == want

    def test_s3_degrees_and_values(self, s3):
        tab = character_table(s3)
        assert tab.degrees() == (1, 1, 2)
        # classes: 1, transpositions, 3-cycles; lexicographic order puts the
        # sign character before the trivial one
        sign, triv, two = tab.irreducibles
        assert [v.to_int() for v in triv.values] == [1, 1, 1]
        assert [v.to_int() for v in sign.values] == [1, -1, 1]
        assert [v.to_int() for v in two.values] == [2, 0, -1]

    def test_s4_degrees(self, s4):
        assert character_table(s4).degrees() == (1, 1, 2, 3, 3)

    def test_q8_degrees(self, q8):
        assert character_table(q8).degrees() == (1, 1, 1, 1, 2)

    def test_a5_table(self, a5):
        tab = character_table(a5)
        assert tab.degrees() == (1, 3, 3, 4, 5)
        # golden-ratio values of the degree-3 characters on the 5-cycles
        golden_plus = -(zeta(5, 2) + zeta(5, 3))  # (1+sqrt5)/2
        golden_minus = -(zeta(5, 1) + zeta(5, 4))  # (1-sqrt5)/2
        deg3 = [chi for chi in tab.irreducibles if chi.degree == 3]
        five_cycle_values = {chi.values[3] for chi in deg3} | {
            chi.values[4] for chi in deg3
        }
        assert golden_plus in five_cycle_values
        assert golden_minus in five_cycle_values

    def test_determinism_across_seeds(self, s4, monkeypatch):
        # the sorted table must not depend on the splitting seed
        t1 = character_table(s4)
        monkeypatch.setattr(chartab, "_SPLIT_SEED", 12345)
        G2 = group(4, "(1,2)", "(1,2,3,4)")
        t2 = character_table(G2)
        v1 = [[str(v) for v in chi.values] for chi in t1.irreducibles]
        v2 = [[str(v) for v in chi.values] for chi in t2.irreducibles]
        assert v1 == v2

    def test_abelian_tables(self):
        for cycles, n in [(("(1,2,3,4,5,6)",), 6), (("(1,2)", "(3,4)"), 2)]:
            G = group(max(int(c) for s in cycles for c in s if c.isdigit()), *cycles)
            tab = character_table(G)
            assert all(d == 1 for d in tab.degrees())
            assert len(tab.irreducibles) == G.order


class TestInnerProduct:
    def test_irreducible_norm(self, s3):
        tab = character_table(s3)
        for chi in tab.irreducibles:
            assert inner_product(chi, chi) == 1

    def test_regular_character(self, s3):
        tab = character_table(s3)
        reg = Character(s3, [6, 0, 0])
        assert inner_product(trivial_char(tab), reg) == 1

    def test_sum(self, s3):
        tab = character_table(s3)
        two = tab.irreducibles[2]
        triv = tab.irreducibles[0]
        assert inner_product(two, triv + two) == 1


class TestRestrictionInduction:
    def test_restrict_trivial(self, s3):
        tab = character_table(s3)
        C3 = s3.subgroup([perm("(1,2,3)", 3)])
        res = restrict_character(trivial_char(tab), C3)
        assert all(v == 1 for v in res.values)

    def test_restrict_two_to_c3(self, s3):
        tab = character_table(s3)
        C3 = s3.subgroup([perm("(1,2,3)", 3)])
        res = restrict_character(tab.irreducibles[2], C3)
        sub = character_table(C3)
        mult = decompose_into_irreducibles(res, sub)
        # the two nontrivial linear characters of C3, each once
        nontrivial = [i for i, chi in enumerate(sub.irreducibles) if chi.values[1] != 1]
        assert sorted(mult[i] for i in nontrivial) == [1, 1]
        assert sum(m * sub.irreducibles[i].degree for i, m in enumerate(mult)) == 2

    def test_restriction_to_self(self, s4):
        tab = character_table(s4)
        for chi in tab.irreducibles:
            assert restrict_character(chi, s4).values == chi.values

    def test_induce_nontrivial_linear_of_c3(self, s3):
        C3 = s3.subgroup([perm("(1,2,3)", 3)])
        sub = character_table(C3)
        nontriv = next(chi for chi in sub.irreducibles if chi.values[1] != 1)
        ind = induce_character(nontriv, s3)
        two = character_table(s3).irreducibles[2]
        assert ind.values == two.values

    def test_induce_trivial_from_c2(self, s3):
        C2 = s3.subgroup([perm("(1,2)", 3)])
        triv = trivial_char(character_table(C2))
        ind = induce_character(triv, s3)
        tab = character_table(s3)
        one, two = trivial_char(tab), tab.irreducibles[2]
        assert ind.values == (one + two).values

    def test_induce_from_self(self, s3):
        tab = character_table(s3)
        chi = tab.irreducibles[1]
        assert induce_character(chi, s3).values == chi.values

    def test_frobenius_reciprocity(self, s4):
        tab = character_table(s4)
        for gens in [["(1,2)"], ["(1,2,3)"], ["(1,2,3,4)"], ["(1,2)(3,4)", "(1,3)(2,4)"]]:
            H = s4.subgroup([perm(s, 4) for s in gens])
            sub = character_table(H)
            for theta in sub.irreducibles:
                ind = induce_character(theta, s4)
                for chi in tab.irreducibles:
                    assert inner_product(ind, chi) == inner_product(
                        theta, restrict_character(chi, H)
                    )


class TestDefect:
    def test_s3_degree_two_has_2_defect_zero(self, s3):
        two = character_table(s3).irreducibles[2]
        assert has_sigma_defect_zero(two, PrimeSet([2]))

    def test_trivial_character_of_nontrivial_sigma_group(self, d8):
        triv = character_table(d8).irreducibles[0]
        assert not has_sigma_defect_zero(triv, PrimeSet([2]))

    def test_disjoint_sigma(self, s3):
        for chi in character_table(s3).irreducibles:
            assert has_sigma_defect_zero(chi, PrimeSet([7]))


class TestStabilizer:
    def test_stabilizer_of_nontrivial_c3_character(self, s3):
        C3 = s3.subgroup([perm("(1,2,3)", 3)])
        nontriv = next(
            chi for chi in character_table(C3).irreducibles if chi.values[1] != 1
        )
        T = character_stabilizer(s3, C3, nontriv)
        assert T.order == 3

    def test_stabilizer_of_invariant_character(self, s4):
        V = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        triv = trivial_char(character_table(V))
        assert character_stabilizer(s4, V, triv).order == 24

    def test_stabilizer_of_noninvariant_v4_character(self, s4):
        V = s4.subgroup([perm("(1,2)(3,4)", 4), perm("(1,3)(2,4)", 4)])
        chi = character_table(V).irreducibles[0]
        assert not all(v == 1 for v in chi.values)
        assert character_stabilizer(s4, V, chi).order == 8

    def test_conjugate_character_values(self, s4):
        H = s4.subgroup([perm("(1,2,3)", 4)])
        chi = next(
            c for c in character_table(H).irreducibles if c.values[1] != 1
        )
        g = perm("(1,2)", 4)
        Hg = s4.conjugated_subgroup(H, g)
        chig = conjugate_character(chi, g, Hg)
        x = perm("(1,2,3)", 4)  # in H
        assert chig(x.conjugate(g)) == chi(x)


class TestAlgebraicIntegrality:
    def test_table_values_are_algebraic_integers(self, s4, a5, q8):
        # denominator-free in the power basis of the cyclotomic field
        for G in (s4, a5, q8):
            for chi in character_table(G).irreducibles:
                for v in chi.values:
                    assert all(c.denominator == 1 for c in v.canonical())

    def test_splitting_prime_cap(self):
        from nilweight.linalg import find_splitting_prime

        with pytest.raises(RuntimeError):
            find_splitting_prime(6, 36, cap=10)
