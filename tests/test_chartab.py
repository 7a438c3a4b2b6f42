import hashlib
import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nilweight import cache, chartab
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
from nilweight.cli import run_command
from nilweight.corpus import builtin_corpus, parse_definition
from nilweight.cyclotomic import Cyclotomic, conjugate_dot
from nilweight.groups import DEFAULT_BOUNDS, bsgs_construct
from nilweight.linalg import find_splitting_prime
from nilweight.sigma import PrimeSet, euler_phi

from conftest import elements, group, perm


def zeta(m, k=1):
    return Cyclotomic(m, {k: 1})


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

    def test_table_does_not_depend_on_the_splitting_path(self, monkeypatch):
        # the split fed the class matrices in another order must give the
        # same sorted table, also with irrational values (A5)
        split = chartab._split_to_common_eigenvectors

        def values(tab):
            return [[str(v) for v in chi.values] for chi in tab.irreducibles]

        def shuffled(mats):
            mats = list(mats)
            random.Random(7).shuffle(mats)
            return mats

        orders = {"reversed": lambda mats: list(mats)[::-1], "shuffled": shuffled}
        for gens in [(4, "(1,2)", "(1,2,3,4)"), (5, "(1,2,3,4,5)", "(3,4,5)")]:
            want = values(character_table(group(*gens)))
            for name, reorder in orders.items():
                monkeypatch.setattr(
                    chartab,
                    "_split_to_common_eigenvectors",
                    lambda mats, q, r, reorder=reorder: split(reorder(mats), q, r),
                )
                assert values(character_table(group(*gens))) == want, name
                monkeypatch.undo()

    def test_identity_matrix_alone_leaves_a_space_unsplit(self, s3):
        # the identity class acts as the identity: one eigenspace of dimension 3
        identity = next(chartab._class_matrices(s3))
        q = find_splitting_prime(s3.exponent(), s3.order)
        with pytest.raises(
            AssertionError, match="dimension > 1 in the table of a group of order 6 at conductor 6"
        ):
            chartab._split_to_common_eigenvectors([identity], q, s3)

    def test_a_prime_without_the_roots_of_unity_fails_naming_the_group(self, s3, monkeypatch):
        # 5 is not 1 mod exp(S3) = 6, so F_5 has no primitive 6th root to lift from
        monkeypatch.setattr(chartab, "find_splitting_prime", lambda e, order: 5)
        with pytest.raises(
            AssertionError,
            match="do not sum to the degree in the table of a group of order 6 at conductor 6",
        ):
            chartab._finite_field_table(s3)

    def test_a_matrix_that_moves_a_split_space_fails_naming_the_group(self, s3, monkeypatch):
        # the first matrix splits F^3 into <e0, e1> and <e2>; the second maps e0 to e2
        first = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
        second = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
        monkeypatch.setattr(chartab, "_class_matrices", lambda G: iter([first, second]))
        with pytest.raises(
            AssertionError,
            match="^subspace not invariant in the table of a group of order 6 at conductor 6$",
        ):
            chartab._finite_field_table(s3)

    def test_missing_eigenvalues_fail_naming_the_group(self, s3, monkeypatch):
        monkeypatch.setattr(chartab, "poly_roots_mod", lambda poly, q: [])
        with pytest.raises(
            AssertionError,
            match="^eigenspaces do not fill the subspace "
            "in the table of a group of order 6 at conductor 6$",
        ):
            chartab._finite_field_table(s3)

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
        total = Character(s3, [a + b for a, b in zip(triv.values, two.values)])
        assert inner_product(two, total) == 1


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
        assert ind.values == tuple(a + b for a, b in zip(one.values, two.values))

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

    def test_matches_bruteforce(self):
        # G_theta = {g : theta(g x g^-1) = theta(x) for every x in N}
        for d in builtin_corpus():
            if d.expected_order > 60:
                continue
            G = d.build()
            for N in G.normal_subgroups():
                for theta in character_table(N).irreducibles:
                    brute = {
                        g.images
                        for g in elements(G)
                        if all(theta(x.conjugate(g.inverse())) == theta(x) for x in elements(N))
                    }
                    T = character_stabilizer(G, N, theta)
                    assert T.element_set() == brute, (d.name, N)

    def test_conjugate_character_values(self, s4):
        H = s4.subgroup([perm("(1,2,3)", 4)])
        chi = next(
            c for c in character_table(H).irreducibles if c.values[1] != 1
        )
        g = perm("(1,2)", 4)
        Hg = s4.subgroup([x.conjugate(g) for x in H.generators])
        chig = conjugate_character(chi, g, Hg)
        x = perm("(1,2,3)", 4)  # in H
        assert chig(x.conjugate(g)) == chi(x)


class TestAlgebraicIntegrality:
    def test_table_values_are_algebraic_integers(self, s4, a5, q8):
        # denominator-free in the power basis of the cyclotomic field
        for G in (s4, a5, q8):
            for chi in character_table(G).irreducibles:
                for v in chi.values:
                    assert all(c.denominator == 1 for c in v.sort_key())

    def test_splitting_prime_cap(self):
        from nilweight.linalg import find_splitting_prime

        with pytest.raises(RuntimeError):
            find_splitting_prime(6, 36, cap=10)


# --- the pairwise reference for CharacterTable.verify -------------------------


def pairwise_verify(tab) -> None:
    """The reference certificate: square, degrees dividing |G|, and every
    pair i <= j reduced modulo Phi_e by `conjugate_dot` to the coordinates
    (|G| d^2 delta_ij, 0, ..., 0)."""
    G = tab.group
    irr = tab.irreducibles
    if len(irr) != len(G.conjugacy_classes()):
        raise AssertionError("number of irreducibles differs from class count")
    for chi in irr:
        if chi.degree < 1 or G.order % chi.degree:
            raise AssertionError("character degree is not a positive divisor of |G|")
    e = tab.conductor
    den = math.lcm(*(v.den for chi in irr for v in chi.values))
    rows = [[v.numerators_at(e, den) for v in chi.values] for chi in irr]
    sizes = [c.size for c in G.conjugacy_classes()]
    unit = [G.order * den * den] + [0] * (euler_phi(e) - 1)
    zero = [0] * len(unit)
    for i, x in enumerate(rows):
        for j in range(i, len(rows)):
            if conjugate_dot(sizes, x, rows[j], e) != (unit if i == j else zero):
                raise AssertionError("row orthogonality fails")


def unverified_table(G, chars):
    """A CharacterTable of the given rows, built without running verify."""
    tab = chartab.CharacterTable.__new__(chartab.CharacterTable)
    tab.group, tab.conductor, tab.irreducibles = G, G.exponent(), tuple(chars)
    return tab


def _outcome(check, tab):
    # ValueError: a changed identity value that is no longer a rational degree
    try:
        check(tab)
    except (AssertionError, ValueError) as exc:
        return type(exc)
    return None


def certificates_agree(tab):
    """Run verify and the pairwise reference; assert they agree, return the verdict.

    The verdict is None when both accept, else the exception type both raise."""
    fast = _outcome(chartab.CharacterTable.verify, tab)
    assert fast == _outcome(pairwise_verify, tab), tab
    return fast


class TestCertificate:
    """verify accepts a value rewritten as the same element of Q(zeta_e), and only that."""

    @staticmethod
    def _rewritten(tab, row, change):
        chars = list(tab.irreducibles)
        chi = chars[row]
        chars[row] = Character(tab.group, [change(k, v) for k, v in enumerate(chi.values)])
        return chars

    @pytest.mark.parametrize(
        "row, change",
        [
            (-1, lambda k, v: v + (1 + zeta(3) + zeta(3, 2)) / 2),
            (-1, lambda k, v: Cyclotomic(2, {1: -v.to_int()})),
            # a large l1 norm: L, and with it B and q, grows with the rewrite
            (-1, lambda k, v: v + 50 * (1 + zeta(3) + zeta(3, 2))),
        ],
        ids=["vanishing-sum-added", "rational-value-times-minus-z2", "large-l1-norm"],
    )
    def test_equivalent_rewrite_certifies(self, s3, row, change):
        tab = character_table(s3)
        chars = self._rewritten(tab, row, change)
        assert certificates_agree(unverified_table(s3, chars)) is None
        again = chartab.CharacterTable(s3, chars)
        assert again.irreducibles == tab.irreducibles

    @pytest.mark.parametrize(
        "row, change",
        [
            (-1, lambda k, v: v + zeta(3) - zeta(3, 2) if k == 2 else v),
            # the row (2, 0, z3^2) keeps every diagonal entry 1, and its sums
            # against the two linear rows are 2*z6 / 6, zero in the constant
            # coordinate
            (-1, lambda k, v: v + 1 + zeta(3, 2) if k == 2 else v),
            (0, lambda k, v: 2 * v),
        ],
        ids=["changed-by-z3-minus-z3-squared", "changed-by-1-plus-z3-squared", "row-scaled-by-2"],
    )
    def test_changed_value_is_rejected(self, s3, row, change):
        chars = self._rewritten(character_table(s3), row, change)
        assert certificates_agree(unverified_table(s3, chars)) is AssertionError
        with pytest.raises(AssertionError, match="row orthogonality fails"):
            chartab.CharacterTable(s3, chars)

    def test_error_names_the_group_the_conductor_and_the_rows(self, s3):
        # twice the sign character sorts between the trivial one and the
        # degree-2 one, and is orthogonal to the trivial one but of norm 4
        chars = self._rewritten(character_table(s3), 0, lambda k, v: 2 * v)
        with pytest.raises(
            AssertionError,
            match=r"row orthogonality fails at rows \(1, 1\) in the table of a group "
            r"of order 6 at conductor 6",
        ):
            chartab.CharacterTable(s3, chars)


BUILTINS = {d.name: d for d in builtin_corpus()}


class TestOneEvaluation:
    """The one-evaluation certificate against the pairwise reference."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_table(self, name):
        assert certificates_agree(character_table(BUILTINS[name].build())) is None

    @staticmethod
    def _one_value_shifted(tab, shifts):
        """Every table with one value v replaced by v + s, for s in shifts."""
        G = tab.group
        for i, chi in enumerate(tab.irreducibles):
            for k, v in enumerate(chi.values):
                for s in shifts:
                    values = list(chi.values)
                    values[k] = v + s
                    chars = list(tab.irreducibles)
                    chars[i] = Character(G, values)
                    yield unverified_table(G, chars)

    @pytest.mark.parametrize(
        "name", sorted(n for n, d in BUILTINS.items() if d.expected_order <= 24)
    )
    def test_every_single_value_mutation_is_rejected(self, name):
        tab = character_table(BUILTINS[name].build())
        e = tab.conductor
        for mutated in self._one_value_shifted(tab, [zeta(e, t) for t in range(e)]):
            assert certificates_agree(mutated) is not None

    @pytest.mark.parametrize("name", ["C2", "C3", "C4", "S3"])
    def test_integer_shifts_of_a_value_are_rejected(self, name):
        # v + c for 0 < |c| <= 60: an evaluation point that ignored the
        # values' l1 norm would let some through, e.g. C2's (1, -1 + q)
        tab = character_table(BUILTINS[name].build())
        for mutated in self._one_value_shifted(tab, [c for c in range(-60, 61) if c]):
            assert certificates_agree(mutated) is not None

    def test_tables_read_back_from_a_cache_directory(self, tmp_path):
        for name in ("S3", "A4", "C7:C3", "A5", "S4xC5"):
            G = BUILTINS[name].build()
            assert cache.load_or_compute_table(G, tmp_path)[1] == "cold"
            again = BUILTINS[name].build()
            tab, source = cache.load_or_compute_table(again, tmp_path)
            assert source == "warm"
            assert certificates_agree(tab) is None


def _load_bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nilweight_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["table-cache", "global-count", "vertex-search"])
def test_certificates_agree_on_every_benchmark_table(workload, tmp_path, monkeypatch):
    """Every table that a benchmark task list reaches, computed or read from disk."""
    tables = []
    verify = chartab.CharacterTable.verify

    def recording(tab):
        tables.append(tab)
        verify(tab)

    monkeypatch.setattr(chartab.CharacterTable, "verify", recording)
    tasks = _load_bench_workloads().generate(workload, 1, tmp_path / "inputs")
    for task in tasks:
        cache_dir = str(tmp_path / "cache") if task.command == "chartab" else None
        # exit 1 is a verdict of `fails`, as verify-a gives for A5 and {2, 3}
        assert run_command(task.argv(cache_dir))[0] in (0, 1), task.label
    monkeypatch.undo()
    assert tables
    for tab in tables:
        assert certificates_agree(tab) is None
    # the largest conductors: S4 x C7:C3 in table-cache, S4xC5 in the other two
    largest = {"table-cache": 84, "global-count": 60, "vertex-search": 60}[workload]
    assert max(tab.conductor for tab in tables) == largest


def _corpus_groups(tmp_path):
    """Every group of the builtins, `tools/groups/*.txt` and the seed-1 files of
    the three workloads within the table bound, each built afresh, by name."""
    groups_dir = Path(__file__).resolve().parent.parent / "tools" / "groups"
    texts = {f"tools/groups/{p.name}": p.read_text() for p in sorted(groups_dir.glob("*.txt"))}
    workloads = _load_bench_workloads()
    for workload in workloads.WORKLOADS:
        for task in workloads.generate(workload, 1, tmp_path / workload):
            texts.setdefault(task.path, Path(task.path).read_text())
    definitions = list(BUILTINS.items()) + [(n, parse_definition(t)) for n, t in texts.items()]
    for name, d in definitions:
        G = d.build()
        if G.order <= DEFAULT_BOUNDS["table"]:
            yield name, G


def _exact_values(tab):
    """(conductor, nums in their order, den) of every value, row by row."""
    return [
        (v.conductor, list(v.nums.items()), v.den) for chi in tab.irreducibles for v in chi.values
    ]


def _class_matrix_orders(monkeypatch):
    """The orders of the groups whose class matrices are built from now on."""
    orders = []
    build = chartab._class_matrices

    def recording(G):
        orders.append(G.order)
        return build(G)

    monkeypatch.setattr(chartab, "_class_matrices", recording)
    return orders


class TestDirectProducts:
    """Tables of orbit-wise direct products, read off their factors' tables."""

    def test_the_product_path_gives_the_finite_field_values(self, tmp_path):
        products = []
        for name, G in _corpus_groups(tmp_path):
            if chartab._direct_factors(G) is None:
                continue
            products.append(name)
            want = _exact_values(chartab._finite_field_table(G))
            assert _exact_values(character_table(G)) == want, name
        # S3xS3, A4xC3, S4xC5, S4wrC2xC3 and 19 workload files
        assert len(products) == 23

    def test_s4xc5_builds_no_class_matrix_of_order_120(self, monkeypatch):
        orders = _class_matrix_orders(monkeypatch)
        character_table(BUILTINS["S4xC5"].build())
        assert sorted(set(orders)) == [5, 24]

    def test_three_factors_split_twice(self, monkeypatch):
        orders = _class_matrix_orders(monkeypatch)
        G = group(9, "(1,2)", "(1,2,3)", "(4,5)", "(6,7,8,9)")
        assert G.order == 6 * 2 * 4
        tab = character_table(G)
        assert sorted(set(orders)) == [2, 4, 6]
        assert tab.degrees() == (1,) * 16 + (2,) * 8

    def test_a_diagonal_subdirect_product_stays_on_the_finite_field_path(self, monkeypatch):
        orders = _class_matrix_orders(monkeypatch)
        G = group(6, "(1,2)(4,5)", "(1,2,3)(4,5,6)")
        assert G.order == 6 and chartab._direct_factors(G) is None
        tab = character_table(G)
        assert orders == [6]
        assert tab.degrees() == (1, 1, 2)
        assert [[v.to_int() for v in chi.values] for chi in tab.irreducibles] == [
            [1, -1, 1],
            [1, 1, 1],
            [2, 0, -1],
        ]

    def test_a_wrong_split_names_the_group_order(self, monkeypatch):
        G = group(6, "(1,2)(4,5)", "(1,2,3)(4,5,6)")
        split = (*chartab._restriction(G, (0, 1, 2)), *chartab._restriction(G, (3, 4, 5)))
        monkeypatch.setattr(chartab, "_direct_factors", lambda H: split if H is G else None)
        with pytest.raises(
            AssertionError,
            match="classes do not map one-to-one onto class pairs in the table of a group of order 6",
        ):
            character_table(G)

    def test_cache_entries_are_byte_identical_on_both_paths(self, tmp_path):
        checked = []
        for name, d in BUILTINS.items():
            G = d.build()
            if chartab._direct_factors(G) is None:
                continue
            entries = []
            for path in ("product", "field"):
                H = d.build()
                if path == "field":
                    character_table.remember(H, chartab._finite_field_table(H))
                cache.load_or_compute_table(H, tmp_path / path)
                entries.append(tmp_path / path / f"chartab-{cache.table_cache_key(H)}.json")
            assert entries[0].read_bytes() == entries[1].read_bytes(), name
            checked.append(name)
        assert checked == ["S3xS3", "A4xC3", "S4xC5"]
        assert cache.ALGORITHM_VERSION == 1


def test_every_table_is_in_the_eager_key_order(tmp_path, monkeypatch):
    """The lazy row comparison sorts as (degree, every sort key) does, on every
    table of the corpus, the factor tables of direct products included."""
    tables = []
    verify = chartab.CharacterTable.verify

    def recording(tab):
        tables.append(tab)
        verify(tab)

    monkeypatch.setattr(chartab.CharacterTable, "verify", recording)
    for _, G in _corpus_groups(tmp_path):
        character_table(G)
    monkeypatch.undo()
    # the 23 products of the corpus and the S3xS3 factor of S3xS3 x S3
    products = sum(chartab._direct_factors(tab.group) is not None for tab in tables)
    assert products == 24
    for tab in tables:
        e, rows = tab.conductor, tab.irreducibles
        eager = sorted(rows, key=lambda chi: (chi.degree, [v.sort_key(e) for v in chi.values]))
        assert list(rows) == eager
        assert chartab.CharacterTable(tab.group, reversed(rows)).irreducibles == rows


# sha256 of `chartab --group NAME --format machine` for every builtin, as the
# Fraction-based cyclotomic arithmetic printed it
CHARTAB_SHA256 = {
    "triv": "f255f33e5bc6c35f926600af9522fab587139eb8b46f8082728eab14ad31c1c5",
    "C2": "48b7dd7a1ecefda02ec8d8e6afede06a9e91fcab78a10a7f307f64d9acb1841e",
    "C3": "ed93e8eeecd5a217b57fc839450b0746c33f8626a040485bc7aa169860077b2e",
    "C4": "5c54cf4dd6043aebabe1c6d00fca1f037a991001cff6e3fdd1c631f9bc1f6dba",
    "C5": "bedf532a27c0b42d6bbce9456b84b41317a903cda8bcddc854bf5e09cb4519cc",
    "C6": "d4dcaaf773b8c1212838fec589ebdd03a7e0ad2e5bd8917df66a226276767cf3",
    "C7": "f05e8d81bb6fa53d4f08e71bef253635e35d4c19ef07befc2c9cd3277eee9b07",
    "C8": "0170e0c01d182d59db1d21aba90f617176148af40a18a82c22698c796ad01f20",
    "C9": "300c0137737c34d70c1ba779a03dc26fee81cea405ebf2db972f8ed80a68422f",
    "C10": "91b4292c3075ca620f3640afc09a0bd21e0c0d5f4a20ab70b94abc07e1aeb1cc",
    "C11": "668b689e1d95b5ff69d9473375a894e2d65c78861e1a0ff7a87fa4791b9e5da8",
    "C12": "20f6a0adbd010a1970f02f5e1791f159eebfd44b04f0f5b0b607aa3023a9cdd1",
    "V4": "3767b59ea1638f8ac0fcd26808bda4790255495139e1cb2fee531d40041d0c52",
    "S3": "1004bb9afa478c223c36fcd09d4c393975f7de6fe089bda2e6c3f8126dd6144a",
    "D8": "8e283c92f5727f98c4cf2f0889a6efdd6842b02a219f81c7f3131022761bdd70",
    "Q8": "445949334ce8e450fa811d73f733bc5726f262b32324ca646c598be2cb63d70c",
    "D10": "6f05ff4a29f885a8f4ad7d3f90d562490cc3840b4b180113c3c184746e37008c",
    "A4": "f9da8941864d4d947e51b2d9b1ebdc021b0cf3f6792d87b1cddaa06a0b6f7430",
    "D12": "2c03420fe27a71e2008403682159b03cf3e19eaf4a8605f290038c2efb88fc74",
    "C3:C4": "272dd0eb78e6ca33b1ef7110e12634cca1cd7470e447458d963b6de9ece91b07",
    "C3xC3:C2": "4b5621befe6e15f7df6c1cf39cd5147a5e945533f3d96319baa0f2c1b970809c",
    "C7:C3": "6514824764b3fe005975de0008c94f83ebb12a3f7e492d7c1acf828cda6bde02",
    "S4": "71a59cd0a8478537d37165b7506fca7cb73b51d410812e9afb0e550f0e41f93c",
    "S3xS3": "b35f013e5d7055ca222ed08176ace2c426202ba835734502c38d5e6e8cc254fb",
    "A4xC3": "2cc1fdfd857628cc94736069749b7788f0250ef39597ec3d24ad0bfa92cda32f",
    "A5": "80ac8d009d555dbdd3a690fb040eeb26bee90aa8b0f6ef04d2ed5f3d9164dc24",
    "S4xC5": "0904313b60fe81e47a9c069515ebb5d79e49be50e08b48b6b7cb36e1d9eaf6de",
    "W216": "82115aad298c2a5a81375aea667eeed25036986f1c333bcaa29aa92705fbf671",
}


@pytest.mark.parametrize("name", [d.name for d in builtin_corpus()])
def test_machine_report_digest(name):
    code, text = run_command(["chartab", "--group", name, "--format", "machine"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == CHARTAB_SHA256[name]
