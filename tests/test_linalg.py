import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilweight.chartab import _class_matrices
from nilweight.corpus import builtin_corpus
from nilweight.cyclotomic import Cyclotomic
from nilweight.linalg import (
    integer_solutions,
    nonneg_integer_solution,
    rref_mod,
    solve_unique_rational,
)
from nilweight.perms import Perm
from nilweight.pipartial import InternalConsistencyError, _flatten

P = 2**31 - 1  # the first modulus the solver tries


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _independent(columns) -> bool:
    """Some maximal minor is nonzero (Laplace expansion, independent of linalg)."""
    n = len(columns)
    return any(
        _det([[col[i] for col in columns] for i in rows])
        for rows in itertools.combinations(range(len(columns[0])), n)
    )


def _reference_rref(rows, q):
    """Gauss-Jordan elimination mod q that rewrites every whole row."""
    rows = [[x % q for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


class TestRref:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_whole_row_elimination(self, data):
        q = data.draw(st.sampled_from([2, 3, 5, 13, P]))
        m = data.draw(st.integers(1, 6))
        entry = st.integers(-2 * q - 3, 2 * q + 3)
        n = data.draw(st.integers(1, 4))
        base = [[data.draw(entry) for _ in range(m)] for _ in range(n)]
        # rows that are integer combinations of the others make it rank-deficient
        coefficients = st.lists(st.integers(-q, q), min_size=n, max_size=n)
        combos = [
            [sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(m)]
            for coeffs in data.draw(st.lists(coefficients, max_size=3))
        ]
        rows = data.draw(st.permutations(base + combos))
        assert rref_mod(rows, q) == _reference_rref(rows, q)

    def test_rank_deficient_example(self):
        rows = [[2, -4, 6], [1, -2, 3], [0, 0, 7]]
        assert rref_mod(rows, 5) == ([[1, 3, 0], [0, 0, 1]], [0, 2])


class TestClassMatrices:
    def test_match_the_perm_product_definition(self):
        # M_i[j][k] counts the x in class i with x^-1 g_k in class j
        groups = [d.build() for d in builtin_corpus()]
        checked = [G for G in groups if G.order <= 120]
        assert any(G.degree == 1 for G in checked)
        for G in checked:
            classes = G.conjugacy_classes()
            r = len(classes)
            want = [[[0] * r for _ in range(r)] for _ in range(r)]
            for i, c in enumerate(classes):
                for x in map(Perm, c.members):
                    for k, d in enumerate(classes):
                        want[i][G.class_index_of(x.inverse() * d.representative)][k] += 1
            assert list(_class_matrices(G)) == want, G


class TestSolver:
    def test_rank_deficient_mod_first_prime_reaches_the_next(self):
        # the two columns agree mod P but are independent over Q
        assert nonneg_integer_solution([[1, 0], [1, P]], [5, 2 * P]) == [3, 2]

    def test_true_dependence_raises(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            solve_unique_rational([[1, 2], [2, 4]], [3, 6])

    def test_inconsistent_system(self):
        assert solve_unique_rational([[1, 0]], [1, 1]) is None
        assert nonneg_integer_solution([[1, 0]], [1, 1]) is None

    def test_non_integral_solution(self):
        # x = 1/2 over Q
        assert solve_unique_rational([[2, 2]], [1, 1]) is None

    def test_negative_solution(self):
        assert solve_unique_rational([[1, 0], [1, 1]], [0, 1]) == [-1, 1]
        assert nonneg_integer_solution([[1, 0], [1, 1]], [0, 1]) is None

    def test_first_entry_below_one_is_refused(self):
        with pytest.raises(ValueError, match="first entry"):
            solve_unique_rational([[0, 1]], [0, 1])

    def test_target_degree_beyond_the_modulus_is_refused(self):
        with pytest.raises(ValueError, match="too large"):
            solve_unique_rational([[1]], [P])

    def test_one_elimination_solves_every_target_apart(self):
        # the inconsistent targets take pivot rows below the columns; the others are solved
        columns = [[1, 0, 0], [1, 1, 0]]
        targets = [[1, 0, 1], [2, 1, 0], [0, 1, 0], [3, 2, 0], [1, 1, 1]]
        assert integer_solutions(columns, targets) == [None, [1, 1], [-1, 1], [1, 2], None]
        # rank-deficient mod the first prime: both targets move to the next
        assert integer_solutions([[1, 0], [1, P]], [[5, 2 * P], [2, 0]]) == [[3, 2], [2, 0]]
        with pytest.raises(ValueError, match="too large"):
            integer_solutions([[1]], [[1], [P]])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_search(self, data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(n, 4))
        entry = st.integers(-4, 4)
        columns = [
            [data.draw(st.integers(1, 4))] + [data.draw(entry) for _ in range(m - 1)]
            for _ in range(n)
        ]

        def combination(x):
            return [sum(xj * col[i] for xj, col in zip(x, columns)) for i in range(m)]

        if not _independent(columns):
            with pytest.raises(ValueError):
                solve_unique_rational(columns, [0] * m)
            return
        if data.draw(st.booleans()):
            target = combination([data.draw(st.integers(0, 5)) for _ in range(n)])
        else:
            target = [data.draw(st.integers(-2, 20))] + [data.draw(entry) for _ in range(m - 1)]
        # a nonnegative solution has x_j <= target[0], since every column starts >= 1
        hits = [
            list(x)
            for x in itertools.product(range(max(target[0] + 1, 0)), repeat=n)
            if combination(x) == target
        ]
        assert len(hits) <= 1
        assert nonneg_integer_solution(columns, target) == (hits[0] if hits else None)
        one = solve_unique_rational(columns, target)
        assert integer_solutions(columns, [target, target]) == [one, one]


class TestFlatten:
    def test_integer_coordinates(self):
        z3 = Cyclotomic(3, {1: Fraction(1)})
        assert _flatten([Cyclotomic.from_rational(2), z3], 3, "") == [2, 0, 0, 1]

    def test_rejects_a_denominator(self):
        half = Cyclotomic.from_rational(Fraction(1, 2))
        with pytest.raises(InternalConsistencyError, match="1/2"):
            _flatten([half], 1, "")
