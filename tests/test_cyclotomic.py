import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilweight.cyclotomic import (
    Cyclotomic,
    _power_table,
    _reduce_mod_phi,
    cyclotomic_polynomial,
    cyclotomic_value,
    weighted_conjugate_dot,
)
from nilweight.sigma import euler_phi, mobius


def zeta(m, k=1):
    return Cyclotomic(m, {k: 1})


def galois(a: Cyclotomic, k: int) -> Cyclotomic:
    """a with zeta -> zeta^k, for k invertible modulo the conductor."""
    return Cyclotomic(a.conductor, {e * k: n for e, n in a.nums.items()}, a.den)


def is_zero(v: Cyclotomic) -> bool:
    return not any(v.sort_key())


class TestPolynomials:
    def test_small_cyclotomic_polys(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_value_at_an_integer(self):
        assert cyclotomic_value(1, 5) == 4
        assert cyclotomic_value(3, 2) == 7
        assert cyclotomic_value(12, 3) == 73

    @pytest.mark.parametrize("B", [1, 2, 3, 7, 50, 1000, 10**6, 10**12 + 39])
    def test_evaluation_modulus_exceeds_every_norm(self, B):
        # CharacterTable.verify relies on q = Phi_e(B + 2) > B^phi(e)
        for e in range(1, 121):
            assert cyclotomic_value(e, B + 2) > B ** euler_phi(e), e

    def test_sparse_reduction_matches_the_dense_loop(self):
        # ref_canonical below reduces along every coefficient of Phi_m
        for m in range(1, 121):
            for seed in range(3):
                vec = [(i * 7919 + seed * 104729 + m) % 23 - 11 for i in range(m)]
                want = ref_canonical(m, dict(enumerate(vec)), m)
                assert tuple(_reduce_mod_phi(enumerate(vec), m)) == want, (m, seed)

    def test_power_table_gives_every_power_of_x(self):
        # row t of the table is x^t modulo Phi_m, here by long division over int
        for m in range(1, 121):
            phi = cyclotomic_polynomial(m)
            deg = len(phi) - 1
            for t in range(m):
                dense = [0] * max(t + 1, deg)
                dense[t] = 1
                for i in range(t, deg - 1, -1):
                    c, dense[i] = dense[i], 0
                    for j in range(deg):
                        dense[i - deg + j] -= c * phi[j]
                assert _reduce_mod_phi([(t, 1)], m) == dense[:deg], (m, t)
        assert ref_canonical(84, {83: 1}, 84) == tuple(_reduce_mod_phi([(83, 1)], 84))
        assert [max(map(len, _power_table(m))) for m in (12, 60, 84, 120, 7)] == [2, 6, 9, 6, 6]


class TestBasics:
    def test_root_powers(self):
        z = zeta(5)
        assert z * z == zeta(5, 2)
        prod = Cyclotomic.from_rational(1)
        for _ in range(5):
            prod = prod * z
        assert prod == Cyclotomic.from_rational(1)

    def test_vanishing_sum_of_p_th_roots(self):
        for p in (2, 3, 5, 7):
            total = sum((zeta(p, k) for k in range(p)), Cyclotomic.zero())
            assert is_zero(total)

    def test_embedding_consistency(self):
        # zeta_3 seen at conductor 6 or 12 is still the same value
        z3 = zeta(3)
        assert z3.to_conductor(6) == z3
        assert z3.to_conductor(12) == z3
        assert zeta(6, 2) == z3
        assert zeta(2) == Cyclotomic.from_rational(-1)

    def test_conjugation_is_exponent_negation(self):
        z = zeta(7, 2)
        assert z.conjugate() == zeta(7, 5)
        v = z + 3
        assert v.conjugate().conjugate() == v

    def test_rational_detection(self):
        v = zeta(6) + zeta(6, 5)  # 2*cos(pi/3) = 1
        assert v.is_rational()
        assert v.to_fraction() == 1
        golden = -(zeta(5, 2) + zeta(5, 3))  # (1+sqrt5)/2
        assert not golden.is_rational()
        # golden ratio satisfies x^2 = x + 1
        assert golden * golden == golden + 1

    def test_division_by_rational(self):
        v = (zeta(3) + 1) / 2
        assert v * 2 == zeta(3) + 1
        assert (Cyclotomic.from_rational(3) / 2).to_fraction() == Fraction(3, 2)

    def test_str(self):
        assert str(Cyclotomic.from_rational(-2)) == "-2"
        assert str(zeta(4)) == "z4"
        assert str(zeta(3) * 2 + 1) == "1+2*z3"
        assert str(Cyclotomic(1, {0: Fraction(-1, 2)})) == "-1/2"
        assert str(Cyclotomic(4, {0: 6}, 2)) == "3"
        assert str(zeta(5, 2)) == "z5^2"
        assert str(-zeta(3)) == "-z3"
        assert str(Cyclotomic(3, {1: 2}, 4)) == "1/2*z3"


class TestEqualityHash:
    def test_cross_conductor_equality_and_hash(self):
        a = zeta(6, 2)
        b = zeta(3)
        assert a == b
        assert hash(a) == hash(b)

    def test_sets_dedupe(self):
        values = {zeta(3), zeta(6, 2), zeta(3, 2), Cyclotomic.from_rational(1)}
        assert len(values) == 3

    def test_int_comparison(self):
        assert Cyclotomic.from_rational(5) == 5
        assert zeta(3) != 1


vals = st.integers(min_value=-4, max_value=4)


@st.composite
def cyclotomics(draw):
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        e = draw(st.integers(min_value=0, max_value=m - 1))
        terms[e] = terms.get(e, 0) + draw(vals)
    return Cyclotomic(m, terms)


@settings(max_examples=60)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Cyclotomic.zero() == a
    assert a * Cyclotomic.from_rational(1) == a


@settings(max_examples=60)
@given(cyclotomics(), cyclotomics())
def test_conjugation_is_ring_hom(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(max_examples=60)
@given(cyclotomics())
def test_norm_nonnegative(a):
    # a * conj(a) has nonnegative normalized trace (it is a sum |a_i|^2 >= 0
    # over the complex embeddings)
    v = a * a.conjugate()
    assert v.normalized_trace() >= 0
    assert is_zero(v) == is_zero(a)


@settings(max_examples=40)
@given(cyclotomics())
def test_galois_orbit_fixes_rationals(a):
    m = a.conductor
    total = Cyclotomic.zero()
    for k in range(1, m + 1):
        if math.gcd(k, m) == 1:
            total = total + galois(a, k)
    assert total.is_rational()


# --- the integer representation against a Fraction-based reference ----------


def ref_canonical(m, terms, target):
    """Power-basis coefficients in Q(zeta_target) of sum c * zeta_m^e, over Fraction."""
    dense = [Fraction(0)] * target
    for e, c in terms.items():
        dense[e * (target // m) % target] += Fraction(c)
    phi = cyclotomic_polynomial(target)
    deg = len(phi) - 1
    for i in range(target - 1, deg - 1, -1):
        c, dense[i] = dense[i], Fraction(0)
        for j in range(deg):
            dense[i - deg + j] -= c * phi[j]
    return tuple(dense[:deg])


def ref_str(m, canon):
    if all(c == 0 for c in canon[1:]):
        return str(canon[0])
    bits = []
    for e, c in enumerate(canon):
        if c == 0:
            continue
        z = f"z{m}" + (f"^{e}" if e > 1 else "")
        bits.append(str(c) if e == 0 else z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
    return bits[0] + "".join(b if b.startswith("-") else "+" + b for b in bits[1:])


def ref_hash(m, terms):
    # trace(zeta_m^e) / phi(m) = mobius(d) / phi(d), d the order of zeta_m^e
    trace = Fraction(0)
    for e, c in terms.items():
        d = m // math.gcd(e, m)
        trace += Fraction(c) * Fraction(mobius(d), euler_phi(d))
    return hash(("cyc", trace))


def ref_dot(triples):
    """sum of w * a * conj(b) over (w, (m_a, terms_a), (m_b, terms_b)), canonical."""
    M = math.lcm(1, *(m for w, a, b in triples if w for m in (a[0], b[0])))
    acc = {}
    for w, (ma, ta), (mb, tb) in triples:
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = (ea * (M // ma) - eb * (M // mb)) % M
                acc[e] = acc.get(e, 0) + w * Fraction(ca) * Fraction(cb)
    return M, ref_canonical(M, acc, M)


@st.composite
def rational_terms(draw):
    """(conductor, {exponent: rational}) with mixed conductors, exponents past m and denominators."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return m, draw(st.dictionaries(st.integers(0, 2 * m - 1), coefficient, max_size=4))


# these three build values at conductors up to 144; on a loaded host an
# example can outrun Hypothesis' default 200 ms deadline, so none is set
@settings(max_examples=150, deadline=None)
@given(rational_terms())
def test_representation_matches_fraction_reference(data):
    m, terms = data
    v = Cyclotomic(m, terms)
    assert v.den > 0 and math.gcd(v.den, *v.nums.values()) == 1
    assert v.sort_key() == ref_canonical(m, terms, m)
    assert v.sort_key(2 * m) == ref_canonical(m, terms, 2 * m)
    assert v.sort_key(12 * m) == ref_canonical(m, terms, 12 * m)
    assert str(v) == ref_str(m, ref_canonical(m, terms, m))
    assert hash(v) == ref_hash(m, terms)


@settings(max_examples=150, deadline=None)
@given(rational_terms(), rational_terms(), st.fractions(max_denominator=5))
def test_equality_matches_fraction_reference(a, b, q):
    (ma, ta), (mb, tb) = a, b
    x, y = Cyclotomic(ma, ta), Cyclotomic(mb, tb)
    M = math.lcm(ma, mb)
    assert (x == y) == (ref_canonical(ma, ta, M) == ref_canonical(mb, tb, M))
    # the same value written differently: plus q * (1 + z3 + z3^2), then lifted
    same = (x + q * (1 + zeta(3) + zeta(3, 2))).to_conductor(2 * math.lcm(ma, 3))
    assert same == x and hash(same) == hash(x)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), rational_terms(), rational_terms()), max_size=4))
def test_kernel_matches_naive_loop_and_reference(triples):
    values = [(w, Cyclotomic(*a), Cyclotomic(*b)) for w, a, b in triples]
    dot = weighted_conjugate_dot(values)
    assert dot == sum((w * a * b.conjugate() for w, a, b in values), Cyclotomic.zero())
    assert (dot.conductor, dot.sort_key()) == ref_dot(triples)


@st.composite
def integer_terms(draw):
    """(conductor up to 120, {exponent below it: int}), for the power table."""
    m = draw(st.integers(1, 120))
    return m, draw(st.dictionaries(st.integers(0, m - 1), st.integers(-9, 9), max_size=6))


@settings(max_examples=150, deadline=None)
@given(integer_terms())
def test_power_table_reduction_matches_fraction_reference(data):
    m, terms = data
    assert tuple(_reduce_mod_phi(terms.items(), m)) == ref_canonical(m, terms, m)
    assert Cyclotomic(m, terms).sort_key() == ref_canonical(m, terms, m)


def test_half_z3_plus_a_third():
    v = Cyclotomic(3, {1: Fraction(1, 2), 0: Fraction(1, 3)})
    assert (v.nums, v.den) == ({0: 2, 1: 3}, 6)
    assert str(v) == "1/3+1/2*z3"
    # zeta_3 = zeta_6^2 = zeta_6 - 1 in Q(zeta_6)
    assert v.sort_key(6) == (Fraction(-1, 6), Fraction(1, 2))
    assert v == Cyclotomic(6, {2: Fraction(1, 2), 0: Fraction(1, 3)})
    assert hash(v) == ref_hash(3, {1: Fraction(1, 2), 0: Fraction(1, 3)})


def test_numerators_only_at_a_multiple_of_the_conductor():
    assert zeta(4).numerators_at(12, 2) == [(3, 2)]
    with pytest.raises(ValueError, match="conductor does not divide"):
        zeta(4).numerators_at(6, 1)
