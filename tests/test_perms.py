import re

import pytest
from hypothesis import example, given, strategies as st

from nilweight.perms import MalformedPermError, Perm


def random_perm(draw_list):
    return Perm(draw_list)


perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(n))).map(Perm)
)


def test_identity_and_parse():
    e = Perm.identity(4)
    assert e.is_identity()
    assert Perm.parse("()", 4) == e
    assert Perm.parse("", 4) == e
    p = Perm.parse("(1,2)(3,4)", 4)
    assert p.images == (1, 0, 3, 2)
    assert p.cycle_string() == "(1,2)(3,4)"


def test_parse_rejects_repeated_point():
    with pytest.raises(MalformedPermError, match="repeated point"):
        Perm.parse("(1,2,2)", 3)
    with pytest.raises(MalformedPermError, match="two cycles"):
        Perm.parse("(1,2)(2,3)", 3)
    with pytest.raises(MalformedPermError, match="out of range"):
        Perm.parse("(1,5)", 3)
    with pytest.raises(MalformedPermError):
        Perm.parse("(1 2,3)", 3)


def test_composition_is_left_to_right():
    a = Perm.parse("(1,2)", 3)
    b = Perm.parse("(2,3)", 3)
    # 1 -a-> 2 -b-> 3, so the product maps point 1 to point 3
    assert (a * b).images[0] == 2
    assert (a * b).cycle_string() == "(1,3,2)"


def test_order_and_cycles():
    p = Perm.parse("(1,2)(3,4,5)", 5)
    assert p.order() == 6
    assert Perm.parse("(1,2,3,4,5)", 5).order() == 5
    assert Perm.identity(3).order() == 1


def test_conjugation_relabels_cycles():
    x = Perm.parse("(1,2,3)", 4)
    g = Perm.parse("(3,4)", 4)
    assert x.conjugate(g) == Perm.parse("(1,2,4)", 4)


@given(perms, perms, perms)
def test_associativity(p, q, r):
    if p.degree == q.degree == r.degree:
        assert ((p * q) * r) == (p * (q * r))


@given(perms)
def test_inverse_roundtrip(p):
    assert (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p


@given(perms)
def test_conjugate_definition(p):
    n = p.degree
    for g in [Perm.parse("(1,2)", 2), Perm.identity(2)]:
        pass  # degree mix is not allowed; use same-degree conjugators below
    q = Perm(tuple(reversed(range(n))))
    assert p.conjugate(q) == q.inverse() * p * q


@given(perms, perms)
def test_product_degree_guard(p, q):
    if p.degree == q.degree:
        assert (p * q).degree == p.degree
    else:
        with pytest.raises(MalformedPermError):
            p * q


def test_pow():
    p = Perm.parse("(1,2,3,4)", 4)
    assert p**2 == Perm.parse("(1,3)(2,4)", 4)
    assert p**-1 == p.inverse()
    assert (p**0).is_identity()


@pytest.mark.parametrize(
    "images",
    [(0, 1.0), (1, 1), (-1, 0), (0, 2), ("0", 1)],
    ids=["float", "repeated", "negative", "out-of-range", "str"],
)
def test_rejects_images_that_are_not_a_bijection(images):
    message = f"images {images!r} are not a bijection of 0..1"
    with pytest.raises(MalformedPermError, match=re.escape(message)):
        Perm(images)


def test_images_are_a_tuple_of_int():
    for p in (Perm([True, False]), Perm(range(3))):
        assert type(p.images) is tuple and all(type(i) is int for i in p.images)


def naive_inverse(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def naive_product(a, b):
    return tuple(b[a[i]] for i in range(len(a)))


same_degree_pairs = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
)


@given(same_degree_pairs)
@example(((), ()))
@example(((0,), (0,)))
def test_kernel_matches_naive_definitions(pair):
    a, b = map(tuple, pair)
    p, q = Perm(a), Perm(b)
    n = len(a)
    assert (p * q).images == naive_product(a, b)
    assert q.inverse().images == naive_inverse(b)
    assert p.conjugate(q).images == naive_product(naive_product(naive_inverse(b), a), b)
    assert p.is_identity() == all(i == j for i, j in enumerate(a))
    assert Perm.identity(n).is_identity() and (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p
    assert p.inverse() is p.inverse()
    for r in (p * q, p.inverse(), p.conjugate(q)):
        assert type(r.images) is tuple and all(type(i) is int for i in r.images)
        assert hash(r) == hash(r.images)
