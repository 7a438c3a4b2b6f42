import pytest
from hypothesis import given, strategies as st

from nilweight.sigma import PrimeSet, euler_phi, factorize, mobius, sigma_part


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def test_sigma_part_examples():
    assert sigma_part(60, PrimeSet([2, 3])) == 12
    assert sigma_part(60, PrimeSet()) == 1
    assert sigma_part(60, PrimeSet([2, 3, 5])) == 60


def test_primeset_validation_and_parse():
    with pytest.raises(ValueError):
        PrimeSet([4])
    assert PrimeSet.parse("5,2,3") == PrimeSet([2, 3, 5])
    assert PrimeSet.parse("") == PrimeSet()
    assert str(PrimeSet([3, 2])) == "2,3"


def test_parse_refuses_an_entry_above_the_largest_prime():
    assert PrimeSet.parse("2147483647") == PrimeSet([2**31 - 1])
    with pytest.raises(ValueError, match="exceeds the largest accepted prime"):
        PrimeSet.parse("2,1000000000000000000000000000057")


def test_complement_within():
    s = PrimeSet([2])
    assert s.complement_within(60) == PrimeSet([3, 5])
    assert s.complement_within(8) == PrimeSet()


@given(st.integers(min_value=1, max_value=10_000))
def test_sigma_split_multiplicative(n):
    s = PrimeSet([2, 3])
    assert sigma_part(n, s) * s.copart(n) == n
    assert s.is_sigma_number(sigma_part(n, s))
    assert s.is_coprime_number(s.copart(n))


@given(st.integers(min_value=1, max_value=5_000))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n):
        prod *= p**e
    assert prod == n


def test_arith_helpers():
    assert euler_phi(12) == 4
    assert mobius(6) == 1 and mobius(12) == 0 and mobius(30) == -1
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
