import pytest

from nilweight.perms import Perm
from nilweight.groups import PermGroup, bsgs_construct


def perm(text: str, degree: int) -> Perm:
    return Perm.parse(text, degree)


def group(degree: int, *cycle_strings: str) -> PermGroup:
    return bsgs_construct([Perm.parse(s, degree) for s in cycle_strings], degree)


@pytest.fixture(scope="session")
def s3():
    return group(3, "(1,2)", "(1,2,3)")


@pytest.fixture(scope="session")
def s4():
    return group(4, "(1,2)", "(1,2,3,4)")


@pytest.fixture(scope="session")
def a4():
    return group(4, "(1,2,3)", "(1,2)(3,4)")


@pytest.fixture(scope="session")
def a5():
    return group(5, "(1,2,3,4,5)", "(3,4,5)")


@pytest.fixture(scope="session")
def d8():
    return group(4, "(1,2,3,4)", "(1,3)")


@pytest.fixture(scope="session")
def q8():
    return group(8, "(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)")


@pytest.fixture(scope="session")
def c3xc3_c2():
    # (C3 x C3) : C2 with the involution swapping the two factors
    return group(6, "(1,2,3)", "(4,5,6)", "(1,4)(2,5)(3,6)")
