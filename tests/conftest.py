from pathlib import Path

import pytest

from nilweight.corpus import parse_group_file
from nilweight.perms import Perm
from nilweight.groups import DEFAULT_BOUNDS, PermGroup, bsgs_construct

GROUPS_DIR = Path(__file__).resolve().parent.parent / "tools" / "groups"


def perm(text: str, degree: int) -> Perm:
    return Perm.parse(text, degree)


def group(degree: int, *cycle_strings: str) -> PermGroup:
    return bsgs_construct([Perm.parse(s, degree) for s in cycle_strings], degree)


def elements(G: PermGroup) -> tuple[Perm, ...]:
    """All elements of G, in the order of its stabilizer chain's image tuples."""
    return tuple(map(Perm, G._element_images()))


def _group_files_within(bound: str):
    """The desk-scale group files within the named bound, as definitions."""
    definitions = (parse_group_file(p.read_text()) for p in sorted(GROUPS_DIR.glob("*.txt")))
    return [d for d in definitions if d.expected_order <= DEFAULT_BOUNDS[bound]]


def lattice_group_files():
    """The desk-scale group files within the lattice bound, as definitions."""
    return _group_files_within("subgroup-lattice")


def table_group_files():
    """The desk-scale group files within the table bound, as definitions."""
    return _group_files_within("table")


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
