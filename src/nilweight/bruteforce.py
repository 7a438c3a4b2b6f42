"""Independent brute-force oracles used to certify the group engine.

Everything here works on raw image tuples and imports nothing from the
rest of the package, so a bug in the engine cannot hide in the oracle.
The property suite and the test suite both use this one copy.
"""

from __future__ import annotations


def mult(a, b):
    return tuple(b[i] for i in a)


def inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def conj(x, g):
    return mult(mult(inv(g), x), g)


def closure(gens, degree):
    """All elements of the group generated by image tuples `gens`."""
    identity = tuple(range(degree))
    elems = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mult(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def conjugacy_classes(elems):
    """Partition a group (set of image tuples) into conjugacy classes."""
    elems = set(elems)
    classes = []
    seen = set()
    for x in sorted(elems):
        if x in seen:
            continue
        cls = {conj(x, g) for g in elems}
        seen |= cls
        classes.append(cls)
    return classes


def centralizer(elems, x):
    return {g for g in elems if mult(g, x) == mult(x, g)}


def normalizer(elems, sub):
    sub = set(sub)
    return {g for g in elems if {conj(h, g) for h in sub} == sub}


def all_subgroups(elems, degree):
    """Every subgroup of the group, as a set of frozensets of image tuples."""
    identity = tuple(range(degree))
    trivial = frozenset({identity})
    found = {trivial}
    frontier = [trivial]
    elems = set(elems)
    while frontier:
        H = frontier.pop()
        for g in elems:
            if g in H:
                continue
            K = frozenset(closure(set(H) | {g}, degree))
            if K not in found:
                found.add(K)
                frontier.append(K)
    return found


def subgroups_up_to_conjugacy(elems, degree):
    subs = all_subgroups(elems, degree)
    elems = set(elems)
    classes = []
    seen = set()
    for H in sorted(subs, key=lambda s: (len(s), sorted(s))):
        if H in seen:
            continue
        orbit = {frozenset(conj(h, g) for h in H) for g in elems}
        seen |= orbit
        classes.append(orbit)
    return classes
