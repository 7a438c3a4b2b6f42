"""Permutations of {1..n} stored as 0-based image tuples.

Composition is left-to-right: a point moved by p*q is first moved by p,
then by q. Conjugation x^g means g^-1 * x * g, a right action.
Cycle notation in text always uses 1-based points and commas, e.g.
"(1,2)(3,4,5)"; fixed points are omitted.

The images are a tuple of int on purpose. Composition builds the product
tuple in C with `operator.itemgetter`, and each permutation computes its
inverse once and keeps it. A tuple of int hashes the same in every
process, whereas `bytes` and `str` hashes change with PYTHONHASHSEED; the
iteration order of the frozensets of images that subgroup orbits walk
reaches the machine reports through their generator lists, so images of
another type would make reports depend on the seed.
"""

from __future__ import annotations

import functools
import math
import re
from operator import index, itemgetter


class MalformedPermError(ValueError):
    """Raised for images that are not a bijection or bad cycle text."""


@functools.cache
def _identity_images(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


class Perm:
    # `_inverse` is filled by the first call of `inverse()`
    __slots__ = ("images", "_inverse")

    def __init__(self, images):
        imgs = tuple(images)
        try:
            points = tuple(map(index, imgs))
        except TypeError:
            points = None
        if points is None or sorted(points) != list(range(len(points))):
            raise MalformedPermError(
                f"images {imgs!r} are not a bijection of 0..{len(imgs) - 1}"
            )
        _set_images(self, points)

    def __setattr__(self, *a):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Perm":
        """Build from cycles of 1-based points."""
        images = list(range(degree))
        for cycle in cycles:
            pts = [int(p) - 1 for p in cycle]
            if len(set(pts)) != len(pts):
                raise MalformedPermError(f"repeated point in cycle {tuple(cycle)}")
            for p in pts:
                if not 0 <= p < degree:
                    raise MalformedPermError(f"point {p + 1} out of range 1..{degree}")
            for a, b in zip(pts, pts[1:]):
                if images[a] != a:
                    raise MalformedPermError(f"point {a + 1} appears in two cycles")
                images[a] = b
            if len(pts) > 1:
                if images[pts[-1]] != pts[-1]:
                    raise MalformedPermError(f"point {pts[-1] + 1} appears in two cycles")
                images[pts[-1]] = pts[0]
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int) -> "Perm":
        """Parse cycle notation like "(1,2)(3,4,5)"; "()" is the identity."""
        stripped = re.sub(r"\s+", "", text)
        if not re.fullmatch(r"(\(\d+(,\d+)*\)|\(\))*", stripped):
            raise MalformedPermError(f"cannot parse permutation {text!r}")
        cycles = [
            [int(tok) for tok in body.split(",")]
            for body in re.findall(r"\(([^()]*)\)", stripped)
            if body
        ]
        return cls.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise MalformedPermError("degree mismatch in product")
        if len(a) < 2:
            return other  # the only permutation of degree < 2 is the identity
        p = _new(Perm)
        _set_images(p, itemgetter(*a)(b))
        return p

    def inverse(self) -> "Perm":
        # kept on self only: a link back from the inverse would make a cycle
        try:
            return self._inverse
        except AttributeError:
            pass
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        p = _new(Perm)
        _set_images(p, tuple(inv))
        _set_inverse(self, p)
        return p

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        out = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self, g: "Perm") -> "Perm":
        """self^g = g^-1 * self * g."""
        s = self.images
        if len(s) < 2:
            return self
        p = _new(Perm)
        _set_images(p, itemgetter(*itemgetter(*g.inverse().images)(s))(g.images))
        return p

    def commutes_with(self, other: "Perm") -> bool:
        return (self * other).images == (other * self).images

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def order(self) -> int:
        out = 1
        for c in self.cycles_zero_based():
            out = math.lcm(out, len(c))
        return out

    def cycles_zero_based(self) -> list[list[int]]:
        """Nontrivial cycles on 0-based points, each starting at its minimum."""
        seen = set()
        cycles = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = self.images[j]
            cycles.append(cyc)
        return cycles

    def cycle_string(self) -> str:
        cycles = self.cycles_zero_based()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm[{self.cycle_string()}]"


# Perm forbids attribute assignment, so its constructors fill the slots
# through their descriptors.
_new = object.__new__
_set_images = Perm.images.__set__
_set_inverse = Perm._inverse.__set__
