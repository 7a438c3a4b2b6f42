"""Exact arithmetic in cyclotomic fields.

Values are finite Q-linear combinations of m-th roots of unity, stored as
sparse exponent -> Fraction maps. Arithmetic happens in the group ring
Q[x]/(x^m - 1); equality, hashing and ordering go through the canonical
form obtained by reducing modulo the m-th cyclotomic polynomial, which
quotients out exactly the vanishing sums of p-th roots of unity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .sigma import euler_phi, mobius

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    # divide x^m - 1 by the product of all proper cyclotomic factors
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def _trace_table(m: int) -> tuple[Fraction, ...]:
    """trace(zeta_m^j) over Q, for j in 0..m-1."""
    out = []
    for j in range(m):
        d = m // math.gcd(j, m)  # zeta_m^j is a primitive d-th root
        out.append(Fraction(mobius(d) * euler_phi(m), euler_phi(d)))
    return tuple(out)


class Cyclotomic:
    __slots__ = ("conductor", "terms", "_canon", "_hash", "_ff")

    def __init__(self, conductor: int, terms: dict):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        clean = {}
        for e, c in terms.items():
            c = Fraction(c)
            if c:
                clean[e % conductor] = clean.get(e % conductor, _ZERO) + c
        clean = {e: c for e, c in clean.items() if c}
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_canon", {})
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_ff", None)

    def _fraction_free(self):
        """(integer numerators by exponent, common denominator); cached."""
        if self._ff is None:
            den = 1
            for c in self.terms.values():
                den = math.lcm(den, c.denominator)
            nums = {e: c.numerator * (den // c.denominator) for e, c in self.terms.items()}
            object.__setattr__(self, "_ff", (nums, den))
        return self._ff

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # --- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Cyclotomic":
        return cls(1, {0: Fraction(value)})

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, {})

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls.from_rational(1)

    @classmethod
    def root_of_unity(cls, m: int, k: int = 1) -> "Cyclotomic":
        """zeta_m^k."""
        return cls(m, {k % m: Fraction(1)})

    # --- canonical form -------------------------------------------------------

    def canonical(self) -> tuple[Fraction, ...]:
        """Coefficients in the power basis 1, z, .., z^(phi(m)-1), zero-padded."""
        return self._canonical_at(self.conductor)

    def _canonical_at(self, m: int) -> tuple[Fraction, ...]:
        cached = self._canon.get(m)
        if cached is not None:
            return cached
        if m % self.conductor:
            raise ValueError("conductor does not divide target")
        nums, den = self._fraction_free()
        scale = m // self.conductor
        dense = [0] * m
        for e, n in nums.items():
            dense[(e * scale) % m] += n
        phi = cyclotomic_polynomial(m)
        deg = len(phi) - 1
        for i in range(m - 1, deg - 1, -1):
            n = dense[i]
            if n:
                dense[i] = 0
                for j in range(deg):
                    dense[i - deg + j] -= n * phi[j]
        out = tuple(Fraction(n, den) for n in dense[:deg])
        self._canon[m] = out
        return out

    # --- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.canonical())

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.canonical()[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        canon = self.canonical()
        return canon[0] if canon else _ZERO

    def to_int(self) -> int:
        q = self.to_fraction()
        if q.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return q.numerator

    # --- arithmetic -------------------------------------------------------

    def _aligned(self, other: "Cyclotomic"):
        if self.conductor == other.conductor:
            return self, other
        m = math.lcm(self.conductor, other.conductor)
        return self.to_conductor(m), other.to_conductor(m)

    def to_conductor(self, m: int) -> "Cyclotomic":
        if m == self.conductor:
            return self
        if m % self.conductor:
            raise ValueError("conductor must grow to a multiple")
        scale = m // self.conductor
        return Cyclotomic(m, {e * scale: c for e, c in self.terms.items()})

    @staticmethod
    def _coerce(value) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        return Cyclotomic.from_rational(value)

    def __add__(self, other) -> "Cyclotomic":
        a, b = self._aligned(self._coerce(other))
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, _ZERO) + c
        return Cyclotomic(a.conductor, terms)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Cyclotomic":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Cyclotomic":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other.conductor == 1:  # scalar fast path
            if not other.terms:
                return Cyclotomic.zero()
            s = other.terms[0]
            return Cyclotomic(self.conductor, {e: c * s for e, c in self.terms.items()})
        if self.conductor == 1:
            return other * self
        a, b = self._aligned(other)
        m = a.conductor
        terms: dict[int, Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = (e1 + e2) % m
                terms[e] = terms.get(e, _ZERO) + c1 * c2
        return Cyclotomic(m, terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclotomic":
        q = Fraction(other)  # division only by rationals
        return Cyclotomic(self.conductor, {e: c / q for e, c in self.terms.items()})

    def conjugate(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, {-e: c for e, c in self.terms.items()})

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta -> zeta^k; k must be invertible modulo the conductor."""
        if math.gcd(k, self.conductor) != 1:
            raise ValueError("galois exponent not coprime to conductor")
        return Cyclotomic(self.conductor, {e * k: c for e, c in self.terms.items()})

    def normalized_trace(self) -> Fraction:
        """trace over Q divided by the field degree; conductor-independent."""
        table = _trace_table(self.conductor)
        tr = sum((c * table[e] for e, c in self.terms.items()), _ZERO)
        return tr / euler_phi(self.conductor)

    # --- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.canonical() == other.canonical()
        m = math.lcm(self.conductor, other.conductor)
        return self._canonical_at(m) == other._canonical_at(m)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(("cyc", self.normalized_trace())))
        return self._hash

    def sort_key(self, conductor: int | None = None) -> tuple:
        m = conductor if conductor is not None else self.conductor
        return self._canonical_at(m)

    # --- display -------------------------------------------------------

    def __repr__(self) -> str:
        return f"Cyclotomic({self})"

    def __str__(self) -> str:
        canon = self.canonical()
        if all(c == 0 for c in canon[1:]):
            return str(canon[0] if canon else 0)
        bits = []
        for e, c in enumerate(canon):
            if c == 0:
                continue
            if e == 0:
                bits.append(str(c))
                continue
            z = f"z{self.conductor}" + (f"^{e}" if e > 1 else "")
            if c == 1:
                bits.append(z)
            elif c == -1:
                bits.append(f"-{z}")
            else:
                bits.append(f"{c}*{z}")
        out = bits[0]
        for b in bits[1:]:
            out += b if b.startswith("-") else "+" + b
        return out


def weighted_conjugate_dot(triples) -> Cyclotomic:
    """sum of w * a * conj(b) over (w, a, b), accumulated in one pass.

    Semantically identical to the naive loop of Cyclotomic operations but
    avoids building an intermediate object per term, which matters inside
    the table orthogonality checks.
    """
    triples = list(triples)
    M = 1
    D = 1
    parts = []
    for w, a, b in triples:
        if not w:
            continue
        M = math.lcm(M, a.conductor, b.conductor)
        na, da = a._fraction_free()
        nb, db = b._fraction_free()
        parts.append((w, a.conductor, na, b.conductor, nb, da * db))
        D = math.lcm(D, da * db)
    acc: dict[int, int] = {}
    for w, ca, na, cb, nb, dab in parts:
        sa = M // ca
        sb = M // cb
        mult = w * (D // dab)
        for e1, n1 in na.items():
            wn1 = mult * n1
            base = e1 * sa
            for e2, n2 in nb.items():
                e = (base - e2 * sb) % M
                acc[e] = acc.get(e, 0) + wn1 * n2
    return Cyclotomic(M, {e: Fraction(n, D) for e, n in acc.items() if n})
