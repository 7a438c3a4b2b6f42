"""Exact arithmetic in cyclotomic fields.

A value of conductor m is a finite Q-linear combination of m-th roots of
unity, stored as integer numerators by exponent over one positive common
denominator, in lowest terms. Arithmetic happens on the numerators in the
group ring Z[x]/(x^m - 1); equality, hashing and ordering go through the
canonical form: the integer power-basis coordinates left after reducing
modulo the m-th cyclotomic polynomial, which quotients out exactly the
vanishing sums of p-th roots of unity, over the same denominator.

`conjugate_dot` is the one kernel for sums of w * a * conj(b), the products
behind inner products of class functions: it runs over int and returns
power-basis coordinates. Table orthogonality does not go through it:
`CharacterTable.verify` evaluates every value once at an integer point
(see there). The one reduction modulo the m-th cyclotomic polynomial,
`_reduce_mod_phi`, serves canonical forms and `conjugate_dot`: it adds up,
over the nonzero terms n x^t of a value, n times the power-basis
coordinates of x^t, read from a table cached per conductor.

A value keeps what it derives from itself: its canonical coordinates per
conductor, its hash and its text. A character table shares one object
per distinct value among its cells, so each of these is computed once per
distinct value of the table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .sigma import euler_phi, mobius


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


def cyclotomic_value(m: int, x: int) -> int:
    """The m-th cyclotomic polynomial at the integer x, by Horner's rule."""
    out = 0
    for c in reversed(cyclotomic_polynomial(m)):
        out = out * x + c
    return out


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
    if any(num):
        raise AssertionError("polynomial division leaves a remainder")
    return out


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row t < m: the (j, c) with c != 0 of x^t modulo the m-th cyclotomic
    polynomial. A row has at most 9 terms for m = 84, 6 for m = 60."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows, x = [((t, 1),) for t in range(deg)], [0] * (deg - 1) + [1]
    for _ in range(deg, m):
        # x^t = x * x^(t-1), with x^deg replaced by x^deg - Phi_m
        x = [a - x[-1] * c for a, c in zip([0] + x[:-1], phi)]
        rows.append(tuple((j, c) for j, c in enumerate(x) if c))
    return tuple(rows)


def _reduce_mod_phi(terms, m: int) -> list[int]:
    """Power-basis coordinates of sum n x^t over the (t, n) in terms, 0 <= t < m,
    modulo the m-th cyclotomic polynomial: the sum of n times row t of `_power_table`."""
    table = _power_table(m)
    out = [0] * (len(cyclotomic_polynomial(m)) - 1)
    for t, n in terms:
        for j, c in table[t]:
            out[j] += n * c
    return out


@lru_cache(maxsize=None)
def _trace_table(m: int) -> tuple[int, ...]:
    """trace(zeta_m^j) over Q, for j in 0..m-1; integers, as phi(d) divides phi(m)."""
    out = []
    for j in range(m):
        d = m // math.gcd(j, m)  # zeta_m^j is a primitive d-th root
        out.append(mobius(d) * euler_phi(m) // euler_phi(d))
    return tuple(out)


def _over_common_denominator(terms: dict, den: int, conductor: int):
    """(nums, den * D) for {e: c} with rational c: the numerators over their
    common denominator D, merged by exponent modulo the conductor."""
    fracs = [(e % conductor, Fraction(c)) for e, c in terms.items()]
    scale = math.lcm(*(c.denominator for _, c in fracs))
    nums: dict[int, int] = {}
    for e, c in fracs:
        nums[e] = nums.get(e, 0) + c.numerator * (scale // c.denominator)
    return nums, den * scale


class Cyclotomic:
    """sum over nums of (n / den) * zeta_conductor^e; den > 0, and gcd(den, *nums) is 1."""

    __slots__ = ("conductor", "nums", "den", "_canon", "_hash", "_text")

    def __init__(self, conductor: int, terms: dict, den: int = 1):
        """The value sum of (c / den) * zeta_conductor^e over terms {e: c}.

        Coefficients may be any rationals; den must be a positive int."""
        if conductor < 1:
            raise ValueError("conductor must be positive")
        nums: dict[int, int] = {}
        for e, n in terms.items():
            if type(n) is not int:
                nums, den = _over_common_denominator(terms, den, conductor)
                break
            e %= conductor
            nums[e] = nums.get(e, 0) + n
        if 0 in nums.values():
            nums = {e: n for e, n in nums.items() if n}
        g = math.gcd(den, *nums.values()) if den > 1 else 1
        if g > 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_canon", {})
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_text", None)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # --- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Cyclotomic":
        return cls(1, {0: value})

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, {})

    # --- canonical form -------------------------------------------------------

    def _coords_at(self, m: int) -> tuple[int, ...]:
        """Power-basis numerators in Q(zeta_m) over self.den; m a multiple of the conductor."""
        cached = self._canon.get(m)
        if cached is not None:
            return cached
        terms = self.nums.items() if m == self.conductor else self.numerators_at(m, self.den)
        out = tuple(_reduce_mod_phi(terms, m))
        self._canon[m] = out
        return out

    def numerators_at(self, m: int, den: int) -> list[tuple[int, int]]:
        """(exponent, numerator) pairs of self at conductor m over denominator den.

        m must be a multiple of the conductor and den of self.den."""
        if m % self.conductor:
            raise ValueError("conductor does not divide target")
        if den % self.den:
            raise ValueError("denominator does not divide target")
        s, k = m // self.conductor, den // self.den
        return [(e * s, n * k) for e, n in self.nums.items()]

    def sort_key(self, conductor: int | None = None) -> tuple:
        """Power-basis coefficients in Q(zeta_conductor); ints when den is 1, else Fractions."""
        coords = self._coords_at(conductor if conductor is not None else self.conductor)
        if self.den == 1:
            return coords
        return tuple(Fraction(n, self.den) for n in coords)

    # --- predicates -------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self._coords_at(self.conductor)[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._coords_at(self.conductor)[0], self.den)

    def to_int(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        n, r = divmod(self._coords_at(self.conductor)[0], self.den)
        if r:
            raise ValueError(f"{self} is not an integer")
        return n

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
        return Cyclotomic(m, dict(self.numerators_at(m, self.den)), self.den)

    @staticmethod
    def _coerce(value) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        return Cyclotomic.from_rational(value)

    def __add__(self, other) -> "Cyclotomic":
        a, b = self._aligned(self._coerce(other))
        den = math.lcm(a.den, b.den)
        nums = dict(a.numerators_at(a.conductor, den))
        for e, n in b.numerators_at(a.conductor, den):
            nums[e] = nums.get(e, 0) + n
        return Cyclotomic(a.conductor, nums, den)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, {e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other) -> "Cyclotomic":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Cyclotomic":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other.conductor == 1:  # scalar fast path
            if not other.nums:
                return Cyclotomic.zero()
            s = other.nums[0]
            return Cyclotomic(
                self.conductor, {e: n * s for e, n in self.nums.items()}, self.den * other.den
            )
        if self.conductor == 1:
            return other * self
        a, b = self._aligned(other)
        m = a.conductor
        nums: dict[int, int] = {}
        for e1, n1 in a.nums.items():
            for e2, n2 in b.nums.items():
                e = (e1 + e2) % m
                nums[e] = nums.get(e, 0) + n1 * n2
        return Cyclotomic(m, nums, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclotomic":
        q = 1 / Fraction(other)  # division only by rationals
        nums = {e: n * q.numerator for e, n in self.nums.items()}
        return Cyclotomic(self.conductor, nums, self.den * q.denominator)

    def conjugate(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, {-e: n for e, n in self.nums.items()}, self.den)

    def normalized_trace(self) -> Fraction:
        """trace over Q divided by the field degree; conductor-independent."""
        table = _trace_table(self.conductor)
        tr = sum(n * table[e] for e, n in self.nums.items())
        return Fraction(tr, self.den * euler_phi(self.conductor))

    # --- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        m = math.lcm(self.conductor, other.conductor)
        a, b = self._coords_at(m), other._coords_at(m)
        if self.den == other.den:
            return a == b
        return all(x * other.den == y * self.den for x, y in zip(a, b))

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(("cyc", self.normalized_trace())))
        return self._hash

    # --- display -------------------------------------------------------

    def __repr__(self) -> str:
        return f"Cyclotomic({self})"

    def __str__(self) -> str:
        if self._text is None:
            object.__setattr__(self, "_text", self._render())
        return self._text

    def _render(self) -> str:
        den = self.den
        coords = self._coords_at(self.conductor)
        if not any(coords[1:]):
            return _ratio_text(coords[0], den)
        bits = []
        for e, n in enumerate(coords):
            if n == 0:
                continue
            if e == 0:
                bits.append(_ratio_text(n, den))
                continue
            z = f"z{self.conductor}" + (f"^{e}" if e > 1 else "")
            if n == den:
                bits.append(z)
            elif n == -den:
                bits.append(f"-{z}")
            else:
                bits.append(f"{_ratio_text(n, den)}*{z}")
        out = bits[0]
        for b in bits[1:]:
            out += b if b.startswith("-") else "+" + b
        return out


def _ratio_text(n: int, den: int) -> str:
    """n/den in lowest terms as `str(Fraction(n, den))` writes it; den > 0."""
    g = math.gcd(n, den)
    return str(n // g) if den == g else f"{n // g}/{den // g}"


def conjugate_dot(weights, xs, ys, m: int) -> list[int]:
    """Power-basis coordinates of sum_k weights[k] * xs[k] * conj(ys[k]) in Z[zeta_m].

    Each value is a list of integer (exponent, numerator) pairs at conductor
    m, as `Cyclotomic.numerators_at` gives them. The sum accumulates over int
    in Z[x]/(x^m - 1) and is then reduced modulo the m-th cyclotomic
    polynomial.
    """
    acc = [0] * m
    for w, x, y in zip(weights, xs, ys):
        for e1, n1 in x:
            wn = w * n1
            for e2, n2 in y:
                # e1 - e2 lies in (-m, m): a negative index wraps to (e1 - e2) mod m
                acc[e1 - e2] += wn * n2
    return _reduce_mod_phi([(t, n) for t, n in enumerate(acc) if n], m)


def weighted_conjugate_dot(triples) -> Cyclotomic:
    """sum of w * a * conj(b) over (w, a, b), by one call of `conjugate_dot`.

    Every value is brought to the lcm of the conductors and over the lcm D of
    the denominators; the kernel's coordinates are then the sum times D^2.
    """
    triples = [t for t in triples if t[0]]
    values = [v for _, a, b in triples for v in (a, b)]
    m = math.lcm(1, *(v.conductor for v in values))
    den = math.lcm(1, *(v.den for v in values))
    coords = conjugate_dot(
        [w for w, _, _ in triples],
        [a.numerators_at(m, den) for _, a, _ in triples],
        [b.numerators_at(m, den) for _, _, b in triples],
        m,
    )
    return Cyclotomic(m, dict(enumerate(coords)), den * den)
