"""Prime sets and sigma-arithmetic on integers.

A prime set is the `sigma` (often `pi` in the literature) against which
group orders, element orders and character degrees are split into a
sigma-part and a coprime part.
"""

from __future__ import annotations

import math
from functools import lru_cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...), p ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


# The largest entry `PrimeSet.parse` accepts, before trial division tests it
MAX_PRIME = 2**31 - 1


class PrimeSet:
    """An immutable sorted set of primes."""

    __slots__ = ("primes",)

    def __init__(self, primes=()):
        ps = sorted(set(int(p) for p in primes))
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", tuple(ps))

    @classmethod
    def parse(cls, text: str) -> "PrimeSet":
        """Parse a comma-separated list of primes; empty string is the empty set."""
        text = text.strip()
        if not text:
            return cls()
        try:
            parts = [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"bad prime list {text!r}") from exc
        if max(parts, default=0) > MAX_PRIME:
            raise ValueError(f"{max(parts)} exceeds the largest accepted prime {MAX_PRIME}")
        return cls(parts)

    def __setattr__(self, *a):
        raise AttributeError("PrimeSet is immutable")

    def __contains__(self, p) -> bool:
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeSet) and self.primes == other.primes

    def __hash__(self) -> int:
        return hash(("PrimeSet", self.primes))

    def __repr__(self) -> str:
        return f"PrimeSet({{{','.join(map(str, self.primes))}}})"

    def __str__(self) -> str:
        return ",".join(map(str, self.primes)) if self.primes else "-"

    def part(self, n: int) -> int:
        """The sigma-part of n: the product of p^v_p(n) over p in the set."""
        return sigma_part(n, self)

    def copart(self, n: int) -> int:
        """The sigma'-part of n, so that n = part(n) * copart(n)."""
        return n // sigma_part(n, self)

    def is_sigma_number(self, n: int) -> bool:
        return sigma_part(n, self) == n

    def is_coprime_number(self, n: int) -> bool:
        return sigma_part(n, self) == 1

    def complement_within(self, n: int) -> "PrimeSet":
        """The primes dividing n that are not in this set."""
        return PrimeSet(p for p in prime_divisors(n) if p not in self.primes)


def sigma_part(n: int, sigma: PrimeSet) -> int:
    """n_sigma: the largest divisor of n all of whose prime factors lie in sigma."""
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    for p in sigma.primes:
        while n % p == 0:
            n //= p
            out *= p
    return out
