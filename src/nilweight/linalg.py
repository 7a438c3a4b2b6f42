"""Small exact linear algebra over F_q, with one elimination routine, `rref_mod`.

Tables split the class-sum algebra with it, and decompositions solve with it
modulo a large prime, certified by one exact integer product. Everything is
dense lists; the matrices here never exceed a few dozen rows.
"""

from __future__ import annotations

import math

from .sigma import is_prime

# --- certified integer solving ----------------------------------------------

#: the first modulus of every certified solve; later ones are the primes below it
FIRST_PRIME = 2**31 - 1


def integer_solutions(columns: list[list[int]], targets: list[list[int]]):
    """For each target, the integer solution of sum_j x_j * columns[j] = target, or None.

    Every column's first entry (a degree) is at least 1, so a nonnegative
    solution has x_j <= target[0] < p/2: solving mod the prime p and lifting to
    the symmetric range finds it, and one exact integer product certifies it.
    None means no integer solution in the symmetric range, which holds every
    nonnegative one. One elimination of [columns | targets] serves every
    target. While the columns are rank-deficient mod p, the next prime below p
    is tried; once the primes tried exceed the Hadamard bound on the maximal
    minors, the columns are dependent and ValueError is raised.
    """
    n = len(columns)
    if any(col[0] < 1 for col in columns):
        raise ValueError("a column has a first entry below 1")
    rows = [list(row) for row in zip(*columns, *targets)]
    hadamard = math.prod(math.isqrt(sum(v * v for v in col)) + 1 for col in columns)
    p, tried = FIRST_PRIME, 1
    while tried <= hadamard:
        for target in targets:
            if 2 * target[0] >= p:
                raise ValueError(f"target degree {target[0]} is too large for modulus {p}")
        reduced, pivots = rref_mod(rows, p)
        if pivots[:n] == list(range(n)):
            # reduced is E [columns | targets], E invertible, E columns = [I; 0]:
            # a target is consistent mod p iff its column is zero below row n
            out = []
            for k, target in enumerate(targets, n):
                x = [v if 2 * v < p else v - p for v in (row[k] for row in reduced[:n])]
                exact = not any(row[k] for row in reduced[n:]) and all(
                    sum(xj * col[i] for xj, col in zip(x, columns)) == t
                    for i, t in enumerate(target)
                )
                out.append(x if exact else None)
            return out
        tried *= p
        p = prime_below(p)
    raise ValueError("columns are linearly dependent")


def prime_below(p: int) -> int:
    """The largest prime below the odd number p > 3."""
    p -= 2
    while not is_prime(p):
        p -= 2
    return p


def solve_unique_rational(columns: list[list[int]], target: list[int]):
    """`integer_solutions` for the one target."""
    return integer_solutions(columns, [target])[0]


def nonneg_integer_solution(columns, target):
    """The unique solution if it is a nonnegative integer vector, else None."""
    sol = solve_unique_rational(columns, target)
    if sol is None or any(x < 0 for x in sol):
        return None
    return sol


# --- F_q helpers -------------------------------------------------------


def find_splitting_prime(exponent: int, order: int, cap: int = 10_000_000) -> int:
    """Least prime q = 1 (mod exponent) with q > 2*sqrt(order)."""
    low = 2 * math.isqrt(order) + 1
    q = exponent + 1
    while q <= cap:
        if q > low and is_prime(q):
            return q
        q += exponent
    raise RuntimeError(f"no splitting prime below {cap} for exponent {exponent}")


def primitive_root(q: int) -> int:
    from .sigma import prime_divisors

    phi = q - 1
    for w in range(2, q):
        if all(pow(w, phi // p, q) != 1 for p in prime_divisors(phi)):
            return w
    raise RuntimeError(f"no primitive root modulo {q}")


def rref_mod(rows, q):
    """Reduced row echelon form mod q; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % q), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, q)
        # left of c the pivot row is zero mod q, so only columns c.. change
        tail = [(x * inv) % q for x in rows[r][c:]]
        rows[r] = [0] * c + tail
        for i, row in enumerate(rows):
            if i != r and row[c] % q:
                f = row[c]
                row[c:] = [(a - f * b) % q for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace_mod(M, q):
    """Basis of the right kernel of M (list of rows) over F_q."""
    n = len(M[0])
    rows, pivots = rref_mod(M, q)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % q
        basis.append(v)
    return basis


def charpoly_mod(A, q):
    """Characteristic polynomial of A over F_q, constant term first, monic."""
    n = len(A)
    H = [row[:] for row in A]
    # similarity reduction to upper Hessenberg form
    for col in range(n - 2):
        pivot = next((i for i in range(col + 1, n) if H[i][col] % q), None)
        if pivot is None:
            continue
        if pivot != col + 1:
            H[col + 1], H[pivot] = H[pivot], H[col + 1]
            for row in H:
                row[col + 1], row[pivot] = row[pivot], row[col + 1]
        inv = pow(H[col + 1][col], -1, q)
        for i in range(col + 2, n):
            if H[i][col] % q:
                f = (H[i][col] * inv) % q
                H[i] = [(a - f * b) % q for a, b in zip(H[i], H[col + 1])]
                for row in H:
                    row[col + 1] = (row[col + 1] + f * row[i]) % q
    # p_m(x) = (x - H[m-1][m-1]) p_{m-1} - sum_i H[i-1][m-1] (prod subdiag) p_{i-1}
    polys = [[1]]
    for m in range(1, n + 1):
        h = H[m - 1][m - 1] % q
        prev = polys[m - 1]
        new = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            new[i + 1] = (new[i + 1] + c) % q
            new[i] = (new[i] - h * c) % q
        subprod = 1
        for i in range(m - 1, 0, -1):
            subprod = (subprod * H[i][i - 1]) % q
            coeff = (H[i - 1][m - 1] * subprod) % q
            if coeff:
                for j, c in enumerate(polys[i - 1]):
                    new[j] = (new[j] - coeff * c) % q
        polys.append(new)
    return [c % q for c in polys[n]]


def poly_roots_mod(poly, q):
    """All roots in F_q of a polynomial given constant-first."""
    roots = []
    for x in range(q):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % q
        if acc == 0:
            roots.append(x)
    return roots
