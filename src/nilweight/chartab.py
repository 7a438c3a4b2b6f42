"""Exact ordinary character tables and character arithmetic.

An orbit-wise direct product G, with a nontrivial point orbit X such that
|G| = |G^X| |G^Y| for Y the union of its other nontrivial orbits, is
G^X x G^Y by restriction. Its table is read off the factors' tables, which
`character_table` gives again, so three or more factors split further.

Every other table comes from the classical finite-field method: common
eigenvectors of the class-sum matrices over F_q (q = 1 mod exp(G),
q > 2*sqrt(|G|)) give the central characters, degrees are recovered from
the orthogonality relations, and values are lifted to exact cyclotomics
from the eigenvalue multiplicities of each power map. The class matrices
split the space one at a time, in class order, each acting only on the
eigenspaces that are not yet lines (Schneider's refinement of Dixon's
method). The `CharacterTable` constructor sorts every table, computed or
read from disk, by (degree, values), reading a value's canonical
coordinates only where the earlier columns tie, and certifies it before it
is used: row orthogonality is checked exactly by evaluating every value
once at an integer point z modulo Phi_e(z), with z large enough that no
nonzero sum can vanish there (`CharacterTable.verify`).

Each distinct value of a table is one `Cyclotomic` object, shared by
every cell that holds it: the finite-field lift keeps one per distinct
lifted terms, and a product table one per pair of factor value objects
and one per distinct product. The pools live for one table build. Work on
a single value, its evaluation in `verify`, its canonical coordinates and
its text, then runs once per distinct value, not once per cell.

A `Character` is a class function of one of two kinds: on all classes of
its group, or, given a prime set sigma, on its sigma-classes only, which
makes it a sigma-partial character. Evaluation, restriction, induction,
conjugation and the stabilizer all work on the character's own classes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import itemgetter, mul

from .cyclotomic import Cyclotomic, cyclotomic_value, weighted_conjugate_dot
from .groups import PermGroup, memoized
from .linalg import (
    charpoly_mod,
    find_splitting_prime,
    nullspace_mod,
    poly_roots_mod,
    primitive_root,
    rref_mod,
)
from .perms import Perm
from .sigma import PrimeSet, sigma_part


class Character:
    """A class function on a group, given by its values on the classes it lives on.

    With `sigma` None those are all classes, in order; with a prime set they
    are the sigma-classes, `group.sigma_class_indices(sigma)`, and the
    character is a sigma-partial character.
    """

    __slots__ = ("group", "values", "sigma", "class_indices", "_hash")

    def __init__(self, group: PermGroup, values, sigma: PrimeSet | None = None):
        vals = tuple(values)
        if not all(map(isinstance, vals, repeat(Cyclotomic))):
            vals = tuple(v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v) for v in vals)
        indices = _class_indices(group, sigma)
        if len(vals) != len(indices):
            raise ValueError("value count differs from class count")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "class_indices", indices)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Character is immutable")

    @property
    def degree(self) -> int:
        return self.values[0].to_int()

    def __call__(self, g: Perm) -> Cyclotomic:
        idx = self.group.class_index_of(g)
        try:
            return self.values[self.class_indices.index(idx)]
        except ValueError:
            raise ValueError("element is not a sigma-element") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.group is other.group
            and self.sigma == other.sigma
            and self.values == other.values
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self,
                "_hash",
                hash((id(self.group), self.sigma) + tuple(hash(v) for v in self.values)),
            )
        return self._hash

    def __repr__(self) -> str:
        return f"Character(deg={self.values[0]}, [{', '.join(map(str, self.values))}])"


@memoized()
def _class_indices(G: PermGroup, sigma: PrimeSet | None):
    """The classes of G a character of kind sigma lives on: all of them for None."""
    if sigma is None:
        return range(len(G.conjugacy_classes()))
    return G.sigma_class_indices(sigma)


class CharacterTable:
    """The irreducible characters of a group, in canonical order and certified.

    Whatever order the rows arrive in, they are sorted by (degree, values),
    so a computed table and one read from disk give the same report.
    """

    def __init__(self, group: PermGroup, irreducibles):
        self.group = group
        self.conductor = group.exponent()
        self.irreducibles: tuple[Character, ...] = tuple(
            sorted(irreducibles, key=lambda chi: (chi.degree, _RowKey(chi.values, self.conductor)))
        )
        self.verify()

    def degrees(self) -> tuple[int, ...]:
        return tuple(chi.degree for chi in self.irreducibles)

    def verify(self) -> None:
        """Exact certificate of the table; raises AssertionError on any failure.

        The table must be square, every degree must be a positive divisor
        of |G|, and the rows must be orthonormal. Row orthogonality is
        checked once per pair i <= j, since (psi, chi) is the conjugate of
        (chi, psi). For the square table X and D = diag(|C_k|/|G|) it reads
        X D X* = I, so X^-1 = D X* and X* X = D^-1: column orthogonality
        follows, and the sum of the squared degrees, its identity entry,
        equals |G| (Isaacs, Character Theory of Finite Groups, Thm 2.18).

        Write every value over the table's common denominator d, so that
        x_ik = d chi_i(g_k) has integer numerators in Z[x]/(x^e - 1),
        e = exp(G). The pair (i, j) holds iff
        f_ij = sum_k |C_k| x_ik conj(x_jk) - |G| d^2 delta_ij is 0 in
        Z[zeta_e]. Rather than reducing each f_ij modulo Phi_e, every value
        is evaluated once at zeta -> z and once at zeta^-1 -> z^-1 modulo
        q = Phi_e(z), and the pair is accepted iff f_ij(z) = 0 mod q. The
        powers z^t are taken mod q, and z^-t as z^(e-t), since Phi_e(z)
        divides z^e - 1.

        This is exact, and q need not be prime. With L the largest l1 norm
        of any x_ik, every f_ij has l1 norm at most B = |G| (L^2 + d^2),
        as the class sizes sum to |G|; take z = B + 2. As Phi_e(z) = 0 mod
        q, zeta -> z is a ring map Z[zeta_e] -> Z/q, and its kernel I has
        index q. Let f = f_ij be nonzero in I. Its norm N(f), the product
        of its Galois conjugates, is a nonzero integer in f Z[zeta_e],
        hence in I and so divisible by q. Every conjugate has absolute
        value at most the l1 norm, so |N(f)| <= B^phi(e) < (z - 1)^phi(e)
        <= Phi_e(z) = q, since each primitive e-th root w has
        |z - w| >= z - 1. That contradicts q dividing N(f). So f_ij(z) = 0
        mod q iff f_ij = 0, and the check accepts exactly the tables that
        reducing every f_ij modulo Phi_e accepts.
        """
        G = self.group
        irr = self.irreducibles
        e = self.conductor
        where = _where(G)
        if len(irr) != len(G.conjugacy_classes()):
            raise AssertionError(f"number of irreducibles differs from class count {where}")
        for i, chi in enumerate(irr):
            if chi.degree < 1 or G.order % chi.degree:
                raise AssertionError(
                    f"character degree is not a positive divisor of |G| in row {i} {where}"
                )
        distinct = {id(v): v for chi in irr for v in chi.values}.values()
        den = math.lcm(*(v.den for v in distinct))
        # x_ik is den / v.den times the numerators of v = chi_i(g_k), at exponents t e/m
        ell1 = max(den // v.den * sum(map(abs, v.nums.values())) for v in distinct)
        z = G.order * (ell1 * ell1 + den * den) + 2
        q = cyclotomic_value(e, z)
        pw = [1] * e
        for t in range(1, e):
            pw[t] = pw[t - 1] * z % q
        # each value object, however many cells hold it, is evaluated once
        at_z, at_inverse = {}, {}
        for v in distinct:
            s, k, x, y = e // v.conductor, den // v.den, 0, 0
            for t, n in v.nums.items():
                x += n * pw[t * s]
                y += n * pw[-t * s]
            at_z[id(v)], at_inverse[id(v)] = k * x % q, k * y % q
        sizes = [c.size for c in G.conjugacy_classes()]
        # W[i][k] = |C_k| x_ik at zeta -> z, Y[j][k] = x_jk at zeta^-1 -> z^-1
        W = [[size * at_z[id(v)] % q for size, v in zip(sizes, chi.values)] for chi in irr]
        Y = [[at_inverse[id(v)] for v in chi.values] for chi in irr]
        unit = G.order * den * den % q
        for i, w in enumerate(W):
            if sum(map(mul, w, Y[i])) % q != unit:
                raise AssertionError(f"row orthogonality fails at rows ({i}, {i}) {where}")
            for j in range(i + 1, len(Y)):
                if sum(map(mul, w, Y[j])) % q:
                    raise AssertionError(f"row orthogonality fails at rows ({i}, {j}) {where}")

    def __repr__(self) -> str:
        return f"CharacterTable(order={self.group.order}, degrees={self.degrees()})"


class _RowKey:
    """A row's values, ordered as the list of their `sort_key(conductor)`s.

    Two rows are compared column by column, and a column's canonical
    coordinates are computed only when every earlier column ties: a value
    object shared by both cells ties without them.
    """

    __slots__ = ("values", "conductor")

    def __init__(self, values, conductor: int):
        self.values = values
        self.conductor = conductor

    def __lt__(self, other: "_RowKey") -> bool:
        e = self.conductor
        for a, b in zip(self.values, other.values):
            if a is b:
                continue
            ka, kb = a.sort_key(e), b.sort_key(e)
            if ka != kb:
                return ka < kb
        return False


def _where(G: PermGroup) -> str:
    """The place an error in a table of G names: the group order and the conductor."""
    return f"in the table of a group of order {G.order} at conductor {G.exponent()}"


@memoized(bound="table")
def character_table(G: PermGroup) -> CharacterTable:
    """The character table of G, memoized on G.

    An orbit-wise direct product gets the products of its factors' tables,
    any other group the finite-field method.
    """
    factors = _direct_factors(G)
    if factors is None:
        return _finite_field_table(G)
    return _product_table(G, *factors)


# --- orbit-wise direct products ---------------------------------------------


def _restriction(G: PermGroup, points: tuple[int, ...]):
    """(G^X, project) for X the sorted `points`, relabelled 0, 1, ... in order;
    project restricts an element of G to X. X must be a union of G's orbits."""
    label = {p: i for i, p in enumerate(points)}
    take = itemgetter(*points)

    def project(g: Perm) -> Perm:
        return Perm(tuple(map(label.__getitem__, take(g.images))))

    return PermGroup(len(points), [project(g) for g in G.generators]), project


def _direct_factors(G: PermGroup):
    """(G^X, project_x, G^Y, project_y) for the first nontrivial point orbit X
    with |G| = |G^X| |G^Y|, Y the union of the other nontrivial orbits; else None.

    Restriction embeds G in G^X x G^Y, so equal orders make it onto."""
    moved = [orbit for orbit in G.point_orbits() if len(orbit) > 1]
    if len(moved) < 2:
        return None
    for x in moved:
        y = tuple(sorted(p for orbit in moved if orbit is not x for p in orbit))
        A, project_a = _restriction(G, x)
        B, project_b = _restriction(G, y)
        if A.order * B.order == G.order:
            return A, project_a, B, project_b
    return None


def _product_table(G: PermGroup, A, project_a, B, project_b) -> CharacterTable:
    """The table of G = A x B: Irr(G) is {alpha x beta} (Isaacs, Character
    Theory of Finite Groups, Thm 4.21).

    Restriction must map the classes of G one-to-one onto the r_A r_B pairs
    of factor classes. The value alpha(a) beta(b) is the convolution of the
    two values' numerators at conductor exp(G); for eigenvalue
    multiplicities that is exactly the `nums` the finite-field method lifts.
    It is computed once per pair of factor value objects, and equal products
    share one object.
    """
    a_table, b_table = character_table(A), character_table(B)
    reps = [c.representative for c in G.conjugacy_classes()]
    pairs = [(A.class_index_of(project_a(g)), B.class_index_of(project_b(g))) for g in reps]
    if not len(set(pairs)) == len(pairs) == len(a_table.irreducibles) * len(b_table.irreducibles):
        raise AssertionError(f"the classes do not map one-to-one onto class pairs {_where(G)}")
    e = G.exponent()
    pool: dict[tuple, Cyclotomic] = {}
    products: dict[tuple[int, int], Cyclotomic] = {}

    def times(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
        sa, sb = e // a.conductor, e // b.conductor
        terms: dict[int, int] = {}
        for s, m in a.nums.items():
            for t, n in b.nums.items():
                k = (s * sa + t * sb) % e
                terms[k] = terms.get(k, 0) + m * n
        key = tuple(sorted(terms.items())), a.den * b.den
        if key not in pool:
            pool[key] = Cyclotomic(e, dict(key[0]), key[1])
        return pool[key]

    chars = []
    for alpha in a_table.irreducibles:
        for beta in b_table.irreducibles:
            values = []
            for i, j in pairs:
                a, b = alpha.values[i], beta.values[j]
                key = id(a), id(b)
                if key not in products:
                    products[key] = times(a, b)
                values.append(products[key])
            chars.append(Character(G, values))
    return CharacterTable(G, chars)


# --- the finite-field computation -------------------------------------------


def _class_matrices(G: PermGroup):
    """M_i[j][k] counts the x in class i with x^-1 g_k in class j, g_k the k-th representative.

    x^-1 runs over the inverse class as x runs over class i, so the sum
    goes over the members y of the inverse class with y g_k in class j.
    The matrices are yielded in class order, each built only when asked for.
    """
    classes = G.conjugacy_classes()
    lookup = G._class_lookup()
    r = len(classes)
    reps = [c.representative.images for c in classes]
    for i in G.inverse_class_map():
        M = [[0] * r for _ in range(r)]
        for k, g in enumerate(reps):
            for y in classes[i].members:
                M[lookup[tuple(map(g.__getitem__, y))]][k] += 1
        yield M


def _split_to_common_eigenvectors(mats, q, G: PermGroup):
    """The common eigenvectors of G's class matrices over F_q, one per irreducible.

    Each matrix in turn splits the invariant subspaces that are not yet
    lines, until all are. q does not divide |G|, so the class sums span a
    split semisimple centre whose common eigenspaces are lines.
    """
    r = len(G.conjugacy_classes())
    # start from the full space, given by the identity basis (already in RREF)
    spaces = [[[int(i == j) for j in range(r)] for i in range(r)]]
    for M in mats:
        if all(len(B) == 1 for B in spaces):
            break
        spaces = [s for B in spaces for s in (_split_space(B, M, q, G) if len(B) > 1 else [B])]
    if any(len(B) > 1 for B in spaces):
        raise AssertionError(
            f"the class matrices leave a common eigenspace of dimension > 1 {_where(G)}"
        )
    return [B[0] for B in spaces]


def _split_space(B, M, q, G: PermGroup):
    """Split an invariant subspace (rows of B in RREF) by eigenvalues of M; errors name G."""
    columns = list(zip(*B))
    d = len(B)
    if d == len(M):
        # the whole space: B is the identity, so M b_i is column i of M
        A = [[row[i] % q for row in M] for i in range(d)]
    else:
        # each RREF row has its leading 1 at its pivot column
        pivots = [next(c for c, x in enumerate(b) if x) for b in B]
        A = []
        for b in B:
            w = [sum(map(mul, row, b)) % q for row in M]
            coords = [w[pc] for pc in pivots]
            # verify w really lies in the span (it must: the space is invariant)
            span = [sum(map(mul, coords, col)) % q for col in columns]
            if span != w:
                raise AssertionError(f"subspace not invariant {_where(G)}")
            A.append(coords)
    # M acts as a scalar on the space: it is one eigenspace
    if A == [[A[0][0] * (i == j) for j in range(d)] for i in range(d)]:
        return [B]
    # eigenvalues of the restriction; the operator on coordinates is A^T
    At = [list(col) for col in zip(*A)]
    out = []
    found = 0
    for lam in poly_roots_mod(charpoly_mod(At, q), q):
        shifted = [
            [(x - lam) % q if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(At)
        ]
        vecs = [[sum(map(mul, kv, col)) % q for col in columns] for kv in nullspace_mod(shifted, q)]
        if vecs:
            found += len(vecs)
            out.append(rref_mod(vecs, q)[0])
    if found != d:
        raise AssertionError(f"eigenspaces do not fill the subspace {_where(G)}")
    return out


def _finite_field_table(G: PermGroup) -> CharacterTable:
    """The character table of G by the finite-field method."""
    classes = G.conjugacy_classes()
    r = len(classes)
    e = G.exponent()
    where = _where(G)
    q = find_splitting_prime(e, G.order)
    z = pow(primitive_root(q), (q - 1) // e, q)

    vectors = _split_to_common_eigenvectors(_class_matrices(G), q, G)

    inv = G.inverse_class_map()
    inv_sizes = [pow(c.size, -1, q) for c in classes]
    # power maps: class of rep_j^s
    powmap = []
    for c in classes:
        x, row = G.identity, []
        for _ in range(c.element_order):
            row.append(G.class_index_of(x))
            x = x * c.representative
        powmap.append(row)
    # dft[m][t][s] = zeta_m^(-s t) mod q, zeta_m = z^(e/m), one table per element order
    dft = {}
    for m in {c.element_order for c in classes}:
        roots = [pow(z, (e // m) * k, q) for k in range(m)]
        dft[m] = [[roots[-s * t % m] for s in range(m)] for t in range(m)]

    # one value object per distinct lifted terms
    pool: dict[tuple, Cyclotomic] = {}
    chars = []
    for u in vectors:
        if u[0] % q == 0:
            raise AssertionError(f"eigenvector vanishes on the identity class {where}")
        scale = pow(u[0], -1, q)
        u = [(x * scale) % q for x in u]
        # degree from the first orthogonality relation
        s = sum(u[j] * u[inv[j]] * inv_sizes[j] for j in range(r)) % q
        d2 = (G.order * pow(s, -1, q)) % q
        degree = next(
            (d for d in range(1, math.isqrt(G.order) + 1) if (d * d) % q == d2), None
        )
        if degree is None:
            raise AssertionError(f"no valid degree below sqrt(|G|) {where}")
        # character values mod q on every class
        chi_mod = [(degree * u[j] * inv_sizes[j]) % q for j in range(r)]
        values = []
        for j, c in enumerate(classes):
            m = c.element_order
            minv = pow(m, -1, q)
            on_powers = [chi_mod[k] for k in powmap[j]]
            terms = {}
            total = 0
            for t, row in enumerate(dft[m]):
                mt = (sum(map(mul, on_powers, row)) * minv) % q
                total += mt
                if mt:
                    terms[(e // m) * t] = mt
            if total != degree:
                raise AssertionError(
                    f"eigenvalue multiplicities do not sum to the degree {where}"
                )
            key = tuple(terms.items())
            if key not in pool:
                pool[key] = Cyclotomic(e, terms)
            values.append(pool[key])
        chars.append(Character(G, values))
    return CharacterTable(G, chars)


# --- character arithmetic -------------------------------------------------


def inner_product(alpha: Character, beta: Character) -> Fraction:
    """(1/|G|) sum over classes of |C| alpha(g) conj(beta(g)); exact."""
    if alpha.group is not beta.group:
        raise ValueError("class functions live on different groups")
    G = alpha.group
    total = weighted_conjugate_dot(
        (c.size, a, b)
        for c, a, b in zip(G.conjugacy_classes(), alpha.values, beta.values)
    )
    return (total / G.order).to_fraction()


def restrict_character(chi: Character, H: PermGroup) -> Character:
    """chi on the classes of a subgroup H of its kind: all classes, or the sigma-classes."""
    if not H.is_subset(chi.group):
        raise ValueError("H is not a subgroup of the character's group")
    classes = H.conjugacy_classes()
    return Character(
        H, [chi(classes[i].representative) for i in _class_indices(H, chi.sigma)], chi.sigma
    )


def _induced_values(H: PermGroup, values, h_indices, G: PermGroup, g_indices):
    """theta^G on G's classes g_indices, from theta's values on H's classes h_indices.

    theta^G(g) is |C_G(g)| / |H| times the sum of |c| theta(c) over the
    H-classes c inside g's class. The sums run over integer numerators at
    conductor exp(G), over the common denominator of theta's values, and
    each value is built once; the classes that meet no H-class share one zero.
    """
    e = G.exponent()
    den = math.lcm(1, *(v.den for v in values))
    h_classes = H.conjugacy_classes()
    by_target: dict[int, dict[int, int]] = {}
    for i, v in zip(h_indices, values):
        c = h_classes[i]
        sums = by_target.setdefault(G.class_index_of(c.representative), {})
        for t, n in v.numerators_at(e, den):
            sums[t] = sums.get(t, 0) + n * c.size
    g_classes = G.conjugacy_classes()
    zero = Cyclotomic.zero()
    out = []
    for j in g_indices:
        sums = by_target.get(j)
        if sums is None:
            out.append(zero)
        else:
            centralizer = G.order // g_classes[j].size
            out.append(Cyclotomic(e, {t: n * centralizer for t, n in sums.items()}, den * H.order))
    return out


def induce_character(theta: Character, G: PermGroup) -> Character:
    """The induced class function theta^G from a subgroup to G, of theta's kind."""
    H = theta.group
    if not H.is_subset(G):
        raise ValueError("theta does not live on a subgroup of G")
    g_indices = _class_indices(G, theta.sigma)
    values = _induced_values(H, theta.values, theta.class_indices, G, g_indices)
    return Character(G, values, theta.sigma)


def conjugate_character(chi: Character, g: Perm, target: PermGroup) -> Character:
    """chi^g on H^g, of chi's kind, where chi lives on H; target must equal
    H^g as a group."""
    classes = target.conjugacy_classes()
    values = [
        chi(g * classes[i].representative * g.inverse())
        for i in _class_indices(target, chi.sigma)
    ]
    return Character(target, values, chi.sigma)


def decompose_into_irreducibles(chi: Character, table: CharacterTable):
    """Multiplicities of chi in Irr; asserts they are nonnegative integers."""
    out = []
    for psi in table.irreducibles:
        m = inner_product(chi, psi)
        if m.denominator != 1 or m < 0:
            raise AssertionError(f"non-integral multiplicity {m}")
        out.append(int(m))
    return out


def has_sigma_defect_zero(chi: Character, sigma: PrimeSet) -> bool:
    """True iff the sigma-part of the degree equals the sigma-part of |G|."""
    return sigma_part(chi.degree, sigma) == sigma_part(chi.group.order, sigma)


def character_stabilizer(G: PermGroup, N: PermGroup, theta):
    """The stabilizer G_theta of theta under conjugation, for theta a
    character or a partial character of N.

    G must normalize N (it need not contain it)."""
    if theta.group is not N:
        raise ValueError("theta must live on N")

    def act(values, g):
        return N.conjugate_class_function(values, theta.class_indices, g)

    return G.stabilizer(theta.values, act)


def is_invariant_character(chi, elements) -> bool:
    """True iff conjugation by every element of `elements` fixes chi, a
    character or a partial character; each element must normalize chi's group."""
    group, indices = chi.group, chi.class_indices
    return all(
        group.conjugate_class_function(chi.values, indices, g) == chi.values for g in elements
    )
