"""Irreducible sigma-partial characters, vertices, and weights.

A sigma-partial character is the restriction of an ordinary character to
the sigma-elements, a `chartab.Character` with the prime set sigma. The
irreducible ones are the distinct restrictions, in increasing (degree,
values) order, that are independent of all before them: the pivot columns
of one elimination. One batched solve certifies them: their count is the
number of sigma-element classes, which the theory forces to match, and
every other restriction is a nonnegative integer combination of members of
smaller degree. So the set is the one that peeling the restrictions and
rejecting any that decompose over the smaller ones would keep, and a wrong
set cannot survive construction.

Vertices are located by exhaustive search over pairs (U, alpha) of a
subgroup class and a sigma-degree member of Iso(U) inducing the target;
all hits must produce one conjugacy class of Hall sigma'-subgroups. The
Hall sigma'-subgroups of U are read from the group's own lattice: they
form the one class of order |U|_{sigma'} with a member inside U.

The local side Iso(N|R), for a normal sigma'-subgroup R of N, needs no
search and no table of N: it is empty unless R = O_{sigma'}(N), and is then
inflated from Iso(N/R), on the quotient N/R the weights at R also table, by
the degree law phi(1)_{sigma'} = |N:R|_{sigma'} (`ipi_with_normal_vertex`).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .chartab import (
    Character,
    character_stabilizer,
    character_table,
    decompose_into_irreducibles,
    has_sigma_defect_zero,
    induce_character,
    is_invariant_character,
    restrict_character,
)
from .groups import PermGroup, memoized
from .lattice import (
    SubgroupClass,
    nilpotent_sigma_subgroup_classes,
    subgroup_class_of,
    subgroup_classes,
    sylow_intersection_classes,
)
from .linalg import (
    FIRST_PRIME,
    integer_solutions,
    nonneg_integer_solution,
    prime_below,
    rref_mod,
)
from .sigma import PrimeSet, factorize


class InternalConsistencyError(AssertionError):
    """A certified identity failed; the engine itself is wrong somewhere."""


def _flatten(values, conductor, where: str) -> list[int]:
    """Power-basis coordinates in Q(zeta_conductor); integers for values in Z[zeta]."""
    out: list[int] = []
    for v in values:
        coords = v._coords_at(conductor)
        if v.den != 1:
            # den is reduced against the terms, not the coordinates
            if any(c % v.den for c in coords):
                raise InternalConsistencyError(
                    f"character value {v} is not an algebraic integer {where}"
                )
            coords = [c // v.den for c in coords]
        out.extend(coords)
    return out


def _where(G: PermGroup, sigma: PrimeSet) -> str:
    """The place an error on the Iso path names: the group order and sigma."""
    return f"in a group of order {G.order}, sigma={{{sigma}}}"


@memoized()
def sigma_partial_characters(G: PermGroup, sigma: PrimeSet) -> tuple[Character, ...]:
    """The set Iso(G) of irreducible sigma-partial characters.

    Let v_1, ..., v_n be the distinct restrictions of Irr(G) to the
    sigma-classes, in (degree, canonical coordinates) order. Iso(G) is the
    set a peel along that order accepts: v_i is accepted unless it is a
    nonnegative integer combination of accepted members of smaller degree.
    It is read off one elimination: the set K of pivot columns of
    [v_1 ... v_n] mod p is the v_i independent of v_1, ..., v_{i-1} mod p.
    One `integer_solutions(K, all)` call certifies that |K| is the number of
    sigma-classes, that every v_i is an exact nonnegative integer
    combination of K, and that each v_i outside K uses only members of K of
    smaller degree. These facts force K to be the peel's set, by induction
    along the order. A v_i in K is independent mod p, hence over Q, of the
    members before it, so the peel accepts it. A v_i outside K is a
    certified nonnegative sum of members of K of smaller degree, which come
    before it and so were accepted, and the peel's solve over those
    independent members finds that unique sum and rejects v_i.

    A failed certificate means either a wrong table or a prime p at which
    some v_i is dependent on earlier members only mod p; the pass is
    redone once at the next prime below before an error is raised.
    """
    if not G.is_sigma_separable(sigma):
        raise ValueError("partial-character theory requires a sigma-separable group")
    where = _where(G, sigma)
    sidx = G.sigma_class_indices(sigma)
    e = G.exponent()
    # keyed by (degree, canonical coordinates): equal restrictions share a
    # key, and the keys sort in (degree, values) order
    distinct: dict[tuple, tuple] = {}
    for chi in character_table(G).irreducibles:
        v = tuple(chi.values[j] for j in sidx)
        distinct.setdefault((chi.degree, tuple(x.sort_key(e) for x in v)), v)
    keys = sorted(distinct)
    ordered = [distinct[k] for k in keys]
    degrees = [degree for degree, _ in keys]
    flat = [_flatten(v, e, where) for v in ordered]
    rows = list(zip(*flat))
    p = FIRST_PRIME
    for _ in range(2):
        kept = rref_mod(rows, p)[1]
        if len(kept) != len(sidx):
            failure = (
                f"found {len(kept)} irreducible partial characters, "
                f"expected {len(sidx)} (the sigma-class count)"
            )
        else:
            try:
                solutions = integer_solutions([flat[k] for k in kept], flat)
            except ValueError as exc:
                raise InternalConsistencyError(f"{exc} {where}") from exc
            if any(x is None or min(x) < 0 for x in solutions):
                failure = "a restriction does not decompose over the irreducible set"
            elif any(
                m and degrees[k] >= degrees[i]
                for i, x in enumerate(solutions)
                if i not in kept
                for k, m in zip(kept, x)
            ):
                failure = "a restriction decomposes over a member of no smaller degree"
            else:
                return tuple(Character(G, ordered[k], sigma) for k in kept)
        p = prime_below(p)
    raise InternalConsistencyError(f"{failure} {where}")


def decompose_on_subgroup(phi: Character, H: PermGroup):
    """phi restricted to H as a multiset over Iso(H); multiplicities certified."""
    basis = sigma_partial_characters(H, phi.sigma)
    where = _where(phi.group, phi.sigma)
    # exp(H) divides exp(G), so the parent exponent is a common conductor
    e = phi.group.exponent()
    target = _flatten(restrict_character(phi, H).values, e, where)
    sol = nonneg_integer_solution([_flatten(mu.values, e, where) for mu in basis], target)
    if sol is None:
        raise InternalConsistencyError(
            f"the restriction to a subgroup of order {H.order} is not a nonnegative "
            f"combination {where}"
        )
    return [(mu, m) for mu, m in zip(basis, sol) if m]


def lies_over(phi: Character, theta: Character) -> bool:
    """True iff theta appears in the restriction of phi to theta's group."""
    return any(mu == theta for mu, _ in decompose_on_subgroup(phi, theta.group))


def induced_partial_values(alpha: Character, G: PermGroup):
    """Values of the induced partial character alpha^G on G's sigma-classes."""
    return induce_character(alpha, G).values


@memoized(lambda G, alpha: ("induced_partial_values", alpha))
def _induced_in(G: PermGroup, alpha: Character):
    """`induced_partial_values(alpha, G)`, memoized in G under alpha itself."""
    return induced_partial_values(alpha, G)


# G_theta for theta in Iso(N): one stabilizer serves every class function
partial_character_stabilizer = character_stabilizer


def clifford_correspondent(phi: Character, N: PermGroup, theta: Character):
    """The unique mu in Iso(G_theta | theta) inducing phi; returns (mu, G_theta)."""
    G = phi.group
    if not G.is_normal(N):
        raise ValueError("N is not normal")
    if not lies_over(phi, theta):
        raise ValueError("theta does not lie under phi")
    T = character_stabilizer(G, N, theta)
    hits = [
        mu
        for mu in sigma_partial_characters(T, phi.sigma)
        if induced_partial_values(mu, G) == phi.values and lies_over(mu, theta)
    ]
    if len(hits) != 1:
        raise InternalConsistencyError(
            f"Clifford correspondence produced {len(hits)} candidates instead of 1 "
            f"{_where(G, phi.sigma)}"
        )
    return hits[0], T


def vertices(phi: Character) -> SubgroupClass:
    """The conjugacy class of vertices of phi, found by exhaustive (U, alpha) search."""
    return _vertex_class(phi.group, phi)


@memoized()
def _vertex_class(G: PermGroup, phi: Character) -> SubgroupClass:
    """`vertices(phi)` for phi in Iso(G), memoized in G."""
    sigma = phi.sigma
    where = _where(G, sigma)
    coprime_in_g = sigma.complement_within(G.order)
    target_coorder = coprime_in_g.part(G.order) // coprime_in_g.part(phi.degree)
    hits = []
    for cls in sorted(
        subgroup_classes(G), key=lambda c: (-sigma.copart(c.order), -c.order)
    ):
        U = G if cls.order == G.order else cls.representative
        index = G.order // U.order
        if phi.degree % index:
            continue
        alpha_degree = phi.degree // index
        if not sigma.is_sigma_number(alpha_degree):
            continue
        if sigma.copart(U.order) != target_coorder:
            continue
        for alpha in sigma_partial_characters(U, sigma):
            if alpha.degree != alpha_degree:
                continue
            if _induced_in(G, alpha) == phi.values:
                hits.append(U)
                break
    if not hits:
        raise InternalConsistencyError(
            f"no inducing pair found for a vertex of degree {phi.degree} {where}"
        )
    # every hit U has |U|_{sigma'} = target_coorder
    vertex_classes = [_hall_coprime_class(G, U, target_coorder, where) for U in hits]
    if len({cls.canonical_key for cls in vertex_classes}) != 1:
        orders = ", ".join(str(U.order) for U in hits)
        raise InternalConsistencyError(
            f"non-conjugate vertices found for inducing subgroups of orders {orders} {where}"
        )
    result = vertex_classes[0]
    # postcondition: phi(1)_{sigma'} = |G:Q|_{sigma'}
    if coprime_in_g.part(phi.degree) != coprime_in_g.part(G.order // result.order):
        raise InternalConsistencyError(
            f"vertex degree law fails for degree {phi.degree} and |Q|={result.order} {where}"
        )
    return result


def _hall_coprime_class(G: PermGroup, U: PermGroup, order: int, where: str) -> SubgroupClass:
    """The class of G's lattice of the Hall sigma'-subgroups of U; `order` is |U|_{sigma'}.

    U is sigma-separable, so by Čunihin's form of Hall's theorem each
    subgroup of U of that order is a Hall sigma'-subgroup, and all of them
    are conjugate in U: exactly one class of that order has a member inside U.
    """
    u_set = U.element_set()
    inside = [
        cls
        for cls in subgroup_classes(G)
        if cls.order == order
        and any(m <= u_set for m in G.subgroup_orbit(cls.representative.element_set()).members)
    ]
    if len(inside) != 1:
        raise InternalConsistencyError(
            f"{len(inside)} classes of order {order} have a member inside "
            f"the inducing subgroup of order {U.order} {where}"
        )
    return inside[0]


def ipi_with_vertex(
    G: PermGroup,
    sigma: PrimeSet,
    Q: PermGroup,
    theta: Character | None = None,
):
    """Members of Iso(G) with vertex class containing Q, optionally over theta."""
    if not (Q.is_subset(G) and sigma.complement_within(G.order).is_sigma_number(Q.order)):
        raise ValueError("Q is not a sigma'-subgroup")
    key = G.subgroup_orbit(Q.element_set()).canonical_key
    out = []
    for phi in sigma_partial_characters(G, sigma):
        if vertices(phi).canonical_key != key:
            continue
        if theta is not None and not lies_over(phi, theta):
            continue
        out.append(phi)
    return tuple(out)


def ipi_with_normal_vertex(
    N: PermGroup,
    sigma: PrimeSet,
    R: PermGroup,
    theta: Character | None = None,
):
    """Members of Iso(N) with vertex R, for a normal sigma'-subgroup R of N.

    Every vertex of phi contains O_{sigma'}(N) and has order
    |N|_{sigma'}/phi(1)_{sigma'} (the degree law), so Iso(N|R) is empty unless
    the O_{sigma'} walk of N from R keeps no set, that is R = O_{sigma'}(N).
    Then R lies in the kernel of all of Iso(N) (Isaacs, J. Algebra 86, 1984),
    and Iso(N|R) is the inflation of the phi in Iso(N/R) with phi(1)_{sigma'}
    = |N:R|_{sigma'}, in Iso(N)'s (degree, values) order; over theta if given.
    """
    coprime = sigma.complement_within(N.order)
    if not (coprime.is_sigma_number(R.order) and N.is_normal(R)):
        raise ValueError("R is not a normal sigma'-subgroup")
    if any(N.o_sigma_walk(coprime, R.element_set())):
        return ()
    quo, project = N.quotient(R)
    law = coprime.part(N.order // R.order)
    images = [project(c.representative) for c in N.sigma_element_classes(sigma)]
    inflated = [
        Character(N, [phi(x) for x in images], sigma)
        for phi in sigma_partial_characters(quo, sigma)
        if coprime.part(phi.degree) == law
    ]
    e = N.exponent()
    inflated.sort(key=lambda phi: (phi.degree, tuple(x.sort_key(e) for x in phi.values)))
    return tuple(phi for phi in inflated if theta is None or lies_over(phi, theta))


# --- Glauberman correspondence ------------------------------------------------


@dataclass(frozen=True)
class GlaubermanAction:
    """A coprime action: `acting` normalizes `acted` inside a common group."""

    acted: PermGroup
    acting: PermGroup

    def __post_init__(self):
        if math.gcd(self.acted.order, self.acting.order) != 1:
            raise ValueError("action is not coprime")
        if not self.acting.is_solvable():
            raise ValueError("acting group must be solvable")
        for s in self.acting.generators:
            for g in self.acted.generators:
                if not self.acted.contains(g.conjugate(s)):
                    raise ValueError("acting group does not normalize the acted group")

    @property
    def fixed(self) -> PermGroup:
        return _fixed_points(self.acted, self.acting)


@memoized(lambda acted, acting: ("glauberman_fixed", acting.element_set()))
def _fixed_points(acted: PermGroup, acting: PermGroup) -> PermGroup:
    return acted.centralizer_of_subgroup(acting)


@memoized()
def _largest_proper_normal(S: PermGroup) -> PermGroup:
    """The subgroup on the second-last of `normal_subgroups`, the last being S."""
    return S._generated(S.normal_subgroups()[-2])


def glauberman_correspondent(
    action: GlaubermanAction, chi: Character, _series_choice=None
) -> Character:
    """The correspondent of an invariant character in Irr(C_G(S)).

    Descends a composition series of the acting group; at each prime-order
    step the correspondent is the unique constituent of the restriction to
    the fixed-point subgroup whose multiplicity is prime to the step.
    """
    S = action.acting
    if not is_invariant_character(chi, S.generators):
        raise ValueError("character is not invariant under the action")
    if S.order == 1:
        return restrict_character(chi, action.fixed)
    choose = _series_choice or _largest_proper_normal
    T = choose(S)
    if T.order > 1:
        inner = GlaubermanAction(action.acted, T)
        chi = glauberman_correspondent(inner, chi, _series_choice)
        if not is_invariant_character(chi, S.generators):
            raise InternalConsistencyError("descent lost invariance")
    p = S.order // T.order
    step = factorize(p)
    if len(step) != 1 or step[0][1] != 1:
        raise InternalConsistencyError("composition step is not of prime order")
    C = action.fixed
    c_tab = character_table(C)
    multiplicities = decompose_into_irreducibles(restrict_character(chi, C), c_tab)
    hits = [psi for psi, m in zip(c_tab.irreducibles, multiplicities) if m % p]
    if len(hits) != 1:
        raise InternalConsistencyError(
            f"{len(hits)} constituents with multiplicity prime to {p}"
        )
    return hits[0]


def glauberman_map(action: GlaubermanAction):
    """The full correspondence Irr_S(G) -> Irr(C), verified bijective."""
    tab = character_table(action.acted)
    S = action.acting
    invariant = [chi for chi in tab.irreducibles if is_invariant_character(chi, S.generators)]
    images = [glauberman_correspondent(action, chi) for chi in invariant]
    c_tab = character_table(action.fixed)
    if len({tuple(img.values) for img in images}) != len(images):
        raise InternalConsistencyError("Glauberman map is not injective")
    if len(images) != len(c_tab.irreducibles):
        raise InternalConsistencyError("Glauberman map is not surjective")
    return list(zip(invariant, images))


# --- weights ------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """A pair (Q, gamma): Q a sigma-subgroup class, gamma of full sigma-defect zero."""

    subgroup_class: SubgroupClass
    character: Character

    @property
    def q_order(self) -> int:
        return self.subgroup_class.order

    def __repr__(self) -> str:
        return f"Weight(|Q|={self.q_order}, deg={self.character.values[0]})"


def _weights_on(G: PermGroup, sigma: PrimeSet, cls: SubgroupClass) -> list[Weight]:
    """The weights (Q, gamma) for Q in cls: the sigma-defect-zero Irr(N_G(Q)/Q).

    None exists while H = N_G(Q)/Q has a nontrivial normal sigma-subgroup K
    (Alperin, Weights for finite groups, 1987): for gamma over theta in Irr(K),
    gamma(1) divides theta(1)|H:K| (Isaacs, Cor. 11.29) and theta(1) < |K|, so
    gamma(1)_sigma < |H|_sigma. As O_sigma(N_G(Q)/Q) = O_sigma(N_G(Q))/Q, a
    class with O_sigma(N_G(Q)) > Q gets no quotient and no character table.
    The O_sigma walk of N_G(Q) from Q answers at the first set it keeps
    above Q, with no class list of N_G(Q).
    """
    Q = cls.representative
    N = G.normalizer(Q)
    if any(N.o_sigma_walk(sigma, Q.element_set())):
        return []
    return [
        Weight(cls, gamma)
        for gamma in character_table(N.quotient(Q)[0]).irreducibles
        if has_sigma_defect_zero(gamma, sigma)
    ]


def enumerate_weights(G: PermGroup, sigma: PrimeSet) -> tuple[Weight, ...]:
    """All weight classes (Q, gamma) for nilpotent sigma-subgroups Q.

    When sigma meets |G| in one prime p, the first components are read off
    the Sylow p-intersections, which hold every class the gate keeps;
    otherwise off the solvable sigma-subgroup classes. Either way the classes
    come in lattice order, so the weights are the same.
    """
    primes = [p for p in G.primes() if p in sigma]
    if len(primes) == 1:
        classes = sylow_intersection_classes(G, primes[0])
    else:
        classes = nilpotent_sigma_subgroup_classes(G, sigma)
    return tuple(w for cls in classes for w in _weights_on(G, sigma, cls))


def weights_with_first_component(G: PermGroup, sigma: PrimeSet, R: PermGroup):
    """Weights (R, gamma) for one fixed subgroup R, built on R's class representative."""
    return tuple(_weights_on(G, sigma, subgroup_class_of(G, R)))
