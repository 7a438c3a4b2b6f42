"""Counting checkers for nilpotent weights and the property harness.

Four checkers are provided, each producing a VerificationReport with
hypothesis flags, both counts, per-item breakdown rows and a verdict:

* check_weight_count: the number of classes of sigma'-elements against the
  number of nilpotent sigma-weight classes (the global count).
* check_carter_refinement: for a fixed nilpotent sigma'-subgroup R, the
  members of Iso(G) whose vertex contains R as a Carter subgroup against
  Iso(N_G(R)|R) (the per-R refinement).
* check_normalizer_counting: |Iso(G|Q,phi)| = |Iso(N_G(Q)|Q,phi)| in the
  normal-LQ situation.
* check_canonical_bijection: the explicit correspondence
  phi -> (theta* x 1_R) induced to N_G(R) when the sigma-part is a normal
  Hall subgroup, checked to be well defined and bijective.

Hypotheses are always evaluated, never assumed: a failing count with an
unmet flag is reported as such rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartab import (
    Character,
    character_stabilizer,
    character_table,
    induce_character,
    inner_product,
)
from .groups import PermGroup
from .lattice import (
    SubgroupClass,
    carter_fiber,
    carter_members,
    solvable_sigma_subgroup_classes,
    subgroup_classes,
)
from .perms import Perm
from .pipartial import (
    GlaubermanAction,
    InternalConsistencyError,
    _local_normalizer,
    _where,
    decompose_on_subgroup,
    enumerate_weights,
    glauberman_correspondent,
    ipi_with_normal_vertex,
    ipi_with_vertex,
    is_invariant_character,
    sigma_partial_characters,
    vertices,
    weights_with_first_component,
)
from .sigma import PrimeSet, sigma_part

HOLDS = "holds"
FAILS = "fails"
UNMET = "hypotheses-unmet"


@dataclass(frozen=True)
class ReportRow:
    side: str  # "lhs" | "rhs" | "info"
    label: str
    count: int


@dataclass(frozen=True)
class VerificationReport:
    check: str
    group_name: str
    sigma: PrimeSet
    hypotheses: tuple[tuple[str, bool], ...]
    lhs: int | None
    rhs: int | None
    rows: tuple[ReportRow, ...] = ()
    detail: str = ""

    @property
    def hypotheses_met(self) -> bool:
        return all(ok for _, ok in self.hypotheses)

    @property
    def verdict(self) -> str:
        if self.lhs is None or self.rhs is None:
            return UNMET
        if self.lhs != self.rhs:
            return FAILS
        return HOLDS if self.hypotheses_met else UNMET


def _class_label(c) -> str:
    return f"order={c.element_order} size={c.size} rep={c.representative.cycle_string()}"


def _subgroup_label(cls: SubgroupClass) -> str:
    return f"|Q|={cls.order} reps={cls.class_size} <{cls.representative.generator_label()}>"


# --- global weight count ------------------------------------------------------


def check_weight_count(G: PermGroup, sigma: PrimeSet, name: str = "G") -> VerificationReport:
    """Classes of sigma'-elements vs nilpotent sigma-weight classes.

    The hypotheses are that G is sigma-separable and that a solvable Hall
    sigma-subgroup exists. Both the flag and the weights read the solvable
    sigma-subgroup classes only, not G's whole lattice.
    """
    hypotheses = (
        ("sigma-separable", G.is_sigma_separable(sigma)),
        ("solvable Hall subgroup", G.find_hall_sigma_subgroup(sigma) is not None),
    )
    coprime = sigma.complement_within(G.order)
    lhs_classes = G.sigma_element_classes(coprime)
    weights = enumerate_weights(G, sigma)
    rows = [ReportRow("lhs", _class_label(c), 1) for c in lhs_classes]
    rows += [
        ReportRow(
            "rhs",
            f"{_subgroup_label(w.subgroup_class)} gamma_deg={w.character.degree}",
            1,
        )
        for w in weights
    ]
    return VerificationReport(
        check="weight-count",
        group_name=name,
        sigma=sigma,
        hypotheses=hypotheses,
        lhs=len(lhs_classes),
        rhs=len(weights),
        rows=tuple(rows),
    )


# --- per-R refinement -----------------------------------------------------------


def check_carter_refinement(
    G: PermGroup, sigma: PrimeSet, R: PermGroup, name: str = "G"
) -> VerificationReport:
    """Union of Iso(G|Q) over Q with Carter subgroup R vs Iso(N_G(R)|R)."""
    coprime = sigma.complement_within(G.order)
    separable = G.is_sigma_separable(sigma)
    r_ok = R.is_nilpotent() and coprime.is_sigma_number(R.order)
    hypotheses = (
        ("sigma-separable", separable),
        ("solvable Hall complement", G.find_hall_sigma_subgroup(coprime) is not None),
        ("R nilpotent sigma'-subgroup", r_ok),
    )
    detail = f"R=<{R.generator_label()}> |R|={R.order}"
    if not (separable and r_ok):
        return VerificationReport(
            check="carter-refinement",
            group_name=name,
            sigma=sigma,
            hypotheses=hypotheses,
            lhs=None,
            rhs=None,
            detail=detail,
        )
    # each phi has one vertex class, so the union over the fiber is disjoint
    rows = [
        ReportRow("lhs", f"phi_deg={phi.degree} vertex={_subgroup_label(cls)}", 1)
        for cls in carter_fiber(G, sigma, R)
        for phi in ipi_with_vertex(G, sigma, cls.representative)
    ]
    lhs = len(rows)
    local = ipi_with_normal_vertex(_local_normalizer(G, R), sigma, R)
    rows += [ReportRow("rhs", f"local_phi_deg={phi.degree}", 1) for phi in local]
    weight_count = len(weights_with_first_component(G, coprime, R))
    rows.append(ReportRow("info", "weights with first component R", weight_count))
    return VerificationReport(
        check="carter-refinement",
        group_name=name,
        sigma=sigma,
        hypotheses=hypotheses,
        lhs=lhs,
        rhs=len(local),
        rows=tuple(rows),
        detail=detail,
    )


# --- normalizer counting ---------------------------------------------------------


def check_normalizer_counting(
    G: PermGroup,
    sigma: PrimeSet,
    Q: PermGroup,
    L: PermGroup,
    M: PermGroup,
    phi: Character,
    name: str = "G",
) -> VerificationReport:
    """|Iso(G|Q,phi)| = |Iso(N_G(Q)|Q,phi)| when L,LQ are normal and M is central."""
    coprime = sigma.complement_within(G.order)
    LQ = G.subgroup(tuple(L.generators) + tuple(Q.generators))
    center = G.center()
    hypotheses = (
        ("L normal sigma-subgroup", G.is_normal(L) and sigma.is_sigma_number(L.order)),
        (
            "Q solvable sigma'-subgroup",
            Q.is_solvable() and coprime.is_sigma_number(Q.order),
        ),
        ("LQ normal", G.is_normal(LQ)),
        ("M central inside L", M.is_subset(center) and M.is_subset(L)),
        ("sigma-separable", G.is_sigma_separable(sigma)),
    )
    detail = f"|Q|={Q.order} |L|={L.order} |M|={M.order} phi_deg={phi.degree}"
    if not all(ok for _, ok in hypotheses):
        return VerificationReport(
            check="normalizer-counting",
            group_name=name,
            sigma=sigma,
            hypotheses=hypotheses,
            lhs=None,
            rhs=None,
            detail=detail,
        )
    phi_member = _partial_member_for_character(M, sigma, phi)
    lhs_set = ipi_with_vertex(G, sigma, Q, theta=phi_member)
    rhs_set = ipi_with_normal_vertex(_local_normalizer(G, Q), sigma, Q, theta=phi_member)
    rows = [ReportRow("lhs", f"phi_deg={p.degree}", 1) for p in lhs_set]
    rows += [ReportRow("rhs", f"local_phi_deg={p.degree}", 1) for p in rhs_set]
    return VerificationReport(
        check="normalizer-counting",
        group_name=name,
        sigma=sigma,
        hypotheses=hypotheses,
        lhs=len(lhs_set),
        rhs=len(rhs_set),
        rows=tuple(rows),
        detail=detail,
    )


def _partial_member_for_character(M: PermGroup, sigma: PrimeSet, phi: Character):
    """The member of Iso(M) matching an ordinary character of a sigma-group M."""
    if not sigma.is_sigma_number(M.order):
        raise ValueError("M is not a sigma-group")
    for mu in sigma_partial_characters(M, sigma):
        if all(a == b for a, b in zip(mu.values, phi.values)):
            return mu
    raise ValueError("character not found in Iso(M)")


# --- the canonical bijection ------------------------------------------------------


def sigma_element_power_parts(x: Perm, sigma: PrimeSet):
    """Write x = c * r with c the sigma-part and r the sigma'-part of x."""
    m = x.order()
    ms = sigma_part(m, sigma)
    mc = m // ms
    if ms == 1:
        return Perm.identity(x.degree), x
    if mc == 1:
        return x, Perm.identity(x.degree)
    k = mc * pow(mc, -1, ms)
    return x**k, x ** (1 - k)


def check_canonical_bijection(
    G: PermGroup,
    sigma: PrimeSet,
    N: PermGroup,
    H: PermGroup,
    R: PermGroup,
    name: str = "G",
) -> VerificationReport:
    """The explicit map phi -> (theta* x 1_R)^{N_G(R)}; verified bijective."""
    coprime = sigma.complement_within(G.order)
    hypotheses = (
        (
            "normal Hall sigma-subgroup",
            G.is_normal(N)
            and sigma.is_sigma_number(N.order)
            and N.order == sigma_part(G.order, sigma),
        ),
        (
            "solvable sigma'-complement",
            coprime.is_sigma_number(H.order)
            and H.is_solvable()
            and N.order * H.order == G.order,
        ),
        ("R nilpotent subgroup of complement", R.is_subset(H) and R.is_nilpotent()),
    )
    detail = f"R=<{R.generator_label()}> |R|={R.order}"
    if not all(ok for _, ok in hypotheses):
        return VerificationReport(
            check="canonical-bijection",
            group_name=name,
            sigma=sigma,
            hypotheses=hypotheses,
            lhs=None,
            rhs=None,
            detail=detail,
        )

    # The Q's are the subgroups of H containing R as Carter subgroup, read
    # off the classes of G's Carter fiber. Every class has such a member:
    # by Schur-Zassenhaus a member Q has a conjugate Q^n inside H with n in
    # N, and n centralizes R, since [R, n] lies in H ∩ N = 1.
    h_set = H.element_set()
    with_vertex: dict[tuple, list] = {}
    for phi in sigma_partial_characters(G, sigma):
        with_vertex.setdefault(vertices(phi).canonical_key, []).append(phi)
    domain = [
        (phi, [m for m in carter_members(G, cls, R) if m <= h_set])
        for cls in sorted(carter_fiber(G, sigma, R), key=lambda c: c.canonical_key)
        for phi in with_vertex.get(cls.canonical_key, ())
    ]

    NR = _local_normalizer(G, R)
    target = ipi_with_normal_vertex(NR, sigma, R)
    target_by_values = {phi.values: phi for phi in target}

    n_tab = character_table(N)
    action = GlaubermanAction(N, R)
    C = action.fixed
    CR = G.subgroup(tuple(C.generators) + tuple(R.generators))
    if CR.order != C.order * R.order:
        raise AssertionError(f"C_N(R) meets R nontrivially in a group of order {G.order}")
    images = {}
    well_defined = True
    where = _where(G, sigma)
    for phi, members in domain:
        constituents = [mu for mu, _ in decompose_on_subgroup(phi, N)]
        thetas = {}
        for member in members:
            for theta_char in _invariant_constituents(constituents, member, where):
                thetas[theta_char.values] = theta_char
        candidates = {
            _bijection_image(sigma, action, CR, NR, theta_char, where)
            for theta_char in thetas.values()
        }
        if len(candidates) != 1:
            well_defined = False
            break
        images[phi] = candidates.pop()

    lhs = len(domain)
    rhs = len(target)
    rows = [
        ReportRow("lhs", f"phi_deg={phi.degree} |vertex|={vertices(phi).order}", 1)
        for phi, _ in domain
    ]
    rows += [ReportRow("rhs", f"local_phi_deg={phi.degree}", 1) for phi in target]

    bijective = (
        well_defined
        and len(set(images.values())) == len(images)
        and {psi.values for psi in images.values()} == set(target_by_values)
    )
    lemma_a = _product_decomposition_holds(G, N, H)
    lemma_b = _self_normalizing_stabilizers_hold(H, N, R, NR, action, CR, n_tab)
    rows.append(ReportRow("info", "map well defined", int(well_defined)))
    rows.append(ReportRow("info", "map bijective", int(bijective)))
    rows.append(ReportRow("info", "normalizer product decomposition", int(lemma_a)))
    rows.append(ReportRow("info", "stabilizer self-normalizing check", int(lemma_b)))
    if not (well_defined and bijective and lemma_a and lemma_b):
        # the construction is a proved theorem; a failure here is an engine bug
        return VerificationReport(
            check="canonical-bijection",
            group_name=name,
            sigma=sigma,
            hypotheses=hypotheses,
            lhs=lhs,
            rhs=-1,
            rows=tuple(rows),
            detail=detail + " THEOREM-VIOLATION",
        )
    return VerificationReport(
        check="canonical-bijection",
        group_name=name,
        sigma=sigma,
        hypotheses=hypotheses,
        lhs=lhs,
        rhs=rhs,
        rows=tuple(rows),
        detail=detail,
    )


def _invariant_constituents(constituents: list[Character], member: frozenset, where: str):
    """The constituents of phi on the sigma-group N fixed by every element of
    Q, for Q given by its element set; `where` ends the error (`_where`)."""
    elements = [Perm(x) for x in member]
    out = [theta for theta in constituents if is_invariant_character(theta, elements)]
    if not out:
        raise InternalConsistencyError(f"no invariant constituent over the vertex {where}")
    return out


def _bijection_image(sigma, action, CR, NR, theta_char, where: str):
    """(theta* x 1_R) induced to N_G(R), matched into Iso(N_G(R)); CR is C_N(R) x R."""
    theta_star = glauberman_correspondent(action, theta_char)
    values = []
    for c in CR.conjugacy_classes():
        s_part, _ = sigma_element_power_parts(c.representative, sigma)
        values.append(theta_star(s_part))
    lam = Character(CR, values)
    induced = induce_character(lam, NR)
    if inner_product(induced, induced) != 1:
        raise InternalConsistencyError(f"induced image is not irreducible {where}")
    restriction = tuple(induced.values[i] for i in NR.sigma_class_indices(sigma))
    for psi in sigma_partial_characters(NR, sigma):
        if psi.values == restriction:
            return psi
    raise InternalConsistencyError(f"image does not restrict into Iso(N_G(R)) {where}")


def _product_decomposition_holds(G, N, H) -> bool:
    """N_G(Q) = C_N(Q) N_H(Q) for every subgroup class representative Q of H."""
    for cls in subgroup_classes(H):
        Q = cls.representative
        # |N_X(Q)| is |X| over the length of Q's orbit under X
        ngq = G.order // len(G.subgroup_orbit(Q.element_set()).members)
        cnq = N.centralizer_of_subgroup(Q).order
        nhq = H.order // cls.class_size
        if ngq != cnq * nhq:
            return False
    return True


def _self_normalizing_stabilizers_hold(H, N, R, NR, action, CR, n_tab) -> bool:
    """Stabilizer condition: tau with N_G(R)_tau = C_N(R) x R forces R = N_{H_gamma}(R)."""
    C = action.fixed
    for gamma in n_tab.irreducibles:
        if not is_invariant_character(gamma, R.generators):
            continue
        tau = glauberman_correspondent(action, gamma)
        stab = character_stabilizer(NR, C, tau)
        if stab.element_set() != CR.element_set():
            continue
        H_gamma = character_stabilizer(H, N, gamma)
        # gamma is R-invariant, so R <= H_gamma, and R = N_{H_gamma}(R)
        # exactly when R's orbit under H_gamma has |H_gamma : R| members
        if len(H_gamma.subgroup_orbit(R.element_set()).members) * R.order != H_gamma.order:
            return False
    return True


def bijection_setup(G: PermGroup, sigma: PrimeSet):
    """(N, H) with N the normal Hall sigma-subgroup and H a solvable complement.

    Returns None when G has no normal Hall sigma-subgroup or no solvable
    complement, i.e. when the canonical bijection does not apply.
    """
    N = G.o_sigma(sigma)
    if N.order != sigma_part(G.order, sigma):
        return None
    # N has complements, all isomorphic to G/N (Schur-Zassenhaus). None is
    # solvable unless G/N is, and then the check reads G's full lattice, so
    # it is built first and H is read off it
    if not G.quotient(N)[0].is_solvable():
        return None
    subgroup_classes(G)
    H = G.find_hall_sigma_subgroup(sigma.complement_within(G.order))
    return None if H is None else (N, H)


# --- scanning ------------------------------------------------------------------


def sigma_subsets(G: PermGroup):
    """All subsets of the primes dividing |G|, smallest first."""
    primes = G.primes()
    out = []
    for mask in range(1 << len(primes)):
        out.append(PrimeSet(p for i, p in enumerate(primes) if mask >> i & 1))
    out.sort(key=lambda s: (len(s.primes), s.primes))
    return out


def scan_corpus(corpus):
    """One weight-count report per (group, sigma); deterministic order."""
    reports = []
    for name, G in corpus:
        # one lattice of all solvable subgroups serves every sigma
        solvable_sigma_subgroup_classes(G, PrimeSet(G.primes()))
        reports += [check_weight_count(G, sigma, name) for sigma in sigma_subsets(G)]
    return reports
