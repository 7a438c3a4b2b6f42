"""The aggregated property suite: module invariants plus the lemma checks.

Each property emits one outcome row per instance; failures carry the
witnessing instance. The brute-force oracles (closure order, normalizers,
subgroup enumeration) come from `nilweight.bruteforce`, which works on raw
image tuples and shares no code path with the stabilizer-chain engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import bruteforce
from .chartab import (
    character_stabilizer,
    character_table,
    conjugate_character,
    has_sigma_defect_zero,
    induce_character,
    inner_product,
    is_invariant_character,
    restrict_character,
)
from .groups import PermGroup, memoized
from .lattice import (
    carter_subgroups,
    is_carter_in,
    nilpotent_sigma_subgroup_classes,
    subgroup_classes,
)
from .pipartial import (
    GlaubermanAction,
    clifford_correspondent,
    decompose_on_subgroup,
    enumerate_weights,
    glauberman_correspondent,
    glauberman_map,
    induced_partial_values,
    ipi_with_vertex,
    sigma_partial_characters,
    vertices,
)
from .sigma import is_prime, sigma_part
from .verify import (
    HOLDS,
    bijection_setup,
    check_canonical_bijection,
    check_carter_refinement,
    check_normalizer_counting,
    check_weight_count,
    sigma_subsets,
)

# the largest group orders the suite checks with each kind of property
BRUTE_MAX_ORDER = 200
LATTICE_BRUTE_MAX_ORDER = 500
HEAVY_MAX_ORDER = 150
LEMMA_MAX_ORDER = 40
NORMALIZER_COUNTING_MAX_ORDER = 60
FROBENIUS_SAMPLES = 100


@dataclass(frozen=True)
class PropertyOutcome:
    prop: str
    instance: str
    ok: bool
    note: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        note = f" ({self.note})" if self.note else ""
        return f"{status}  {self.prop}  {self.instance}{note}"


@dataclass
class PropertyReport:
    outcomes: list[PropertyOutcome]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def failures(self) -> list[PropertyOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def by_property(self) -> dict[str, tuple[int, int]]:
        stats: dict[str, list[int]] = {}
        for o in self.outcomes:
            entry = stats.setdefault(o.prop, [0, 0])
            entry[o.ok] += 1
        return {k: (v[1], v[0]) for k, v in stats.items()}  # (passed, failed)


# --- individual properties -------------------------------------------------


def _prop_order_certificate(corpus):
    for name, G in corpus:
        brute = len(bruteforce.closure([g.images for g in G.generators], G.degree))
        yield PropertyOutcome(
            "order-certificate", name, brute == G.order, f"brute={brute} chain={G.order}"
        )


def _prop_class_equation(corpus):
    for name, G in corpus:
        ok = sum(c.size for c in G.conjugacy_classes()) == G.order
        for c in G.conjugacy_classes():
            ok = ok and c.size * G.centralizer(c.representative).order == G.order
        yield PropertyOutcome("class-equation", name, ok)


def _prop_normalizer_sandwich(corpus):
    for name, G in corpus:
        ok = True
        for cls in subgroup_classes(G):
            H = cls.representative
            N = G.normalizer(H)
            if not (H.is_subset(N) and N.is_subset(G)):
                ok = False
                break
            brute = bruteforce.normalizer(G.element_set(), H.element_set())
            if brute != N.element_set():
                ok = False
                break
        yield PropertyOutcome("normalizer-sandwich", name, ok)


def _prop_subgroup_completeness(corpus):
    for name, G in corpus:
        brute = bruteforce.all_subgroups(G.element_set(), G.degree)
        classes = subgroup_classes(G)
        total = sum(c.class_size for c in classes)
        by_conjugacy = {G.subgroup_orbit(H).canonical_key for H in brute}
        ok = total == len(brute) and len(by_conjugacy) == len(classes)
        yield PropertyOutcome(
            "subgroup-completeness",
            name,
            ok,
            f"brute={len(brute)} classes={len(classes)}",
        )


def _prop_hall(corpus):
    for name, G in corpus:
        for sigma in sigma_subsets(G):
            target = sigma_part(G.order, sigma)
            hall_classes = [c for c in subgroup_classes(G) if c.order == target]
            if hall_classes:
                # a Hall subgroup is found exactly when some Hall class is
                # solvable, and it is a member of such a class
                H = G.find_hall_sigma_subgroup(sigma)
                solvable = [
                    G.subgroup_orbit(c.representative.element_set()).members
                    for c in hall_classes
                    if c.is_solvable()
                ]
                if H is None:
                    ok = not solvable
                else:
                    ok = any(H.element_set() in members for members in solvable)
                yield PropertyOutcome("hall-consistency", f"{name} sigma={sigma}", ok)
            if G.is_sigma_separable(sigma):
                yield PropertyOutcome(
                    "hall-conjugacy",
                    f"{name} sigma={sigma}",
                    len(hall_classes) == 1,
                    f"classes of Hall order: {len(hall_classes)}",
                )


def _prop_o_sigma(corpus):
    for name, G in corpus:
        normals = G.normal_subgroups()
        # cross-check the normal-subgroup search against the lattice
        lattice_normals = {
            cls.representative.element_set()
            for cls in subgroup_classes(G)
            if cls.class_size == 1
        }
        yield PropertyOutcome("normal-subgroup-search", name, set(normals) == lattice_normals)
        for sigma in sigma_subsets(G):
            O = G.o_sigma(sigma)
            ok = G.is_normal(O) and sigma.is_sigma_number(O.order)
            for n_set in normals:
                if sigma.is_sigma_number(len(n_set)):
                    ok = ok and n_set <= O.element_set()
            yield PropertyOutcome("o-sigma-maximal", f"{name} sigma={sigma}", ok)


def _prop_carter(corpus):
    for name, G in corpus:
        if not G.is_solvable():
            continue
        cls = carter_subgroups(G)
        R = cls.representative
        r_set = R.element_set()
        ok = R.is_nilpotent() and G.normalizer_elements(r_set)[0] == r_set
        yield PropertyOutcome("carter-uniqueness", name, ok, f"|C|={cls.order}")


def _prop_carter_lifting(corpus):
    """R Carter in Q iff RK/K Carter in Q/K, for K = O_{sigma'}(G), N_K(R) <= R."""
    for name, G in corpus:
        if not G.is_solvable():
            continue
        for sigma in sigma_subsets(G):
            coprime = sigma.complement_within(G.order)
            K = G.o_sigma(coprime)
            if K.order == 1 or K.order == G.order:
                continue
            quo, proj = G.quotient(K)
            checked = 0
            ok = True
            for cls in subgroup_classes(G):
                if not coprime.is_sigma_number(cls.order):
                    continue
                Q = cls.representative
                if not K.is_subset(Q):
                    continue
                q_img = quo.subgroup([proj(g) for g in Q.generators])
                for rcls in subgroup_classes(Q):
                    R = rcls.representative
                    if not R.is_nilpotent():
                        continue
                    # N_K(R) holds K ∩ R, and lies in R exactly when it has no more elements
                    r_set = R.element_set()
                    nk_r = K.order // len(K.subgroup_orbit(r_set).members)
                    if nk_r != len(K.element_set() & r_set):
                        continue
                    r_img = quo.subgroup([proj(g) for g in R.generators])
                    lifted = is_carter_in(R, Q)
                    dropped = is_carter_in(r_img, q_img)
                    if lifted != dropped:
                        ok = False
                    checked += 1
            if checked:
                yield PropertyOutcome(
                    "carter-lifting", f"{name} sigma={sigma}", ok, f"{checked} pairs"
                )


@memoized()
def _alt_series_choice(S: PermGroup) -> PermGroup:
    """The smallest prime-index normal subgroup (the default picks the largest)."""
    return S._generated(next(T for T in S.normal_subgroups() if is_prime(S.order // len(T))))


def _prop_table_invariants(corpus):
    for name, G in corpus:
        tab = character_table(G)
        try:
            tab.verify()
            ok = True
        except AssertionError:
            ok = False
        yield PropertyOutcome("character-table-invariants", name, ok)


def _prop_frobenius(corpus, samples, seed):
    rng = random.Random(seed)
    for name, G in corpus:
        tab = character_table(G)
        classes = list(subgroup_classes(G))
        ok = True
        for _ in range(samples):
            H = rng.choice(classes).representative
            sub = character_table(H)
            theta = rng.choice(sub.irreducibles)
            chi = rng.choice(tab.irreducibles)
            lhs = inner_product(induce_character(theta, G), chi)
            rhs = inner_product(theta, restrict_character(chi, H))
            if lhs != rhs:
                ok = False
                break
        yield PropertyOutcome("frobenius-reciprocity", name, ok, f"{samples} samples")


def _prop_defect_zero_radical(corpus):
    for name, G in corpus:
        tab = character_table(G)
        for sigma in sigma_subsets(G):
            if not sigma.primes:
                continue
            has_dz = any(has_sigma_defect_zero(chi, sigma) for chi in tab.irreducibles)
            o_trivial = len(G.o_sigma_elements(sigma)) == 1
            # defect zero forces a trivial radical (not conversely)
            yield PropertyOutcome(
                "defect-zero-radical",
                f"{name} sigma={sigma}",
                (not has_dz) or o_trivial,
                f"defect_zero={has_dz} O_sigma=1:{o_trivial}",
            )


def _prop_ipi_count(corpus):
    for name, G in corpus:
        for sigma in sigma_subsets(G):
            if not G.is_sigma_separable(sigma):
                continue
            n = len(sigma_partial_characters(G, sigma))
            want = len(G.sigma_element_classes(sigma))
            yield PropertyOutcome(
                "ipi-count", f"{name} sigma={sigma}", n == want, f"{n} vs {want}"
            )


def _prop_vertex_degree_law(corpus):
    for name, G in corpus:
        for sigma in sigma_subsets(G):
            if not G.is_sigma_separable(sigma):
                continue
            coprime = sigma.complement_within(G.order)
            ok = True
            for phi in sigma_partial_characters(G, sigma):
                cls = vertices(phi)
                if coprime.part(phi.degree) != coprime.part(G.order // cls.order):
                    ok = False
            yield PropertyOutcome("vertex-degree-law", f"{name} sigma={sigma}", ok)


def _prop_clifford_roundtrip(corpus):
    for name, G in corpus:
        normals = [G._generated(N) for N in G.normal_subgroups()[1:-1][:3]]  # proper ones
        for sigma in sigma_subsets(G):
            if not G.is_sigma_separable(sigma) or not sigma.primes:
                continue
            checked = 0
            ok = True
            for N in normals:
                for phi in sigma_partial_characters(G, sigma):
                    theta = decompose_on_subgroup(phi, N)[0][0]
                    mu, T = clifford_correspondent(phi, N, theta)
                    if induced_partial_values(mu, G) != phi.values:
                        ok = False
                    checked += 1
            if checked:
                yield PropertyOutcome(
                    "clifford-roundtrip", f"{name} sigma={sigma}", ok, f"{checked} cases"
                )


def _glauberman_actions(corpus):
    """Coprime solvable actions harvested from normal-Hall decompositions."""
    for name, G in corpus:
        for sigma in sigma_subsets(G):
            if not sigma.primes:
                continue
            setup = bijection_setup(G, sigma)
            if setup is None:
                continue
            N, H = setup
            if N.order == 1 or H.order == 1:
                continue
            for cls in subgroup_classes(H):
                if cls.order == 1:
                    continue
                S = cls.representative
                yield f"{name} sigma={sigma} |S|={S.order}", G, N, S


def _prop_glauberman(corpus):
    seen = set()
    for label, G, N, S in _glauberman_actions(corpus):
        key = (id(G), N.element_set(), S.element_set())
        if key in seen:
            continue
        seen.add(key)
        action = GlaubermanAction(N, S)
        try:
            pairs = glauberman_map(action)
            ok = True
        except AssertionError:
            ok = False
            pairs = []
        yield PropertyOutcome("glauberman-bijective", label, ok, f"{len(pairs)} chars")
        if not ok:
            continue
        # series independence: a different maximal normal subgroup at every
        # level of the descent must give the same correspondents
        ok_series = all(
            glauberman_correspondent(action, chi, _alt_series_choice).values
            == img.values
            for chi, img in pairs
        )
        yield PropertyOutcome("glauberman-series-independence", label, ok_series)
        # equivariance of the T-correspondence under the S-action
        for t_set in S.normal_subgroups()[1:-1]:  # the proper nontrivial ones
            T = S._generated(t_set)
            t_action = GlaubermanAction(N, T)
            C_T = t_action.fixed
            ok_eq = True
            for chi in character_table(N).irreducibles:
                if not is_invariant_character(chi, T.generators):
                    continue
                img = glauberman_correspondent(t_action, chi)
                for s in S.generators:
                    lhs = glauberman_correspondent(
                        t_action, conjugate_character(chi, s, N)
                    )
                    rhs = conjugate_character(img, s, C_T)
                    if lhs.values != rhs.values:
                        ok_eq = False
            yield PropertyOutcome(
                "glauberman-equivariance", f"{label} |T|={T.order}", ok_eq
            )


def _prop_lemma_intersection_counts(corpus):
    """|Iso(G|Q,tau)| = sum over orbit reps U of |Iso(G_tau|U,tau)|."""
    for name, G in corpus:
        normals = [G._generated(N) for N in G.normal_subgroups()[1:-1][:2]]  # proper ones
        for sigma in sigma_subsets(G):
            if not sigma.primes or not G.is_sigma_separable(sigma):
                continue
            coprime = sigma.complement_within(G.order)
            instances = 0
            ok = True
            for N in normals:
                q_classes = [
                    c
                    for c in subgroup_classes(G)
                    if 1 < c.order and coprime.is_sigma_number(c.order)
                ]
                for cls in q_classes[:3]:
                    Q = cls.representative
                    for tau in sigma_partial_characters(N, sigma):
                        if not is_invariant_character(tau, Q.generators):
                            continue
                        lhs = len(ipi_with_vertex(G, sigma, Q, theta=tau))
                        T = character_stabilizer(G, N, tau)
                        rhs = 0
                        t_set = T.element_set()
                        reps = {}  # one member of each T-orbit inside T
                        for conj_set in G.subgroup_orbit(Q.element_set()).members:
                            if conj_set <= t_set:
                                key = T.subgroup_orbit(conj_set).canonical_key
                                reps.setdefault(key, conj_set)
                        for conj_set in reps.values():
                            U = T._generated(conj_set)
                            rhs += len(ipi_with_vertex(T, sigma, U, theta=tau))
                        if lhs != rhs:
                            ok = False
                        instances += 1
                        # simplified form when G_tau N_G(Q) = G
                        nq_set, _ = G.normalizer_elements(Q.element_set())
                        inter = len(nq_set & T.element_set())
                        if T.order * len(nq_set) // inter == G.order:
                            q_in_t = T.subgroup(Q.generators) if all(
                                T.contains(g) for g in Q.generators
                            ) else None
                            if q_in_t is not None:
                                simple = len(
                                    ipi_with_vertex(T, sigma, q_in_t, theta=tau)
                                )
                                if lhs != simple:
                                    ok = False
            if instances:
                yield PropertyOutcome(
                    "clifford-vertex-orbit-count",
                    f"{name} sigma={sigma}",
                    ok,
                    f"{instances} instances",
                )


def _prop_normalizer_counting(corpus):
    """|Iso(G|Q,phi)| = |Iso(N_G(Q)|Q,phi)| in the normal-LQ situation."""
    for name, G in corpus:
        center = G.center()
        for sigma in sigma_subsets(G):
            if not sigma.primes or not G.is_sigma_separable(sigma):
                continue
            coprime = sigma.complement_within(G.order)
            L = G.o_sigma(sigma)
            zl_gens = [g for g in center.generators if L.contains(g)]
            m_options = [G.subgroup([])]
            if zl_gens:
                ZL = G.subgroup(zl_gens)
                if ZL.order > 1 and ZL.is_subset(L):
                    m_options.append(ZL)
            checked = 0
            ok = True
            for cls in subgroup_classes(G):
                if not coprime.is_sigma_number(cls.order):
                    continue
                Q = cls.representative
                if not Q.is_solvable():
                    continue
                LQ = G.subgroup(tuple(L.generators) + tuple(Q.generators))
                if not G.is_normal(LQ):
                    continue
                for M in m_options:
                    for phi in character_table(M).irreducibles:
                        rep = check_normalizer_counting(G, sigma, Q, L, M, phi, name)
                        if rep.hypotheses_met and rep.verdict != HOLDS:
                            ok = False
                        if rep.hypotheses_met:
                            checked += 1
            if checked:
                yield PropertyOutcome(
                    "normalizer-counting",
                    f"{name} sigma={sigma}",
                    ok,
                    f"{checked} instances",
                )


def _prop_weight_count(corpus):
    for name, G in corpus:
        for sigma in sigma_subsets(G):
            rep = check_weight_count(G, sigma, name)
            if rep.hypotheses_met:
                yield PropertyOutcome(
                    "weight-count-theorem",
                    f"{name} sigma={sigma}",
                    rep.verdict == HOLDS,
                    f"lhs={rep.lhs} rhs={rep.rhs}",
                )


def _prop_carter_refinement(corpus):
    for name, G in corpus:
        for sigma in sigma_subsets(G):
            coprime = sigma.complement_within(G.order)
            if not (
                G.is_sigma_separable(sigma)
                and G.find_hall_sigma_subgroup(coprime) is not None
            ):
                continue
            lhs_total = rhs_total = 0
            ok = True
            for cls in nilpotent_sigma_subgroup_classes(G, coprime):
                rep = check_carter_refinement(G, sigma, cls.representative, name)
                if rep.verdict != HOLDS:
                    ok = False
                info = [r.count for r in rep.rows if r.side == "info"]
                if info and info[0] != rep.rhs:
                    ok = False  # weight link: |Iso(N(R)|R)| = #weights at R
                lhs_total += rep.lhs or 0
                rhs_total += rep.rhs or 0
            n_ipi = len(sigma_partial_characters(G, sigma))
            n_weights = len(enumerate_weights(G, coprime))
            agg = lhs_total == n_ipi and rhs_total == n_weights
            yield PropertyOutcome(
                "carter-refinement-theorem", f"{name} sigma={sigma}", ok
            )
            yield PropertyOutcome(
                "refinement-aggregation",
                f"{name} sigma={sigma}",
                agg,
                f"lhs_total={lhs_total} |Iso|={n_ipi} rhs_total={rhs_total} weights={n_weights}",
            )


def _prop_canonical_bijection(corpus):
    for name, G in corpus:
        for sigma in sigma_subsets(G):
            if not sigma.primes:
                continue
            setup = bijection_setup(G, sigma)
            if setup is None:
                continue
            N, H = setup
            if H.order == 1:
                continue
            for cls in subgroup_classes(H):
                if not cls.is_nilpotent():
                    continue
                rep = check_canonical_bijection(G, sigma, N, H, cls.representative, name)
                yield PropertyOutcome(
                    "canonical-bijection",
                    f"{name} sigma={sigma} |R|={cls.order}",
                    rep.verdict == HOLDS,
                    f"size={rep.lhs}",
                )


def _up_to(corpus, bound: int) -> list:
    return [(name, G) for name, G in corpus if G.order <= bound]


def run_property_suite(corpus, seed: int = 0) -> PropertyReport:
    """Run every property over the corpus; failures become report rows.

    Each bounded property gets the corpus cut once at its bound."""
    brute = _up_to(corpus, BRUTE_MAX_ORDER)
    lattice_brute = _up_to(corpus, LATTICE_BRUTE_MAX_ORDER)
    heavy = _up_to(corpus, HEAVY_MAX_ORDER)
    outcomes: list[PropertyOutcome] = []
    outcomes += _prop_order_certificate(brute)
    outcomes += _prop_class_equation(corpus)
    outcomes += _prop_normalizer_sandwich(lattice_brute)
    outcomes += _prop_subgroup_completeness(lattice_brute)
    outcomes += _prop_hall(corpus)
    outcomes += _prop_o_sigma(lattice_brute)
    outcomes += _prop_carter(corpus)
    outcomes += _prop_carter_lifting(corpus)
    outcomes += _prop_table_invariants(corpus)
    outcomes += _prop_frobenius(corpus, FROBENIUS_SAMPLES, seed)
    outcomes += _prop_defect_zero_radical(corpus)
    outcomes += _prop_ipi_count(corpus)
    outcomes += _prop_vertex_degree_law(heavy)
    outcomes += _prop_clifford_roundtrip(heavy)
    outcomes += _prop_glauberman(heavy)
    outcomes += _prop_lemma_intersection_counts(_up_to(corpus, LEMMA_MAX_ORDER))
    outcomes += _prop_normalizer_counting(_up_to(corpus, NORMALIZER_COUNTING_MAX_ORDER))
    outcomes += _prop_weight_count(corpus)
    outcomes += _prop_carter_refinement(heavy)
    outcomes += _prop_canonical_bijection(heavy)
    return PropertyReport(outcomes)
