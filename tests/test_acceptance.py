"""Acceptance suite: one test per criterion, one pass/fail line each.

Each criterion is checked at its stated scale; tolerances are exact
(every check is discrete).  The whole module stays well under the
five-minute budget.
"""

import json
import random
from functools import reduce
from itertools import product


from stonework.bits import bits, mask_of, popcount, submasks
from stonework.corpus import (
    all_grothendieck_topologies,
    all_preorders,
    distributive_lattices_upto,
    meet_semilattices_upto,
    posets_upto,
    random_site,
)
from stonework.coverage import (
    GrothendieckTopology,
    ideal_frame,
    j_closure,
    named_coverage,
    principal_j_ideal,
    saturate,
    topologies_equal_by_ideals,
    trivial_coverage,
)
from stonework.duality import (
    CompactnessInvariant,
    check_duality,
    c_compact_elements,
)
from stonework.errors import InvalidStructure
from stonework.invariants import (
    alexandrov_demorgan,
    almost_discrete_conditions,
    extremally_disconnected_conditions,
    forest_check,
    godel_dummett_frame_site,
    godel_dummett_site,
    heyting,
    mslat_ideal_frame_demorgan,
    two_valued_conditions,
)
from stonework.order import FiniteFrame, Poset, iso_search, lower_sets, preorder_from_pairs
from stonework.presentations import (
    enumerate_frame_homs,
    extend_filtering,
    free_frame_on_cjsl,
    free_frame_on_jsl,
    free_frame_on_set,
    free_meet_semilattice,
    is_j_filtering,
)
from stonework.spectra import (
    alexandrov_space,
    elemental_space,
    filter_bijection,
    homeomorphism_search,
    is_sober,
    sobrification,
)
from stonework.zariski import (
    power_combination_covers,
    radical_membership,
    ring_product,
    ring_zmod,
    s_monoid,
    spectra_homeomorphism,
    zariski_lattice,
)

from oracles import zariski_coverage


def report(num, text):
    print(f"[PASS] criterion {num}: {text}", flush=True)


def all_topologies(p):
    return [GrothendieckTopology(p, s, _checked=True) for s in all_grothendieck_topologies(p)]


def test_criterion_1_duality_round_trips():
    checked = 0
    for p in posets_upto(5):
        assert check_duality("alexandrov", p)["round_trip_ok"]
        checked += 1
        d = lower_sets(p)
        assert check_duality("stone", d)["round_trip_ok"]
        assert check_duality("birkhoff", d)["round_trip_ok"]
        checked += 2
    for m in meet_semilattices_upto(5):
        assert check_duality("mslat", m)["round_trip_ok"]
        checked += 1
    # atomic finite frames with at most 16 elements are the powersets P(k), k <= 4
    for k in range(5):
        fr = lower_sets(preorder_from_pairs(k, []))
        assert check_duality("lindenbaum", fr)["round_trip_ok"]
        checked += 1
    report(1, f"{checked} round trips, zero failures")


def test_criterion_2_filter_bijection():
    sites = 0
    for p in posets_upto(4):
        for J in all_topologies(p):
            filter_bijection(J)
            sites += 1
    rng = random.Random(20260810)
    for _ in range(200):
        p, J = random_site(6, rng)
        filter_bijection(J)
        sites += 1
    report(2, f"bijection verified on {sites} sites (exhaustive <=4 plus 200 random)")


CLAUSES = [
    ("i", "coherent", None, "Finite", None),
    ("iii", "trivial", None, "Singleton", None),
    ("iv k=2", "k", 2, "CardinalityLT", 2),
    ("iv k=3", "k", 3, "CardinalityLT", 3),
    ("v", "disjunctive", None, "FiniteDisjoint", None),
    ("vi", "atomic", None, "AtomicFinite", None),
    ("vii", "supercompact", None, "SupercompactFinite", None),
]


def test_criterion_3_principal_equals_c_compact():
    counts = {}
    for clause, kind, param, tag, tagparam in CLAUSES:
        inv = CompactnessInvariant(tag, tagparam)
        n_structs = 0
        for p in posets_upto(5):
            try:
                cov = named_coverage(p, kind, param)
            except InvalidStructure:
                continue
            fr = ideal_frame(cov)
            principal = sorted({j_closure(cov, cov.base.dn[c]) for c in range(cov.base.n)})
            _, compact_elems = c_compact_elements(fr, inv)
            compact = sorted(fr.element_masks[e] for e in compact_elems)
            assert principal == compact, (clause, p)
            n_structs += 1
        assert n_structs > 0, clause
        counts[clause] = n_structs
    report(3, "principal = C-compact for clauses " + ", ".join(f"{c} ({n} sites)" for c, n in counts.items()))


def _quotient_frames(fr):
    """Surjective frame homs out of fr, one per nucleus, via the
    meet-and-implication-closed fixed-point subsets."""
    h = heyting(fr)
    out = []
    n = fr.n
    for smask in range(1 << n):
        if not (smask >> fr.top) & 1:
            continue
        elems = list(bits(smask))
        ok = all((smask >> fr.meet[a][b]) & 1 for a in elems for b in elems)
        if ok:
            ok = all((smask >> h.implies[x][s]) & 1 for x in range(n) for s in elems)
        if not ok:
            continue
        # j(x) = least fixed point above x
        j = []
        for x in range(n):
            above = mask_of(s for s in elems if fr.leq(x, s))
            j.append(fr.meet_set(above))
        pos = {e: i for i, e in enumerate(elems)}
        up = [mask_of(pos[b] for b in elems if fr.leq(a, b)) for a in elems]
        meet = [[pos[fr.meet[a][b]] for b in elems] for a in elems]
        join = [[pos[j[fr.join[a][b]]] for b in elems] for a in elems]
        target = FiniteFrame(Poset(len(elems), up), meet, join)
        out.append((target, [pos[j[x]] for x in range(n)]))
    return out


def test_criterion_4_unique_and_existence():
    # uniqueness: distinct topologies on a poset have distinct ideal sets
    pairs = 0
    for p in posets_upto(4):
        topologies = all_topologies(p)
        for i, a in enumerate(topologies):
            for b in topologies[i + 1:]:
                assert not topologies_equal_by_ideals(a, b)
                pairs += 1
        # independent count: existence and uniqueness together say the
        # topologies biject with the frame quotients of the lower sets
        if p.n <= 3:
            assert len(topologies) == len(_quotient_frames(lower_sets(p)))
    # existence: every surjective frame hom target is reconstructed
    from stonework.coverage import subtopology_from_surjection

    rebuilt = 0
    for p in posets_upto(3):
        for J in all_topologies(p):
            fr = ideal_frame(J)
            if fr.n > 8:
                continue
            for target, f in _quotient_frames(fr):
                subtopology_from_surjection(J, target, f)
                rebuilt += 1
    report(4, f"{pairs} topology pairs distinct; {rebuilt} frame surjections reconstructed")


def _frame_targets():
    return [lower_sets(p) for p in posets_upto(3)]


def test_criterion_5_universal_properties():
    targets = _frame_targets()

    # extend_filtering uniqueness on sites with ideal frames of <= 12 elements
    unique_checked = 0
    sites = []
    for p in posets_upto(3):
        sites.extend(all_topologies(p))
    for J in sites:
        fr = ideal_frame(J)
        if fr.n > 12:
            continue
        base = J.base
        fidx = {m: i for i, m in enumerate(fr.element_masks)}
        princ = [fidx[principal_j_ideal(J, c)] for c in range(base.n)]
        for L in targets:
            homs = enumerate_frame_homs(fr, L)
            by_restriction = {}
            for h in homs:
                by_restriction.setdefault(tuple(h[pc] for pc in princ), []).append(h)
            for f in product(range(L.n), repeat=base.n):
                if not is_j_filtering(J, L, f):
                    assert f not in by_restriction, "a non-filtering map extended"
                    continue
                h = extend_filtering(J, L, f)
                assert by_restriction.get(tuple(f)) == [h.f]
                unique_checked += 1

    # free meet-semilattice: every generator assignment extends uniquely;
    # meet-homs are determined by generator images, so assignments
    # enumerate all homs
    fm_checked = 0
    mslat_targets = [t.poset for t in targets]
    for k in (0, 1, 2, 3):
        M = free_meet_semilattice(k)
        for T in mslat_targets:
            t_top = next(i for i in range(T.n) if popcount(T.dn[i]) == T.n)
            t_meet = [[T.glb((1 << a) | (1 << b)) for b in range(T.n)] for a in range(T.n)]
            for vals in product(range(T.n), repeat=k):
                h = []
                for u in range(M.n):
                    acc = t_top
                    for a in bits(u):
                        acc = t_meet[acc][vals[a]]
                    h.append(acc)
                assert h[0] == t_top
                for u in range(M.n):
                    for v in range(M.n):
                        assert h[u | v] == t_meet[h[u]][h[v]]
                fm_checked += 1

    # free frame on a set: generator assignments extend uniquely to frame
    # homs; cross-checked against full hom enumeration for small k
    ff_checked = 0
    for k in (0, 1, 2, 3):
        fr, gens = free_frame_on_set(k)
        for L in targets:
            homs_by_gens = None
            if k <= 2:
                homs_by_gens = {}
                for h in enumerate_frame_homs(fr, L):
                    homs_by_gens.setdefault(tuple(h[g] for g in gens), []).append(h)
            for vals in product(range(L.n), repeat=k):
                h = _extend_from_powerset_generators(fr, gens, L, vals, k)
                _assert_frame_hom(fr, L, h)
                if homs_by_gens is not None:
                    assert homs_by_gens.get(tuple(vals)) == [tuple(h)]
                ff_checked += 1

    # free frame on a (complete) join-semilattice: join-preserving maps
    # extend uniquely; eta is injective (asserted by the constructor)
    cj_checked = 0
    carriers = [p for p in posets_upto(4) if all(p.lub(m) is not None for m in range(1 << p.n))]
    for A in carriers:
        frame, eta = free_frame_on_cjsl(A)
        free_frame_on_jsl(A)  # finitary variant agrees with the topological description
        for L in targets:
            homs_by_eta = {}
            for h in enumerate_frame_homs(frame, L):
                homs_by_eta.setdefault(tuple(h[e] for e in eta), []).append(h)
            for vals in product(range(L.n), repeat=A.n):
                ok = all(
                    L.join_set(mask_of(vals[a] for a in bits(s))) == vals[A.lub(s)]
                    for s in range(1 << A.n)
                )
                if not ok:
                    assert vals not in homs_by_eta
                    continue
                g = tuple(
                    L.join_set(
                        mask_of(
                            _meet_over(L, [vals[a] for a in bits(u)])
                            for u in bits(m)
                        )
                    )
                    for m in frame.element_masks
                )
                assert homs_by_eta.get(vals) == [g]
                cj_checked += 1

    report(
        5,
        f"uniqueness {unique_checked} filtering maps; free mslat {fm_checked}, "
        f"free frame {ff_checked}, free frame on jsl {cj_checked} extensions",
    )


def _meet_over(L, xs):
    acc = L.top
    for x in xs:
        acc = L.meet[acc][x]
    return acc


def _extend_from_powerset_generators(fr, gens, L, vals, k):
    """h(upset) = join over member subsets U of the meet of the generator
    images over U; the generators generate under meets and joins."""
    out = []
    for m in fr.element_masks:
        acc = L.bot
        for u in bits(m):
            acc = L.join[acc][_meet_over(L, [vals[a] for a in bits(u)])]
        out.append(acc)
    return out


def _assert_frame_hom(a, b, f):
    assert f[a.bot] == b.bot and f[a.top] == b.top
    for i in range(a.n):
        for j in range(a.n):
            assert f[a.meet[i][j]] == b.meet[f[i]][f[j]]
            assert f[a.join[i][j]] == b.join[f[i]][f[j]]


def _prime_products(bound):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    out = []

    def rec(start, acc, size):
        for i in range(start, len(primes)):
            q = primes[i]
            if size * q > bound:
                break
            out.append(acc + [q])
            rec(i, acc + [q], size * q)

    rec(0, [], 1)
    return out


def test_criterion_6_zariski():
    for n in range(1, 91):
        spectra_homeomorphism(ring_zmod(n))
    for ps in _prime_products(36):
        ring = reduce(ring_product, (ring_zmod(q) for q in ps[1:]), ring_zmod(ps[0]))
        spectra_homeomorphism(ring)
    triples = 0
    for n in range(1, 31):
        r = ring_zmod(n)
        for a in range(n):
            radical_membership(r, a, [])
            for b1 in range(n):
                radical_membership(r, a, [b1])
                for b2 in range(n):
                    radical_membership(r, a, [b1, b2])
                    triples += 1
    for n in range(1, 91):
        zariski_lattice(ring_zmod(n))
    for n in range(1, 31):
        r = ring_zmod(n)
        po, pi, s = s_monoid(r)
        J = saturate(zariski_coverage(r))
        for x in range(po.n):
            for sieve in [m for m in submasks(po.dn[x]) if po.is_down_closed(m)]:
                assert (sieve in J.sieves[x]) == power_combination_covers(r, s, x, sieve)
    report(6, f"homeomorphisms to n=90 and 35 prime products; {triples} radical triples; "
              "lattice constructions agree to n=90 and saturation oracle to n=30")


def test_criterion_7_logic_translations():
    dlats = distributive_lattices_upto(6)
    for d in dlats:
        almost_discrete_conditions(d)
        extremally_disconnected_conditions(d)
    for m in meet_semilattices_upto(5):
        assert mslat_ideal_frame_demorgan(m)
    for p in posets_upto(5):
        alexandrov_demorgan(p)
    for p in posets_upto(4):
        if p.n >= 1:
            two_valued_conditions(p, "preorder")
    for m in meet_semilattices_upto(4):
        two_valued_conditions(m, "mslat")
    for d in distributive_lattices_upto(5):
        two_valued_conditions(d, "dlat")
    for p in posets_upto(5):
        J = trivial_coverage(p)
        assert godel_dummett_site(saturate(J)) == forest_check(p, "upper")
    invariant_sites = 0
    for p in posets_upto(4):
        for J in all_topologies(p):
            fr = ideal_frame(J)
            assert godel_dummett_site(J) == godel_dummett_frame_site(fr)
            invariant_sites += 1
    report(7, f"{len(dlats)} lattices five/four-way agreement; GD site/frame invariance on {invariant_sites} sites")


def test_criterion_8_spectra():
    for p in posets_upto(4):
        assert is_sober(alexandrov_space(p))
    spaces = [alexandrov_space(q) for q in all_preorders(4)]
    for k in range(4):
        spaces.extend(alexandrov_space(q) for q in all_preorders(k))
    for sp in spaces:
        once = sobrification(sp)
        assert is_sober(once)
        assert homeomorphism_search(once, sobrification(once)) is not None
        if is_sober(sp):
            assert homeomorphism_search(sp, once) is not None
        # discrete iff sober with a basis of atomic opens
        discrete = len(sp.opens) == (1 << sp.n)
        fr = sp.opens_frame()
        atoms = fr.atoms()
        atomic_basis = all(
            fr.join_set(mask_of(a for a in atoms if fr.leq(a, u))) == u for u in range(fr.n)
        )
        assert discrete == (is_sober(sp) and atomic_basis), sp
    for k in range(5):
        fr, gens = free_frame_on_set(k)
        sp = elemental_space(k)
        assert iso_search(fr, sp.opens_frame()) is not None
    report(8, f"sobriety, sobrification, discreteness on {len(spaces)} spaces; "
              "elemental opens match free frames to 4 generators")


def test_criterion_9_determinism(capsys):
    from stonework.cli import main

    args = ["sweep", "--max-poset", "3", "--max-dlat", "4", "--random-sites", "10"]
    code1 = main(list(args))
    out1 = capsys.readouterr().out
    code2 = main(list(args))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["result"]["all_passed"]
    report(9, "sweep output byte-identical across runs")
