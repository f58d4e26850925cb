"""duality: functor actions, compactness, recovery, round trips."""

import pytest

from stonework.bits import bits, mask_of
from stonework.corpus import distributive_lattices_upto, meet_semilattices_upto, posets_upto
from stonework.coverage import (
    named_coverage,
    principal_j_ideal,
    saturate,
    trivial_coverage,
)
from stonework.duality import (
    INVARIANT_TAGS,
    CompactnessInvariant,
    a_on_map,
    b_on_map,
    c_compact_elements,
    check_duality,
    identity_frame_hom,
    irreducible_elements,
    is_c_compact,
    left_adjoint,
    multicomposition_check,
    recover_monotone_from_b,
    supercompact_elements,
)
from stonework.errors import InvalidStructure
from stonework.order import (
    MonotoneMap,
    as_poset,
    lower_sets,
    preorder_from_pairs,
    upper_sets,
)

from oracles import (
    brute_directedly_irreducible,
    brute_indecomposables,
    brute_is_c_compact,
)


def boolean4_poset():
    return as_poset(preorder_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))


class TestAOnMap:
    def test_identity(self, chain2):
        J = saturate(trivial_coverage(chain2))
        h = a_on_map(MonotoneMap(chain2, chain2, [0, 1]), J, J)
        assert h.f == tuple(range(h.dom.n))

    def test_inclusion_chain2_into_chain3_against_oracle(self, chain2, chain3):
        J = saturate(trivial_coverage(chain2))
        K = saturate(trivial_coverage(chain3))
        f = MonotoneMap(chain2, chain3, [0, 2])
        h = a_on_map(f, J, K)
        # oracle: the least ideal containing the image, by direct search
        for i, m in enumerate(h.dom.element_masks):
            img = mask_of(f(c) for c in bits(m))
            best = None
            for cand in h.cod.element_masks:
                if img & ~cand == 0 and (best is None or cand & ~best == 0 or bin(cand).count("1") < bin(best).count("1")):
                    if best is None or (cand & ~best == best & ~cand == 0) or (cand | best == best):
                        best = cand if best is None or (cand | best == best) else best
            least = None
            for cand in h.cod.element_masks:
                if img & ~cand == 0 and (least is None or (cand | least == least)):
                    least = cand
            assert h.cod.element_masks[h.f[i]] == least

    def test_lattice_hom_restricts_to_f_on_principals(self):
        d = boolean4_poset()
        J = saturate(named_coverage(d, "coherent"))
        f = MonotoneMap(d, d, [0, 2, 1, 3])  # swap the atoms
        h = a_on_map(f, J, J)
        fr = h.dom
        fidx = {m: i for i, m in enumerate(fr.element_masks)}
        for c in range(d.n):
            src = fidx[principal_j_ideal(J, c)]
            assert fr.element_masks[h.f[src]] == principal_j_ideal(J, f(c))

    def test_functoriality(self, chain2, chain3):
        J2 = saturate(trivial_coverage(chain2))
        J3 = saturate(trivial_coverage(chain3))
        f = MonotoneMap(chain2, chain3, [0, 2])
        g = MonotoneMap(chain3, chain3, [0, 2, 2])
        lhs = a_on_map(g.compose(f), J2, J3)
        rhs = a_on_map(g, J3, J3).compose(a_on_map(f, J2, J3))
        assert lhs.f == rhs.f

    def test_flatness_required(self, antichain2, chain2):
        J = saturate(trivial_coverage(antichain2))
        K = saturate(trivial_coverage(chain2))
        with pytest.raises(InvalidStructure):
            a_on_map(MonotoneMap(antichain2, chain2, [0, 0]), J, K)


class TestBOnMap:
    def test_identity(self, chain3):
        h = b_on_map(MonotoneMap(chain3, chain3, [0, 1, 2]))
        assert h.f == tuple(range(h.dom.n))

    def test_constant_to_top(self, antichain2, chain2):
        f = MonotoneMap(antichain2, chain2, [1, 1])
        h = b_on_map(f)
        # preimage of an ideal containing the top is everything
        for i, m in enumerate(h.dom.element_masks):
            expect = (1 << antichain2.n) - 1 if (m >> 1) & 1 else 0
            assert h.cod.element_masks[h.f[i]] == expect

    def test_surjection_pointwise(self, chain3, chain2):
        f = MonotoneMap(chain3, chain2, [0, 1, 1])
        h = b_on_map(f)
        for i, m in enumerate(h.dom.element_masks):
            assert h.cod.element_masks[h.f[i]] == f.preimage_mask(m)

    def test_adjoint_recovers_f(self):
        for a in posets_upto(3):
            for b in posets_upto(3):
                for fv in _all_monotone_assignments(a, b):
                    f = MonotoneMap(a, b, fv)
                    h = b_on_map(f)
                    g = recover_monotone_from_b(h, a, b)
                    assert tuple(g.f) == tuple(f.f)

    def test_contravariant_functoriality(self, chain2, chain3):
        f = MonotoneMap(chain2, chain3, [0, 1])
        g = MonotoneMap(chain3, chain3, [0, 0, 2])
        lhs = b_on_map(g.compose(f))
        rhs = b_on_map(f).compose(b_on_map(g))
        assert lhs.f == rhs.f


def _all_monotone_assignments(a, b):
    outs = []

    def rec(i, acc):
        if i == a.n:
            outs.append(tuple(acc))
            return
        for v in range(b.n):
            if all(not a.leq(j, i) or b.leq(acc[j], v) for j in range(i)) and all(
                not a.leq(i, j) or b.leq(v, acc[j]) for j in range(i)
            ):
                rec(i + 1, acc + [v])

    rec(0, [])
    return outs


def oracle_frames():
    """The up-set and down-set frames of every poset with at most 4
    elements, and the distributive lattices with at most 7."""
    frames = [f(p) for p in posets_upto(4) for f in (lower_sets, upper_sets)]
    return frames + distributive_lattices_upto(7)


EVERY_INVARIANT = [
    CompactnessInvariant(tag, k)
    for tag in INVARIANT_TAGS
    for k in ((1, 2, 3) if tag == "CardinalityLT" else (None,))
]


class TestCompactness:
    def test_canonical_cover_matches_antichain_search(self):
        assert len(EVERY_INVARIANT) == 13
        cases = 0
        for fr in oracle_frames():
            for inv in EVERY_INVARIANT:
                for l in range(fr.n):
                    assert is_c_compact(fr, l, inv) == brute_is_c_compact(fr, l, inv), (fr, inv, l)
                    cases += 1
        assert cases == 5993

    def test_irreducible_rules_match_literal_scans(self):
        for fr in oracle_frames():
            assert irreducible_elements(fr, "indecomposable") == brute_indecomposables(fr)
            assert irreducible_elements(fr, "directedly-irreducible") == brute_directedly_irreducible(fr)

    def test_finite_everywhere(self):
        fr = lower_sets(boolean4_poset())
        pos, elems = c_compact_elements(fr, CompactnessInvariant("Finite"))
        assert elems == list(range(fr.n))

    def test_all_everywhere(self):
        fr = lower_sets(preorder_from_pairs(2, []))
        pos, elems = c_compact_elements(fr, CompactnessInvariant("All"))
        assert elems == list(range(fr.n))

    def test_supercompacts_of_boolean4_frame(self, antichain2):
        fr = lower_sets(antichain2)
        scs = supercompact_elements(fr)
        pos, elems = c_compact_elements(fr, CompactnessInvariant("Singleton"))
        assert elems == scs
        # the two principal ideals only; neither bottom nor top
        assert [fr.element_masks[e] for e in elems] == [1, 2]

    def test_supercompact_invariant_matches_brute_force(self):
        for p in posets_upto(4):
            fr = lower_sets(p)
            inv = CompactnessInvariant("Singleton")
            for l in range(fr.n):
                # oracle: every covering family (all subsets) has a member == l
                brute = True
                for m in range(1 << fr.n):
                    fam = [x for x in bits(m) if fr.leq(x, l)]
                    if mask_of(fam) != m:
                        continue
                    if fr.join_set(m) == l and l not in fam:
                        brute = False
                        break
                assert is_c_compact(fr, l, inv) == brute

    def test_cardinality_lt_2_is_supercompact_or_bottom(self):
        for p in posets_upto(4):
            fr = lower_sets(p)
            inv = CompactnessInvariant("CardinalityLT", 2)
            scs = set(supercompact_elements(fr))
            for l in range(fr.n):
                assert is_c_compact(fr, l, inv) == (l in scs or l == fr.bot)

    def test_multicomposition_singleton(self):
        fr = lower_sets(boolean4_poset())
        for l in range(fr.n):
            for tag in ("All", "Finite", "CardinalityLT"):
                inv = CompactnessInvariant(tag, 3 if tag == "CardinalityLT" else None)
                if is_c_compact(fr, l, inv):
                    assert multicomposition_check(fr, inv, [l])

    def test_multicomposition_disjoint_atoms(self, antichain2):
        fr = lower_sets(antichain2)
        inv = CompactnessInvariant("FiniteDisjoint")
        atoms = fr.atoms()
        assert multicomposition_check(fr, inv, atoms)

    def test_multicomposition_all_supercompacts_finite(self):
        for p in posets_upto(3):
            fr = lower_sets(p)
            inv = CompactnessInvariant("Finite")
            scs = supercompact_elements(fr)
            if scs:
                assert multicomposition_check(fr, inv, scs)


class TestLeftAdjoint:
    def test_identity(self):
        fr = lower_sets(boolean4_poset())
        adj = left_adjoint(identity_frame_hom(fr))
        assert adj == tuple(range(fr.n))

    def test_b_on_map_has_adjoint(self, chain3, chain2):
        f = MonotoneMap(chain3, chain2, [0, 0, 1])
        h = b_on_map(f)
        adj = left_adjoint(h)
        # adjoint restricted to principal ideals is f
        g = recover_monotone_from_b(h, chain3, chain2)
        assert tuple(g.f) == (0, 0, 1)
        assert len(adj) == h.cod.n


class TestIrreducibles:
    def test_join_irreducibles_of_chain3(self):
        fr = lower_sets(preorder_from_pairs(2, [(0, 1)]))  # 3-chain
        assert irreducible_elements(fr, "join-irreducible") == [1, 2]

    def test_atoms_of_powerset2(self, antichain2):
        fr = lower_sets(antichain2)
        assert irreducible_elements(fr, "atoms") == [1, 2]

    def test_indecomposables_of_boolean4(self, antichain2):
        fr = lower_sets(antichain2)
        # the top decomposes as the disjoint join of the two atoms
        assert irreducible_elements(fr, "indecomposable") == [1, 2]

    def test_join_irreducible_definitions_agree(self):
        for p in posets_upto(4):
            fr = lower_sets(p)
            assert irreducible_elements(fr, "join-irreducible") == fr.join_irreducibles()

    def test_directedly_irreducible_is_everything_finite(self):
        # finitely, every directed family contains its own join
        fr = lower_sets(boolean4_poset())
        assert irreducible_elements(fr, "directedly-irreducible") == list(range(fr.n))


class TestRoundTrips:
    def test_alexandrov_small(self):
        for p in posets_upto(4):
            rep = check_duality("alexandrov", p)
            assert rep["round_trip_ok"]

    def test_stone_boolean4(self):
        rep = check_duality("stone", boolean4_poset())
        assert rep["round_trip_ok"]

    def test_birkhoff_chain3(self):
        chain3 = as_poset(preorder_from_pairs(3, [(0, 1), (1, 2)]))
        rep = check_duality("birkhoff", chain3)
        assert rep["round_trip_ok"]

    def test_lindenbaum_powerset3(self):
        fr = lower_sets(preorder_from_pairs(3, []))
        rep = check_duality("lindenbaum", fr)
        assert rep["round_trip_ok"]

    def test_lindenbaum_rejects_non_atomic(self):
        fr = lower_sets(preorder_from_pairs(2, [(0, 1)]))  # 3-chain, not atomic
        with pytest.raises(InvalidStructure):
            check_duality("lindenbaum", fr)

    def test_mslat_small(self):
        for m in meet_semilattices_upto(4):
            rep = check_duality("mslat", m)
            assert rep["round_trip_ok"]

    def test_mslatstar_small(self):
        for m in meet_semilattices_upto(4):
            rep = check_duality("mslatstar", m)
            assert rep["round_trip_ok"]

    def test_atomdlat_powerset(self):
        fr = lower_sets(preorder_from_pairs(2, []))
        rep = check_duality("atomdlat", fr)
        assert rep["round_trip_ok"]

    def test_disjunctive_powerset(self):
        fr = lower_sets(preorder_from_pairs(2, []))
        rep = check_duality("disjunctive", fr)
        assert rep["round_trip_ok"]

    def test_disjunctive_chain(self):
        # a chain is a disjunctive frame: every element is indecomposable
        fr = lower_sets(preorder_from_pairs(2, [(0, 1)]))
        rep = check_duality("disjunctive", fr)
        assert rep["round_trip_ok"]
