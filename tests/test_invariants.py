"""invariants: Heyting ops, Boolean/De Morgan/two-valued/GD translations."""


from stonework.bits import bits
from stonework.corpus import (
    all_grothendieck_topologies,
    distributive_lattices_upto,
    meet_semilattices_upto,
    posets_upto,
)
from stonework.coverage import GrothendieckTopology, ideal_frame, named_coverage, saturate, trivial_coverage
from stonework.invariants import (
    alexandrov_demorgan,
    almost_discrete_conditions,
    extremally_disconnected_conditions,
    forest_check,
    godel_dummett_frame,
    godel_dummett_frame_site,
    godel_dummett_site,
    heyting,
    j_closed_sieves,
    mslat_ideal_frame_demorgan,
    two_valued_conditions,
)
from stonework.order import as_poset, lower_sets, preorder_from_pairs

from oracles import scan_collection_cover, scan_complemented_complete, scan_dense_finite_subcover


def boolean4_frame():
    return lower_sets(preorder_from_pairs(2, []))


def chain3_frame():
    return lower_sets(preorder_from_pairs(2, [(0, 1)]))


class TestHeyting:
    def test_boolean4_negation_swaps_atoms(self):
        fr = boolean4_frame()
        h = heyting(fr)
        a, b = fr.atoms()
        assert h.neg[a] == b and h.neg[b] == a
        assert h.neg[h.neg[a]] == a

    def test_chain3_negation(self):
        fr = chain3_frame()
        h = heyting(fr)
        m = [x for x in range(fr.n) if x not in (fr.bot, fr.top)][0]
        assert h.neg[m] == fr.bot
        assert h.neg[h.neg[m]] == fr.top

    def test_neg_bottom_is_top(self):
        for p in posets_upto(3):
            fr = lower_sets(p)
            h = heyting(fr)
            assert h.neg[fr.bot] == fr.top


class TestAlmostDiscrete:
    def test_boolean4_all_true(self):
        conds = almost_discrete_conditions(boolean4_frame())
        assert all(conds.values())

    def test_chain3_all_false(self):
        conds = almost_discrete_conditions(chain3_frame())
        assert not any(conds.values())

    def test_two_element_all_true(self):
        fr = lower_sets(preorder_from_pairs(1, []))
        assert all(almost_discrete_conditions(fr).values())

    def test_agreement_on_corpus(self):
        for d in distributive_lattices_upto(6):
            almost_discrete_conditions(d)  # raises if the five disagree

    def test_theorems_match_the_collection_scans(self):
        for d in distributive_lattices_upto(7):
            conds = almost_discrete_conditions(d)
            assert conds["dense_finite_subcover"] == scan_dense_finite_subcover(d)
            assert conds["complemented_complete"] == scan_complemented_complete(d)


class TestExtremallyDisconnected:
    def test_boolean_algebras_true(self):
        assert all(extremally_disconnected_conditions(boolean4_frame()).values())

    def test_two_element_true(self):
        fr = lower_sets(preorder_from_pairs(1, []))
        assert all(extremally_disconnected_conditions(fr).values())

    def test_negative_witness_exists_and_agrees(self):
        found = False
        for d in distributive_lattices_upto(6):
            conds = extremally_disconnected_conditions(d)
            if not any(conds.values()):
                found = True
        assert found

    def test_agreement_on_corpus(self):
        for d in distributive_lattices_upto(6):
            extremally_disconnected_conditions(d)

    def test_theorem_matches_the_collection_scan(self):
        values = set()
        for d in distributive_lattices_upto(7):
            value = extremally_disconnected_conditions(d)["collection_cover"]
            assert value == scan_collection_cover(d)
            values.add(value)
        assert values == {True, False}


class TestMSLatDeMorgan:
    def test_exhaustive_small(self):
        for m in meet_semilattices_upto(5):
            assert mslat_ideal_frame_demorgan(m)

    def test_singleton(self):
        assert mslat_ideal_frame_demorgan(preorder_from_pairs(1, []))


class TestAlexandrovDeMorgan:
    def test_chain_true(self, chain3):
        frame_side, amal = alexandrov_demorgan(as_poset(chain3))
        assert frame_side and amal

    def test_vee_false(self, vee):
        frame_side, amal = alexandrov_demorgan(as_poset(vee))
        assert not frame_side and not amal

    def test_discrete_two_vacuous(self, antichain2):
        frame_side, amal = alexandrov_demorgan(as_poset(antichain2))
        assert frame_side and amal

    def test_exhaustive_small(self):
        for p in posets_upto(5):
            alexandrov_demorgan(p)  # raises on disagreement


class TestTwoValued:
    def test_dlat(self):
        fr = lower_sets(preorder_from_pairs(1, []))
        assert two_valued_conditions(fr, "dlat") == (True, True)
        assert two_valued_conditions(boolean4_frame(), "dlat") == (False, False)

    def test_mslat_singleton(self):
        m = preorder_from_pairs(1, [])
        assert two_valued_conditions(m, "mslat") == (True, True)

    def test_preorder_strongly_connected(self):
        p = preorder_from_pairs(2, [(0, 1), (1, 0)])
        assert two_valued_conditions(p, "preorder") == (True, True)
        q = preorder_from_pairs(2, [(0, 1)])
        assert two_valued_conditions(q, "preorder") == (False, False)

    def test_exhaustive_small(self):
        for p in posets_upto(4):
            if p.n >= 1:
                two_valued_conditions(p, "preorder")
        for m in meet_semilattices_upto(4):
            two_valued_conditions(m, "mslat")
        for d in distributive_lattices_upto(5):
            two_valued_conditions(d, "dlat")


class TestGodelDummett:
    def test_chains_true(self):
        for k in (1, 2, 3):
            fr = lower_sets(preorder_from_pairs(k, [(i, i + 1) for i in range(k - 1)]))
            assert godel_dummett_frame(fr)

    def test_boolean4_true(self):
        assert godel_dummett_frame(boolean4_frame())

    def test_free_frame_on_two_false(self):
        from stonework.presentations import free_frame_on_set

        fr, gens = free_frame_on_set(2)
        assert not godel_dummett_frame(fr)

    def test_canonical_closed_sieves_are_principal(self):
        for p in posets_upto(3):
            fr = lower_sets(p)
            if fr.n > 8:
                continue
            J = saturate(named_coverage(fr.poset, "canonical"))
            for c in range(fr.n):
                expected = sorted(fr.poset.dn[e] & fr.poset.dn[c] for e in bits(fr.poset.dn[c]))
                assert sorted(j_closed_sieves(J, c)) == sorted(set(expected))

    def test_frame_site_reduction_matches_generic(self):
        for p in posets_upto(3):
            fr = lower_sets(p)
            if fr.n > 8:
                continue
            J = saturate(named_coverage(fr.poset, "canonical"))
            assert godel_dummett_site(J) == godel_dummett_frame_site(fr)

    def test_presheaf_case_is_forest_condition(self):
        # trivial topology: the GD site law equals the upper-forest check
        for p in posets_upto(5):
            J = saturate(trivial_coverage(p))
            assert godel_dummett_site(J) == forest_check(p, "upper"), p

    def test_site_invariance_across_ideal_frame(self):
        for p in posets_upto(3):
            for sieves in all_grothendieck_topologies(p):
                J = GrothendieckTopology(p, sieves, _checked=True)
                fr = ideal_frame(J)
                if fr.n > 8:
                    continue
                assert godel_dummett_site(J) == godel_dummett_frame_site(fr)


class TestForest:
    def test_chain(self, chain3):
        assert forest_check(chain3, "upper")
        assert forest_check(chain3, "lower")

    def test_boolean4_poset_not_forest(self):
        p = boolean4_frame().poset
        assert not forest_check(p, "upper")
        assert not forest_check(p, "lower")

    def test_disjoint_chains(self):
        p = preorder_from_pairs(4, [(0, 1), (2, 3)])
        assert forest_check(p, "upper")


def test_mslat_demorgan_random_size_8():
    import random

    from stonework.corpus import is_meet_semilattice, random_preorder
    from stonework.order import poset_quotient

    rng = random.Random(7)
    found = 0
    while found < 3:
        p, _ = poset_quotient(random_preorder(8, rng))
        if p.n == 8 and is_meet_semilattice(p):
            assert mslat_ideal_frame_demorgan(p)
            found += 1
