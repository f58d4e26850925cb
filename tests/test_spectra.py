"""spectra: filters, bijection, subterminal spaces, sobriety, Alexandrov."""

import pytest

from stonework.bits import bits, mask_of
from stonework.corpus import all_grothendieck_topologies, posets_upto, random_site
from stonework.coverage import GrothendieckTopology, named_coverage, saturate, trivial_coverage
from stonework.errors import CheckFailed, InvalidStructure
from stonework.order import MonotoneMap, as_poset, iso_search, lower_sets, preorder_from_pairs
from stonework.spectra import (
    TopSpace,
    alexandrov_space,
    completely_prime_filters,
    elemental_space,
    enough_points,
    filter_bijection,
    gamma_subterminal_space,
    homeomorphism_search,
    induced_map,
    is_sober,
    j_prime_filters,
    sobrification,
    specialization_order,
    subterminal_space,
)

from oracles import (
    brute_completely_prime_filters,
    brute_j_prime_filters,
    frame_enough_points,
    frame_subterminal_space,
)


def boolean4():
    return as_poset(preorder_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))


class TestJPrimeFilters:
    def test_chain2_trivial(self, chain2):
        J = saturate(trivial_coverage(chain2))
        assert j_prime_filters(J) == [0b10, 0b11]

    def test_boolean4_coherent_two_primes(self):
        J = saturate(named_coverage(boolean4(), "coherent"))
        fs = j_prime_filters(J)
        # exactly the two ultrafilters up(a) and up(b)
        p = boolean4()
        assert fs == sorted([p.up[1], p.up[2]])

    def test_single_point(self):
        p = preorder_from_pairs(1, [])
        J = saturate(trivial_coverage(p))
        assert j_prime_filters(J) == [0b1]

    def test_coverage_and_saturation_agree(self):
        # both against the 2**n scan, on random coverages of every
        # preorder up to 4 elements and on random sites up to 7
        import random

        from stonework.corpus import all_preorders, random_coverage, random_preorder

        for n in range(5):
            for q in all_preorders(n):
                for seed in range(20):
                    cov = random_coverage(q, random.Random(seed))
                    expected = brute_j_prime_filters(cov)
                    assert j_prime_filters(cov) == expected
                    assert j_prime_filters(saturate(cov)) == expected
                    assert brute_j_prime_filters(saturate(cov)) == expected
        for seed in range(100):
            rng = random.Random(seed)
            p = random_preorder(rng.randint(1, 7), rng)
            cov = random_coverage(p, rng)
            _, J = random_site(7, random.Random(seed))
            assert j_prime_filters(cov) == j_prime_filters(J) == brute_j_prime_filters(J)

    def test_filters_of_j_d_are_up_sets_of_d(self):
        from stonework.corpus import all_preorders
        from stonework.coverage import GrothendieckTopology, all_sieves, j_d_sieves

        for n in range(5):
            for p in all_preorders(n):
                sieves = [all_sieves(p, c) for c in range(n)]
                for dmask in range(1 << n):
                    if any(p.up[d] & p.dn[d] & ~dmask for d in bits(dmask)):
                        continue  # not a union of classes
                    J = GrothendieckTopology(p, j_d_sieves(p, dmask, sieves))
                    expected = sorted({p.up[d] for d in bits(dmask)})
                    assert j_prime_filters(J) == expected
                    assert brute_j_prime_filters(J) == expected


class TestCompletelyPrime:
    def test_chain3(self):
        fr = lower_sets(preorder_from_pairs(2, [(0, 1)]))
        # two filters: up(m) and up(1)
        assert len(completely_prime_filters(fr)) == 2

    def test_two_element_frame(self):
        fr = lower_sets(preorder_from_pairs(0, []))
        assert len(completely_prime_filters(fr)) == 0 or fr.n == 1
        fr = lower_sets(preorder_from_pairs(1, []))
        assert len(completely_prime_filters(fr)) == 1

    def test_boolean4_two(self, antichain2):
        fr = lower_sets(antichain2)
        assert len(completely_prime_filters(fr)) == 2

    def test_matches_brute_force(self):
        for p in posets_upto(4):
            fr = lower_sets(p)
            assert sorted(completely_prime_filters(fr)) == brute_completely_prime_filters(fr)


class TestFilterBijection:
    def test_exhaustive_small(self):
        for p in posets_upto(3):
            for J in all_grothendieck_topologies(p):
                from stonework.coverage import GrothendieckTopology

                topo = GrothendieckTopology(p, J, _checked=True)
                pairs, fr, jps = filter_bijection(topo)
                assert len(pairs) == len(jps)

    def test_random_sites(self):
        import random

        for seed in range(40):
            p, J = random_site(5, random.Random(seed))
            filter_bijection(J)

    def test_meet_semilattice_case(self):
        # filters on M biject with completely prime filters on Id(M)
        from stonework.corpus import meet_semilattices_upto

        for m in meet_semilattices_upto(4):
            J = saturate(trivial_coverage(m))
            pairs, fr, jps = filter_bijection(J)
            # J-prime filters for the trivial topology are plain filters
            for F in jps:
                assert all((F >> x) & 1 for x in [m.glb((1 << a) | (1 << b)) for a in bits(F) for b in bits(F)])


class TestSubterminalSpace:
    def test_stone_space_of_boolean4(self):
        J = saturate(named_coverage(boolean4(), "coherent"))
        sp = subterminal_space(J)
        assert sp.n == 2
        # discrete two-point space
        assert sp.opens == frozenset([0b00, 0b01, 0b10, 0b11])

    def test_single_point_site(self):
        p = preorder_from_pairs(1, [])
        sp = subterminal_space(saturate(trivial_coverage(p)))
        assert sp.n == 1 and sp.opens == frozenset([0, 1])

    def test_sobrification_of_alexandrov_via_op_site(self, chain2):
        # subterminal space on (P^op, trivial) is the sobrification of the
        # Alexandrov space of P; finitely both are homeomorphic to it
        sp = subterminal_space(saturate(trivial_coverage(chain2.op())))
        al = alexandrov_space(chain2)
        assert homeomorphism_search(sp, sobrification(al)) is not None

    def test_opens_frame_isomorphic_to_ideals_when_separated(self):
        import random

        from stonework.coverage import ideal_frame

        for seed in range(25):
            p, J = random_site(4, random.Random(seed))
            fr = ideal_frame(J)
            sp = subterminal_space(J)
            filters = j_prime_filters(J)
            ext = [mask_of(i for i, F in enumerate(filters) if F & m) for m in fr.element_masks]
            separated = len(set(ext)) == fr.n
            frame_iso = iso_search(sp.opens_frame(), fr) is not None
            assert frame_iso == separated


class TestFrameFreeSpace:
    """subterminal_space and enough_points read only the J-ideals; the
    same space built from the ideal frame is the oracle."""

    @staticmethod
    def _agree(J):
        sp = subterminal_space(J)
        sp._check()
        oracle = frame_subterminal_space(J)
        assert sp == oracle and sp.labels == oracle.labels
        assert enough_points(J) == frame_enough_points(J)

    def test_every_topology_on_five_element_posets(self):
        count = 0
        for p in posets_upto(5):
            if p.n != 5:
                continue
            for s in all_grothendieck_topologies(p):
                self._agree(GrothendieckTopology(p, s, _checked=True))
                count += 1
        assert count == 63 * 2 ** 5

    def test_random_sites_on_up_to_six_elements(self):
        import random

        rng = random.Random(17)
        for _ in range(150):
            p, J = random_site(6, rng)
            self._agree(J)

    @pytest.mark.parametrize("planted", [[0, 0b001, 0b010, 0b111], [0, 0b011, 0b110, 0b111]],
                             ids=["no-union", "no-intersection"])
    def test_planted_non_topology_refused(self, planted):
        # on the 3-antichain the filters are the singletons, so each
        # "ideal" planted in the site's cache is its own open; neither
        # family is a topology
        J = saturate(trivial_coverage(preorder_from_pairs(3, [])))
        assert j_prime_filters(J) == [0b001, 0b010, 0b100]
        with pytest.raises(InvalidStructure):
            TopSpace(3, planted)
        J._ideals = planted
        with pytest.raises(CheckFailed, match="does not generate"):
            subterminal_space(J)


class TestGammaSubterminal:
    def test_full_frame_is_subterminal_space(self):
        J = saturate(named_coverage(boolean4(), "coherent"))
        from stonework.coverage import ideal_frame

        fr = ideal_frame(J)
        sp1 = gamma_subterminal_space(J, range(fr.n))
        sp2 = subterminal_space(J)
        assert sp1.opens == sp2.opens

    def test_bounds_only_gives_indiscrete(self):
        J = saturate(named_coverage(boolean4(), "coherent"))
        from stonework.coverage import ideal_frame

        fr = ideal_frame(J)
        sp = gamma_subterminal_space(J, [fr.bot, fr.top])
        assert sp.opens == frozenset([0, (1 << sp.n) - 1])

    def test_proper_subframe_coarser(self, chain3):
        J = saturate(trivial_coverage(chain3))
        from stonework.coverage import ideal_frame

        fr = ideal_frame(J)  # 4-chain
        # subframe dropping one middle element
        keep = [fr.bot, fr.top] + [i for i in range(fr.n) if i not in (fr.bot, fr.top)][:1]
        sp = gamma_subterminal_space(J, keep)
        full = subterminal_space(J)
        assert sp.opens < full.opens

    def test_rejects_non_subframe(self, chain3):
        J = saturate(trivial_coverage(chain3))
        from stonework.coverage import ideal_frame

        fr = ideal_frame(J)
        middles = [i for i in range(fr.n) if i not in (fr.bot, fr.top)]
        with pytest.raises(InvalidStructure):
            gamma_subterminal_space(J, middles)


class TestInducedMap:
    def test_identity(self, chain2):
        J = saturate(trivial_coverage(chain2))
        src, dst, assign = induced_map(MonotoneMap(chain2, chain2, [0, 1]), J, J)
        assert assign == tuple(range(src.n))

    def test_mslat_hom_preimage(self, chain3, chain2):
        J3 = saturate(trivial_coverage(chain3))
        J2 = saturate(trivial_coverage(chain2))
        f = MonotoneMap(chain2, chain3, [0, 2])
        src, dst, assign = induced_map(f, J2, J3)
        k_filters = j_prime_filters(J3)
        j_filters = j_prime_filters(J2)
        for i, F in enumerate(k_filters):
            assert j_filters[assign[i]] == f.preimage_mask(F)

    def test_dlat_hom_stone_dual(self):
        d = boolean4()
        J = saturate(named_coverage(d, "coherent"))
        f = MonotoneMap(d, d, [0, 2, 1, 3])
        src, dst, assign = induced_map(f, J, J)
        assert sorted(assign) == [0, 1]  # swaps the two points


class TestSobriety:
    def test_finite_alexandrov_of_poset_sober(self):
        for p in posets_upto(4):
            assert is_sober(alexandrov_space(p))

    def test_indiscrete_two_points_not_sober(self):
        sp = TopSpace(2, [0b00, 0b11])
        assert not is_sober(sp)

    def test_one_point_sober(self):
        assert is_sober(TopSpace(1, [0, 1]))

    def test_sobrification_idempotent_and_fixes_sober(self):
        import random

        spaces = [alexandrov_space(p) for p in posets_upto(3)]
        spaces.append(TopSpace(2, [0b00, 0b11]))
        spaces.append(TopSpace(3, [0b000, 0b001, 0b011, 0b111]))
        for sp in spaces:
            once = sobrification(sp)
            assert is_sober(once)
            twice = sobrification(once)
            assert homeomorphism_search(once, twice) is not None
            if is_sober(sp):
                assert homeomorphism_search(sp, once) is not None


class TestAlexandrov:
    def test_chain2_opens(self, chain2):
        sp = alexandrov_space(chain2)
        assert len(sp.opens) == 3

    def test_discrete(self, antichain2):
        sp = alexandrov_space(antichain2)
        assert len(sp.opens) == 4

    def test_specialization_round_trip(self):
        for p in posets_upto(5):
            q = specialization_order(alexandrov_space(p))
            assert q.up == p.up

    def test_specialization_on_preorder(self):
        p = preorder_from_pairs(2, [(0, 1), (1, 0)])
        q = specialization_order(alexandrov_space(p))
        assert q.up == p.up


class TestElemental:
    def test_empty_set(self):
        sp = elemental_space(0)
        assert sp.n == 1 and len(sp.opens) == 2

    def test_one_generator(self):
        sp = elemental_space(1)
        assert sp.n == 2 and len(sp.opens) == 3

    def test_two_generators_six_opens(self):
        sp = elemental_space(2)
        assert sp.n == 4 and len(sp.opens) == 6


def test_prime_filter_wrapper(chain2):
    from stonework.coverage import saturate, trivial_coverage
    from stonework.errors import InvalidStructure
    from stonework.spectra import PrimeFilter

    J = saturate(trivial_coverage(chain2))
    f = PrimeFilter(J, 0b10)
    assert 1 in f and 0 not in f
    with pytest.raises(InvalidStructure):
        PrimeFilter(J, 0b01)  # not up-closed
