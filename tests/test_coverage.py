"""coverage: saturation, J-ideals, named coverages, comparison, subtopologies."""

import pytest
from hypothesis import given, settings, strategies as st

from itertools import product

from stonework.bits import bits, mask_of, submasks
from stonework.corpus import (
    all_grothendieck_topologies,
    all_preorders,
    posets_upto,
    random_coverage,
    random_preorder,
    random_site,
)
from stonework.coverage import (
    Coverage,
    GrothendieckTopology,
    all_sieves,
    comparison_iso,
    ideal_frame,
    induced_coverage,
    is_j_dense,
    is_j_ideal,
    is_subcanonical,
    j_closure,
    named_coverage,
    principal_j_ideal,
    saturate,
    subtopology_from_surjection,
    topologies_equal_by_ideals,
    trivial_coverage,
)
from stonework.errors import GuardExceeded, InvalidStructure
from stonework.order import as_poset, iso_search, lower_sets, preorder_from_pairs
from stonework.spectra import enough_points, j_prime_filters, subterminal_space

from oracles import (
    brute_all_sieves,
    brute_dmask,
    brute_ideal_frame,
    brute_j_prime_filters,
    brute_topologies,
    fixpoint_closure,
    fixpoint_saturation,
    is_weakly_stable,
    raw_closure_matches_saturation,
)


def boolean4():
    return preorder_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestNamedCoverages:
    def test_trivial_covers_are_principal(self, chain3):
        cov = trivial_coverage(chain3)
        assert all(cov.covers[c] == frozenset([chain3.dn[c]]) for c in range(3))

    def test_coherent_on_boolean4_covers_top_with_atoms(self):
        cov = named_coverage(boolean4(), "coherent")
        assert mask_of([1, 2]) in cov.covers[3]

    def test_coherent_requires_distributive(self, vee):
        with pytest.raises(InvalidStructure):
            named_coverage(vee, "coherent")

    def test_directed_saturates_to_trivial(self):
        # on a finite poset every directed lower set has a top
        for p in posets_upto(3):
            if p.n == 0:
                continue
            try:
                cov = named_coverage(p, "directed")
            except InvalidStructure:
                continue
            assert saturate(cov) == saturate(trivial_coverage(as_poset(p)))

    def test_disjunctive_on_boolean4(self):
        cov = named_coverage(boolean4(), "disjunctive")
        assert mask_of([1, 2]) in cov.covers[3]
        assert 0 in cov.covers[0]

    def test_atomic_on_boolean4(self):
        cov = named_coverage(boolean4(), "atomic")
        assert mask_of([1, 2]) in cov.covers[3]


class TestSaturate:
    def test_trivial_saturation_is_maximal_sieves_only(self, chain3):
        J = saturate(trivial_coverage(chain3))
        for c in range(3):
            assert J.sieves[c] == frozenset([chain3.dn[c]])

    def test_coherent_boolean4_sieve(self):
        p = boolean4()
        J = saturate(named_coverage(p, "coherent"))
        assert mask_of([0, 1, 2]) in J.sieves[3]

    def test_canonical_on_finite_frame_joins(self):
        p = boolean4()
        J = saturate(named_coverage(p, "canonical"))
        po = as_poset(p)
        for c in range(p.n):
            for s in submasks(po.dn[c]):
                if po.is_down_closed(s):
                    assert (s in J.sieves[c]) == (po.lub(s) == c)

    def test_least_topology_containing_generators_exhaustive(self):
        # oracle: intersect over the full brute-force topology catalogue
        for p in posets_upto(3):
            for kind in ("trivial", "coherent"):
                try:
                    cov = named_coverage(p, kind)
                except InvalidStructure:
                    continue
                po = cov.base
                sat = saturate(cov)
                topologies = brute_topologies(po)
                containing = [
                    J
                    for J in topologies
                    if all(
                        po.down_closure(fam) in J[c]
                        for c in range(po.n)
                        for fam in cov.covers[c]
                    )
                ]
                least = tuple(
                    frozenset.intersection(*[frozenset(J[c]) for J in containing])
                    for c in range(po.n)
                )
                assert tuple(sat.sieves) == least

    def test_matches_fixpoint_oracle(self):
        import random

        for n in range(5):
            for q in all_preorders(n):
                for seed in range(20):
                    cov = random_coverage(q, random.Random(seed))
                    assert saturate(cov).sieves == fixpoint_saturation(cov)
        for seed in range(200):
            rng = random.Random(seed)
            p = random_preorder(rng.randint(1, 7), rng)
            cov = random_coverage(p, rng)
            q, J = random_site(7, random.Random(seed))
            assert q == p and J.sieves == fixpoint_saturation(cov)

    def test_unstable_generators_diverge_from_raw_closure(self):
        # {a} covering the top of boolean4 is not weakly stable; the
        # saturation adds {0} covering b, which the raw generators miss.
        p = as_poset(boolean4())
        covers = [frozenset() for _ in range(4)]
        covers[3] = frozenset([1 << 1])
        cov = Coverage(p, covers)
        assert not is_weakly_stable(cov)
        assert not raw_closure_matches_saturation(cov)
        J = saturate(cov)
        assert (1 << 0) in J.sieves[2]
        # the one-pass closure of the coverage is the saturated one
        assert all(j_closure(cov, m) == fixpoint_closure(p, J.sieves, m) for m in range(1 << p.n))

    def test_stable_generators_match_raw_closure(self):
        for p in posets_upto(3):
            for kind in ("trivial", "coherent", "disjunctive"):
                try:
                    cov = named_coverage(p, kind)
                except InvalidStructure:
                    continue
                assert is_weakly_stable(cov)
                assert raw_closure_matches_saturation(cov)


class TestGrothendieckTopology:
    def test_corpus_matches_generate_and_test(self):
        for n in range(5):
            for q in all_preorders(n):
                assert [all_sieves(q, c) for c in range(n)] == [brute_all_sieves(q, c) for c in range(n)]
                assert all_grothendieck_topologies(q) == brute_topologies(q)

    def test_checked_constructor_accepts_exactly_the_corpus(self):
        for p in posets_upto(3):
            found = set(all_grothendieck_topologies(p))
            optional = [[s for s in all_sieves(p, c) if s != p.dn[c]] for c in range(p.n)]
            for picks in product(*[range(1 << len(o)) for o in optional]):
                table = tuple(
                    frozenset([p.dn[c]] + [optional[c][i] for i in bits(pick)])
                    for c, pick in enumerate(picks)
                )
                try:
                    GrothendieckTopology(p, table)
                    accepted = True
                except InvalidStructure:
                    accepted = False
                assert accepted == (table in found)


class TestJClosure:
    def test_empty_under_trivial(self, chain3):
        J = saturate(trivial_coverage(chain3))
        assert j_closure(J, 0) == 0

    def test_atoms_generate_everything_coherent(self):
        p = boolean4()
        J = saturate(named_coverage(p, "coherent"))
        assert j_closure(J, mask_of([1, 2])) == 0b1111

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_closure_operator_laws(self, data):
        seed = data.draw(st.integers(0, 10 ** 6))
        import random

        p, J = random_site(6, random.Random(seed))
        full = (1 << p.n) - 1
        m1 = data.draw(st.integers(0, full))
        m2 = data.draw(st.integers(0, full))
        i1, i2 = p.down_closure(m1), p.down_closure(m2)
        c1 = j_closure(J, i1)
        assert i1 & ~c1 == 0  # inflationary
        if i1 & ~i2 == 0:
            assert c1 & ~j_closure(J, i2) == 0  # monotone
        assert j_closure(J, c1) == c1  # idempotent
        assert is_j_ideal(J, c1)


class TestIdealFrame:
    def test_trivial_on_chain2(self, chain2):
        fr = ideal_frame(saturate(trivial_coverage(chain2)))
        assert fr.n == 3

    def test_trivial_on_antichain2(self, antichain2):
        fr = ideal_frame(saturate(trivial_coverage(antichain2)))
        assert fr.n == 4

    def test_coherent_ideals_isomorphic_to_lattice(self):
        for p in posets_upto(3):
            d = lower_sets(p)  # a finite distributive lattice
            dp = d.poset
            fr = ideal_frame(saturate(named_coverage(dp, "coherent")))
            assert iso_search(fr, d) is not None

    def test_matches_downset_filter_oracle(self):
        # oracle: all down-closed subsets, filtered by the ideal condition
        import random

        for seed in range(25):
            p, J = random_site(5, random.Random(seed))
            fr = ideal_frame(J)
            expected = sorted(m for m in p.down_sets() if is_j_ideal(J, m))
            assert list(fr.element_masks) == expected


def _assert_matches_oracles(J, sieves):
    """The D-based closure, frame and filters of a coverage or topology
    against the fixpoint oracles on `sieves`, the sieve table of J."""
    p = J.base
    assert J.dmask == brute_dmask(p, sieves)
    for m in range(1 << p.n):
        assert j_closure(J, m) == fixpoint_closure(p, sieves, m), m
    ideals, meet, join = brute_ideal_frame(p, sieves)
    fr = ideal_frame(J)
    assert list(fr.element_masks) == ideals
    assert fr.meet == tuple(map(tuple, meet)) and fr.join == tuple(map(tuple, join))
    oracle_site = GrothendieckTopology(p, sieves, _checked=True)
    assert j_prime_filters(J) == brute_j_prime_filters(oracle_site)


class TestJDAgainstOracles:
    def test_random_coverages_of_small_preorders(self):
        import random

        for n in range(5):
            for q in all_preorders(n):
                for seed in range(20):
                    cov = random_coverage(q, random.Random(seed))
                    sieves = fixpoint_saturation(cov)
                    _assert_matches_oracles(cov, sieves)
                    _assert_matches_oracles(GrothendieckTopology(q, sieves, _checked=True), sieves)

    def test_named_coverages_of_small_posets(self):
        for p in posets_upto(4):
            for kind, param in [("trivial", None), ("coherent", None), ("canonical", None),
                                ("disjunctive", None), ("atomic", None), ("supercompact", None),
                                ("directed", None), ("k", 1), ("k", 2), ("k", 3)]:
                try:
                    cov = named_coverage(p, kind, param)
                except InvalidStructure:
                    continue
                _assert_matches_oracles(cov, fixpoint_saturation(cov))

    def test_random_sites(self):
        import random

        for seed in range(100):
            p, J = random_site(7, random.Random(seed))
            _assert_matches_oracles(J, J.sieves)


class TestPrincipalAndSubcanonical:
    def test_trivial_principal_is_downset(self, chain3):
        J = saturate(trivial_coverage(chain3))
        for c in range(3):
            assert principal_j_ideal(J, c) == chain3.dn[c]

    def test_subcanonical_principal_is_downset(self):
        p = boolean4()
        J = saturate(named_coverage(p, "coherent"))
        assert is_subcanonical(J)
        for c in range(p.n):
            assert principal_j_ideal(J, c) == p.dn[c]

    def test_empty_cover_of_bottom_is_subcanonical(self):
        # sup of the empty family is the bottom, so this stays subcanonical
        p = as_poset(preorder_from_pairs(2, [(0, 1)]))
        cov = Coverage(p, [frozenset([0]), frozenset()])
        J = saturate(cov)
        assert is_subcanonical(J)
        assert j_closure(J, 0) == 0b01

    def test_empty_cover_of_top_not_subcanonical(self):
        # the empty family covering a non-bottom element breaks subcanonicity
        p = as_poset(preorder_from_pairs(2, [(0, 1)]))
        cov = Coverage(p, [frozenset(), frozenset([0])])
        J = saturate(cov)
        assert not is_subcanonical(J)
        assert principal_j_ideal(J, 0) == 0b11  # closure of (0)down swallows 1

    def test_named_coverages_subcanonical(self):
        for p in posets_upto(3):
            for kind in ("coherent", "disjunctive", "atomic", "supercompact"):
                try:
                    cov = named_coverage(p, kind)
                except InvalidStructure:
                    continue
                assert is_subcanonical(saturate(cov)), (p, kind)

    def test_order_embedding_for_subcanonical(self):
        for p in posets_upto(3):
            if p.n == 0:
                continue
            J = saturate(trivial_coverage(p))
            masks = [principal_j_ideal(J, c) for c in range(p.n)]
            for a in range(p.n):
                for b in range(p.n):
                    assert (masks[a] & ~masks[b] == 0) == p.leq(a, b)


class TestComparison:
    def test_whole_base_is_identity(self):
        p = boolean4()
        J = saturate(named_coverage(p, "coherent"))
        big, small, phi, psi = comparison_iso(J, (1 << p.n) - 1)
        assert phi == tuple(range(big.n))

    def test_density_check_fails_with_witness(self, chain3):
        J = saturate(trivial_coverage(chain3))
        ok, witness = is_j_dense(J, 0b011)
        assert not ok and witness == 2
        with pytest.raises(InvalidStructure):
            induced_coverage(J, 0b011)

    def test_atoms_of_boolean4_against_canonical(self):
        p = boolean4()
        J = saturate(named_coverage(p, "canonical"))
        dmask = mask_of([1, 2])  # the atoms form a basis
        big, small, phi, psi = comparison_iso(J, dmask)
        # Id over the atoms with the induced coverage is the powerset of atoms
        assert small.n == 4
        assert iso_search(small, lower_sets(preorder_from_pairs(2, []))) is not None

    def test_basis_of_a_frame(self):
        # any finite frame with basis = join-irreducibles
        for p in posets_upto(3):
            L = lower_sets(p)
            J = saturate(named_coverage(L.poset, "canonical"))
            basis = mask_of(L.join_irreducibles())
            if basis == 0 and L.n > 1:
                continue
            big, small, phi, psi = comparison_iso(J, basis | 0)
            assert iso_search(big, small) is not None


class TestTopologiesEqual:
    def test_same_topology(self, chain2):
        J = saturate(trivial_coverage(chain2))
        assert topologies_equal_by_ideals(J, J)

    def test_trivial_vs_coherent_on_boolean4(self):
        p = as_poset(boolean4())
        t = saturate(trivial_coverage(p))
        c = saturate(named_coverage(p, "coherent"))
        assert not topologies_equal_by_ideals(t, c)
        assert is_j_ideal(t, mask_of([0, 1, 2])) and not is_j_ideal(c, mask_of([0, 1, 2]))

    def test_two_presentations_same_topology(self):
        p = as_poset(boolean4())
        cov1 = named_coverage(p, "coherent")
        # same joins presented via all antichains instead of pairs
        fams = [set() for _ in range(4)]
        fams[0].add(0)
        fams[3].add(mask_of([1, 2]))
        for c in range(4):
            fams[c].add(p.dn[c])
        cov2 = Coverage(p, [frozenset(f) for f in fams])
        assert topologies_equal_by_ideals(cov1, cov2)
        assert saturate(cov1) == saturate(cov2)


class TestSubtopology:
    def _site(self):
        p = as_poset(preorder_from_pairs(2, [(0, 1)]))
        return p, saturate(trivial_coverage(p))

    def test_identity_gives_same_topology(self):
        p, J = self._site()
        fr = ideal_frame(J)
        J2 = subtopology_from_surjection(J, fr, list(range(fr.n)))
        assert J2 == J

    def test_collapse_3chain_to_2chain(self):
        p, J = self._site()
        fr = ideal_frame(J)  # 3-chain of ideals 0 < {0} < {0,1}
        target = lower_sets(preorder_from_pairs(1, []))  # 2 elements
        f = [0, 1, 1]  # send {0} to the top
        J2 = subtopology_from_surjection(J, target, f)
        assert 0b01 in J2.sieves[1]  # {0} now covers the top element

    def test_terminal_frame(self):
        p, J = self._site()
        fr = ideal_frame(J)
        one = lower_sets(preorder_from_pairs(0, []))
        J2 = subtopology_from_surjection(J, one, [0] * fr.n)
        for c in range(p.n):
            assert 0 in J2.sieves[c]  # the empty sieve covers everything

    def test_rejects_non_surjective(self):
        p, J = self._site()
        fr = ideal_frame(J)
        with pytest.raises(InvalidStructure):
            subtopology_from_surjection(J, fr, [0, 0, 0])


class TestSiteCache:
    def test_cached_ideals_keep_the_guard(self):
        # the 3-antichain has 8 ideals; once they are kept, a read under
        # a guard of 5 refuses exactly as a first listing does
        p = preorder_from_pairs(3, [])
        with pytest.raises(GuardExceeded) as first:
            trivial_coverage(p).ideals(guard=5)
        J = trivial_coverage(p)
        assert subterminal_space(J) and len(J.ideals()) == 8
        for read in (J.ideals, lambda guard: ideal_frame(J, guard=guard),
                     lambda guard: subterminal_space(J, guard=guard),
                     lambda guard: enough_points(J, guard=guard)):
            with pytest.raises(GuardExceeded) as again:
                read(guard=5)
            assert str(again.value) == str(first.value)
        assert J.ideals(guard=8) is J.ideals()
