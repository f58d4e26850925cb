"""Module-level invariants from the contract that go beyond the
acceptance gate: randomized larger instances and oracle cross-checks."""

import random


from stonework.corpus import (
    all_grothendieck_topologies,
    all_posets,
    posets_upto,
    random_preorder,
)
from stonework.coverage import (
    GrothendieckTopology,
    named_coverage,
    principal_j_ideal,
    saturate,
    trivial_coverage,
)
from stonework.duality import (
    a_on_map,
    check_duality,
    supercompact_elements,
)
from stonework.errors import InvalidStructure
from stonework.order import MonotoneMap, as_poset, iso_search, lower_sets, poset_quotient
from stonework.presentations import (
    parse_presentation,
    parse_query,
    present_coherent,
    present_semantic,
    reflection_unit,
)
from stonework.spectra import alexandrov_space, enough_points, filter_bijection

from oracles import brute_supercompact_elements, brute_topologies


def random_poset(n, rng):
    p, _ = poset_quotient(random_preorder(n, rng))
    return p


class TestSupercompactCharacterisation:
    def test_matches_brute_force(self):
        for p in posets_upto(4):
            fr = lower_sets(p)
            assert supercompact_elements(fr) == brute_supercompact_elements(fr)


class TestRandomizedRoundTrips:
    def test_alexandrov_and_mslat_up_to_8(self):
        rng = random.Random(8)
        done = 0
        while done < 12:
            p = random_poset(rng.randint(5, 8), rng)
            assert check_duality("alexandrov", p)["round_trip_ok"]
            tops = [i for i in range(p.n) if p.dn[i] == (1 << p.n) - 1]
            has_meets = all(
                p.glb((1 << i) | (1 << j)) is not None for i in range(p.n) for j in range(p.n)
            )
            if len(tops) == 1 and has_meets:
                assert check_duality("mslat", p)["round_trip_ok"]
            done += 1

    def test_stone_birkhoff_up_to_8(self):
        rng = random.Random(9)
        done = 0
        while done < 12:
            p = random_poset(rng.randint(1, 8), rng)
            d = lower_sets(p)
            if d.n > 40:
                continue
            assert check_duality("stone", d)["round_trip_ok"]
            assert check_duality("birkhoff", d)["round_trip_ok"]
            done += 1

    def test_lindenbaum_random_atomic(self):
        # atomic finite frames are powersets; randomize only the size
        rng = random.Random(10)
        for _ in range(4):
            k = rng.randint(0, 4)
            fr = lower_sets(random_poset(0, rng)) if k == 0 else lower_sets(
                as_poset(random_preorder(0, rng))
            )
        from stonework.order import preorder_from_pairs

        for k in (3, 4):
            fr = lower_sets(preorder_from_pairs(k, []))
            assert check_duality("lindenbaum", fr)["round_trip_ok"]


class TestAOnMapFaithful:
    def test_distinct_maps_distinct_homs(self):
        # subcanonical site on posets: the arrow action is injective
        for p in posets_upto(3):
            J = trivial_coverage(p)
            seen = {}
            for f in _monotone_maps(p, p):
                h = a_on_map(MonotoneMap(p, p, f), J, J) if _flat(p, p, f) else None
                if h is None:
                    continue
                assert h.f not in seen or seen[h.f] == f
                seen[h.f] = f


def _monotone_maps(a, b):
    out = []

    def rec(i, acc):
        if i == a.n:
            out.append(tuple(acc))
            return
        for v in range(b.n):
            if all(not a.leq(j, i) or b.leq(acc[j], v) for j in range(i)) and all(
                not a.leq(i, j) or b.leq(v, acc[j]) for j in range(i)
            ):
                rec(i + 1, acc + [v])

    rec(0, [])
    return out


def _flat(a, b, f):
    from stonework.order import is_flat

    try:
        return is_flat(MonotoneMap(a, b, f))
    except InvalidStructure:
        return False


class TestFilterBijectionExhaustive5:
    def test_every_site_on_five_elements(self):
        count = 0
        for p in all_posets(5):
            for s in all_grothendieck_topologies(p):
                J = GrothendieckTopology(p, s, _checked=True)
                filter_bijection(J)
                count += 1
        assert count > 1000

    def test_every_site_on_six_elements(self):
        count = 0
        for p in all_posets(6):
            for s in all_grothendieck_topologies(p):
                filter_bijection(GrothendieckTopology(p, s, _checked=True))
                count += 1
        assert count == 318 * 64


class TestEnoughPoints:
    def test_boolean_coherent_has_enough(self):
        p = as_poset(lower_sets(all_posets(2)[0]).poset)
        J = named_coverage(lower_sets(all_posets(1)[0]).poset, "coherent")
        flag, ideals, extents = enough_points(J)
        assert flag and ideals == extents

    def test_always_enough_points_finitely(self):
        # the check never assumes spatiality, but finite frames are all
        # spatial (join-irreducibles give enough completely prime
        # filters), so on finite sites the verdict is always positive
        import random as _r

        from stonework.corpus import random_site

        rng = _r.Random(4)
        for _ in range(150):
            p, J = random_site(4, rng)
            flag, ideals, extents = enough_points(J)
            assert flag and ideals == extents


class TestPresentationAgreement:
    TEXTS = [
        "generators: a b c\n",
        "generators: a b c\na <= b\n",
        "generators: a b c\na & b <= c\nc <= a | b\n",
        "generators: a b c\na | b = 1\nb & c = 0\n",
        "generators: a b\na = 0\nb = 1\n",
    ]
    QUERIES = [
        "a <= b", "b <= a", "a & b <= c", "c <= a | b", "1 <= a | b | c",
        "a & b & c <= 0", "a <= a", "0 <= c", "a | b <= c | b",
    ]

    def test_congruence_vs_semantic_entailment(self):
        for text in self.TEXTS:
            pres = parse_presentation(text, "coherent")
            lat1 = present_coherent(pres)
            lat2 = present_semantic(pres)
            assert iso_search(lat1.frame, lat2.frame) is not None
            for q in self.QUERIES:
                try:
                    rel = parse_query(q, pres)
                except Exception:
                    continue
                assert lat1.entails(rel) == lat2.entails(rel), (text, q)


class TestDisjunctiveFrameOfFiniteSpace:
    def test_finite_spaces_locally_connected(self):
        # every finite space is locally connected, so phi is always an
        # isomorphism on its open-set frame
        from stonework.corpus import all_preorders

        for q in all_preorders(3):
            fr = alexandrov_space(q).opens_frame()
            phi, rep = reflection_unit("disjunctive", fr)
            assert rep["iso"] and rep["disjunctive"]


class TestSaturationLeastAt4:
    def test_least_topology_exhaustive(self):
        for p in all_posets(4):
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


class TestCorpusCounts:
    def test_poset_counts_match_known_values(self):
        # numbers of posets up to isomorphism on 0..5 elements
        for n, expect in enumerate([1, 1, 2, 5, 16, 63]):
            assert len(all_posets(n)) == expect

    def test_preorder_counts_match_known_values(self):
        from stonework.corpus import all_preorders

        for n, expect in enumerate([1, 1, 3, 9, 33]):
            assert len(all_preorders(n)) == expect
            # topologies on a preorder match the unions of its equivalence classes
            for q in all_preorders(n):
                assert len(all_grothendieck_topologies(q)) == 2 ** poset_quotient(q)[0].n


class TestAOnMapPrincipalRestriction:
    def test_restriction_is_f_on_subcanonical_poset_sites(self):
        # the induced frame hom agrees with f on principal ideals whenever
        # both topologies are subcanonical and the carriers are posets
        from stonework.coverage import is_subcanonical
        from stonework.order import is_flat
        from stonework.duality import is_cover_preserving

        for a in posets_upto(3):
            for b in posets_upto(3):
                for kind_a, kind_b in (("trivial", "trivial"), ("coherent", "coherent")):
                    try:
                        J = named_coverage(a, kind_a)
                        K = named_coverage(b, kind_b)
                    except InvalidStructure:
                        continue
                    assert is_subcanonical(J) and is_subcanonical(K)
                    for fv in _monotone_maps(a, b):
                        f = MonotoneMap(a, b, fv)
                        if not is_flat(f) or not is_cover_preserving(f, J, K)[0]:
                            continue
                        h = a_on_map(f, J, K)
                        sidx = {m: i for i, m in enumerate(h.dom.element_masks)}
                        for c in range(a.n):
                            src = sidx[principal_j_ideal(J, c)]
                            assert h.dom.element_masks[src] == a.dn[c]
                            assert h.cod.element_masks[h.f[src]] == principal_j_ideal(K, f(c))
