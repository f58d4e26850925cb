"""presentations: filtering maps, free structures, the DSL, reflections."""

from itertools import product

import pytest

from stonework.bits import bits, mask_of, popcount
from stonework.corpus import meet_semilattices_upto, posets_upto
from stonework.coverage import ideal_frame, principal_j_ideal, saturate, trivial_coverage
from stonework.errors import GuardExceeded, InvalidStructure, ParseError
from stonework.order import as_poset, frame_hom_failure, iso_search, lower_sets, preorder_from_pairs
from stonework.presentations import (
    enumerate_frame_homs,
    extend_filtering,
    extension_is_unique,
    free_frame_on_cjsl,
    free_frame_on_jsl,
    free_frame_on_set,
    free_meet_semilattice,
    is_filtering,
    is_j_filtering,
    parse_presentation,
    parse_query,
    present_coherent,
    present_horn,
    present_lattice,
    present_semantic,
    reflection_unit,
    relation_models,
)
from stonework.spectra import elemental_space


def chain2_poset():
    return as_poset(preorder_from_pairs(2, [(0, 1)]))


class TestFiltering:
    def test_eta_is_j_filtering(self):
        for p in meet_semilattices_upto(3):
            J = saturate(trivial_coverage(p))
            fr = ideal_frame(J)
            fidx = {m: i for i, m in enumerate(fr.element_masks)}
            eta = [fidx[principal_j_ideal(J, c)] for c in range(p.n)]
            assert is_j_filtering(J, fr, eta)

    def test_constant_to_bottom_fails(self):
        p = chain2_poset()
        J = saturate(trivial_coverage(p))
        L = lower_sets(p)
        assert not is_filtering(p, L, [L.bot, L.bot])

    def test_mslat_hom_into_frame_is_filtering(self):
        # the trivial-topology filtering maps are the meet-semilattice homs
        m = chain2_poset()
        L = lower_sets(chain2_poset())
        J = saturate(trivial_coverage(m))
        for f in product(range(L.n), repeat=2):
            filtering = is_j_filtering(J, L, f)
            hom = (
                f[1] == L.top
                and all(
                    L.meet[f[a]][f[b]] == f[m.glb((1 << a) | (1 << b))]
                    for a in range(2)
                    for b in range(2)
                )
                and all(not m.leq(a, b) or L.leq(f[a], f[b]) for a in range(2) for b in range(2))
            )
            assert filtering == hom, f

    def test_extend_filtering_identity(self):
        m = chain2_poset()
        J = saturate(trivial_coverage(m))
        fr = ideal_frame(J)
        fidx = {mm: i for i, mm in enumerate(fr.element_masks)}
        eta = [fidx[principal_j_ideal(J, c)] for c in range(m.n)]
        h = extend_filtering(J, fr, eta)
        assert h.f == tuple(range(fr.n))

    def test_prime_filter_characteristic_map(self):
        # the two-element frame case: filtering maps are the J-prime filters
        from stonework.spectra import j_prime_filters

        two = lower_sets(preorder_from_pairs(1, []))
        for p in meet_semilattices_upto(3):
            J = saturate(trivial_coverage(p))
            filters = j_prime_filters(J)
            chars = []
            for f in product(range(two.n), repeat=p.n):
                if is_j_filtering(J, two, f):
                    chars.append(mask_of(c for c in range(p.n) if f[c] == two.top))
            assert sorted(chars) == filters

    def test_uniqueness_small(self):
        m = chain2_poset()
        J = saturate(trivial_coverage(m))
        L = lower_sets(chain2_poset())
        for f in product(range(L.n), repeat=2):
            if is_j_filtering(J, L, f):
                assert extension_is_unique(J, L, f)


class TestEnumerateFrameHoms:
    def test_homs_chain3_to_chain2(self):
        c3 = lower_sets(chain2_poset())  # 3-chain
        c2 = lower_sets(preorder_from_pairs(1, []))  # 2-chain
        homs = enumerate_frame_homs(c3, c2)
        # middle can go to 0 or 1
        assert len(homs) == 2

    def test_matches_brute_force(self):
        small = [lower_sets(p) for p in posets_upto(2)]
        for a in small:
            for b in small:
                brute = []
                for f in product(range(b.n), repeat=a.n):
                    hom = f[a.bot] == b.bot and f[a.top] == b.top and all(
                        f[a.meet[i][j]] == b.meet[f[i]][f[j]]
                        and f[a.join[i][j]] == b.join[f[i]][f[j]]
                        for i in range(a.n)
                        for j in range(a.n)
                    )
                    assert (frame_hom_failure(a, b, f) is None) == hom
                    if hom:
                        brute.append(tuple(f))
                assert enumerate_frame_homs(a, b) == sorted(brute)


class TestFreeStructures:
    def test_free_mslat_sizes(self):
        assert free_meet_semilattice(0).n == 1
        assert free_meet_semilattice(1).n == 2
        assert free_meet_semilattice(2).n == 4

    def test_free_mslat_universal_property(self):
        # maps of generators extend uniquely to meet-semilattice homs
        M = free_meet_semilattice(2)
        for tgt in meet_semilattices_upto(3):
            for g0 in range(tgt.n):
                for g1 in range(tgt.n):
                    exts = []
                    for f in product(range(tgt.n), repeat=M.n):
                        if f[M.up.index(max(M.up))] if False else True:
                            pass
                        # meet-semilattice hom test
                        topM = next(i for i in range(M.n) if popcount(M.dn[i]) == M.n)
                        topT = next(i for i in range(tgt.n) if popcount(tgt.dn[i]) == tgt.n)
                        if f[topM] != topT:
                            continue
                        if not all(
                            f[M.glb((1 << a) | (1 << b))] == tgt.glb((1 << f[a]) | (1 << f[b]))
                            for a in range(M.n)
                            for b in range(M.n)
                        ):
                            continue
                        # generators of the free mslat are the singletons
                        if f[1] == g0 and f[2] == g1:
                            exts.append(f)
                    assert len(exts) == 1

    def test_free_frame_on_set_sizes(self):
        assert free_frame_on_set(0)[0].n == 2
        assert free_frame_on_set(1)[0].n == 3
        assert free_frame_on_set(2)[0].n == 6
        assert free_frame_on_set(3)[0].n == 20

    def test_free_frame_vs_elemental_space(self):
        for k in range(4):
            fr, gens = free_frame_on_set(k)
            sp = elemental_space(k)
            assert iso_search(fr, sp.opens_frame()) is not None

    def test_free_frame_universal_property(self):
        # maps A -> L extend uniquely to frame homs; L small
        targets = [lower_sets(p) for p in posets_upto(2)]
        for k in (1, 2):
            fr, gens = free_frame_on_set(k)
            for L in targets:
                for vals in product(range(L.n), repeat=k):
                    matching = [
                        h for h in enumerate_frame_homs(fr, L) if all(h[gens[i]] == vals[i] for i in range(k))
                    ]
                    assert len(matching) == 1

    def test_free_frame_on_cjsl_singleton(self):
        p = as_poset(preorder_from_pairs(1, []))
        fr, eta = free_frame_on_cjsl(p)
        assert len(set(eta)) == 1

    def test_free_frame_on_cjsl_2chain(self):
        p = chain2_poset()
        fr, eta = free_frame_on_cjsl(p)
        assert len(set(eta)) == 2
        assert fr.leq(eta[0], eta[1])

    def test_cjsl_universal_property_2chain(self):
        # join-preserving maps A -> F extend uniquely to frame homs
        p = chain2_poset()
        fr, eta = free_frame_on_cjsl(p)
        targets = [lower_sets(q) for q in posets_upto(3) if lower_sets(q).n <= 8]
        checked = 0
        for L in targets:
            for vals in product(range(L.n), repeat=p.n):
                # join-preserving incl. the empty join
                ok = vals[p.lub(0)] == L.bot if 0 == p.lub(0) else True
                for s in range(1 << p.n):
                    j = p.lub(s)
                    if L.join_set(mask_of(vals[a] for a in bits(s))) != vals[j]:
                        ok = False
                        break
                if not ok:
                    continue
                matching = [
                    h
                    for h in enumerate_frame_homs(fr, L)
                    if all(h[eta[c]] == vals[c] for c in range(p.n))
                ]
                assert len(matching) == 1
                # the explicit extension formula agrees
                g = _cjsl_extension(p, fr, eta, L, vals)
                assert g in matching
                checked += 1
        assert checked > 0

    def test_jsl_constructions_agree(self):
        for p in [chain2_poset(), lower_sets(preorder_from_pairs(2, [])).poset]:
            if any(p.lub(m) is None for m in range(1 << p.n)):
                continue
            fr, eta = free_frame_on_jsl(p)

    def test_jsl_trivial(self):
        p = as_poset(preorder_from_pairs(1, []))
        fr, eta = free_frame_on_jsl(p)
        assert fr.n == 2


def _cjsl_extension(p, fr, eta, L, vals):
    """g(I) = join over U in I of the meet over a in U of f(a)."""
    out = []
    for m in fr.element_masks:
        acc = L.bot
        for u in bits(m):
            inner = L.top
            for a in bits(u):
                inner = L.meet[inner][vals[a]]
            acc = L.join[acc][inner]
        out.append(acc)
    return tuple(out)


class TestDSL:
    def test_parse_simple(self):
        text = """
        # a comment
        generators: x y
        x & y <= x
        x = y
        """
        pres = parse_presentation(text, "coherent")
        assert pres.generators == ("x", "y")
        assert len(pres.relations) == 2

    def test_parse_join_list(self):
        pres = parse_presentation("generators: a b c\njoin(a, b, c) = 1\n", "geometric")
        assert pres.relations[0][1][0] == "Join"

    def test_horn_rejects_join(self):
        with pytest.raises(InvalidStructure):
            parse_presentation("generators: a b\na | b <= a\n", "horn")

    def test_unknown_generator(self):
        with pytest.raises(ParseError):
            parse_presentation("generators: a\nb <= a\n", "horn")

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("generators: a\na <\n", "horn")
        assert "line 2" in str(err.value)


class TestPresent:
    def test_horn_no_relations_is_free(self):
        pres = parse_presentation("generators: a b\n", "horn")
        lat = present_horn(pres)
        assert lat.poset.n == 4
        assert iso_search(lat.poset, free_meet_semilattice(2)) is not None

    def test_horn_entailment(self):
        pres = parse_presentation("generators: a b\na <= b\n", "horn")
        lat = present_horn(pres)
        assert lat.poset.n == 3
        assert lat.entails(parse_query("a <= b", pres))
        assert not lat.entails(parse_query("b <= a", pres))

    def test_coherent_identify_generators(self):
        pres = parse_presentation("generators: a b\na = b\n", "coherent")
        lat = present_coherent(pres)
        # free DLat on one generator: 0 < g < 1
        assert lat.frame.n == 3
        assert lat.gen_elements[0] == lat.gen_elements[1]

    def test_coherent_no_relations_is_free_dlat(self):
        pres = parse_presentation("generators: a b\n", "coherent")
        lat = present_coherent(pres)
        assert lat.frame.n == 6

    def test_generator_guard(self):
        gens = " ".join(f"g{i}" for i in range(5))
        pres = parse_presentation(f"generators: {gens}\n", "coherent")
        with pytest.raises(GuardExceeded):
            present_lattice(pres)

    def test_semantic_guard_fires_below_lattice_size(self):
        pres = parse_presentation("generators: a b c\n", "coherent")
        size = present_semantic(pres).frame.n
        with pytest.raises(GuardExceeded) as exc:
            present_semantic(pres, guard=size - 1)
        assert exc.value.what == "presented lattice"
        assert present_semantic(pres, guard=size).frame.n == size

    def test_congruence_vs_semantic_agree(self):
        texts = [
            "generators: a b\na = b\n",
            "generators: a b\na & b <= 0\n",
            "generators: a b c\na | b = c\n",
            "generators: a b\n1 <= a | b\na & b <= 0\n",
            "generators: a\na = 0\n",
        ]
        for text in texts:
            pres = parse_presentation(text, "coherent")
            lat1 = present_coherent(pres)
            lat2 = present_semantic(pres)
            assert iso_search(lat1.frame, lat2.frame) is not None
            for q in ["a <= 1", "0 <= a", "1 <= a", "a <= 0"]:
                query = parse_query(q, pres)
                assert lat1.entails(query) == lat2.entails(query)

    def test_entailment_matches_two_valued_oracle(self):
        # semantic completeness for both fragments via {0,1} models
        text = "generators: a b c\na & b <= c\n"
        pres = parse_presentation(text, "coherent")
        lat = present_coherent(pres)
        models = relation_models(pres)
        for q in ["a & b <= c", "c <= a", "a <= a | b", "a & c <= b | c"]:
            query = parse_query(q, pres)
            op, t1, t2 = query
            from stonework.presentations import _eval_model

            semantic = all(
                (not _eval_model(t1, m)) or _eval_model(t2, m) for m in models
            )
            assert lat.entails(query) == semantic

    def test_zariski_style_presentation_zmod4(self):
        # D(2) = D(2)&D(2) = D(0) = 0 forces a two-element lattice
        text = (
            "generators: d0 d1 d2 d3\n"
            "d1 = 1\n"
            "d0 = 0\n"
            "d0 = d2 & d2\n"  # 2*2 = 0
            "d2 = d1 & d2\n"
            "d3 = d1 & d3\n"
            "d1 = d3 & d3\n"  # 3*3 = 1
            "d2 = d3 & d2\n"  # 3*2 = 2
            "d3 <= d1 | d2\n"
            "d0 <= d1 | d3\n"  # 1 + 3 = 0
            "d1 <= d2 | d3\n"  # 2 + 3 = 1
        )
        pres = parse_presentation(text, "coherent")
        lat = present_coherent(pres)
        assert lat.frame.n == 2


class TestReflections:
    def test_mslat_reflection_chain2(self):
        eta, report = reflection_unit("mslat", chain2_poset())
        assert report["filtering_maps_checked"] > 0

    def test_dlat_reflection_boolean4(self):
        d = as_poset(preorder_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
        eta, report = reflection_unit("dlat", d)
        assert report["filtering_maps_checked"] > 0

    def test_bool_reflection(self):
        L = lower_sets(preorder_from_pairs(2, [(0, 1)]))  # 3-chain
        sub, report = reflection_unit("bool", L)
        # complemented elements of a 3-chain: just the bounds
        assert sub.n == 2
        assert report["bijections"]

    def test_atomic_reflection_iso_iff_atomic(self):
        atomic = lower_sets(preorder_from_pairs(2, []))
        hom, rep = reflection_unit("atomic", atomic)
        assert rep["iso"] and rep["atomic"]
        non_atomic = lower_sets(preorder_from_pairs(2, [(0, 1)]))
        hom, rep = reflection_unit("atomic", non_atomic)
        assert not rep["iso"] and not rep["atomic"]

    def test_disjunctive_reflection(self):
        fr = lower_sets(preorder_from_pairs(2, []))
        phi, rep = reflection_unit("disjunctive", fr)
        assert rep["iso"] and rep["disjunctive"]


def test_filtering_map_wrapper():
    from stonework.coverage import ideal_frame, principal_j_ideal, saturate, trivial_coverage
    from stonework.presentations import FilteringMap

    m = chain2_poset()
    J = saturate(trivial_coverage(m))
    fr = ideal_frame(J)
    fidx = {mm: i for i, mm in enumerate(fr.element_masks)}
    eta = [fidx[principal_j_ideal(J, c)] for c in range(m.n)]
    fm = FilteringMap(J, fr, eta)
    assert fm.extend().f == tuple(range(fr.n))
    with pytest.raises(InvalidStructure):
        FilteringMap(J, fr, [fr.bot, fr.bot])
