"""zariski: rings, S(A), the coverage, L(A), spectra, radicals, op-ideals."""

import json
import random
from collections import Counter
from functools import cache, reduce
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

from stonework.bits import bits, mask_of, popcount
from stonework.coverage import j_closure, saturate
from stonework.errors import CheckFailed, GuardExceeded, InvalidStructure
from stonework.order import frame_hom_failure, iso_search
from stonework.presentations import Presentation, present_semantic, relation_models
from stonework.spectra import j_prime_filters
from stonework import zariski
from stonework.zariski import (
    FiniteCommRing,
    all_ideals,
    ideal_generated,
    power_combination_covers,
    op_ideal_lattice,
    op_ideal_presentation,
    op_ideal_space,
    prime_filters_ring,
    prime_ideals,
    proper_ideals,
    radical_membership,
    ring_product,
    ring_zmod,
    s_monoid,
    spec_space,
    spectra_homeomorphism,
    zariski_closure,
    zariski_ideal_frame,
    zariski_lattice,
    zariski_point_space,
    zariski_presentation,
)

from oracles import (
    RING_LAWS,
    brute_prime_ideals,
    brute_ring_laws,
    brute_s_congruence,
    cell_frame_tables,
    element_presentation,
    eval_code,
    fixpoint_s_congruence,
    fixpoint_zariski_closure,
    fixpoint_zariski_frame,
    height_walk,
    ring_iso_search,
    zariski_coverage,
)


def prime_field_products(bound):
    """Z/q1 x ... x Z/qk for primes q1 <= ... <= qk, k >= 2, at most `bound` elements."""
    primes = [q for q in range(2, bound // 2 + 1) if all(q % d for d in range(2, q))]
    for k in range(2, bound.bit_length()):
        for qs in combinations_with_replacement(primes, k):
            if prod(qs) <= bound:
                yield reduce(ring_product, map(ring_zmod, qs))


def non_reduced_products():
    """Z/4 x Z/2, Z/4 x Z/3 and Z/9 x Z/2, which have nonzero nilpotents."""
    return [ring_product(ring_zmod(p), ring_zmod(q)) for p, q in ((4, 2), (4, 3), (9, 2))]


def small_products(bound):
    """Products of two or more of Z/2, ..., Z/9 with at most `bound`
    elements, F2^k among them."""
    for k in range(2, bound.bit_length()):
        for ms in combinations_with_replacement(range(2, 10), k):
            if prod(ms) <= bound:
                yield reduce(ring_product, map(ring_zmod, ms))


@cache
def closure_rings():
    """Z/n for n <= 120 and the products of Z/2, ..., Z/9 with at most
    64 elements, F2^6 the largest S(A) at 64 classes."""
    return tuple([ring_zmod(n) for n in range(1, 121)] + list(small_products(64)))


@cache
def oracle_rings():
    """Z/n for n <= 120, every product of prime fields with at most 36
    elements, and the non-reduced products."""
    return tuple([ring_zmod(n) for n in range(1, 121)] + list(prime_field_products(36))
                 + non_reduced_products())


def checked(ring):
    """The ring's tables through the checked constructor."""
    return FiniteCommRing(ring.n, ring.add, ring.mul, ring.zero, ring.one)


def f2_algebra(squares):
    """Tables of a commutative unital F2-algebra on the basis 1, x, y (bits
    0, 1, 2 of an element), multiplied bilinearly from the products
    `squares[(i, j)]` of basis elements i <= j with i, j in {1, 2}."""
    basis = {(0, 0): 1, (0, 1): 2, (0, 2): 4, **squares}

    def mul(u, v):
        out = 0
        for i in bits(u):
            for j in bits(v):
                out ^= basis[min(i, j), max(i, j)]
        return out

    return [[a ^ b for b in range(8)] for a in range(8)], [[mul(a, b) for b in range(8)] for a in range(8)]


# tables that break exactly one ring law, with 0 and 1 as elements 0 and 1
_ONE_LAW_BROKEN = {
    # a commutative loop under +, with the multiplication of Z/3
    "addition is not associative": (3, [[0, 1, 2], [1, 0, 0], [2, 0, 0]], [[0, 0, 0], [0, 1, 2], [0, 2, 1]]),
    # x*x = y, x*y = 1, y*y = 0: (x*x)*y = 0 but x*(x*y) = x
    "multiplication is not associative": (8, *f2_algebra({(1, 1): 4, (1, 2): 1, (2, 2): 0})),
    # Z/3 under + with 2*2 = 2: 2*(1+1) = 2 but 2*1 + 2*1 = 1
    "multiplication does not distribute": (3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], [[0, 0, 0], [0, 1, 2], [0, 2, 2]]),
}


class TestRings:
    def test_zmod1_trivial(self):
        r = ring_zmod(1)
        assert r.n == 1 and r.zero == r.one

    def test_zmod6(self):
        r = ring_zmod(6)
        assert r.n == 6
        assert r.mul[2][3] == 0

    def test_product_iso_crt(self):
        r = ring_product(ring_zmod(2), ring_zmod(3))
        assert ring_iso_search(r, ring_zmod(6)) is not None

    def test_no_iso_when_structures_differ(self):
        r = ring_product(ring_zmod(2), ring_zmod(2))
        assert ring_iso_search(r, ring_zmod(4)) is None

    def test_bad_table_rejected(self):
        with pytest.raises(InvalidStructure):
            FiniteCommRing(2, [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)

    @pytest.mark.parametrize("args", [
        (2, [[0, 1], [1]], [[0, 0], [0, 1]], 0, 1),
        (2, [[0, 1], [1, 0]], [[0, 0], [0, 1, 1]], 0, 1),
        (2, [[0, 1]], [[0, 0], [0, 1]], 0, 1),
        (2, [[0, 1], [1, 2]], [[0, 0], [0, 1]], 0, 1),
        (2, [[0, 1], [1, 0]], [[0, 0], [0, -1]], 0, 1),
        (2, [[0, 1], [1, -2]], [[0, 0], [0, 1]], 0, 1),
        (2, [[0, True], [True, 0]], [[0, 0], [0, 1]], 0, 1),
        (2, [[0, 1], [1, 0]], [[0, 0], [0, 1.0]], 0, 1),
        (2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], 7, 1),
        (2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, -1),
        (2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, True),
        (0, [], [], 0, 0),
    ], ids=["ragged-add", "ragged-mul", "short", "entry-too-big", "entry-negative",
            "entry-negative-in-range-from-the-end", "entry-bool", "entry-float",
            "zero-outside", "one-negative", "one-bool", "empty"])
    def test_malformed_tables_refused(self, args):
        with pytest.raises(InvalidStructure):
            FiniteCommRing(*args)

    def test_light_test_matches_triple_loop_on_rings(self):
        # the loop costs n^3, so it runs on the rings with at most 20 elements
        for r in oracle_rings():
            checked(r)  # raises on a law it finds broken
            assert r.n > 20 or brute_ring_laws(r) == set(), r.n

    @pytest.mark.parametrize("law", RING_LAWS)
    def test_each_law_message_fires_alone(self, law):
        n, add, mul = _ONE_LAW_BROKEN[law]
        unchecked = FiniteCommRing(n, add, mul, 0, 1, _checked=True)
        assert brute_ring_laws(unchecked) == {law}
        with pytest.raises(InvalidStructure, match=law):
            FiniteCommRing(n, add, mul, 0, 1)

    def test_distributivity_is_checked_at_every_generator(self):
        # + is XOR on three bits, so G = [1, 2, 4]; a(x + 1) = ax + a for
        # all a, x, so only the later generators show that * does not
        # distribute (it is not associative either)
        add = [[a ^ b for b in range(8)] for a in range(8)]
        mul = [[0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6, 7], [0, 2, 0, 2, 0, 2, 0, 2],
               [0, 3, 2, 1, 4, 7, 6, 5], [0, 4, 0, 4, 0, 4, 0, 4], [0, 5, 2, 7, 4, 1, 6, 3],
               [0, 6, 0, 6, 0, 6, 1, 7], [0, 7, 2, 5, 4, 3, 7, 0]]
        assert all(mul[a][x ^ 1] == mul[a][x] ^ a for a in range(8) for x in range(8))
        assert brute_ring_laws(FiniteCommRing(8, add, mul, 0, 1, _checked=True)) == set(RING_LAWS[1:])
        with pytest.raises(InvalidStructure, match="multiplication does not distribute"):
            FiniteCommRing(8, add, mul, 0, 1)

    def test_corrupted_tables_match_triple_loop(self):
        # one entry and its mirror set to a random value (so + and * stay
        # commutative), off the identity's row and column; about one in n
        # draws keeps the entry, so sound tables are in the sweep too
        rng = random.Random(19)
        bases = list(prime_field_products(18)) + non_reduced_products()
        compared = faulty = 0
        for _ in range(230):
            base = rng.choice(bases)
            tables = {"add": [list(r) for r in base.add], "mul": [list(r) for r in base.mul]}
            name = rng.choice(["add", "mul"])
            ident = base.zero if name == "add" else base.one
            a, b = rng.sample([x for x in range(base.n) if x != ident], 2) if base.n > 2 else (1, 1)
            tables[name][a][b] = tables[name][b][a] = rng.randrange(base.n)
            args = (base.n, tables["add"], tables["mul"], base.zero, base.one)
            try:
                FiniteCommRing(*args)
                msg = None
            except InvalidStructure as exc:
                msg = str(exc)
            if msg is not None and msg not in RING_LAWS:
                continue  # a corruption that took away an additive inverse
            broken = brute_ring_laws(FiniteCommRing(*args, _checked=True))
            # addition first, then distributivity, then multiplication
            first = next((law for law in (RING_LAWS[0], RING_LAWS[2], RING_LAWS[1]) if law in broken), None)
            assert msg == first, (base.n, name, a, b, broken)
            compared += 1
            faulty += msg is not None
        # 223 compared, 196 of them faulty
        assert compared >= 200 and compared - 50 <= faulty <= compared - 10, (compared, faulty)


def naive_ideal(ring, gens):
    """Oracle: grow the set until it is closed under + and under
    multiplication by every ring element."""
    out = {ring.zero, *gens}
    while True:
        grown = (out | {ring.add[a][b] for a in out for b in out}
                 | {ring.mul[a][r] for a in out for r in range(ring.n)})
        if grown == out:
            return mask_of(out)
        out = grown


class TestIdeals:
    def test_zmod_ideals_are_divisors(self):
        # the ideals of Z/n are the (d) for the divisors d of n
        for n in range(1, 61):
            divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert len(all_ideals(ring_zmod(n))) == divisors, n

    def test_ideals_of_products_of_zmod_are_principal(self):
        # a product of rings Z/n is a principal ideal ring (I x J is
        # generated by (g, h) when g and h generate I and J), so all_ideals,
        # seeded from the rows of the product table, lists the ideals
        # generated by one element each
        for r in oracle_rings():
            assert all_ideals(r) == sorted({ideal_generated(r, [g]) for g in range(r.n)}), r.n

    def test_ideal_generated_matches_naive_fixpoint(self):
        rings = [ring_zmod(n) for n in range(1, 31)] + list(prime_field_products(36))
        for r in rings:
            for size in range(3):
                for gens in combinations(range(r.n), size):
                    assert ideal_generated(r, gens) == naive_ideal(r, gens), (r.n, gens)

    def test_primes_zmod6(self):
        r = ring_zmod(6)
        ps = prime_ideals(r)
        assert len(ps) == 2
        assert mask_of([0, 2, 4]) in ps and mask_of([0, 3]) in ps

    def test_primes_zmod4(self):
        assert len(prime_ideals(ring_zmod(4))) == 1

    def test_primes_zmod_p(self):
        for p in (2, 3, 5, 7):
            ps = prime_ideals(ring_zmod(p))
            assert ps == [1 << 0]

    def test_trivial_ring_no_proper_ideals(self):
        assert proper_ideals(ring_zmod(1)) == []

    def test_prime_filters_are_complements(self):
        r = ring_zmod(12)
        full = (1 << r.n) - 1
        assert sorted(full & ~P for P in prime_ideals(r)) == prime_filters_ring(r)

    def test_maximal_ideals_match_product_scan(self):
        for r in oracle_rings():
            assert prime_ideals(r) == brute_prime_ideals(r), r.n

    @pytest.mark.parametrize("planted, message", [
        (mask_of(range(6)), "unit clauses"),        # holds 1: its complement misses 1
        (0, "unit clauses"),                        # its complement holds 0
        (mask_of([0]), "product clause"),           # 2 * 3 = 0, not prime
        (mask_of([0, 2, 3, 4]), "sum clause"),      # the units {1, 5}: 2 + 3 = 5
    ])
    def test_prime_filter_recheck_planted_faults(self, planted, message):
        # planted among the primes that the ring's site keeps
        r = ring_zmod(6)
        r.site.primes = prime_ideals(r) + [planted]
        with pytest.raises(CheckFailed, match=f"prime filter fails the {message}"):
            prime_filters_ring(r)


class TestSMonoid:
    def test_zmod2(self):
        po, pi, s = s_monoid(ring_zmod(2))
        assert po.n == 2

    def test_zmod4_collapses_two_with_zero(self):
        po, pi, s = s_monoid(ring_zmod(4))
        assert po.n == 2
        assert pi[0] == pi[2]
        assert pi[1] == pi[3]

    def test_zmod6_four_classes(self):
        po, pi, s = s_monoid(ring_zmod(6))
        assert po.n == 4
        assert pi[2] == pi[4]
        assert pi[1] == pi[5]
        assert len({pi[0], pi[2], pi[3]}) == 3

    def test_congruence_matches_oracle(self):
        for n in range(1, 31):
            r = ring_zmod(n)
            po, pi, s = s_monoid(r)
            assert sorted(s.classes) == brute_s_congruence(r)

    def test_idempotent_classes_match_union_find_fixpoint(self):
        # same classes, numbered in the same order (by least member)
        for r in oracle_rings():
            assert list(s_monoid(r)[2].classes) == fixpoint_s_congruence(r), r.n

    def test_a_product_that_is_not_the_meet_is_caught(self, monkeypatch):
        # S(A) ordered upside down, where its products are joins
        real = zariski.Poset
        monkeypatch.setattr(zariski, "Poset", lambda n, up, labels: real(n, up, labels=labels).op())
        with pytest.raises(CheckFailed, match="product is not the meet"):
            s_monoid(ring_zmod(6))

    def test_product_monoid(self):
        r = ring_product(ring_zmod(2), ring_zmod(2))
        po, pi, s = s_monoid(r)
        assert po.n == 4  # already idempotent


class TestCoverage:
    def test_zmod2_empty_covers_zero(self):
        r = ring_zmod(2)
        po, pi, s = s_monoid(r)
        cov = zariski_coverage(r)
        assert 0 in cov.covers[pi[0]]

    def test_zmod6_atoms_cover_top(self):
        r = ring_zmod(6)
        po, pi, s = s_monoid(r)
        cov = zariski_coverage(r)
        # classes of 2 and 3 cover the class of 1 (e.g. 4 + 3 = 1)
        fam = (1 << pi[2]) | (1 << pi[3])
        assert any(fam & ~f == 0 or f == fam for f in cov.covers[pi[1]] if f & ~po.dn[pi[1]] == 0)
        assert fam in cov.covers[pi[1]]

    def test_saturation_matches_power_combination_predicate(self):
        for n in range(1, 31):
            r = ring_zmod(n)
            po, pi, s = s_monoid(r)
            J = saturate(zariski_coverage(r))
            for x in range(po.n):
                for sieve in [m for m in range(1 << po.n) if m & ~po.dn[x] == 0 and po.is_down_closed(m)]:
                    assert (sieve in J.sieves[x]) == power_combination_covers(r, s, x, sieve), (n, x, sieve)

    def test_closure_matches_generic(self):
        for n in (2, 4, 6, 12):
            r = ring_zmod(n)
            po, pi, s = s_monoid(r)
            J = saturate(zariski_coverage(r))
            assert r.site.topology.dmask == J.dmask
            for m in po.down_sets():
                assert zariski_closure(r, m) == j_closure(J, m)

    def test_closure_matches_fixpoint(self):
        # every down-set of S(A) up to 16 classes; past that the
        # principal down-sets and their pairwise unions
        for r in closure_rings():
            s = r.site.s
            dn = s.poset.dn
            masks = s.poset.down_sets() if s.n <= 16 else \
                [a | b for i, a in enumerate(dn) for b in dn[i:]]
            for m in masks:
                assert zariski_closure(r, m) == fixpoint_zariski_closure(r, s, m), (r.n, m)

    def test_frame_and_primes_match_fixpoint_oracles(self):
        for r in closure_rings():
            fr = fixpoint_zariski_frame(r)
            assert zariski_ideal_frame(r).element_masks == fr.element_masks, r.n
            assert prime_ideals(r) == brute_prime_ideals(r), r.n
            # iso_search's signature dropped the height walk
            assert all(height_walk(fr.poset, i) == (popcount(d) > 1)
                       for i, d in enumerate(fr.poset.dn)), r.n

    def test_a_missed_prime_is_caught(self, monkeypatch, capsys):
        from stonework.cli import main

        real = zariski.prime_ideals
        monkeypatch.setattr(zariski, "prime_ideals", lambda ring: real(ring)[1:])
        with pytest.raises(CheckFailed, match="not the prime ideals"):
            ring_zmod(30).site.topology
        assert main(["zariski", "--ring", "zmod:30"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "CheckFailed", "message": "the points of the Zariski site are not the prime ideals"}


class TestLattice:
    def test_zmod4_two_elements(self):
        fr, D = zariski_lattice(ring_zmod(4))
        assert fr.n == 2
        assert D[2] == fr.bot  # D(2) = 0 since 2^2 = 0

    def test_zmod6_boolean4(self):
        fr, D = zariski_lattice(ring_zmod(6))
        assert fr.n == 4
        assert fr.meet[D[2]][D[3]] == fr.bot
        assert fr.join[D[2]][D[3]] == fr.top

    def test_zmod1_degenerate(self):
        fr, D = zariski_lattice(ring_zmod(1))
        assert fr.n == 1

    def test_guard_applies_with_a_site(self):
        # the ring's site keeps the frame, and a smaller guard still refuses
        r = ring_zmod(6)
        with pytest.raises(GuardExceeded):
            zariski_lattice(r, guard=3)
        fr, _ = zariski_lattice(r)
        assert fr is r.site.frame() and fr.n == 4
        with pytest.raises(GuardExceeded, match="zariski ideal frame"):
            zariski_lattice(r, guard=3)
        assert zariski_lattice(r, guard=4)[0] is fr

    def test_both_constructions_small_corpus(self):
        for n in range(1, 16):
            zariski_lattice(ring_zmod(n))  # raises on mismatch

    def test_d_presentation_models_match_brute_force(self):
        # every relation has the shapes _passing reads without the evaluator
        for n in range(1, 11):
            ring = ring_zmod(n)
            presentations = [zariski_presentation(ring)]
            if n <= 8:
                presentations.append(element_presentation(ring))
            for pres in presentations:
                k = len(pres.generators)

                def holds(rel, m):
                    v1, v2 = eval_code(rel[1], m), eval_code(rel[2], m)
                    return v1 <= v2 if rel[0] == "<=" else v1 == v2

                want = [m for m in range(1 << k) if all(holds(rel, m) for rel in pres.relations)]
                assert relation_models(pres) == want, (n, k)

    def test_streamed_buckets_match_the_held_presentation(self):
        # the D presentations make their relations bucket by bucket;
        # held by the checking constructor, the same relations fall into
        # the same buckets, and the model search finds the same models
        rings = ([ring_zmod(n) for n in range(1, 61)] + list(prime_field_products(36))
                 + non_reduced_products())
        for ring in rings:
            s = ring.site.s
            triples = {(min(s.pi[a], s.pi[b]), max(s.pi[a], s.pi[b]), s.pi[ring.add[a][b]])
                       for a in range(ring.n) for b in range(ring.n)}
            for pres, count in ((zariski_presentation(ring), s.n * (s.n + 1) // 2 + len(triples) + 2),
                                (op_ideal_presentation(ring), ring.n * (ring.n + 1) + 2)):
                held = Presentation(pres.generators, pres.relations, "coherent")
                assert len(pres.relations) == len(held.relations) == count
                streamed = list(pres.buckets())
                assert len(streamed) == len(held._by_top) == len(pres.generators) + 1
                for bucket, want in zip(streamed, held._by_top):
                    assert Counter(bucket) == Counter(want), ring.n
                assert relation_models(pres) == relation_models(held), ring.n

    def test_class_presentation_presents_the_element_lattice(self):
        # the models of the element presentation are the class models
        # read through pi, so a bit permutation of the models carries the
        # class lattice onto the element lattice, with D(pi a) sent to D(a)
        for ring in oracle_rings():
            pi = ring.site.s.pi
            lifted = [mask_of(a for a, x in enumerate(pi) if m >> x & 1)
                      for m in relation_models(zariski_presentation(ring))]
            held = element_presentation(ring)
            models = relation_models(held)
            assert sorted(lifted) == models, ring.n
            moved = [models.index(m) for m in lifted]

            def move(mask):
                return mask_of(moved[j] for j in bits(mask))

            classes = present_semantic(zariski_presentation(ring))
            elements = present_semantic(held)
            image = [elements.frame.index[move(m)] for m in classes.frame.element_masks]
            assert sorted(image) == list(range(elements.frame.n)), ring.n
            assert [image[classes.gen_elements[x]] for x in pi] == list(elements.gen_elements), ring.n

    @pytest.mark.parametrize("n, a, e", [(6, 3, 4), (30, 2, 1)])
    def test_a_merged_s_monoid_is_caught(self, monkeypatch, n, a, e):
        # both routes read S(A): with the class of a merged into the class
        # of the idempotent e, the check of the classes against the prime
        # ideals fails, and so does the element oracle
        real = zariski._powers_till_cycle
        ring = ring_zmod(n)
        s = ring.site.s
        merged = s.classes[s.pi[a]] | s.classes[s.pi[e]]
        monkeypatch.setattr(zariski, "_powers_till_cycle",
                            lambda r, b: [e] + real(r, b) if (s.classes[s.pi[a]] >> b) & 1 else real(r, b))
        ring = ring_zmod(n)
        assert merged in ring.site.s.classes
        with pytest.raises(CheckFailed, match="prime ideals"):
            zariski_lattice(ring)
        pi = ring.site.s.pi
        lifted = {mask_of(b for b, x in enumerate(pi) if m >> x & 1)
                  for m in relation_models(zariski_presentation(ring))}
        assert lifted != set(relation_models(element_presentation(ring)))

    def test_frame_tables_match_cell_loop(self):
        for n in range(1, 41):
            r = ring_zmod(n)
            _, _, s = s_monoid(r)
            fr = zariski_ideal_frame(r)
            meet, join = cell_frame_tables(fr.element_masks, lambda m: fixpoint_zariski_closure(r, s, m))
            assert fr.meet == tuple(map(tuple, meet)) and fr.join == tuple(map(tuple, join)), n


class TestSpectra:
    def test_zariski_command_finds_the_primes_once(self, monkeypatch, capsys):
        from stonework.cli import main

        calls = []

        def counted(ring):
            calls.append(ring.n)
            return prime_ideals(ring)

        monkeypatch.setattr(zariski, "prime_ideals", counted)
        assert main(["zariski", "--ring", "zmod:30"]) == 0
        capsys.readouterr()
        assert calls == [30]

    def test_spec_zmod6_discrete(self):
        sp, primes = spec_space(ring_zmod(6))
        assert sp.n == 2
        assert len(sp.opens) == 4

    def test_spec_zmod4_one_point(self):
        sp, primes = spec_space(ring_zmod(4))
        assert sp.n == 1

    def test_homeomorphism_small(self):
        for n in (1, 2, 4, 6, 12, 30):
            spectra_homeomorphism(ring_zmod(n))

    def test_point_space_matches_generic_filters(self):
        for n in (2, 4, 6, 12):
            r = ring_zmod(n)
            po, pi, s = s_monoid(r)
            sp, filters = zariski_point_space(r)
            J = saturate(zariski_coverage(r))
            assert filters == j_prime_filters(J)

    @pytest.mark.parametrize("classes, message", [
        ([], "empty filter"),
        (["2"], "not up-closed"),                # misses [1] above [2]
        (["2", "3", "1"], "not meet-closed"),     # [2] & [3] = [0]
        (["0", "2", "3", "1"], "class of 0"),
        (["1"], "misses a sum decomposition"),  # 1 = 3 + 4 with neither a unit
    ])
    def test_c_prime_recheck_planted_faults(self, classes, message):
        r = ring_zmod(6)
        po, pi, s = s_monoid(r)
        by_label = {po.label(x)[1:-1]: x for x in range(po.n)}
        planted = mask_of(by_label[c] for c in classes)
        good = zariski_point_space(r)[1]
        with pytest.raises(CheckFailed, match=message):
            zariski._check_c_prime(r, s, good + [planted])

    def test_product_ring_homeomorphism(self):
        r = ring_product(ring_zmod(2), ring_zmod(3))
        spectra_homeomorphism(r)
        r = ring_product(ring_zmod(2), ring_zmod(2))
        spectra_homeomorphism(r)


class TestRadical:
    def test_zmod12_example(self):
        r = ring_zmod(12)
        assert radical_membership(r, 2, [4, 6])  # 2^2 = 4 lies in (4,6)

    def test_one_with_empty_ideal(self):
        r = ring_zmod(6)
        assert not radical_membership(r, 1, [])

    def test_zero_always(self):
        r = ring_zmod(6)
        assert radical_membership(r, 0, [])

    def test_agreement_sweep(self):
        for n in (2, 6, 8, 9, 12):
            r = ring_zmod(n)
            for a in range(n):
                for b in range(n):
                    radical_membership(r, a, [b])  # raises on disagreement


class TestOpIdeals:
    def test_zmod4_two_points(self):
        sp, props = op_ideal_space(ring_zmod(4))
        assert sp.n == 2

    def test_zmod_p_one_point(self):
        sp, props = op_ideal_space(ring_zmod(5))
        assert sp.n == 1

    def test_trivial_ring_empty(self):
        sp, props = op_ideal_space(ring_zmod(1))
        assert sp.n == 0

    def test_lattice_cross_check(self):
        for n in range(1, 41):
            op_ideal_lattice(ring_zmod(n))  # raises on mismatch
            # the proper ideals of Z/n are the (d) for the divisors d > 1 of n
            divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert op_ideal_space(ring_zmod(n))[0].n == divisors - 1, n

    def test_iso_witness_is_a_lattice_iso(self):
        # op_ideal_lattice checks only that the two orders are isomorphic;
        # each witness also preserves the bounds, meets and joins
        for n in range(1, 61):
            lat, space = op_ideal_lattice(ring_zmod(n))
            opens = space.opens_frame()
            wit = iso_search(lat.frame, opens)
            assert wit is not None and frame_hom_failure(lat.frame, opens, wit) is None, n


def test_ring_ideal_wrapper():
    from stonework.bits import mask_of
    from stonework.zariski import RingIdeal

    r = ring_zmod(6)
    ideal = RingIdeal(r, mask_of([0, 2, 4]))
    assert ideal.prime and 2 in ideal and 3 not in ideal
    with pytest.raises(InvalidStructure):
        RingIdeal(r, mask_of([0, 2]))  # not closed under addition
    with pytest.raises(InvalidStructure):
        RingIdeal(r, mask_of([0, 2, 4]), prime=False)  # wrong flag
