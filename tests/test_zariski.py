"""zariski: rings, S(A), the coverage, L(A), spectra, radicals, op-ideals."""

from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

from stonework.bits import mask_of
from stonework.coverage import j_closure, saturate
from stonework.errors import GuardExceeded, InvalidStructure
from stonework.spectra import j_prime_filters
from stonework import zariski
from stonework.zariski import (
    FiniteCommRing,
    ZariskiSite,
    all_ideals,
    ideal_generated,
    power_combination_covers,
    op_ideal_lattice,
    op_ideal_space,
    prime_filters_ring,
    prime_ideals,
    proper_ideals,
    radical_membership,
    ring_iso_search,
    ring_product,
    ring_zmod,
    s_monoid,
    spec_space,
    spectra_homeomorphism,
    zariski_closure,
    zariski_coverage,
    zariski_ideal_frame,
    zariski_lattice,
    zariski_point_space,
)

from oracles import brute_s_congruence, cell_frame_tables


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


def prime_field_products(bound):
    """Z/q1 x ... x Z/qk for primes q1 <= ... <= qk, k >= 2, at most `bound` elements."""
    primes = [q for q in range(2, bound // 2 + 1) if all(q % d for d in range(2, q))]
    for k in range(2, bound.bit_length()):
        for qs in combinations_with_replacement(primes, k):
            if prod(qs) <= bound:
                yield reduce(ring_product, map(ring_zmod, qs))


class TestIdeals:
    def test_zmod_ideals_are_divisors(self):
        # the ideals of Z/n are the (d) for the divisors d of n
        for n in range(1, 61):
            divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert len(all_ideals(ring_zmod(n))) == divisors, n

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

    def test_product_monoid(self):
        r = ring_product(ring_zmod(2), ring_zmod(2))
        po, pi, s = s_monoid(r)
        assert po.n == 4  # already idempotent


class TestCoverage:
    def test_zmod2_empty_covers_zero(self):
        r = ring_zmod(2)
        po, pi, s = s_monoid(r)
        cov = zariski_coverage(r, s)
        assert 0 in cov.covers[pi[0]]

    def test_zmod6_atoms_cover_top(self):
        r = ring_zmod(6)
        po, pi, s = s_monoid(r)
        cov = zariski_coverage(r, s)
        # classes of 2 and 3 cover the class of 1 (e.g. 4 + 3 = 1)
        fam = (1 << pi[2]) | (1 << pi[3])
        assert any(fam & ~f == 0 or f == fam for f in cov.covers[pi[1]] if f & ~po.dn[pi[1]] == 0)
        assert fam in cov.covers[pi[1]]

    def test_saturation_matches_power_combination_predicate(self):
        for n in range(1, 31):
            r = ring_zmod(n)
            po, pi, s = s_monoid(r)
            J = saturate(zariski_coverage(r, s))
            for x in range(po.n):
                for sieve in [m for m in range(1 << po.n) if m & ~po.dn[x] == 0 and po.is_down_closed(m)]:
                    assert (sieve in J.sieves[x]) == power_combination_covers(r, s, x, sieve), (n, x, sieve)

    def test_closure_matches_generic(self):
        for n in (2, 4, 6, 12):
            r = ring_zmod(n)
            po, pi, s = s_monoid(r)
            J = saturate(zariski_coverage(r, s))
            for m in po.down_sets():
                assert zariski_closure(r, s, m) == j_closure(J, m)


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
        r = ring_zmod(6)
        site = ZariskiSite(r)
        with pytest.raises(GuardExceeded):
            zariski_lattice(r, guard=3, site=site)
        fr, _ = zariski_lattice(r, site=site)
        assert fr is site.frame and fr.n == 4

    def test_both_constructions_small_corpus(self):
        for n in range(1, 16):
            zariski_lattice(ring_zmod(n))  # raises on mismatch

    def test_frame_tables_match_cell_loop(self):
        for n in range(1, 41):
            r = ring_zmod(n)
            _, _, s = s_monoid(r)
            fr = zariski_ideal_frame(r, s)
            meet, join = cell_frame_tables(fr.element_masks, lambda m: zariski_closure(r, s, m))
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
            sp, filters = zariski_point_space(r, s)
            J = saturate(zariski_coverage(r, s))
            assert filters == j_prime_filters(J)

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
