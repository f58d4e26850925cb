"""order-core: preorders, quotients, lower sets, flatness, iso search."""

from operator import or_

import pytest

from stonework.bits import bits, mask_of, popcount
from stonework.corpus import all_preorders, posets_upto
from stonework.errors import GuardExceeded, InvalidStructure
from stonework.order import (
    MonotoneMap,
    Poset,
    Preorder,
    as_poset,
    closed_family,
    identity_map,
    is_flat,
    iso_search,
    lower_sets,
    poset_quotient,
    preorder_from_pairs,
    transitive_reduction,
    upper_sets,
    validate_preorder,
)


def brute_down_sets(p):
    """Oracle: filter every subset for down-closure."""
    out = []
    for m in range(1 << p.n):
        if all(p.dn[i] & ~m == 0 for i in bits(m)):
            out.append(m)
    return out


class TestValidatePreorder:
    def test_identity_matrix_gives_discrete(self):
        p, changed = validate_preorder([[i == j for j in range(3)] for i in range(3)])
        assert not changed
        assert all(p.leq(i, j) == (i == j) for i in range(3) for j in range(3))

    def test_transitivity_forced(self):
        m = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        p, changed = validate_preorder(m)
        assert changed
        assert p.leq(0, 2)

    def test_symmetric_pair_is_preorder_not_poset(self):
        m = [[1, 1], [1, 1]]
        p, changed = validate_preorder(m)
        assert not changed
        assert p.leq(0, 1) and p.leq(1, 0)
        with pytest.raises(InvalidStructure):
            Poset(p.n, p.up)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidStructure):
            validate_preorder([[1, 0], [0]])


class TestPosetQuotient:
    def test_two_cycle_collapses(self):
        p = preorder_from_pairs(2, [(0, 1), (1, 0)])
        q, surj = poset_quotient(p)
        assert q.n == 1
        assert surj.is_surjective()

    def test_idempotent_on_posets(self, chain3):
        q, surj = poset_quotient(chain3)
        assert q == as_poset(chain3)
        assert list(surj.f) == [0, 1, 2]

    def test_four_cycle_two_pairs(self):
        # two mutually-equivalent pairs, one below the other
        p = preorder_from_pairs(4, [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)])
        q, surj = poset_quotient(p)
        # oracle: union-find over mutual pairs gives two classes
        classes = set()
        for i in range(4):
            classes.add(p.up[i] & p.dn[i])
        assert q.n == len(classes) == 2
        assert q.leq(surj(0), surj(2))
        assert not q.leq(surj(2), surj(0))


class TestLowerUpperSets:
    def test_chain2_gives_3_chain(self, chain2):
        fr = lower_sets(chain2)
        assert fr.n == 3
        assert sorted(fr.element_masks) == sorted(brute_down_sets(chain2))
        assert fr.element_masks == (0b00, 0b01, 0b11)

    def test_antichain2_gives_boolean4(self, antichain2):
        fr = lower_sets(antichain2)
        assert fr.n == 4
        assert fr.element_masks == (0, 1, 2, 3)
        a, b = 1, 2
        assert fr.meet[a][b] == 0 and fr.join[a][b] == 3

    def test_empty_poset(self):
        fr = lower_sets(preorder_from_pairs(0, []))
        assert fr.n == 1
        assert fr.bot == fr.top == 0

    def test_frame_invariants_exhaustive_small(self):
        for p in posets_upto(5):
            fr = lower_sets(p)
            assert fr.n == len(brute_down_sets(p))
            assert all(fr.index[m] == i for i, m in enumerate(fr.element_masks))
            # FiniteFrame constructor already verified the lattice laws

    def test_upper_sets_is_lower_sets_of_op(self):
        for p in posets_upto(4):
            assert iso_search(upper_sets(p), lower_sets(p.op())) is not None


class TestRestrict:
    def test_matches_naive_restriction(self):
        for n in range(5):
            for q in all_preorders(n):
                variants = [q, Preorder(n, q.up, labels=[f"x{i}" for i in range(n)])]
                if poset_quotient(q)[0].n == n:
                    variants.append(Poset(n, q.up, labels=[f"y{i}" for i in range(n)]))
                for p in variants:
                    for m in range(1 << n):
                        elems = list(bits(m))[::-1]
                        sub = p.restrict(elems)
                        assert type(sub) is type(p)
                        assert sub.up == tuple(
                            mask_of(k for k, b in enumerate(elems) if p.leq(a, b)) for a in elems
                        )
                        assert sub.labels == tuple(p.label(e) for e in elems)


class TestClosedFamily:
    def test_unions_of_principals_are_the_down_sets(self):
        for p in posets_upto(4):
            assert closed_family([0], p.dn, or_) == set(brute_down_sets(p))

    def test_guard_stops_at_bound_plus_one(self):
        with pytest.raises(GuardExceeded) as exc:
            closed_family([0], [1, 2, 4, 8], or_, bound=5, what="subsets of four")
        assert (exc.value.what, exc.value.size, exc.value.bound) == ("subsets of four", 6, 5)
        assert str(exc.value) == "subsets of four would need 6 elements, over the guard of 5"
        assert len(closed_family([0], [1, 2, 4, 8], or_, bound=16)) == 16


class TestFlat:
    def test_identity_is_flat(self, chain3):
        assert is_flat(identity_map(chain3))

    def test_mslat_hom_is_flat(self, diamond):
        # meet-semilattice homomorphism diamond -> chain2: kill 0 and a, keep b and top
        chain = preorder_from_pairs(2, [(0, 1)])
        f = MonotoneMap(diamond, chain, [0, 0, 1, 1])
        assert _is_mslat_hom(f)
        assert is_flat(f)

    def test_constant_to_bottom_not_flat(self, antichain2, chain2):
        f = MonotoneMap(antichain2, chain2, [0, 0])
        # condition (i) fails: top of the chain is below no image
        assert not is_flat(f)

    def test_mslat_hom_iff_flat_on_meet_semilattices(self):
        # on finite meet-semilattices, flat == meet-semilattice homomorphism
        from stonework.corpus import meet_semilattices_upto

        slats = meet_semilattices_upto(3)
        for a in slats:
            for b in slats:
                for f in _all_monotone(a, b):
                    flat = is_flat(f)
                    hom = _is_mslat_hom(f)
                    assert flat == hom, (a, b, f.f)


def _all_monotone(a, b):
    maps = []

    def rec(i, acc):
        if i == a.n:
            maps.append(MonotoneMap(a, b, tuple(acc)))
            return
        for v in range(b.n):
            if all(not a.leq(j, i) or b.leq(acc[j], v) for j in range(i)) and all(
                not a.leq(i, j) or b.leq(v, acc[j]) for j in range(i)
            ):
                rec(i + 1, acc + [v])

    rec(0, [])
    return maps


def _is_mslat_hom(f):
    a, b = f.dom, f.cod
    atop = next(i for i in range(a.n) if popcount(a.dn[i]) == a.n)
    btop = next(i for i in range(b.n) if popcount(b.dn[i]) == b.n)
    if f(atop) != btop:
        return False
    for i in range(a.n):
        for j in range(a.n):
            m = a.glb((1 << i) | (1 << j))
            if b.glb((1 << f(i)) | (1 << f(j))) != f(m):
                return False
    return True


class TestIsoSearch:
    def test_chain3_vs_lower_sets_chain2(self, chain2, chain3):
        assert iso_search(as_poset(chain3), lower_sets(chain2).poset) is not None

    def test_different_cardinality(self, chain3, diamond):
        assert iso_search(as_poset(chain3), as_poset(diamond)) is None

    def test_identity_on_frame(self, diamond):
        fr = lower_sets(preorder_from_pairs(2, []))
        assert iso_search(fr, fr) == (0, 1, 2, 3)

    def test_symmetric(self):
        ps = posets_upto(4)
        for a in ps:
            for b in ps:
                assert (iso_search(a, b) is None) == (iso_search(b, a) is None)


def test_transitive_reduction_chain(chain3):
    assert transitive_reduction(chain3) == [(0, 1), (1, 2)]


def test_monotone_map_rejects_non_monotone(chain2, antichain2):
    with pytest.raises(InvalidStructure):
        MonotoneMap(chain2, chain2, [1, 0])
