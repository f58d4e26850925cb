"""order-core: preorders, quotients, lower sets, flatness, iso search."""

import random
import re
from operator import or_

import pytest

from stonework.bits import bits, mask_of, popcount
from stonework.corpus import (
    all_posets,
    all_preorders,
    distributive_lattices_upto,
    posets_upto,
    random_coverage,
)
from stonework.coverage import ideal_frame, j_closure
from stonework.errors import GuardExceeded, InvalidStructure
from stonework.order import (
    FiniteFrame,
    MonotoneMap,
    Poset,
    Preorder,
    as_poset,
    closed_family,
    frame_hom_failure,
    frame_of_down_sets,
    identity_map,
    inclusion_order,
    is_flat,
    iso_search,
    lower_sets,
    poset_quotient,
    preorder_from_pairs,
    transitive_reduction,
    upper_sets,
    validate_preorder,
)

from oracles import (
    brute_distributive_lattices,
    brute_down_sets,
    brute_up_sets,
    cell_frame_tables,
    cell_order_tables,
    cubic_frame_check,
    height_walk,
    least_iso,
    pairwise_dn,
    pairwise_inclusion_up,
    shift_bits,
)




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


class TestTableBuildersAgainstOracles:
    def test_bits_matches_shift_loop(self):
        import random

        rng = random.Random(11)
        masks = list(range(1 << 12))
        for width in (64, 120, 1024, 5000):
            for density in (0.02, 0.1, 0.5, 0.95):
                m = mask_of(i for i in range(width) if rng.random() < density) | (1 << (width - 1))
                masks.append(m)
                # whole zero bytes in the middle
                for _ in range(3):
                    k = rng.randrange(1, width // 8 - 1)
                    masks.append(m & ~(((1 << rng.randrange(8, 64)) - 1) << (8 * k)))
        for m in masks:
            assert list(bits(m)) == list(shift_bits(m)), m
        assert list(bits(0)) == []
        assert next(bits(1 << 4999)) == 4999

    def test_dn_and_inclusion_order_match_pairwise(self):
        import random

        for n in range(5):
            for q in all_preorders(n):
                assert q.dn == pairwise_dn(q.up)
        rng = random.Random(5)
        for _ in range(200):
            width = rng.randint(0, 70)
            masks = sorted({rng.getrandbits(width) & rng.getrandbits(width)
                            for _ in range(rng.randint(1, 12))} | {0})
            rng.shuffle(masks)
            order = inclusion_order(masks)
            assert list(order.up) == pairwise_inclusion_up(masks)
            assert order.dn == pairwise_dn(order.up)
            with pytest.raises(InvalidStructure, match="not antisymmetric"):
                inclusion_order(masks + [masks[-1]])

    def test_lower_set_frame_tables_match_cell_loop(self):
        for p in posets_upto(5):
            for fr in (lower_sets(p), upper_sets(p)):
                meet, join = cell_frame_tables(fr.element_masks)
                assert fr.meet == tuple(map(tuple, meet)) and fr.join == tuple(map(tuple, join))
                assert fr.poset.up == tuple(pairwise_inclusion_up(fr.element_masks))
                fr._check()

    def test_mask_tables_match_the_order_past_64(self):
        # past 64 elements a frame of sets makes its tables on first read,
        # from the masks: by intersection, by the union of D-parts, or by
        # a closure of the union
        frames = [lower_sets(preorder_from_pairs(7, [])), upper_sets(preorder_from_pairs(7, [(0, 1)]))]
        for seed in range(20):
            rng = random.Random(seed)
            p = preorder_from_pairs(9, [(rng.randrange(9), rng.randrange(9)) for _ in range(2)])
            J = random_coverage(p, rng)
            fr = ideal_frame(J)
            if fr.n > 64:
                frames.append(fr)
                close = lambda m, J=J: j_closure(J, m)
                frames.append(frame_of_down_sets(fr.element_masks, p, join_closure=close))
        assert len(frames) > 6
        for fr in frames:
            assert fr.n > 64 and "meet" not in vars(fr) and "join" not in vars(fr)
            meet, join = fr._tables_from_order()
            assert fr.meet == tuple(map(tuple, meet)) and fr.join == tuple(map(tuple, join))

    def test_unclosed_families_are_refused(self):
        with pytest.raises(InvalidStructure, match="closed under intersection"):
            frame_of_down_sets([0b011, 0b110, 0b111], None)
        with pytest.raises(InvalidStructure, match="closed under join"):
            frame_of_down_sets([0b00, 0b01, 0b10], None)


def _rejection(check, fr):
    """The message check(fr) raises, or None if it accepts."""
    try:
        check(fr)
    except InvalidStructure as exc:
        return str(exc)
    return None


def _assert_named_triple_breaks_the_law(fr, message):
    found = re.fullmatch(r"not distributive at \((\d+),(\d+),(\d+)\)", message or "")
    if found:
        a, b, c = map(int, found.groups())
        assert fr.meet[a][fr.join[b][c]] != fr.join[fr.meet[a][b]][fr.meet[a][c]], message


def _corruptions(fr, rng):
    """Unchecked copies of fr, each with one seeded fault in its meet or
    its join table: a single cell, a mirrored pair of cells, or two rows
    swapped."""
    for which in (0, 1):
        for fault in ("cell", "pair", "rows"):
            tables = [list(map(list, fr.meet)), list(map(list, fr.join))]
            t = tables[which]
            i, j = rng.sample(range(fr.n), 2)
            if fault == "rows":
                t[i], t[j] = t[j], t[i]
            else:
                if fault == "cell":
                    i = rng.randrange(fr.n)
                t[i][j] = rng.choice([x for x in range(fr.n) if x != t[i][j]])
                if fault == "pair":
                    t[j][i] = t[i][j]
            yield FiniteFrame(fr.poset, *tables, _checked=True)


class TestFrameCheckAgainstOracle:
    def test_lattices_up_to_six_elements(self):
        verdicts = []
        for p in posets_upto(6):
            try:
                fr = FiniteFrame(as_poset(p), _checked=True)
            except InvalidStructure:
                continue
            verdict = _rejection(FiniteFrame._check, fr)
            assert verdict == _rejection(cubic_frame_check, fr), p
            _assert_named_triple_breaks_the_law(fr, verdict)
            verdicts.append(verdict)
        # 25 lattices with 1 to 6 elements, 13 of them distributive
        assert len(verdicts) == 25 and verdicts.count(None) == 13
        assert all(v is None or v.startswith("not distributive at") for v in verdicts)

    def test_n5_and_m3_name_the_first_failing_triple(self):
        n5 = preorder_from_pairs(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
        m3 = preorder_from_pairs(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        for p, triple in ((n5, "(2,1,3)"), (m3, "(1,2,3)")):
            with pytest.raises(InvalidStructure) as exc:
                FiniteFrame(as_poset(p))
            assert str(exc.value) == f"not distributive at {triple}"

    def test_set_frames_and_their_corruptions(self):
        rng = random.Random(17)
        rejected = 0
        for p in posets_upto(5):
            for fr in (lower_sets(p), upper_sets(p)):
                assert _rejection(FiniteFrame._check, fr) is None
                assert _rejection(cubic_frame_check, fr) is None
                if fr.n < 2:
                    continue
                for bad in _corruptions(fr, rng):
                    verdict = _rejection(FiniteFrame._check, bad)
                    assert verdict is not None
                    assert verdict == _rejection(cubic_frame_check, bad)
                    _assert_named_triple_breaks_the_law(bad, verdict)
                    rejected += 1
        assert rejected == 6 * (2 * len(posets_upto(5)) - 2)

    def test_check_of_a_64_element_frame_reads_no_leq(self, monkeypatch):
        def refuse(self, i, j):
            raise AssertionError("Preorder.leq called")

        monkeypatch.setattr(Preorder, "leq", refuse)
        fr = lower_sets(preorder_from_pairs(6, []))
        assert fr.n == 64
        fr._check()

    def test_order_tables_match_cell_loop(self):
        for k in range(1, 6):
            for p in all_posets(k):
                try:
                    want = tuple(tuple(map(tuple, t)) for t in cell_order_tables(p))
                except InvalidStructure as exc:
                    want = str(exc)
                try:
                    fr = FiniteFrame(p, _checked=True)
                    got = (fr.meet, fr.join)
                except InvalidStructure as exc:
                    got = str(exc)
                assert got == want, p


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

    def test_down_and_up_sets_match_submask_scan(self):
        import random

        from stonework.corpus import random_preorder

        rng = random.Random(7)
        preorders = [q for n in range(5) for q in all_preorders(n)]
        preorders += [random_preorder(rng.randint(5, 7), rng) for _ in range(20)]
        for p in preorders:
            assert p.down_sets() == brute_down_sets(p)
            assert p.up_sets() == brute_up_sets(p)
            # every subset on the small carriers, the sieve carriers on the rest
            withins = range(1 << p.n) if p.n <= 4 else p.dn
            for within in withins:
                assert p.down_sets(within) == brute_down_sets(p, within)

    def test_down_sets_guard_stops_at_bound_plus_one(self):
        antichain3 = preorder_from_pairs(3, [])
        with pytest.raises(GuardExceeded) as exc:
            antichain3.down_sets(bound=5, what="down-sets")
        assert (exc.value.what, exc.value.size, exc.value.bound) == ("down-sets", 6, 5)
        with pytest.raises(GuardExceeded) as exc:
            antichain3.up_sets(bound=7, what="up-sets")
        assert exc.value.size == 8
        assert len(antichain3.down_sets(bound=8)) == len(antichain3.up_sets(bound=8)) == 8

    def test_lower_and_upper_set_frames_refused_by_real_size(self):
        chain24 = preorder_from_pairs(24, [(i, i + 1) for i in range(23)])
        assert lower_sets(chain24).n == upper_sets(chain24).n == 25
        with pytest.raises(GuardExceeded) as exc:
            lower_sets(chain24, guard=24)
        assert str(exc.value) == "lower-set frame would need 25 elements, over the guard of 24"

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

    def test_lexicographically_least_witness(self):
        ps = posets_upto(4) + [lower_sets(p).poset for p in posets_upto(3)]
        for a in ps:
            for b in ps:
                assert iso_search(a, b) == least_iso(a, b), (a, b)

    def test_witnesses_on_lattices_are_lattice_isos(self):
        # iso_search checks no lattice law after its search: an order
        # isomorphism between lattices is a lattice isomorphism, so each
        # witness passes the hom check, here against a shuffled copy of
        # every lattice with at most 6 elements, distributive or not
        rng = random.Random(6)
        lattices = 0
        for p in posets_upto(6):
            try:
                a = FiniteFrame(as_poset(p), _checked=True)
            except InvalidStructure:
                continue
            perm = rng.sample(range(p.n), p.n)
            up = [0] * p.n
            for i in range(p.n):
                up[perm[i]] = mask_of(perm[j] for j in bits(p.up[i]))
            b = FiniteFrame(Poset(p.n, up), _checked=True)
            for x, y in ((a, a), (a, b), (b, a)):
                wit = iso_search(x, y)
                assert wit is not None and frame_hom_failure(x, y, wit) is None, p
            lattices += 1
        assert lattices == 25  # 1, 1, 1, 2, 5 and 15 lattices of 1 to 6 elements

    def test_height_walk_adds_nothing_to_the_signature(self):
        # dn[i] is down-closed, so the first step down from i already
        # reaches everything below it: the walk is 1 iff i has anything
        # below it, which popcount(dn[i]) already tells
        elements = 0
        for p in posets_upto(6):
            for i in range(p.n):
                assert height_walk(p, i) == (popcount(p.dn[i]) > 1), (p, i)
            elements += p.n
        assert elements == 2307

    def test_no_recursion_limit(self):
        # one search step per element, past the interpreter's default
        # recursion limit of 1,000
        q = as_poset(preorder_from_pairs(1050, []))
        assert iso_search(q, q) == tuple(range(1050))


def test_transitive_reduction_chain(chain3):
    assert transitive_reduction(chain3) == [(0, 1), (1, 2)]


def test_monotone_map_rejects_non_monotone(chain2, antichain2):
    with pytest.raises(InvalidStructure):
        MonotoneMap(chain2, chain2, [1, 0])


def test_distributive_lattices_match_literal_definition():
    # only the (size-1)-chain among the posets of size-1 elements fits
    for size in range(7):
        got, want = distributive_lattices_upto(size), brute_distributive_lattices(size)
        assert [(fr.poset.up, fr.poset.labels, fr.element_masks) for fr in got] == \
            [(fr.poset.up, fr.poset.labels, fr.element_masks) for fr in want], size
