"""Brute-force oracles for the fast paths that enumerate from theorems.

Each function here is the literal definition, searched exhaustively: the
submask scan for down-sets, generate-and-test for topologies, the
fixpoint of the saturation rules, the fixpoint of the closure rule, the
2**n scans for prime filters, completely prime filters and supercompact
elements, the antichain-cover search for C-compact, indecomposable and
directedly irreducible elements, the congruence of S(A) as a
transitive closure and as a fixpoint of union-find rounds, the
congruence of a presented distributive lattice as a fixpoint of
union-find rounds, prime ideals by the product scan, and the ring laws
by the loop over all triples.  The Zariski lattice keeps its
presentation on the ring's elements, one generator D(a) per element,
against the library's on the classes of S(A); the Zariski coverage is
kept as sieve tables, each covering family tested by the sums of its
members, its closure as the fixpoint of the arithmetic covering test,
with the frame of its fixed sets closed under the closed union, and
ring isomorphisms as a search over assignments.  The breadth-first
height walk that iso_search once put in its signature is kept too.  They are
exponential, or of higher degree than the fast paths, and only meant
for small carriers.  The
rest are the direct forms of the table builders: bits by shifting,
relations pair by pair, frame tables cell by cell, the cubic check that
tables make a distributive lattice, and the subterminal space from the
ideal frame with its pairwise topology check.  The sieve loops that
the library's mask tests on D replaced are kept verbatim, each reading
the sieve table of the saturation or the raw families; so is the order
isomorphism search as a scan of permutations in lexicographic order.
Terms are also kept here as trees, with a recursive
evaluator, a conversion to the library's postfix codes and a
one-assignment evaluator of those codes; and the lattice corpus by its
literal definition.
"""

from itertools import combinations, permutations
from operator import or_

from stonework.bits import bits, mask_of, submasks
from stonework.corpus import posets_upto
from stonework.coverage import (
    Coverage,
    GrothendieckTopology,
    all_sieves,
    ideal_frame,
    saturate,
    topology_failure,
)
from stonework.duality import supercompact_elements
from stonework.errors import CheckFailed, GuardExceeded, InvalidStructure
from stonework.order import closed_family, frame_of_down_sets, lower_sets, set_label
from stonework.presentations import JOIN, MEET, ONE, ZERO, Presentation, is_filtering
from stonework.spectra import TopSpace, j_prime_filters, space_from_subbasis
from stonework.zariski import all_ideals, power_combination_covers
from stonework import config


def brute_down_sets(p, within=None):
    """Every subset of `within` (default: all elements) closed downwards
    inside it, ascending."""
    within = (1 << p.n) - 1 if within is None else within
    return [m for m in submasks(within) if all(p.dn[i] & within & ~m == 0 for i in bits(m))]


def brute_up_sets(p):
    return [m for m in range(1 << p.n) if all(p.up[i] & ~m == 0 for i in bits(m))]


def brute_all_sieves(p, c):
    return brute_down_sets(p, p.dn[c])


def brute_topologies(p):
    """Every table of sieve sets that contains the maximal sieves and
    passes the axioms, sorted as corpus.all_grothendieck_topologies."""
    sieves = [brute_all_sieves(p, c) for c in range(p.n)]
    optional = [[s for s in sieves[c] if s != p.dn[c]] for c in range(p.n)]
    results = []

    def build(c, acc):
        if c == p.n:
            J = tuple(frozenset(a) for a in acc)
            if topology_failure(p, J, sieves) is None:
                results.append(J)
            return
        for pick in range(1 << len(optional[c])):
            build(c + 1, acc + [{p.dn[c]} | {optional[c][i] for i in bits(pick)}])

    build(0, [])
    results.sort(key=lambda J: tuple(tuple(sorted(s)) for s in J))
    return results


def fixpoint_saturation(cov):
    """The sieve table of the least topology containing a coverage's
    generators: close the generated sieves under maximality, stability,
    upward closure and transitivity until nothing changes."""
    p = cov.base
    all_s = [brute_all_sieves(p, c) for c in range(p.n)]
    J = [set() for _ in range(p.n)]
    for c in range(p.n):
        J[c].add(p.dn[c])
        for fam in cov.covers[c]:
            J[c].add(p.down_closure(fam))
    changed = True
    while changed:
        changed = False
        for c in range(p.n):
            for s in list(J[c]):
                for c2 in bits(p.dn[c]):
                    r = s & p.dn[c2]
                    if r not in J[c2]:
                        J[c2].add(r)
                        changed = True
        for c in range(p.n):
            for s in all_s[c]:
                if s in J[c]:
                    continue
                for t in J[c]:
                    if t & ~s == 0 or all((s & p.dn[c2]) in J[c2] for c2 in bits(t)):
                        J[c].add(s)
                        changed = True
                        break
    return tuple(frozenset(s) for s in J)


def fixpoint_closure(p, families, mask):
    """Least down-set containing `mask` that takes in every c with a
    family in `families[c]` inside it: the J-closure when `families` is
    the sieve table of J, and the closure under the raw generators when
    it is a coverage's `covers`."""
    out = p.down_closure(mask)
    changed = True
    while changed:
        changed = False
        for d in range(p.n):
            if (out >> d) & 1:
                continue
            for fam in families[d]:
                if fam & ~out == 0:
                    out |= p.dn[d]
                    changed = True
                    break
    return out


def is_weakly_stable(cov):
    """Whether every generator, restricted to a smaller element, can be
    refined by a generator there."""
    p = cov.base
    for c in range(p.n):
        for fam in cov.covers[c]:
            sieve = p.down_closure(fam)
            for c2 in bits(p.dn[c]):
                ok = False
                for fam2 in cov.covers[c2]:
                    if fam2 & ~(sieve & p.dn[c2]) == 0:
                        ok = True
                        break
                if not ok and not any(
                    p.down_closure(fam2) & ~(sieve & p.dn[c2]) == 0 for fam2 in cov.covers[c2]
                ):
                    return False
    return True


def raw_closure_matches_saturation(cov):
    """Whether closing under the raw generators gives the closure under
    the saturation on every down-set; true on weakly stable coverages."""
    p = cov.base
    sieves = fixpoint_saturation(cov)
    return all(fixpoint_closure(p, cov.covers, m) == fixpoint_closure(p, sieves, m)
               for m in brute_down_sets(p))


def brute_dmask(p, sieves):
    """The D of J_D from a sieve table: the x that no covering sieve on x
    leaves out."""
    return mask_of(x for x in range(p.n) if all((s >> x) & 1 for s in sieves[x]))


def brute_ideal_frame(p, sieves):
    """(ideals ascending, meet table, join table) of the J-ideals, from
    the down-sets fixed by the fixpoint closure, tables cell by cell."""
    ideals = [m for m in brute_down_sets(p) if fixpoint_closure(p, sieves, m) == m]
    meet, join = cell_frame_tables(ideals, lambda m: fixpoint_closure(p, sieves, m))
    return ideals, meet, join


def brute_j_prime_filters(J):
    """Every subset of the carrier that is a J-prime filter, ascending."""
    return [m for m in range(1 << J.base.n) if loop_is_j_prime_filter(J, m)]


# ---------------------------------------------------------------------------
# the sieve loops that the mask tests on D replaced, verbatim


def loop_is_j_prime_filter(J, mask):
    """Nonempty, up-closed, downward-directed, and meeting some member of
    every covering sieve of every member."""
    p = J.base
    if mask == 0:
        return False
    for a in bits(mask):
        if p.up[a] & ~mask:
            return False
    for a in bits(mask):
        for b in bits(mask):
            if not (p.dn[a] & p.dn[b] & mask):
                return False
    if isinstance(J, GrothendieckTopology):
        for a in bits(mask):
            for s in J.sieves[a]:
                if not (s & mask):
                    return False
    else:
        for a in bits(mask):
            for fam in J.covers[a]:
                if not (fam & mask):
                    return False
    return True


def loop_is_j_filtering(J, frame, f):
    """Filtering, and every cover's images join to the member's image."""
    base = J.base
    if not is_filtering(base, frame, f):
        return False
    fams = J.sieves if isinstance(J, GrothendieckTopology) else J.covers
    for c in range(base.n):
        for fam in fams[c]:
            if frame.join_set(mask_of(f[d] for d in bits(fam))) != f[c]:
                return False
    return True


def loop_is_cover_preserving(f, J, K):
    """f sends J-covers to families generating K-covers."""
    J, K = saturate(J), saturate(K)
    for c in range(f.dom.n):
        for s in J.sieves[c]:
            image = mask_of(f(c2) for c2 in bits(s))
            sieve = f.cod.down_closure(image) & f.cod.dn[f(c)]
            if sieve not in K.sieves[f(c)]:
                return False, (c, s)
    return True, None


def loop_is_subcanonical(J):
    """Every covering sieve has the covered element as its supremum."""
    J = saturate(J)
    p = J.base
    for c in range(p.n):
        for s in J.sieves[c]:
            for c2 in range(p.n):
                if s & ~p.dn[c2] == 0 and not p.leq(c, c2):
                    return False
    return True


def loop_is_j_dense(J, dmask):
    """Density of a subset: every element has a covering family inside it.

    Families need not be down-closed, so the test is whether the sieve
    generated by D intersected with (c)down covers c.
    """
    J = saturate(J)
    p = J.base
    for c in range(p.n):
        if p.down_closure(dmask & p.dn[c]) not in J.sieves[c]:
            return False, c
    return True, None


def loop_induced_coverage(J, dmask):
    """The coverage a J-dense subset inherits: restrictions of covers."""
    J = saturate(J)
    p = J.base
    ok, witness = loop_is_j_dense(J, dmask)
    if not ok:
        raise InvalidStructure(f"subset is not dense: element {witness} has no covering inside it")
    delems = sorted(bits(dmask))
    pos = {e: i for i, e in enumerate(delems)}
    sub = p.restrict(delems)
    covers = []
    for a in delems:
        fams = set()
        for t in J.sieves[a]:
            fams.add(mask_of(pos[b] for b in bits(t & dmask)))
        covers.append(frozenset(fams))
    cov = Coverage(sub, covers)
    return sub, cov, delems


def loop_contains(J, J2):
    """Whether every J-covering sieve covers in J2, table against table:
    the containment check of subtopology_from_surjection."""
    J, J2 = saturate(J), saturate(J2)
    return all(J.sieves[c] <= J2.sieves[c] for c in range(J.base.n))


def loop_j_closed_sieves(J, c):
    """Sieves on c closed for the topology: containing every element
    whose restriction covers."""
    p = J.base
    out = []
    for s in all_sieves(p, c):
        closed = True
        for d in bits(p.dn[c]):
            if (s >> d) & 1:
                continue
            if (s & p.dn[d]) in J.sieves[d]:
                closed = False
                break
        if closed:
            out.append(s)
    return out


def loop_godel_dummett_site(J):
    """The site-level law: for J-closed sieves R, S on c, the sieve of
    elements where the restrictions nest is J-covering."""
    J = saturate(J)
    p = J.base
    for c in range(p.n):
        closed = loop_j_closed_sieves(J, c)
        for r in closed:
            for s in closed:
                t = mask_of(
                    d
                    for d in bits(p.dn[c])
                    if (r & p.dn[d]) & ~(s & p.dn[d]) == 0
                    or (s & p.dn[d]) & ~(r & p.dn[d]) == 0
                )
                if t not in J.sieves[c]:
                    return False
    return True


def least_iso(a, b):
    """The lexicographically least order isomorphism between two posets,
    as a tuple indexed by elements of `a`, or None: the first of all
    permutations, in order, that preserves and reflects the order."""
    if a.n != b.n:
        return None
    for perm in permutations(range(b.n)):
        if all(a.leq(i, j) == b.leq(perm[i], perm[j]) for i in range(a.n) for j in range(a.n)):
            return perm
    return None


def frame_subterminal_space(J):
    """The subterminal space as built from the ideal frame: opens from
    ideal_frame(J).element_masks, checked pairwise by TopSpace, then
    compared with the space the sub-basis {F_c} generates."""
    fr = ideal_frame(J)
    filters = j_prime_filters(J)
    n = len(filters)
    opens = {mask_of(i for i, F in enumerate(filters) if F & m) for m in fr.element_masks}
    labels = [set_label(J.base.label, F) for F in filters]
    space = TopSpace(n, opens, labels=labels)
    subbasis = [mask_of(i for i, F in enumerate(filters) if (F >> c) & 1) for c in range(J.base.n)]
    if space_from_subbasis(n, subbasis, labels=labels).opens != space.opens:
        raise CheckFailed("sub-basis {F_c} does not generate the subterminal topology")
    return space


def frame_enough_points(J):
    """(flag, ideal count, distinct extents) read off the ideal frame."""
    fr = ideal_frame(J)
    filters = j_prime_filters(J)
    extents = {mask_of(i for i, F in enumerate(filters) if F & m) for m in fr.element_masks}
    return len(extents) == fr.n, fr.n, len(extents)


def shift_bits(mask):
    """Indices of the set bits, ascending, by shifting through every
    bit position."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def pairwise_dn(up):
    """dn[j] of a relation given by up-masks: every i with j in up[i]."""
    n = len(up)
    return tuple(mask_of(i for i in range(n) if (up[i] >> j) & 1) for j in range(n))


def pairwise_inclusion_up(masks):
    """up[i] of the inclusion order: every j whose mask contains masks[i]."""
    return [mask_of(j for j, mj in enumerate(masks) if mi & ~mj == 0) for mi in masks]


def cell_frame_tables(elems, join_closure=None):
    """(meet, join) tables of a family of masks, one cell at a time: the
    index of the intersection, and of the union or its closure."""
    index = {m: i for i, m in enumerate(elems)}
    n = len(elems)
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for i, mi in enumerate(elems):
        for j, mj in enumerate(elems):
            meet[i][j] = index[mi & mj]
            uni = mi | mj
            if join_closure is not None:
                uni = join_closure(uni)
            join[i][j] = index[uni]
    return meet, join


def cell_order_tables(p):
    """(meet, join) tables of a lattice read off its order, one glb and
    one lub search per cell; raises InvalidStructure at the first cell,
    row by row, that lacks either."""
    meet = [[None] * p.n for _ in range(p.n)]
    join = [[None] * p.n for _ in range(p.n)]
    for i in range(p.n):
        for j in range(p.n):
            g = p.glb((1 << i) | (1 << j))
            l = p.lub((1 << i) | (1 << j))
            if g is None or l is None:
                raise InvalidStructure(f"elements {i},{j} lack a meet or join")
            meet[i][j] = g
            join[i][j] = l
    return meet, join


def cubic_frame_check(fr):
    """The definition of a distributive lattice checked cell by cell:
    commutative tables, every meet and join tested against every element
    through the order, then distributivity on every triple.  Raises
    InvalidStructure at the first failure."""
    p = fr.poset
    for i in range(fr.n):
        for j in range(fr.n):
            m, l = fr.meet[i][j], fr.join[i][j]
            if m != fr.meet[j][i] or l != fr.join[j][i]:
                raise InvalidStructure("meet/join tables not commutative")
            if not (p.leq(m, i) and p.leq(m, j) and p.leq(i, l) and p.leq(j, l)):
                raise InvalidStructure("meet/join tables disagree with the order")
            for k in range(fr.n):
                if p.leq(k, i) and p.leq(k, j) and not p.leq(k, m):
                    raise InvalidStructure(f"{m} is not the meet of {i},{j}")
                if p.leq(i, k) and p.leq(j, k) and not p.leq(l, k):
                    raise InvalidStructure(f"{l} is not the join of {i},{j}")
    for a in range(fr.n):
        for b in range(fr.n):
            for c in range(fr.n):
                if fr.meet[a][fr.join[b][c]] != fr.join[fr.meet[a][b]][fr.meet[a][c]]:
                    raise InvalidStructure(f"not distributive at ({a},{b},{c})")


def brute_completely_prime_filters(fr):
    """Every subset of a finite frame that is a completely prime filter:
    a nonempty up-set with the top, closed under meets, that meets every
    family whose join it holds; ascending."""
    out = []
    for m in range(1 << fr.n):
        if m == 0:
            continue
        ok = True
        for a in bits(m):
            if fr.poset.up[a] & ~m:
                ok = False
        if not ok:
            continue
        if (m >> fr.top) & 1 == 0:
            continue
        for a in bits(m):
            for b in bits(m):
                if not (m >> fr.meet[a][b]) & 1:
                    ok = False
        if not ok:
            continue
        for s in range(1 << fr.n):
            j = fr.join_set(s)
            if (m >> j) & 1 and not any((m >> x) & 1 for x in bits(s)):
                ok = False
                break
        if ok:
            out.append(m)
    return sorted(out)


def brute_supercompact_elements(fr):
    """Elements that every family with their join contains, testing every
    family below them."""
    out = []
    for a in range(fr.n):
        if a == fr.bot:
            # the empty family covers bot without containing it
            continue
        ok = True
        for fam in submasks(fr.poset.dn[a] & ~(1 << a)):
            if fr.join_set(fam) == a:
                ok = False
                break
        if ok:
            out.append(a)
    return out


def antichain_covers(fr, l):
    """Antichain families with join l; refinement-closed, so they decide
    C-compactness for every covering family."""
    below = [d for d in bits(fr.poset.dn[l])]
    out = []

    def rec(k, chosen, joined):
        if joined == l:
            out.append(tuple(chosen))
        for idx in range(k, len(below)):
            d = below[idx]
            if any(fr.leq(d, e) or fr.leq(e, d) for e in chosen):
                continue
            rec(idx + 1, chosen + [d], fr.join[joined][d])

    rec(0, [], fr.bot)
    return out


def has_refinement(fr, l, family, inv):
    """Whether some family refining `family` with the same join satisfies inv."""
    t = inv.tag
    fam = tuple(family)
    if inv.holds(fr, fam):
        return True
    if t == "All" or t == "Finite":
        return True
    if t in ("Singleton", "Directed"):
        # a finite directed family contains its own join, so both reduce
        # to some member lying above l
        return any(fr.leq(l, a) for a in fam)
    if t == "CardinalityLT":
        # members of a refinement may be replaced by the family elements
        # above them, so subfamilies suffice
        return has_small_subcover(fr, l, fam, inv.param - 1)
    if t in ("AtomicFinite", "Atomic"):
        atoms = [a for a in fr.atoms() if any(fr.leq(a, x) for x in fam)]
        return fr.join_set(mask_of(atoms)) == l
    if t in ("SupercompactFinite", "Supercompact"):
        scs = [a for a in supercompact_elements(fr) if any(fr.leq(a, x) for x in fam)]
        return fr.join_set(mask_of(scs)) == l
    if t in ("FiniteDisjoint", "Disjoint"):
        cands = sorted(
            set(
                b
                for b in range(fr.n)
                if b != fr.bot and any(fr.leq(b, x) for x in fam)
            )
        )

        def rec(k, chosen, joined):
            if joined == l:
                return True
            for idx in range(k, len(cands)):
                b = cands[idx]
                if any(fr.meet[b][c] != fr.bot for c in chosen):
                    continue
                if rec(idx + 1, chosen + [b], fr.join[joined][b]):
                    return True
            return False

        return rec(0, [], fr.bot)
    raise InvalidStructure(f"unhandled tag {t}")


def has_small_subcover(fr, l, fam, size):
    for r in range(0, size + 1):
        for combo in combinations(sorted(set(fam)), r):
            if fr.join_set(mask_of(combo)) == l:
                return True
    return False


def brute_is_c_compact(fr, l, inv):
    """Whether every antichain with join l has a refinement with join l
    satisfying inv."""
    return all(has_refinement(fr, l, fam, inv) for fam in antichain_covers(fr, l))


def brute_indecomposables(fr):
    """Elements that every pairwise disjoint antichain with their join
    contains."""
    out = []
    for a in range(fr.n):
        ok = True
        for fam in antichain_covers(fr, a):
            if all(
                fr.meet[x][y] == fr.bot for i, x in enumerate(fam) for y in fam[i + 1:]
            ):
                if a not in fam:
                    ok = False
                    break
        if ok:
            out.append(a)
    return out


def brute_directedly_irreducible(fr):
    """Elements that every nonempty directed family with their join
    contains, testing every family below them."""
    up = fr.poset.up
    out = []
    for d in range(fr.n):
        ok = True
        for fam_mask in submasks(fr.poset.dn[d] & ~(1 << d)):
            if not fam_mask or fr.join_set(fam_mask) != d:
                continue
            fam = tuple(bits(fam_mask))
            if all(up[a] & up[b] & fam_mask for a in fam for b in fam):
                ok = False
                break
        if ok:
            out.append(d)
    return out


def brute_s_congruence(ring):
    """Classes of the congruence of S(A) as masks, ascending: the
    transitive closure of the relation 'a and b are both of the form
    c^k * d'."""
    n = ring.n
    rel = [[False] * n for _ in range(n)]
    for c in range(n):
        powers = []
        seen = set()
        p = ring.one
        while True:
            p = ring.mul[p][c]
            if p in seen:
                break
            seen.add(p)
            powers.append(p)
        for d in range(n):
            forms = {ring.mul[p][d] for p in powers}
            for a in forms:
                for b in forms:
                    rel[a][b] = True
    for a in range(n):
        rel[a][a] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if not rel[a][b]:
                    continue
                for c in range(n):
                    if rel[b][c] and not rel[a][c]:
                        rel[a][c] = True
                        changed = True
    classes = []
    seenm = 0
    for a in range(n):
        if (seenm >> a) & 1:
            continue
        block = mask_of(b for b in range(n) if rel[a][b])
        classes.append(block)
        seenm |= block
    return sorted(classes)


def fixpoint_s_congruence(ring):
    """Classes of the least congruence of (A, *) with a ~ a*a, as masks
    in the order of their least members: union-find rounds that merge
    each a with a*a and, for each class, a*c with b*c for every member
    b, until a round merges nothing."""
    parent = list(range(ring.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            return True
        return False

    changed = True
    while changed:
        changed = False
        for a in range(ring.n):
            changed |= union(a, ring.mul[a][a])
        blocks = {}
        for a in range(ring.n):
            blocks.setdefault(find(a), []).append(a)
        for block in blocks.values():
            for other in block[1:]:
                for c in range(ring.n):
                    changed |= union(ring.mul[block[0]][c], ring.mul[other][c])
    roots = sorted({find(a) for a in range(ring.n)})
    return [mask_of(a for a in range(ring.n) if find(a) == r) for r in roots]


def is_prime_ideal(ring, mask):
    """Proper, and ab in the ideal puts a or b in it: the scan of all
    products."""
    if (mask >> ring.one) & 1:
        return False
    for a in range(ring.n):
        for b in range(ring.n):
            if (mask >> ring.mul[a][b]) & 1 and not (mask >> a) & 1 and not (mask >> b) & 1:
                return False
    return True


def brute_prime_ideals(ring):
    """The prime ideals among all ideals, ascending, by the product scan."""
    return [m for m in all_ideals(ring) if is_prime_ideal(ring, m)]


RING_LAWS = ("addition is not associative", "multiplication is not associative",
             "multiplication does not distribute")


def brute_ring_laws(ring):
    """The subset of RING_LAWS that fails somewhere, by the loop over all
    triples a, b, c."""
    add, mul, rng = ring.add, ring.mul, range(ring.n)
    broken = set()
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    broken.add(RING_LAWS[0])
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    broken.add(RING_LAWS[1])
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    broken.add(RING_LAWS[2])
    return broken


def fixpoint_congruence_roots(tables, pairs):
    """The congruence of the lattice `tables` (ints under & and |, closed
    under both) generated by identifying each pair of tables in `pairs`,
    as the least index of each table's class: every pair is merged, then
    every member of every class is merged with its class's first member
    under & and | with every table, round after round until a round
    merges nothing."""
    tidx = {t: i for i, t in enumerate(tables)}
    n = len(tables)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            return True
        return False

    pending = [(tidx[s], tidx[t]) for s, t in pairs]
    changed = True
    while changed:
        changed = False
        for x, y in pending:
            changed |= union(x, y)
        blocks = {}
        for i in range(n):
            blocks.setdefault(find(i), []).append(i)
        for block in blocks.values():
            rep = tables[block[0]]
            for other in block[1:]:
                o = tables[other]
                for z in tables:
                    changed |= union(tidx[rep & z], tidx[o & z])
                    changed |= union(tidx[rep | z], tidx[o | z])
    return [find(i) for i in range(n)]


def brute_distributive_lattices(size):
    """The lower-set frames of every poset with fewer than `size`
    elements that have at most `size` elements, posets in corpus order."""
    out = []
    for p in posets_upto(max(0, size - 1)):
        fr = lower_sets(p)
        if fr.n <= size:
            out.append(fr)
    return out


# term trees: ("gen", i), ("one",), ("zero",), ("meet", s, t), ("join", s, t)
# and ("Join", (t1, ..., tn)) for join(t1, ..., tn)


def eval_tree(t, m):
    """A term tree's value at the assignment m, a generator bitmask."""
    tag = t[0]
    if tag == "gen":
        return bool((m >> t[1]) & 1)
    if tag == "one":
        return True
    if tag == "zero":
        return False
    if tag == "meet":
        return eval_tree(t[1], m) and eval_tree(t[2], m)
    if tag == "join":
        return eval_tree(t[1], m) or eval_tree(t[2], m)
    if tag == "Join":
        return any(eval_tree(s, m) for s in t[1])
    raise ValueError(f"unknown term node {tag!r}")


def tree_code(t):
    """The postfix code of a term tree."""
    tag = t[0]
    if tag == "gen":
        return (t[1],)
    if tag == "one":
        return (ONE,)
    if tag == "zero":
        return (ZERO,)
    if tag in ("meet", "join"):
        return tree_code(t[1]) + tree_code(t[2]) + (MEET if tag == "meet" else JOIN,)
    if tag == "Join":
        if not t[1]:
            return (ZERO,)
        out = tree_code(t[1][0])
        for s in t[1][1:]:
            out += tree_code(s) + (JOIN,)
        return out
    raise ValueError(f"unknown term node {tag!r}")


def eval_code(code, m):
    """A postfix code's value at the assignment m, one truth value at a
    time."""
    stack = []
    for c in code:
        if c == MEET or c == JOIN:
            b, a = stack.pop(), stack.pop()
            stack.append(a and b if c == MEET else a or b)
        else:
            stack.append(c == ONE if c < 0 else bool((m >> c) & 1))
    (value,) = stack
    return value


# the scans over every collection of nonzero elements that
# invariants.almost_discrete_conditions (iii), (iv) and
# extremally_disconnected_conditions (iii) replaced by theorems


def scan_dense_finite_subcover(d):
    """Almost-discrete (iii): every dense collection of nonzero elements
    has a finite subcover of 1, over all 2^(n-1) collections."""
    c3 = True
    nz = [a for a in range(d.n) if a != d.bot]
    for sub in submasks(mask_of(nz)):
        fam = list(bits(sub))
        dense = all(any(d.meet[ai][a] != d.bot for ai in fam) for a in nz)
        if dense and d.join_set(sub) != d.top:
            c3 = False
            break
    return c3


def scan_complemented_complete(d):
    """Almost-discrete (iv): complementation, completeness over all 2^n
    subsets, and finite-join suprema."""
    every_complemented = all(d.complement_of(a) is not None for a in range(d.n))
    complete = every_complemented and all(d.poset.lub(m) is not None for m in range(1 << d.n))
    finite_sup = True  # a finite subset is its own finite subfamily
    return every_complemented and complete and finite_sup


def scan_collection_cover(d):
    """Extremally disconnected (iii), over all 2^(n-1) collections, one
    per join."""
    c3 = True
    nz = [a for a in range(d.n) if a != d.bot]
    joins = set()
    for sub in submasks(mask_of(nz)):
        j = d.join_set(sub)
        if j in joins:
            continue
        joins.add(j)
        fam = [a for a in bits(sub)]
        b1 = mask_of(
            b for b in nz if all(d.meet[b][ai] == d.bot for ai in fam)
        )
        b2 = mask_of(
            b
            for b in nz
            if all(
                any(d.meet[x][ai] != d.bot for ai in fam)
                for x in bits(d.poset.dn[b])
                if x != d.bot
            )
        )
        if d.join_set(b1 | b2) != d.top:
            c3 = False
            break
    return c3


# rings: isomorphisms by search, the Zariski lattice on the ring's
# elements, and the Zariski coverage as tables


def ring_iso_search(x, y):
    """A ring isomorphism as an assignment, or None; brute force with
    pruning, for small test rings only."""
    if x.n != y.n:
        return None
    assign = [-1] * x.n
    used = [False] * y.n
    assign[x.zero] = y.zero
    used[y.zero] = True
    if x.one != x.zero:
        if y.one == y.zero:
            return None
        assign[x.one] = y.one
        used[y.one] = True
    order = [a for a in range(x.n) if assign[a] < 0]

    def consistent(a):
        for b in range(x.n):
            if assign[b] < 0:
                continue
            s, m = x.add[a][b], x.mul[a][b]
            if assign[s] >= 0 and assign[x.add[a][b]] != y.add[assign[a]][assign[b]]:
                return False
            if assign[m] >= 0 and assign[x.mul[a][b]] != y.mul[assign[a]][assign[b]]:
                return False
        return True

    def rec(k):
        if k == len(order):
            for a in range(x.n):
                for b in range(x.n):
                    if assign[x.add[a][b]] != y.add[assign[a]][assign[b]]:
                        return False
                    if assign[x.mul[a][b]] != y.mul[assign[a]][assign[b]]:
                        return False
            return True
        a = order[k]
        for v in range(y.n):
            if used[v]:
                continue
            assign[a] = v
            used[v] = True
            if consistent(a) and rec(k + 1):
                return True
            assign[a] = -1
            used[v] = False
        return False

    if rec(0):
        return tuple(assign)
    return None


def element_presentation(ring):
    """L(A) presented by a generator D(a) per element: D(1) = 1,
    D(0) = 0 and, for each pair a <= b, D(ab) = D(a) & D(b) and
    D(a + b) <= D(a) | D(b); the n(n + 1) + 2 relations held."""
    rels = [("=", (ring.one,), (ONE,)), ("=", (ring.zero,), (ZERO,))]
    for b in range(ring.n):
        for a in range(b + 1):
            rels.append(("=", (ring.mul[a][b],), (a, b, MEET)))
            rels.append(("<=", (ring.add[a][b],), (a, b, JOIN)))
    return Presentation([f"d{a}" for a in range(ring.n)], rels, "coherent")


def _semigroup_sums(ring, elems):
    """All sums of one or more elements drawn (with repetition) from a set."""
    return closed_family(elems, elems, lambda s, y: ring.add[s][y])


def zariski_coverage(ring, guard=None):
    """The coverage on S(A): the empty family covers the class of 0, and
    a finite family of classes below x covers x when representatives sum
    into x's class.  Materialised only for small S(A)."""
    s = ring.site.s
    bound = guard if guard is not None else config.SATURATION_GUARD
    if s.n > bound:
        raise GuardExceeded("zariski coverage table", s.n, bound)
    po = s.poset
    covers = [set() for _ in range(s.n)]
    covers[s.pi[ring.zero]].add(0)
    for x in range(s.n):
        xclass = s.classes[x]
        below = [a for a in range(ring.n) if po.leq(s.pi[a], x)]
        for t in submasks(po.dn[x]):
            if t == 0:
                continue
            y = [a for a in below if (t >> s.pi[a]) & 1]
            if not y:
                continue
            if _semigroup_sums(ring, y) & set(bits(xclass)):
                covers[x].add(t)
    return Coverage(po, [frozenset(c) for c in covers])


def fixpoint_zariski_closure(ring, s, mask):
    """Least C-ideal on S(A) containing a set of classes: rounds that add
    dn[x] for each class x the set covers by the arithmetic test, until
    a round adds nothing."""
    po = s.poset
    out = po.down_closure(mask)
    changed = True
    while changed:
        changed = False
        for x in range(s.n):
            if not (out >> x) & 1 and power_combination_covers(ring, s, x, out & po.dn[x]):
                out |= po.dn[x]
                changed = True
    return out


def fixpoint_zariski_frame(ring):
    """Id_C(S(A)) as the principal fixpoint closures closed under the
    closed union, joined by the fixpoint closure."""
    s = ring.site.s
    po = s.poset

    def cl(m):
        return fixpoint_zariski_closure(ring, s, m)

    principals = [cl(d) for d in po.dn]
    elems = closed_family([cl(0)] + principals, principals, or_, close=cl)
    return frame_of_down_sets(sorted(elems), po, join_closure=cl)


def height_walk(p, i):
    """The number of breadth-first steps down from i, each step taking
    the elements strictly below the last ones not yet seen."""
    h = 0
    frontier = p.dn[i] & ~(1 << i)
    seen = 1 << i
    while frontier:
        h += 1
        nxt = 0
        for j in bits(frontier):
            nxt |= p.dn[j] & ~(1 << j)
        seen |= frontier
        frontier = nxt & ~seen
    return h
