"""Coverages and Grothendieck topologies on finite preorders.

A coverage is stored by generating families; its saturation (the least
Grothendieck topology whose covering sieves include the generated
sieves) is a separate first-class object.  Sieves on an element c are
down-closed subsets of (c)down, held as bitmasks.
"""

from itertools import combinations
from operator import or_

from .bits import bits, mask_of, popcount, submasks
from .errors import CheckFailed, GuardExceeded, InvalidStructure
from . import config
from .order import (
    FiniteFrame,
    as_poset,
    closed_family,
    frame_hom_failure,
    frame_of_down_sets,
)


class Coverage:
    """Generating covering families on each element of a preorder.

    Stability is an invariant of the saturated form, never of the
    generators: the saturation rules restrict every covering sieve to
    every smaller element, so any generator set yields a legal topology.
    """

    def __init__(self, base, covers, trusted_stable=False):
        self.base = base
        self.covers = tuple(frozenset(fams) for fams in covers)
        # set by constructors whose kinds are weakly stable by a theorem;
        # lets closures use the raw generators without saturating
        self.trusted_stable = trusted_stable
        self._saturation = None
        if len(self.covers) != base.n:
            raise InvalidStructure("covers must assign a family set to every element")
        for c in range(base.n):
            for fam in self.covers[c]:
                if fam & ~base.dn[c]:
                    raise InvalidStructure(f"a family on {c} leaves (c)down")

    def is_weakly_stable(self):
        """Whether every generator, restricted to a smaller element, can be
        refined by a generator there.  When true, closing under the raw
        generators computes the same ideals as closing under the
        saturation; generic code does not rely on it and saturates."""
        p = self.base
        for c in range(p.n):
            for fam in self.covers[c]:
                sieve = p.down_closure(fam)
                for c2 in bits(p.dn[c]):
                    ok = False
                    for fam2 in self.covers[c2]:
                        if fam2 & ~(sieve & p.dn[c2]) == 0:
                            ok = True
                            break
                    if not ok and not any(
                        p.down_closure(fam2) & ~(sieve & p.dn[c2]) == 0 for fam2 in self.covers[c2]
                    ):
                        return False
        return True

    def key(self):
        return (self.base.key(), self.covers)


class GrothendieckTopology:
    """The full set of covering sieves on each element."""

    def __init__(self, base, sieves, _checked=False):
        self.base = base
        self.sieves = tuple(frozenset(s) for s in sieves)
        if not _checked:
            self._check()

    def _check(self):
        p = self.base
        if len(self.sieves) != p.n:
            raise InvalidStructure("sieve table size mismatch")
        for c in range(p.n):
            if p.dn[c] not in self.sieves[c]:
                raise InvalidStructure(f"maximal sieve missing at {c}")
            for s in self.sieves[c]:
                if s & ~p.dn[c] or not p.is_down_closed(s):
                    raise InvalidStructure(f"non-sieve listed at {c}")
        failure = topology_failure(p, self.sieves, [all_sieves(p, c) for c in range(p.n)])
        if failure is not None:
            axiom, c = failure
            raise InvalidStructure(f"{axiom} fails at {c}")

    def covers(self, c, sieve):
        return sieve in self.sieves[c]

    def key(self):
        return (self.base.key(), tuple(tuple(sorted(s)) for s in self.sieves))

    def __eq__(self, other):
        return isinstance(other, GrothendieckTopology) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def all_sieves(p, c):
    """Down-closed subsets of (c)down, ascending."""
    return [s for s in submasks(p.dn[c]) if p.is_down_closed(s)]


def topology_failure(p, sieves, all_sieves):
    """The first Grothendieck axiom that a table of covering sieves
    breaks, as (axiom, element), or None.  `sieves[c]` holds the covering
    sieves on c and `all_sieves[c]` every sieve on c.  The corpus calls
    this once per candidate table, so a failure is a tuple, not a message.

    Stability: a covering sieve restricts to a covering sieve on every
    smaller element.  Transitivity: a sieve is covering when it restricts
    to a covering sieve along every member of some covering sieve.
    """
    for c in range(p.n):
        for s in sieves[c]:
            for c2 in bits(p.dn[c]):
                if (s & p.dn[c2]) not in sieves[c2]:
                    return "stability", c
    for c in range(p.n):
        for s in all_sieves[c]:
            if s in sieves[c]:
                continue
            for t in sieves[c]:
                if all((s & p.dn[c2]) in sieves[c2] for c2 in bits(t)):
                    return "transitivity", c
    return None


def trivial_coverage(p):
    return Coverage(p, [frozenset([p.dn[c]]) for c in range(p.n)], trusted_stable=True)


def saturate(cov, guard=None):
    """Least Grothendieck topology containing the generated sieves.

    Fixpoint of the maximality / stability / upward-closure / transitivity
    rules over the full sieve table; exponential in the carrier, guarded.
    The result is cached on the coverage.
    """
    if isinstance(cov, GrothendieckTopology):
        return cov
    if cov._saturation is not None:
        return cov._saturation
    p = cov.base
    bound = guard if guard is not None else config.SATURATION_GUARD
    if p.n > bound:
        raise GuardExceeded("saturation", p.n, bound)
    all_s = [all_sieves(p, c) for c in range(p.n)]
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
    topo = GrothendieckTopology(p, J, _checked=True)
    cov._saturation = topo
    return topo


def j_closure(J, mask):
    """Least J-ideal containing a set (J saturated)."""
    p = J.base
    out = p.down_closure(mask)
    changed = True
    while changed:
        changed = False
        for d in range(p.n):
            if (out >> d) & 1:
                continue
            for s in J.sieves[d]:
                if s & ~out == 0:
                    out |= p.dn[d]
                    changed = True
                    break
    return out


def is_j_ideal(J, mask):
    p = J.base
    if not p.is_down_closed(mask):
        return False
    for d in range(p.n):
        if (mask >> d) & 1:
            continue
        for s in J.sieves[d]:
            if s & ~mask == 0:
                return False
    return True


def coverage_closure(cov, mask):
    """Least J-ideal containing a set, directly from generating families.

    Agrees with j_closure on the saturation: an ideal is closed for a
    coverage exactly when it is closed for the topology it generates.
    """
    p = cov.base
    out = p.down_closure(mask)
    changed = True
    while changed:
        changed = False
        for d in range(p.n):
            if (out >> d) & 1:
                continue
            for fam in cov.covers[d]:
                if fam & ~out == 0:
                    out |= p.dn[d]
                    changed = True
                    break
    return out


def closure_fn(J):
    """The J-closure as a function of masks.

    A weakly stable coverage closes ideals correctly from its raw
    generators (they refine their own restrictions), so trusted
    coverages skip the exponential saturation.
    """
    if isinstance(J, Coverage):
        if J.trusted_stable:
            return lambda m: coverage_closure(J, m)
        J = saturate(J)
    return lambda m: j_closure(J, m)


def principal_j_ideal(J, c):
    """The smallest J-ideal containing c."""
    return closure_fn(J)(J.base.dn[c])


def coverage_closure_matches_saturation(cov):
    """Oracle used in tests: the raw-generator closure agrees with the
    saturated closure exactly on weakly stable coverages."""
    J = saturate(cov)
    p = cov.base
    return all(coverage_closure(cov, m) == j_closure(J, m) for m in p.down_sets())


def ideal_frame(J, guard=None):
    """The frame Id_J(C) of all J-ideals under inclusion.

    Every J-ideal is the join of the principal ideals of its members, so
    the carrier is generated from the bottom and the principal ideals by
    closing under join with a principal ideal (closure of union).
    """
    if isinstance(J, Coverage) and not J.trusted_stable:
        J = saturate(J)
    p = J.base
    cl = closure_fn(J)
    principals = [cl(p.dn[c]) for c in range(p.n)]
    elems = closed_family([cl(0)] + principals, principals, or_, close=cl,
                          bound=config.frame_guard(guard), what="ideal frame")
    return frame_of_down_sets(sorted(elems), p, join_closure=cl, guard=guard)


def is_subcanonical(J):
    """Every covering sieve has the covered element as its supremum."""
    J = saturate(J)
    p = J.base
    for c in range(p.n):
        for s in J.sieves[c]:
            for c2 in range(p.n):
                if s & ~p.dn[c2] == 0 and not p.leq(c, c2):
                    return False
    return True


def topologies_equal_by_ideals(J1, J2):
    """Whether two topologies on the same base have the same ideal sets.

    The uniqueness theorem makes this equivalent to J1 == J2; callers
    assert that equivalence by comparing with direct equality.
    """
    J1, J2 = saturate(J1), saturate(J2)
    if J1.base.key() != J2.base.key():
        raise InvalidStructure("topologies live on different bases")
    p = J1.base
    return all(is_j_ideal(J1, m) == is_j_ideal(J2, m) for m in p.down_sets())


# ---------------------------------------------------------------------------
# named coverages


def _is_meet_semilattice_poset(p):
    if p.n == 0:
        return False
    if not any(popcount(p.dn[i]) == p.n for i in range(p.n)):
        return False
    return all(p.glb((1 << i) | (1 << j)) is not None for i in range(p.n) for j in range(p.n))


def _bottom_of(po):
    for i in range(po.n):
        if popcount(po.up[i]) == po.n:
            return i
    return None


def is_distributive_lattice(p):
    try:
        FiniteFrame(as_poset(p))
    except InvalidStructure:
        return False
    return True


def _pairwise_join_covers(po):
    """Families {a, b} with a v b = c, plus the empty family on the bottom.

    Binary joins generate the same closed ideals as arbitrary finite
    joins, hence (by uniqueness of topologies with given ideals) the same
    saturation as the full coherent/canonical generating set.
    """
    covers = [set() for _ in range(po.n)]
    bot = _bottom_of(po)
    if bot is not None:
        covers[bot].add(0)
    for a in range(po.n):
        for b in range(a, po.n):
            c = po.lub((1 << a) | (1 << b))
            if c is not None:
                covers[c].add((1 << a) | (1 << b))
    return [frozenset(f) for f in covers]


def _meet_table(po):
    return [[po.glb((1 << i) | (1 << j)) for j in range(po.n)] for i in range(po.n)]


def _check_djlat(po):
    """Disjunctively distributive: meet-semilattice with bottom, joins of
    disjoint pairs (and the empty join), stable under binary meets."""
    if not _is_meet_semilattice_poset(po):
        raise InvalidStructure("disjunctive coverage needs a meet-semilattice")
    bot = _bottom_of(po)
    if bot is None:
        raise InvalidStructure("disjunctive coverage needs a bottom element")
    meet = _meet_table(po)
    for a in range(po.n):
        for b in range(po.n):
            if meet[a][b] != bot:
                continue
            j = po.lub((1 << a) | (1 << b))
            if j is None:
                raise InvalidStructure("a join of disjoint elements is missing")
            for c in range(po.n):
                if meet[j][c] != po.lub((1 << meet[a][c]) | (1 << meet[b][c])):
                    raise InvalidStructure("disjoint joins are not stable under meets")
    return bot, meet


def _poset_atoms(po):
    bot = _bottom_of(po)
    if bot is None:
        raise InvalidStructure("atoms need a bottom element")
    return [a for a in range(po.n) if a != bot and po.dn[a] == (1 << a) | (1 << bot)]


def _poset_supercompacts(po):
    """Elements m such that any family with supremum m contains m."""
    out = []
    for m in range(po.n):
        sc = True
        for fam in submasks(po.dn[m] & ~(1 << m)):
            if po.lub(fam) == m:
                sc = False
                break
        if sc:
            out.append(m)
    return out


def _generated_by(po, special, what):
    """Coverage generated by finite families of the given special elements
    whose supremum is the covered element, plus the maximal sieves."""
    if not _is_meet_semilattice_poset(po):
        raise InvalidStructure(f"{what} must be a meet-semilattice")
    bot = _bottom_of(po)
    if bot is None:
        raise InvalidStructure(f"{what} needs a bottom element")
    smask = mask_of(special)
    meet = _meet_table(po)
    for fam in submasks(smask):
        j = po.lub(fam)
        if j is None:
            raise InvalidStructure(f"{what}: a join of special elements is missing")
        for c in range(po.n):
            meets = mask_of(meet[c][x] for x in bits(fam))
            if po.lub(meets) != meet[c][j]:
                raise InvalidStructure(f"{what}: special joins do not distribute over meets")
    covers = []
    for c in range(po.n):
        fams = {po.dn[c]}
        for fam in submasks(smask & po.dn[c]):
            if po.lub(fam) == c:
                fams.add(fam)
        covers.append(frozenset(fams))
    return covers


def named_coverage(p, kind, param=None):
    """A named generating coverage on a preorder.

    Kinds: trivial, coherent, canonical, k (param is the cardinal bound),
    disjunctive, atomic, supercompact, directed.  Structural
    preconditions are checked; errors name the missing property.
    """
    po = as_poset(p) if kind != "trivial" else p

    if kind == "trivial":
        return trivial_coverage(p)

    if kind in ("coherent", "canonical"):
        if not is_distributive_lattice(po):
            raise InvalidStructure(f"{kind} coverage needs a bounded distributive lattice")
        return Coverage(po, _pairwise_join_covers(po), trusted_stable=True)

    if kind == "k":
        k = int(param)
        if k < 1:
            raise InvalidStructure("k must be at least 1")
        _check_k_frame(po, k)
        covers = []
        for c in range(po.n):
            fams = set()
            below = list(bits(po.dn[c]))
            for size in range(0, k):
                for combo in combinations(below, size):
                    m = mask_of(combo)
                    if po.lub(m) == c:
                        fams.add(m)
            covers.append(frozenset(fams))
        return Coverage(po, covers, trusted_stable=True)

    if kind == "disjunctive":
        bot, meet = _check_djlat(po)
        covers = [set() for _ in range(po.n)]
        covers[bot].add(0)
        for a in range(po.n):
            for b in range(a, po.n):
                if meet[a][b] != bot:
                    continue
                c = po.lub((1 << a) | (1 << b))
                if c is not None:
                    covers[c].add((1 << a) | (1 << b))
        return Coverage(po, [frozenset(f) for f in covers], trusted_stable=True)

    if kind == "atomic":
        covers = _generated_by(po, _poset_atoms(po), "a weakly atomic meet-semilattice")
        return Coverage(po, covers, trusted_stable=True)

    if kind == "supercompact":
        covers = _generated_by(po, _poset_supercompacts(po), "a weakly supercompact meet-semilattice")
        return Coverage(po, covers, trusted_stable=True)

    if kind == "directed":
        if not _is_meet_semilattice_poset(po):
            raise InvalidStructure("directed coverage needs a preframe (finitely, a meet-semilattice)")
        covers = []
        for c in range(po.n):
            fams = set()
            for m in submasks(po.dn[c]):
                if m and po.is_down_closed(m) and po.lub(m) == c and _is_directed(po, m):
                    fams.add(m)
            covers.append(frozenset(fams))
        return Coverage(po, covers, trusted_stable=True)

    raise InvalidStructure(f"unknown coverage kind {kind!r}")


def _is_directed(p, mask):
    for a in bits(mask):
        for b in bits(mask):
            if not any(p.leq(a, c) and p.leq(b, c) for c in bits(mask)):
                return False
    return True


def _check_k_frame(po, k):
    """Meet-semilattice with joins of all families of fewer than k
    elements, distributing over binary meets."""
    if not _is_meet_semilattice_poset(po):
        raise InvalidStructure("a k-frame must be a meet-semilattice")
    meet = _meet_table(po)
    elems = list(range(po.n))
    for size in range(0, k):
        for combo in combinations(elems, size):
            m = mask_of(combo)
            j = po.lub(m)
            if j is None:
                raise InvalidStructure(f"missing join of a family of fewer than {k} elements")
            for c in range(po.n):
                meets = mask_of(meet[c][x] for x in combo)
                if po.lub(meets) != meet[c][j]:
                    raise InvalidStructure("small joins do not distribute over binary meets")


# ---------------------------------------------------------------------------
# dense subsets and induced coverages


def is_j_dense(J, dmask):
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


def induced_coverage(J, dmask):
    """The coverage a J-dense subset inherits: restrictions of covers."""
    J = saturate(J)
    p = J.base
    ok, witness = is_j_dense(J, dmask)
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
    # restrictions of covering sieves restrict again, so the induced
    # coverage is weakly stable
    cov = Coverage(sub, covers, trusted_stable=True)
    return sub, cov, delems


def comparison_iso(J, dmask, guard=None):
    """Frame isomorphism Id_J(C) -> Id_{J|D}(D) by intersection, with
    inverse by J-closure; both composites are checked to be identities."""
    J = saturate(J)
    sub, cov, delems = induced_coverage(J, dmask)
    pos = {e: i for i, e in enumerate(delems)}
    big = ideal_frame(J, guard=guard)
    small = ideal_frame(cov, guard=guard)
    phi = [small.index[mask_of(pos[b] for b in bits(m & dmask))] for m in big.element_masks]
    psi = []
    for m in small.element_masks:
        lifted = mask_of(delems[i] for i in bits(m))
        psi.append(big.index[j_closure(J, lifted)])
    for i in range(big.n):
        if psi[phi[i]] != i:
            raise CheckFailed("comparison: psi after phi is not the identity")
    for i in range(small.n):
        if phi[psi[i]] != i:
            raise CheckFailed("comparison: phi after psi is not the identity")
    return big, small, tuple(phi), tuple(psi)


# ---------------------------------------------------------------------------
# subtopologies from frame surjections


def subtopology_from_surjection(J, target, f, guard=None):
    """The topology J' >= J induced by a surjective frame hom out of Id_J(C).

    `f` maps element indices of ideal_frame(J) to indices of `target`.  A
    sieve S covers c in J' when f sends cl_J(S) and the principal J-ideal
    on c to the same element.  The existence theorem is non-constructive,
    so the candidate is validated by rebuilding `target` from Id_{J'}(C);
    any mismatch is a hard error.
    """
    J = saturate(J)
    p = J.base
    big = ideal_frame(J, guard=guard)
    if len(f) != big.n:
        raise InvalidStructure("assignment length does not match Id_J(C)")
    if len(set(f)) != target.n:
        raise InvalidStructure("frame homomorphism is not surjective")
    failure = frame_hom_failure(big, target, f)
    if failure is not None:
        raise InvalidStructure(f"map does not preserve {failure}")
    sieves = []
    for c in range(p.n):
        princ = f[big.index[j_closure(J, p.dn[c])]]
        sieves.append({s for s in all_sieves(p, c) if f[big.index[j_closure(J, s)]] == princ})
    J2 = GrothendieckTopology(p, sieves)
    for c in range(p.n):
        if not J.sieves[c] <= J2.sieves[c]:
            raise CheckFailed("constructed topology does not contain J")
    small = ideal_frame(J2, guard=guard)
    rest = [f[big.index[m]] for m in small.element_masks]
    if sorted(rest) != list(range(target.n)):
        raise CheckFailed("restriction of f to J'-ideals is not bijective")
    failure = frame_hom_failure(small, target, rest)
    if failure is not None:
        raise InvalidStructure(f"map does not preserve {failure}")
    for i, m in enumerate(big.element_masks):
        closed = small.index[j_closure(J2, m)]
        if rest[closed] != f[i]:
            raise CheckFailed("f does not factor as the J'-closure map")
    return J2
