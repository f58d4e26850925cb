"""Coverages and Grothendieck topologies on finite preorders.

A coverage is stored by generating families; its saturation (the least
Grothendieck topology whose covering sieves include the generated
sieves) is a separate first-class object.  Sieves on an element c are
down-closed subsets of (c)down, held as bitmasks.

Every topology on a finite preorder is J_D for one union D of classes
(see j_d_sieves): S covers c iff dn[c] & D lies in S.  A coverage or a
topology is a Site carrying that D as `dmask`; every test made on it is
a mask test on D, and it keeps what it derives.
"""

from functools import cached_property, reduce
from itertools import combinations
from operator import or_

from .bits import bits, mask_of, popcount, submasks
from .errors import CheckFailed, GuardExceeded, InvalidStructure
from . import config
from .order import (
    FiniteFrame,
    as_poset,
    frame_hom_failure,
    frame_of_down_sets,
)


def d_of(p, covers):
    """The D of the topology J_D generated by a table of families, raw
    or sieves: x is in D unless some family on some c in up[x] misses
    up[x], i.e. its sieve leaves out x."""
    return mask_of(x for x in range(p.n)
                   if all(fam & p.up[x] for c in bits(p.up[x]) for fam in covers[c]))


class Site:
    """A coverage or a topology, read as the topology J_D it generates;
    Site(base, dmask) is J_D itself.

    It keeps what it derives: D (`dmask`), the J-ideals, the J-prime
    filters and the extent of each ideal.  A cache never widens a guard:
    read under a bound below their count, the ideals are listed again,
    and the listing refuses, naming the listing `what`.
    """

    _ideals = _extents = _saturation = None
    what = "ideal frame"

    def __init__(self, base, dmask, what=what):
        self.base, self.dmask, self.what = base, dmask, what

    def key(self):
        return (self.base.key(), self.dmask)

    def ideals(self, guard=None):
        """j_ideals(self, guard), listed once."""
        if self._ideals is None or len(self._ideals) > config.frame_guard(guard):
            self._ideals = j_ideals(self, guard=guard)
        return self._ideals

    @cached_property
    def filters(self):
        """j_prime_filters(self), listed once."""
        return j_prime_filters(self)

    def extents(self, guard=None):
        """The extent of each J-ideal, in the order of ideals(): the mask
        of the filters (by index) that meet it.  An ideal I is
        down-closed, so the filter up[d] meets I iff d lies in I: the
        extent is the union of the bits of up[d] over d in I & D."""
        ideals = self.ideals(guard)
        if self._extents is None:
            at = {F: 1 << i for i, F in enumerate(self.filters)}
            bit = [at.get(u, 0) for u in self.base.up]
            self._extents = [reduce(or_, map(bit.__getitem__, bits(m & self.dmask)), 0)
                             for m in ideals]
        return self._extents


class Coverage(Site):
    """Generating covering families on each element of a preorder.

    Stability is an invariant of the saturated form, never of the
    generators: any generator set yields a legal topology, J_D for the
    D in `dmask`.  Everything but the sieve tables (`saturate`) is read
    off `dmask`.
    """

    def __init__(self, base, covers):
        self.base = base
        self.covers = tuple(frozenset(fams) for fams in covers)
        if len(self.covers) != base.n:
            raise InvalidStructure("covers must assign a family set to every element")
        for c in range(base.n):
            for fam in self.covers[c]:
                if fam & ~base.dn[c]:
                    raise InvalidStructure(f"a family on {c} leaves (c)down")

    @cached_property
    def dmask(self):
        return d_of(self.base, self.covers)

    def key(self):
        return (self.base.key(), self.covers)


class GrothendieckTopology(Site):
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

    @cached_property
    def dmask(self):
        return d_of(self.base, self.sieves)

    @property
    def _saturation(self):
        return self

    def key(self):
        return (self.base.key(), tuple(tuple(sorted(s)) for s in self.sieves))

    def __eq__(self, other):
        return type(other) is type(self) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def all_sieves(p, c):
    """Down-closed subsets of (c)down, ascending."""
    return p.down_sets(p.dn[c])


def j_d_sieves(p, dmask, sieves):
    """The sieve table of the topology J_D for a union D of classes:
    S covers c iff every element of D below c lies in S.  `sieves[c]`
    holds every sieve on c.

    Every Grothendieck topology on a finite preorder is J_D for exactly
    one such D (its sublocales are the subsets of a finite T_D space;
    Picado-Pultr, Frames and Locales, ch. VI), and the J_D-prime filters
    are the principal up-sets up[d], d in D.
    """
    return tuple(frozenset(s for s in sieves[c] if p.dn[c] & dmask & ~s == 0) for c in range(p.n))


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
    return Coverage(p, [frozenset([p.dn[c]]) for c in range(p.n)])


def saturate(cov, guard=None):
    """Least Grothendieck topology containing the generated sieves: J_D
    for D = cov.dmask.

    Everything else is read off D; this lists the sieve tables, which
    is exponential in the carrier, so it is guarded.  The result is
    cached on the coverage, and a topology is its own saturation.
    """
    if cov._saturation is None:
        p = cov.base
        bound = guard if guard is not None else config.SATURATION_GUARD
        if p.n > bound:
            raise GuardExceeded("saturation", p.n, bound)
        sieves = [all_sieves(p, c) for c in range(p.n)]
        cov._saturation = GrothendieckTopology(p, j_d_sieves(p, cov.dmask, sieves), _checked=True)
    return cov._saturation


def j_closure(J, mask):
    """Least J-ideal containing a set, for a coverage or a topology J_D.

    One pass, no fixpoint: c is in the closure of U exactly when every
    element of D below c lies in down(U).  The closure meets D in
    down(U) & D, so each J-ideal is fixed by its D-part.
    """
    p, dmask = J.base, J.dmask
    inside = p.down_closure(mask) & dmask
    return mask_of(c for c in range(p.n) if p.dn[c] & dmask & ~inside == 0)


# bench/tracer.py traces the closure under this older name as well
coverage_closure = j_closure


def is_j_ideal(J, mask):
    return j_closure(J, mask) == mask


def principal_j_ideal(J, c):
    """The smallest J-ideal containing c."""
    return j_closure(J, J.base.dn[c])


def j_ideals(J, guard=None):
    """All J-ideals as ascending bitmasks, for a coverage or a topology J_D.

    A J-ideal is the closure of its D-part, and every down-set of D is
    one, so the J-ideals are the closures of the down-sets m of D: as
    m = down(m) & D, m and the c outside D with dn[c] & D inside m.  The
    listing stops under the frame-size guard.
    """
    p, dmask = J.base, J.dmask
    downs = p.down_sets(dmask, bound=config.frame_guard(guard), what=J.what)
    outside = [(c, p.dn[c] & dmask) for c in range(p.n) if not (dmask >> c) & 1]
    return sorted(m | mask_of(c for c, b in outside if b & ~m == 0) for m in downs)


def j_prime_filters(J):
    """All J-prime filters in canonical (ascending bitmask) order.

    A finite, nonempty, down-directed up-set is principal, and up[x]
    meets every family on every member exactly when x is in J.dmask, so
    the filters are the distinct up[d], d in D.
    """
    return sorted({J.base.up[d] for d in bits(J.dmask)})


def ideal_frame(J, guard=None):
    """The frame Id_J(C) of all J-ideals under inclusion, for a coverage
    or a topology J_D: the j_ideals, with the join of two ideals the
    ideal over the union of their D-parts.

    The family is closed under both, at any size: the J-ideals are the
    fixed sets of the closure j_closure, so an intersection of two is
    one, and a J-ideal is the closure of its D-part, so the ideal over
    the union of two parts (a down-set of D, hence listed) is the least
    one holding both.
    """
    return frame_of_down_sets(J.ideals(guard), J.base, dmask=J.dmask, guard=guard)


def is_subcanonical(J):
    """Every covering sieve has the covered element as its supremum.
    A covering sieve on c holds the least one, down(dn[c] & D), so has no
    more upper bounds: it is enough that each common upper bound of
    dn[c] & D lies above c."""
    p, dmask = J.base, J.dmask
    for c in range(p.n):
        bounds = (1 << p.n) - 1
        for d in bits(p.dn[c] & dmask):
            bounds &= p.up[d]
        if bounds & ~p.up[c]:
            return False
    return True


def topologies_equal_by_ideals(J1, J2):
    """Whether two topologies on the same base have the same ideal sets.

    The uniqueness theorem makes this equivalent to J1 == J2; callers
    assert that equivalence by comparing with direct equality.
    """
    if J1.base.key() != J2.base.key():
        raise InvalidStructure("topologies live on different bases")
    return J1.ideals() == J2.ideals()


# ---------------------------------------------------------------------------
# named coverages


def is_meet_semilattice(p):
    """A poset with a top element and all binary meets."""
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
    if not is_meet_semilattice(po):
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
    if not is_meet_semilattice(po):
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
        return Coverage(po, _pairwise_join_covers(po))

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
        return Coverage(po, covers)

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
        return Coverage(po, [frozenset(f) for f in covers])

    if kind == "atomic":
        covers = _generated_by(po, _poset_atoms(po), "a weakly atomic meet-semilattice")
        return Coverage(po, covers)

    if kind == "supercompact":
        covers = _generated_by(po, _poset_supercompacts(po), "a weakly supercompact meet-semilattice")
        return Coverage(po, covers)

    if kind == "directed":
        if not is_meet_semilattice(po):
            raise InvalidStructure("directed coverage needs a preframe (finitely, a meet-semilattice)")
        covers = []
        for c in range(po.n):
            fams = set()
            for m in all_sieves(po, c):
                if m and po.lub(m) == c and _is_directed(po, m):
                    fams.add(m)
            covers.append(frozenset(fams))
        return Coverage(po, covers)

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
    if not is_meet_semilattice(po):
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


def is_j_dense(J, subset):
    """Density of a subset: every element has a covering family inside it.
    Families need not be down-closed, so the test is whether the sieve
    generated by the subset below c covers c: holds dn[c] & D."""
    p, dmask = J.base, J.dmask
    for c in range(p.n):
        if p.dn[c] & dmask & ~p.down_closure(subset & p.dn[c]):
            return False, c
    return True, None


def induced_coverage(J, subset):
    """The coverage a J-dense subset inherits: restrictions of covers.

    The family dn[a] & D & subset on each a generates what the
    restrictions of the J-covering sieves on a do, J_D' for
    D' = D & subset: an x of D' lies in both on each a above x, and an x
    outside D meets neither on x, as D is a union of classes.
    """
    p, dmask = J.base, J.dmask
    ok, witness = is_j_dense(J, subset)
    if not ok:
        raise InvalidStructure(f"subset is not dense: element {witness} has no covering inside it")
    delems = sorted(bits(subset))
    pos = {e: i for i, e in enumerate(delems)}
    sub = p.restrict(delems)
    covers = [frozenset([mask_of(pos[b] for b in bits(p.dn[a] & dmask & subset))]) for a in delems]
    return sub, Coverage(sub, covers), delems


def comparison_iso(J, subset, guard=None):
    """Frame isomorphism Id_J(C) -> Id_{J|D}(D) by intersection, with
    inverse by J-closure; both composites are checked to be identities."""
    sub, cov, delems = induced_coverage(J, subset)
    pos = {e: i for i, e in enumerate(delems)}
    big = ideal_frame(J, guard=guard)
    small = ideal_frame(cov, guard=guard)
    phi = [small.index[mask_of(pos[b] for b in bits(m & subset))] for m in big.element_masks]
    psi = [big.index[j_closure(J, mask_of(delems[i] for i in bits(m)))] for m in small.element_masks]
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
    any mismatch is a hard error.  J_D lies in J_D' iff D' lies in D (a
    d of D' outside D misses the least J_D-covering sieve on d).
    """
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
    if J2.dmask & ~J.dmask:
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
