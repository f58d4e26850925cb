"""Point spaces: J-prime filters, the filter bijection, subterminal
topologies, sobriety and sobrification, Alexandrov and elemental spaces.

Points are materialised filters held as bitmasks, never abstract.
"""

from operator import and_, or_

from .bits import bits, mask_of, popcount, transpose
from .errors import CheckFailed, GuardExceeded, InvalidStructure
from . import config
# j_prime_filters is read by its spectra name too
from .coverage import ideal_frame, j_prime_filters, principal_j_ideal  # noqa: F401
from .duality import is_cover_preserving
from .order import Preorder, closed_family, frame_of_down_sets, is_flat, set_label


class TopSpace:
    """A finite point set with an explicit family of open subsets."""

    def __init__(self, n, opens, labels=None, _checked=False):
        self.n = n
        self.opens = frozenset(opens)
        self.labels = tuple(labels) if labels is not None else None
        if not _checked:
            self._check()

    def _check(self):
        full = (1 << self.n) - 1
        if 0 not in self.opens or full not in self.opens:
            raise InvalidStructure("the empty set and the full set must be open")
        ops = sorted(self.opens)
        for a in ops:
            if a & ~full:
                raise InvalidStructure("an open leaves the point set")
            for b in ops:
                if (a | b) not in self.opens or (a & b) not in self.opens:
                    raise InvalidStructure("opens must be closed under union and intersection")

    def label(self, i):
        return self.labels[i] if self.labels else str(i)

    def opens_frame(self):
        """Opens ordered by inclusion; meet is intersection, join union.

        The opens are closed under both at any size: the constructor
        checks it, and each builder that skips the check makes a family
        closed under both by construction."""
        return frame_of_down_sets(sorted(self.opens), None,
                                  labels=[set_label(self.label, m) for m in sorted(self.opens)])

    def key(self):
        return (self.n, tuple(sorted(self.opens)))

    def __eq__(self, other):
        return isinstance(other, TopSpace) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"TopSpace(points={self.n}, opens={len(self.opens)})"


def space_from_subbasis(n, subbasis, labels=None):
    """Close a sub-basis under finite intersections, then unions."""
    inters = closed_family([(1 << n) - 1], subbasis, and_)
    return TopSpace(n, closed_family([0], inters, or_), labels=labels, _checked=True)


# ---------------------------------------------------------------------------
# filters


class PrimeFilter:
    """A J-prime filter as a bitmask over the base, invariants checked."""

    def __init__(self, J, members):
        self.base = J.base
        self.members = members
        if not is_j_prime_filter(J, members):
            raise InvalidStructure("subset is not a J-prime filter")

    def __contains__(self, c):
        return bool((self.members >> c) & 1)

    def __repr__(self):
        return f"PrimeFilter({set_label(self.base.label, self.members)})"


def is_j_prime_filter(J, mask):
    """Nonempty, up-closed, downward-directed, and meeting some member of
    every covering sieve of every member.

    The least covering sieve on a is down(dn[a] & D), which an up-set
    meets iff it meets dn[a] & D.  Meeting every generating family of a
    coverage says the same: the mask is up[x], x in its least class, and
    both say x lies in D (see coverage.d_of).
    """
    p, dmask = J.base, J.dmask
    if mask == 0:
        return False
    for a in bits(mask):
        if p.up[a] & ~mask:
            return False
    for a in bits(mask):
        for b in bits(mask):
            if not (p.dn[a] & p.dn[b] & mask):
                return False
    return all(mask & p.dn[a] & dmask for a in bits(mask))


def completely_prime_filters(fr):
    """Completely prime filters of a finite frame, as up-sets of its
    join-irreducible elements; see the brute-force cross-check in tests.

    A finite filter has a least element m, and complete primality says
    exactly that m is join-prime, which in a distributive lattice is
    join-irreducibility."""
    return [fr.poset.up[m] for m in fr.join_irreducibles()]


def filter_bijection(J, guard=None):
    """The bijection between completely prime filters on Id_J(C) and
    J-prime filters on C; returns (pairs, frame, filters) and aborts with
    both filter lists if the check ever fails."""
    p = J.base
    fr = ideal_frame(J, guard=guard)
    cps = completely_prime_filters(fr)
    jps = J.filters
    princ = [fr.index[principal_j_ideal(J, c)] for c in range(p.n)]
    pairs = [(F, mask_of(c for c in range(p.n) if (F >> princ[c]) & 1)) for F in cps]
    seen = [image for _, image in pairs]
    if any(image not in jps for image in seen):
        raise CheckFailed(f"filter image not J-prime: cp={cps} jp={jps}")
    if sorted(seen) != sorted(jps) or len(set(seen)) != len(seen):
        raise CheckFailed(f"not a bijection: cp={cps} jp={jps}")
    for F, image in pairs:
        back = mask_of(
            i for i, m in enumerate(fr.element_masks) if m & image
        )
        if back != F:
            raise CheckFailed("inverse filter map mismatch")
    return pairs, fr, jps


# ---------------------------------------------------------------------------
# subterminal spaces


def subterminal_space(J, guard=None):
    """Points are the J-prime filters; opens are F_I for J-ideals I, the
    extents that J keeps (Site.extents).

    The sub-basis {F_c : c in C} is verified to generate the topology.
    That one comparison also proves the opens a topology, so TopSpace
    does not check them again.  space_from_subbasis closes the sub-basis
    under intersection starting from the full set, which gives a family
    B closed under intersection, and then closes B under union starting
    from the empty set.  The result holds both bounds, is closed under
    union by construction, and is closed under intersection because
    (b1 | ... | bk) & (c1 | ... | cl) is the union of the bi & cj, each
    in B.  Every sub-basis mask lies inside the n points.  So the
    generated family is a topology on the n points, and opens equal to
    it are one too.
    """
    p, filters = J.base, J.filters
    n = len(filters)
    labels = [set_label(p.label, F) for F in filters]
    space = TopSpace(n, J.extents(guard), labels=labels, _checked=True)
    # F_c, the filters holding c, for each c
    generated = space_from_subbasis(n, transpose(filters, p.n), labels=labels)
    if generated.opens != space.opens:
        raise CheckFailed("sub-basis {F_c} does not generate the subterminal topology")
    return space


def gamma_subterminal_space(J, gamma_indices, guard=None):
    """Subterminal topology restricted to a subframe of Id_J(C).

    gamma_indices picks elements of ideal_frame(J); they must include the
    bounds and be closed under binary meet and join.  The points are all
    the J-prime filters, and the opens the extents of the picked ideals:
    the frame lists the ideals in the order of J.ideals().
    """
    p = J.base
    fr = ideal_frame(J, guard=guard)
    gset = sorted(set(gamma_indices))
    for g in gset:
        if not 0 <= g < fr.n:
            raise InvalidStructure(f"subframe index {g} is outside 0..{fr.n - 1}")
    if fr.bot not in gset or fr.top not in gset:
        raise InvalidStructure("subframe must contain the bounds")
    for a in gset:
        for b in gset:
            if fr.meet[a][b] not in gset or fr.join[a][b] not in gset:
                raise InvalidStructure("subframe must be closed under meet and join")
    extents, filters = J.extents(guard), J.filters
    return TopSpace(len(filters), {extents[g] for g in gset},
                    labels=[set_label(p.label, F) for F in filters])


def enough_points(J, guard=None):
    """Whether the J-prime filters separate the J-ideals.

    Finitely this can fail for exotic topologies; when it does, the
    open-set frame of the subterminal space is a proper quotient of
    Id_J(C) and we report the failure instead of assuming spatiality.
    Returns (flag, ideal_count, distinct_extents).
    """
    extents = J.extents(guard)
    distinct = len(set(extents))
    return distinct == len(extents), len(extents), distinct


def induced_map(f, J, K):
    """The continuous map between subterminal spaces induced by a site
    morphism f: (C,J) -> (D,K): a filter goes to its preimage."""
    if not is_flat(f):
        raise InvalidStructure("site morphism must be flat")
    ok, witness = is_cover_preserving(f, J, K)
    if not ok:
        raise InvalidStructure(f"site morphism must preserve covers; fails at {witness}")
    src = subterminal_space(K)
    dst = subterminal_space(J)
    kfilters, jfilters = K.filters, J.filters
    assign = []
    for F in kfilters:
        pre = f.preimage_mask(F)
        if pre not in jfilters:
            raise InvalidStructure("preimage of a filter is not a filter; not a site morphism")
        assign.append(jfilters.index(pre))
    for U in dst.opens:
        pre = mask_of(i for i in range(src.n) if (U >> assign[i]) & 1)
        if pre not in src.opens:
            raise CheckFailed("induced filter map is not continuous")
    return src, dst, tuple(assign)


# ---------------------------------------------------------------------------
# sobriety


def is_sober(space):
    """Sober iff x -> {opens containing x} bijects onto the completely
    prime filters of the open-set frame."""
    fr = space.opens_frame()
    ops = sorted(space.opens)
    point_filters = []
    for x in range(space.n):
        point_filters.append(mask_of(i for i, U in enumerate(ops) if (U >> x) & 1))
    cps = completely_prime_filters(fr)
    return sorted(point_filters) == sorted(cps) and len(set(point_filters)) == space.n


def sobrification(space):
    """The space of completely prime filters of the open-set frame, with
    the subterminal-style topology."""
    fr = space.opens_frame()
    ops = sorted(space.opens)
    cps = completely_prime_filters(fr)
    n = len(cps)
    opens = set()
    for i, U in enumerate(ops):
        opens.add(mask_of(k for k, F in enumerate(cps) if (F >> i) & 1))
    return TopSpace(n, opens)


def homeomorphism_search(x, y):
    """A bijection on points carrying opens onto opens, or None.

    Brute force with pruning on per-point open membership counts.
    """
    if x.n != y.n or len(x.opens) != len(y.opens):
        return None
    xs = sorted(x.opens)
    ys = sorted(y.opens)
    sizes_x = sorted(popcount(m) for m in xs)
    sizes_y = sorted(popcount(m) for m in ys)
    if sizes_x != sizes_y:
        return None
    sigx = [tuple(sorted(popcount(m) for m in xs if (m >> i) & 1)) for i in range(x.n)]
    sigy = [tuple(sorted(popcount(m) for m in ys if (m >> i) & 1)) for i in range(y.n)]
    if sorted(sigx) != sorted(sigy):
        return None
    assign = [-1] * x.n
    used = [False] * y.n

    def ok_so_far(i):
        done = mask_of(range(i + 1))
        for U in xs:
            img = mask_of(assign[k] for k in bits(U & done))
            hit = False
            for V in ys:
                if img & ~V == 0 and popcount(V) <= popcount(U) + (x.n - i - 1):
                    hit = True
                    break
            if not hit:
                return False
        return True

    def rec(i):
        if i == x.n:
            for U in xs:
                if mask_of(assign[k] for k in bits(U)) not in y.opens:
                    return False
            return True
        for j in range(y.n):
            if used[j] or sigx[i] != sigy[j]:
                continue
            assign[i] = j
            used[j] = True
            if ok_so_far(i) and rec(i + 1):
                return True
            assign[i] = -1
            used[j] = False
        return False

    if rec(0):
        return tuple(assign)
    return None


# ---------------------------------------------------------------------------
# alexandrov / elemental


def alexandrov_space(p):
    """Opens are the up-closed subsets."""
    labels = [p.label(i) for i in range(p.n)]
    return TopSpace(p.n, p.up_sets(), labels=labels, _checked=True)


def specialization_order(space):
    """x <= y when every open containing x contains y."""
    up = []
    for x in range(space.n):
        m = (1 << space.n) - 1
        for U in space.opens:
            if (U >> x) & 1:
                m &= U
        up.append(m)
    return Preorder(space.n, up, labels=space.labels, _checked=True)


def elemental_space(aset_size, guard=None):
    """Points are all subsets of a set A; opens are generated by the
    sub-basis {L : a in L}.  The frame of opens is the free frame on A."""
    bound = guard if guard is not None else config.ELEMENTAL_GUARD
    if aset_size > bound:
        raise GuardExceeded("elemental space", aset_size, bound)
    n = 1 << aset_size
    subbasis = [mask_of(L for L in range(n) if (L >> a) & 1) for a in range(aset_size)]
    labels = [set_label(str, L) for L in range(n)]
    return space_from_subbasis(n, subbasis, labels=labels)
