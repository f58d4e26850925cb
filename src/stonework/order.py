"""Finite preorders, posets, monotone maps, finite frames, isomorphism search.

Elements are dense integer indices 0..n-1; labels are presentation-only.
The relation is stored per element as bitmasks: up[i] is the set of j with
i <= j, dn[i] the set of j with j <= i.
"""

from functools import cached_property

from .bits import bits, mask_of, popcount, transpose
from .errors import CheckFailed, GuardExceeded, InvalidStructure
from . import config


class Preorder:
    """A reflexive transitive relation on {0..n-1}."""

    def __init__(self, n, up, labels=None, _checked=False):
        self.n = n
        self.up = tuple(up)
        self.dn = tuple(transpose(self.up, n))
        self.labels = tuple(labels) if labels is not None else None
        if not _checked:
            self._check()

    def _check(self):
        if len(self.up) != self.n:
            raise InvalidStructure("relation size does not match element count")
        full = (1 << self.n) - 1
        for i in range(self.n):
            if self.up[i] & ~full:
                raise InvalidStructure("relation mentions elements outside the carrier")
            if not (self.up[i] >> i) & 1:
                raise InvalidStructure(f"not reflexive at element {i}")
        for i in range(self.n):
            m = self.up[i]
            for j in bits(m):
                if self.up[j] & ~m:
                    raise InvalidStructure(f"not transitive at {i} <= {j}")

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def label(self, i):
        return self.labels[i] if self.labels else str(i)

    def op(self):
        """The opposite preorder."""
        cls = Poset if isinstance(self, Poset) else Preorder
        return cls(self.n, self.dn, labels=self.labels, _checked=True)

    def restrict(self, elems):
        """The induced sub-preorder on `elems`, in the given order, of the
        same class; element k is labelled as elems[k] is here."""
        elems = list(elems)
        pos = {e: k for k, e in enumerate(elems)}
        inside = mask_of(elems)
        up = [mask_of(pos[b] for b in bits(self.up[a] & inside)) for a in elems]
        return type(self)(len(elems), up, labels=[self.label(e) for e in elems])

    def key(self):
        return (self.n, self.up)

    def __eq__(self, other):
        return isinstance(other, Preorder) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        pairs = [(i, j) for i in range(self.n) for j in bits(self.up[i]) if i != j]
        return f"{type(self).__name__}({self.n}, {pairs})"

    def is_down_closed(self, mask):
        for i in bits(mask):
            if self.dn[i] & ~mask:
                return False
        return True

    def down_closure(self, mask):
        m = 0
        for i in bits(mask):
            m |= self.dn[i]
        return m

    def down_sets(self, within=None, bound=None, what=None):
        """All down-closed subsets of the order induced on `within` (default:
        every element), ascending as bitmasks.

        Output-sensitive: the least undecided element x is either left out,
        and with it everything above x, or put in with everything below x.
        Each branch ends in a distinct down-set.  Raises
        GuardExceeded(what, bound + 1, bound) as soon as the list grows
        past `bound`.
        """
        up, dn = self.up, self.dn
        out = []
        stack = [((1 << self.n) - 1 if within is None else within, 0)]
        while stack:
            rest, acc = stack.pop()
            if not rest:
                out.append(acc)
                if bound is not None and len(out) > bound:
                    raise GuardExceeded(what, len(out), bound)
                continue
            x = (rest & -rest).bit_length() - 1
            stack.append((rest & ~up[x], acc))
            stack.append((rest & ~dn[x], acc | (rest & dn[x])))
        out.sort()
        return out

    def up_sets(self, bound=None, what=None):
        return self.op().down_sets(bound=bound, what=what)

    def lub(self, mask):
        """Least upper bound of a subset, or None if there is none."""
        ub = (1 << self.n) - 1
        for i in bits(mask):
            ub &= self.up[i]
        best = None
        for u in bits(ub):
            if ub & ~self.up[u] == 0:
                if best is None or self.leq(u, best):
                    best = u
        return best

    def glb(self, mask):
        lb = (1 << self.n) - 1
        for i in bits(mask):
            lb &= self.dn[i]
        best = None
        for u in bits(lb):
            if lb & ~self.dn[u] == 0:
                if best is None or self.leq(best, u):
                    best = u
        return best

    def maximal_in(self, mask):
        """Elements of mask with nothing strictly above them inside mask."""
        out = 0
        for i in bits(mask):
            if self.up[i] & mask & ~self.dn[i] == 0:
                out |= 1 << i
        return out


class Poset(Preorder):
    """A preorder that is also antisymmetric."""

    def _check(self):
        super()._check()
        for i in range(self.n):
            both = self.up[i] & self.dn[i] & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise InvalidStructure(f"not antisymmetric: {i} <= {j} <= {i}")


def preorder_from_pairs(n, pairs, labels=None):
    """Reflexive-transitive closure of the listed generator pairs."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidStructure(f"pair ({i},{j}) outside 0..{n - 1}")
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = up[i]
            for j in bits(m):
                if up[j] & ~m:
                    m |= up[j]
            if m != up[i]:
                up[i] = m
                changed = True
    return Preorder(n, up, labels=labels, _checked=True)


def validate_preorder(matrix, labels=None):
    """Close a square boolean matrix into a Preorder.

    Returns (preorder, changed) where `changed` says whether taking the
    closure altered the input relation.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise InvalidStructure("relation matrix is not square")
    pairs = [(i, j) for i in range(n) for j in range(n) if matrix[i][j]]
    p = preorder_from_pairs(n, pairs, labels=labels)
    changed = any(p.leq(i, j) != bool(matrix[i][j]) for i in range(n) for j in range(n))
    return p, changed


def as_poset(p):
    if isinstance(p, Poset):
        return p
    return Poset(p.n, p.up, labels=p.labels)


class MonotoneMap:
    """An order-preserving map between preorders."""

    def __init__(self, dom, cod, f):
        self.dom = dom
        self.cod = cod
        self.f = tuple(f)
        if len(self.f) != dom.n:
            raise InvalidStructure("assignment length does not match the domain")
        for i in range(dom.n):
            for j in bits(dom.up[i]):
                if not cod.leq(self.f[i], self.f[j]):
                    raise InvalidStructure(f"not monotone at {i} <= {j}")

    def __call__(self, i):
        return self.f[i]

    def preimage_mask(self, mask):
        return mask_of(i for i in range(self.dom.n) if (mask >> self.f[i]) & 1)

    def compose(self, other):
        """self after other (other first)."""
        return MonotoneMap(other.dom, self.cod, tuple(self.f[other.f[i]] for i in range(other.dom.n)))

    def is_surjective(self):
        return popcount(mask_of(self.f)) == self.cod.n

    def __repr__(self):
        return f"MonotoneMap({list(self.f)})"


def identity_map(p):
    return MonotoneMap(p, p, range(p.n))


def poset_quotient(p):
    """Collapse mutual-comparability classes; returns (poset, surjection)."""
    cls = []
    rep_of = [-1] * p.n
    for i in range(p.n):
        if rep_of[i] >= 0:
            continue
        block = p.up[i] & p.dn[i]
        idx = len(cls)
        cls.append(block)
        for j in bits(block):
            rep_of[j] = idx
    m = len(cls)
    up = [0] * m
    for a in range(m):
        i = next(bits(cls[a]))
        up[a] = mask_of(rep_of[j] for j in bits(p.up[i]))
    labels = None
    if p.labels:
        labels = [p.labels[next(bits(c))] for c in cls]
    q = Poset(m, up, labels=labels)
    return q, MonotoneMap(p, q, rep_of)


class FiniteFrame:
    """A finite bounded distributive lattice; finite, so a frame.

    Carrier order is a poset on 0..n-1 with explicit meet/join tables.
    A frame of subsets keeps each element's mask in `element_masks` and
    maps each mask back to its element in `index`.
    """

    def __init__(self, poset, meet=None, join=None, element_masks=None, _checked=False):
        self.poset = as_poset(poset)
        self.n = poset.n
        self.element_masks = None
        self.index = None
        self._join_irreducibles = None
        if element_masks is not None:
            self.element_masks = tuple(element_masks)
            self.index = {m: i for i, m in enumerate(self.element_masks)}
        if meet is None or join is None:
            meet, join = self._tables_from_order()
        try:
            self.meet = tuple(map(tuple, meet))
            self.join = tuple(map(tuple, join))
        except TypeError:
            raise InvalidStructure(self._shape_message()) from None
        self._find_bounds()
        if not _checked:
            self._check()

    def _find_bounds(self):
        full = (1 << self.n) - 1
        bot = [i for i in range(self.n) if self.poset.up[i] == full]
        top = [i for i in range(self.n) if self.poset.dn[i] == full]
        if len(bot) != 1 or len(top) != 1:
            raise InvalidStructure("carrier is not bounded")
        self.bot = bot[0]
        self.top = top[0]

    def meet_rows(self, names):
        """The rows of the meet table, element x written as names[x]."""
        return ([names[x] for x in row] for row in self.meet)

    def join_rows(self, names):
        """The rows of the join table, element x written as names[x]."""
        return ([names[x] for x in row] for row in self.join)

    def _tables_from_order(self):
        """The meet of i and j is the element whose down-set is
        dn[i] & dn[j], and their join the one whose up-set is up[i] & up[j];
        a pair with no such element lacks a meet or a join."""
        dn, up = self.poset.dn, self.poset.up
        at_dn = {d: x for x, d in enumerate(dn)}
        at_up = {u: x for x, u in enumerate(up)}
        meet, join = [], []
        for i in range(self.n):
            meet_row = [at_dn.get(dn[i] & d) for d in dn]
            join_row = [at_up.get(up[i] & u) for u in up]
            if None in meet_row or None in join_row:
                j = next(j for j in range(self.n) if meet_row[j] is None or join_row[j] is None)
                raise InvalidStructure(f"elements {i},{j} lack a meet or join")
            meet.append(meet_row)
            join.append(join_row)
        return meet, join

    def _shape_message(self):
        return f"meet/join tables must be {self.n} x {self.n} with entries in 0..{self.n - 1}"

    def _check(self):
        """Verify the tables in three O(n²) passes of mask comparisons.

        1. Shape: each table has n rows of n element indices.
        2. meet[i][j] is the meet of i and j iff dn[meet[i][j]] equals
           dn[i] & dn[j], and join[i][j] is their join iff up[join[i][j]]
           equals up[i] & up[j].  As dn and up are one-to-one on a poset,
           both tables are then commutative.
        3. Distributivity, by Birkhoff's theorem.  Let J be the
           join-irreducibles and phi(a) = dn[a] & J.  Every element is the
           join of the join-irreducibles below it, so phi is one-to-one,
           and phi(a ∧ b) = phi(a) & phi(b) holds in any lattice.  If also
           phi(a ∨ b) = phi(a) | phi(b) for all a and b, phi embeds the
           lattice in the powerset of J, which is distributive.
           Conversely, in a distributive lattice every j in J is
           join-prime: j ≤ a ∨ b gives j = (j ∧ a) ∨ (j ∧ b), so j = j ∧ a
           or j = j ∧ b, and phi preserves joins.

        Once a pass fails, a cell-by-cell search names the first failing
        cell, or the lexicographically first (a, b, c) where
        a ∧ (b ∨ c) differs from (a ∧ b) ∨ (a ∧ c).
        """
        n, dn, up = self.n, self.poset.dn, self.poset.up
        for table in (self.meet, self.join):
            if len(table) != n or any(
                len(row) != n or set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n
                for row in table
            ):
                raise InvalidStructure(self._shape_message())
        for i in range(n):
            if ([dn[m] for m in self.meet[i]] != [dn[i] & d for d in dn]
                    or [up[l] for l in self.join[i]] != [up[i] & u for u in up]):
                self._raise_first_bad_cell()
        irreducible = mask_of(self.join_irreducibles())
        phi = [d & irreducible for d in dn]
        for a in range(n):
            if [phi[l] for l in self.join[a]] != [phi[a] | q for q in phi]:
                self._raise_first_bad_triple()

    def _raise_first_bad_cell(self):
        p = self.poset
        for i in range(self.n):
            for j in range(self.n):
                m, l = self.meet[i][j], self.join[i][j]
                if m != self.meet[j][i] or l != self.join[j][i]:
                    raise InvalidStructure("meet/join tables not commutative")
                if not (p.leq(m, i) and p.leq(m, j) and p.leq(i, l) and p.leq(j, l)):
                    raise InvalidStructure("meet/join tables disagree with the order")
                for k in range(self.n):
                    if p.leq(k, i) and p.leq(k, j) and not p.leq(k, m):
                        raise InvalidStructure(f"{m} is not the meet of {i},{j}")
                    if p.leq(i, k) and p.leq(j, k) and not p.leq(l, k):
                        raise InvalidStructure(f"{l} is not the join of {i},{j}")
        raise CheckFailed("the O(n²) pass rejected tables that the cell search accepts")

    def _raise_first_bad_triple(self):
        for a in range(self.n):
            for b in range(self.n):
                for c in range(self.n):
                    if self.meet[a][self.join[b][c]] != self.join[self.meet[a][b]][self.meet[a][c]]:
                        raise InvalidStructure(f"not distributive at ({a},{b},{c})")
        raise CheckFailed("the O(n²) pass rejected a lattice that the triple search finds distributive")

    def leq(self, i, j):
        return self.poset.leq(i, j)

    def label(self, i):
        return self.poset.label(i)

    def meet_set(self, mask):
        acc = self.top
        for i in bits(mask):
            acc = self.meet[acc][i]
        return acc

    def join_set(self, mask):
        acc = self.bot
        for i in bits(mask):
            acc = self.join[acc][i]
        return acc

    def atoms(self):
        """Minimal nonzero elements, ascending."""
        out = []
        for a in range(self.n):
            if a == self.bot:
                continue
            if self.poset.dn[a] & ~(1 << a) == (1 << self.bot):
                out.append(a)
        return out

    def join_irreducibles(self):
        """Elements that are not the join of the elements strictly below them.

        Excludes the bottom (the empty join).  Found once per frame."""
        if self._join_irreducibles is None:
            self._join_irreducibles = tuple(
                d for d in range(self.n) if self.join_set(self.poset.dn[d] & ~(1 << d)) != d
            )
        return list(self._join_irreducibles)

    def complement_of(self, a):
        """The complement of a, or None."""
        for b in range(self.n):
            if self.meet[a][b] == self.bot and self.join[a][b] == self.top:
                return b
        return None

    def key(self):
        return (self.n, self.poset.up, self.meet, self.join)

    def __eq__(self, other):
        return isinstance(other, FiniteFrame) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"FiniteFrame(n={self.n}, bot={self.bot}, top={self.top})"


class SetFrame(FiniteFrame):
    """A frame of subsets past 64 elements, from `frame_of_down_sets`:
    it makes its tables only on first read, and until then gives their
    rows straight from the masks (`_set_rows`).  The tables are
    `cached_property`s of this class alone, as a class attribute named
    meet keeps the interpreter from specializing any read of `.meet`,
    which would slow the hot loops over small frames."""

    def __init__(self, poset, element_masks, dmask=-1, join_closure=None):
        self.poset = as_poset(poset)
        self.n = poset.n
        self.element_masks = tuple(element_masks)
        self.index = {m: i for i, m in enumerate(self.element_masks)}
        self._join_irreducibles = None
        self._dmask = dmask
        self._join_closure = join_closure
        self._find_bounds()

    @cached_property
    def meet(self):
        return tuple(map(tuple, self.meet_rows(range(self.n))))

    @cached_property
    def join(self):
        return tuple(map(tuple, self.join_rows(range(self.n))))

    def meet_rows(self, names):
        if "meet" in vars(self):
            return super().meet_rows(names)
        return _set_rows(self.element_masks, self._dmask, self._join_closure, names)[0]

    def join_rows(self, names):
        if "join" in vars(self):
            return super().join_rows(names)
        return _set_rows(self.element_masks, self._dmask, self._join_closure, names)[1]


def _set_rows(masks, dmask, join_closure, names):
    """The rows of the meet and of the join table of a family of sets,
    element x written as names[x], one lookup per cell: of the
    intersection, of the closed union, or of the union of the parts in
    dmask."""
    name_of = dict(zip(masks, names))
    meet = ([name_of[a & b] for b in masks] for a in masks)
    if join_closure is not None:
        return meet, ([name_of[join_closure(a | b)] for b in masks] for a in masks)
    parts, part_of = masks, name_of
    if dmask != -1:
        parts = [m & dmask for m in masks]
        part_of = dict(zip(parts, names))
    return meet, ([part_of[a | b] for b in parts] for a in parts)


def closed_family(seeds, gens, op, close=None, bound=None, what=None):
    """Least set containing `seeds` and closed under x -> close(op(x, g))
    for every g in `gens`; `close` defaults to the identity.

    Each new element is combined with the generators only, not with
    everything found so far.  That is complete for a closure operator
    applied to unions of generators, because cl(cl(A) u B) = cl(A u B).
    Raises GuardExceeded(what, size, bound) as soon as the set grows
    past `bound`.
    """
    out = set(seeds)
    if bound is not None and len(out) > bound:
        raise GuardExceeded(what, len(out), bound)
    gens = set(gens)
    frontier = list(out)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = op(x, g)
                if y in out:
                    continue
                if close is not None:
                    y = close(y)
                    if y in out:
                        continue
                out.add(y)
                nxt.append(y)
                if bound is not None and len(out) > bound:
                    raise GuardExceeded(what, len(out), bound)
        frontier = nxt
    return out


def set_label(name, mask):
    """The label "{x,y,...}" of a subset, naming each member i by name(i)."""
    return "{" + ",".join(name(i) for i in bits(mask)) + "}"


def inclusion_order(masks, labels=None):
    """The poset of distinct subsets, listed as bitmasks, under inclusion.

    masks[i] lies inside masks[j] when j holds every b in masks[i], so
    up[i] is the meet, over the b in masks[i], of the members holding b.
    Inclusion is a partial order on distinct sets, so once the masks are
    seen to be distinct the order needs no check.
    """
    n = len(masks)
    if len(set(masks)) != n:
        i = next(i for i, m in enumerate(masks) if masks.count(m) > 1)
        j = masks.index(masks[i], i + 1)
        raise InvalidStructure(f"not antisymmetric: {i} <= {j} <= {i}")
    holders = transpose(masks, max(masks, default=0).bit_length())
    everyone = (1 << n) - 1
    up = []
    for m in masks:
        u = everyone
        for b in bits(m):
            u &= holders[b]
        up.append(u)
    return Poset(n, up, labels=labels, _checked=True)


def frame_of_down_sets(family, ambient, labels=None, join_closure=None, dmask=-1, guard=None):
    """Frame whose elements are the given subsets of an ambient carrier.

    Elements are sorted ascending as bitmasks.  Meet is intersection; join
    is the closure of the union when `join_closure` is given, else the
    element whose part in `dmask` is the union of the two parts (the
    union itself for dmask = -1).

    Up to 64 elements the tables are made and checked here, so a family
    not closed under meet or join is refused.  Past that the frame is a
    SetFrame, which makes a table only where one is read, and the check
    stays off: each builder's family is closed by a theorem in its
    docstring, and the check alone, though O(n²), costs nearly as much as
    a whole `ideal-frame` job on the 10-antichain's 1,024-element frame.
    """
    elems = sorted(set(family))
    bound = config.frame_guard(guard)
    if len(elems) > bound:
        raise GuardExceeded("frame", len(elems), bound)
    if labels is None and ambient is not None:
        labels = [set_label(ambient.label, m) for m in elems]
    poset = inclusion_order(elems, labels)
    if len(elems) > 64:
        return SetFrame(poset, elems, dmask, join_closure)
    meet, join = _set_rows(elems, dmask, join_closure, range(len(elems)))
    try:
        meet = list(meet)
    except KeyError:
        raise InvalidStructure("family is not closed under intersection") from None
    try:
        join = list(join)
    except KeyError:
        raise InvalidStructure("family is not closed under join") from None
    return FiniteFrame(poset, meet, join, element_masks=elems)


def lower_sets(p, guard=None):
    """The frame of all down-closed subsets of a preorder: a family closed
    under union and intersection, as both keep a set down-closed."""
    downs = p.down_sets(bound=config.frame_guard(guard), what="lower-set frame")
    return frame_of_down_sets(downs, p, guard=guard)


def upper_sets(p, guard=None):
    """The frame of all up-closed subsets of a preorder: a family closed
    under union and intersection, as both keep a set up-closed."""
    ups = p.up_sets(bound=config.frame_guard(guard), what="upper-set frame")
    return frame_of_down_sets(ups, p, guard=guard)


def is_flat(f):
    """Flatness of a monotone map: covers the codomain and glues lower bounds."""
    dom, cod = f.dom, f.cod
    for d in range(cod.n):
        if not any(cod.leq(d, f(c)) for c in range(dom.n)):
            return False
    for d in range(cod.n):
        for c in range(dom.n):
            if not cod.leq(d, f(c)):
                continue
            for c2 in range(dom.n):
                if not cod.leq(d, f(c2)):
                    continue
                ok = False
                for c3 in bits(dom.dn[c] & dom.dn[c2]):
                    if cod.leq(d, f(c3)):
                        ok = True
                        break
                if not ok:
                    return False
    return True


def _signature(p, i):
    return (popcount(p.dn[i]), popcount(p.up[i]))


def iso_search(a, b):
    """Order isomorphism between two posets or frames, or None.

    Deterministic: returns the lexicographically least witness (as a
    tuple indexed by elements of `a`).  For frames, or any lattices, an
    order isomorphism is a lattice isomorphism, so no check follows: the
    meet of x and y is the greatest of their common lower bounds, which
    the order alone fixes, and f and its inverse preserve the order, so f
    maps the lower bounds of {x, y} onto those of {f(x), f(y)} and the
    greatest to the greatest; joins and the bounds likewise (Davey and
    Priestley, Introduction to Lattices and Order, ch. 2).

    The depth-first search keeps its path in `assign`, not in recursion,
    so it runs at any size.  j fits i when each placed k < i lies above
    (below) i iff assign[k] lies above (below) j: with `at` the inverse
    of `assign`, one mask comparison each way.
    """
    pa = a.poset if isinstance(a, FiniteFrame) else a
    pb = b.poset if isinstance(b, FiniteFrame) else b
    if pa.n != pb.n:
        return None
    siga = [_signature(pa, i) for i in range(pa.n)]
    sigb = [_signature(pb, i) for i in range(pb.n)]
    if sorted(siga) != sorted(sigb):
        return None
    n = pa.n
    assign, at, taken = [-1] * n, [-1] * n, 0

    def fits(i, j):
        placed = (1 << i) - 1
        return (siga[i] == sigb[j]
                and pa.up[i] & placed == mask_of(at[y] for y in bits(pb.up[j] & taken))
                and pa.dn[i] & placed == mask_of(at[y] for y in bits(pb.dn[j] & taken)))

    # element i takes the least fitting free j from `start` on; when none
    # fits, i - 1 moves past its current image
    i, start = 0, 0
    while i < n:
        free = ((1 << n) - 1) & ~taken & -(1 << start)
        j = next((j for j in bits(free) if fits(i, j)), None)
        if j is not None:
            assign[i], at[j] = j, i
            taken |= 1 << j
            i, start = i + 1, 0
        elif i == 0:
            return None
        else:
            i -= 1
            start = assign[i] + 1
            taken &= ~(1 << start - 1)
    return tuple(assign)


def frame_hom_failure(a, b, f):
    """The first frame-homomorphism law that the index assignment
    f: a -> b breaks, or None: "the bounds", "binary meets" or "binary
    joins".  Hom searches call this once per candidate, so the law is a
    constant, not a message naming the elements."""
    if f[a.bot] != b.bot or f[a.top] != b.top:
        return "the bounds"
    for i in range(a.n):
        for j in range(a.n):
            if f[a.meet[i][j]] != b.meet[f[i]][f[j]]:
                return "binary meets"
            if f[a.join[i][j]] != b.join[f[i]][f[j]]:
                return "binary joins"
    return None


def transitive_reduction(p):
    """Hasse pairs (i, j): j covers i."""
    out = []
    for i in range(p.n):
        for j in bits(p.up[i]):
            if i == j or p.leq(j, i):
                continue
            between = False
            for k in bits(p.up[i] & p.dn[j] & ~(1 << i) & ~(1 << j)):
                if not (p.leq(k, i) or p.leq(j, k)):
                    between = True
                    break
            if not between:
                out.append((i, j))
    return out
