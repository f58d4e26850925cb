"""Finite preorders, posets, monotone maps, finite frames, isomorphism search.

Elements are dense integer indices 0..n-1; labels are presentation-only.
The relation is stored per element as bitmasks: up[i] is the set of j with
i <= j, dn[i] the set of j with j <= i.
"""

from .bits import bits, mask_of, popcount
from .errors import CheckFailed, GuardExceeded, InvalidStructure
from . import config


class Preorder:
    """A reflexive transitive relation on {0..n-1}."""

    def __init__(self, n, up, labels=None, _checked=False):
        self.n = n
        self.up = tuple(up)
        self.dn = tuple(mask_of(i for i in range(n) if (self.up[i] >> j) & 1) for j in range(n))
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

    def is_up_closed(self, mask):
        for i in bits(mask):
            if self.up[i] & ~mask:
                return False
        return True

    def down_closure(self, mask):
        m = 0
        for i in bits(mask):
            m |= self.dn[i]
        return m

    def down_sets(self):
        """All down-closed subsets, ascending as bitmasks."""
        return [m for m in range(1 << self.n) if self.is_down_closed(m)]

    def up_sets(self):
        return [m for m in range(1 << self.n) if self.is_up_closed(m)]

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
            for j in bits(self.up[i]):
                if i != j and self.leq(j, i):
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
        if element_masks is not None:
            self.element_masks = tuple(element_masks)
            self.index = {m: i for i, m in enumerate(self.element_masks)}
        if meet is None or join is None:
            meet, join = self._tables_from_order()
        self.meet = tuple(tuple(row) for row in meet)
        self.join = tuple(tuple(row) for row in join)
        bot = [i for i in range(self.n) if popcount(poset.up[i]) == self.n]
        top = [i for i in range(self.n) if popcount(poset.dn[i]) == self.n]
        if len(bot) != 1 or len(top) != 1:
            raise InvalidStructure("carrier is not bounded")
        self.bot = bot[0]
        self.top = top[0]
        if not _checked:
            self._check()

    def _tables_from_order(self):
        p = self.poset
        meet = [[None] * self.n for _ in range(self.n)]
        join = [[None] * self.n for _ in range(self.n)]
        for i in range(self.n):
            for j in range(self.n):
                g = p.glb((1 << i) | (1 << j))
                l = p.lub((1 << i) | (1 << j))
                if g is None or l is None:
                    raise InvalidStructure(f"elements {i},{j} lack a meet or join")
                meet[i][j] = g
                join[i][j] = l
        return meet, join

    def _check(self):
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
        for a in range(self.n):
            for b in range(self.n):
                for c in range(self.n):
                    if self.meet[a][self.join[b][c]] != self.join[self.meet[a][b]][self.meet[a][c]]:
                        raise InvalidStructure(f"not distributive at ({a},{b},{c})")

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

        Excludes the bottom (the empty join)."""
        out = []
        for d in range(self.n):
            below = self.poset.dn[d] & ~(1 << d)
            if self.join_set(below) != d:
                out.append(d)
        return out

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
    """The poset of distinct subsets, listed as bitmasks, under inclusion."""
    up = [mask_of(j for j, mj in enumerate(masks) if mi & ~mj == 0) for mi in masks]
    return Poset(len(masks), up, labels=labels)


def frame_of_down_sets(family, ambient, labels=None, join_closure=None, guard=None):
    """Frame whose elements are the given subsets of an ambient carrier.

    Elements are sorted ascending as bitmasks.  Meet is intersection; join
    is union when `join_closure` is None, else the closure of the union.
    """
    elems = sorted(set(family))
    bound = config.frame_guard(guard)
    if len(elems) > bound:
        raise GuardExceeded("frame", len(elems), bound)
    index = {m: i for i, m in enumerate(elems)}
    n = len(elems)
    if labels is None and ambient is not None:
        labels = [set_label(ambient.label, m) for m in elems]
    poset = inclusion_order(elems, labels)
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for i, mi in enumerate(elems):
        for j, mj in enumerate(elems):
            inter = mi & mj
            if inter not in index:
                raise InvalidStructure("family is not closed under intersection")
            meet[i][j] = index[inter]
            uni = mi | mj
            if join_closure is not None:
                uni = join_closure(uni)
            if uni not in index:
                raise InvalidStructure("family is not closed under join")
            join[i][j] = index[uni]
    # the lattice laws hold structurally for an intersection/closure
    # family; the exhaustive verification is kept for small carriers
    fr = FiniteFrame(poset, meet, join, element_masks=elems, _checked=n > 64)
    return fr


def lower_sets(p, guard=None):
    """The frame of all down-closed subsets of a preorder."""
    bound = config.frame_guard(guard)
    if p.n > 30 or 2 ** p.n > bound * 8:
        raise GuardExceeded("lower-set frame", 2 ** p.n, bound)
    return frame_of_down_sets(p.down_sets(), p, guard=guard)


def upper_sets(p, guard=None):
    """The frame of all up-closed subsets of a preorder."""
    bound = config.frame_guard(guard)
    if p.n > 30 or 2 ** p.n > bound * 8:
        raise GuardExceeded("upper-set frame", 2 ** p.n, bound)
    return frame_of_down_sets(p.up_sets(), p, guard=guard)


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
    return (popcount(p.dn[i]), popcount(p.up[i]), _height(p, i))


def _height(p, i):
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


def iso_search(a, b):
    """Order isomorphism between two posets or frames, or None.

    Deterministic: returns the lexicographically least witness (as a
    tuple indexed by elements of `a`).  For frames an order isomorphism
    is automatically a lattice isomorphism, which is checked.
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
    assign = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or siga[i] != sigb[j]:
                continue
            ok = True
            for k in range(i):
                if pa.leq(i, k) != pb.leq(j, assign[k]) or pa.leq(k, i) != pb.leq(assign[k], j):
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                assign[i] = -1
                used[j] = False
        return False

    if not extend(0):
        return None
    wit = tuple(assign)
    if isinstance(a, FiniteFrame) and isinstance(b, FiniteFrame):
        if frame_hom_failure(a, b, wit) is not None:
            raise CheckFailed("order iso is not a lattice iso")
    return wit


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
