"""Finite commutative rings and the two Zariski spectrum constructions.

The multiplicative quotient S(A), the coverage on it, the Zariski
lattice built two independent ways, prime spectra as spaces, and the
radical-membership dictionary.

The ideal machinery here avoids materialising sieves: the saturated
covering of the Zariski coverage has an explicit arithmetic description
(a power of the covered element is a linear combination of the family),
which doubles as the independent oracle the generic saturation is
compared against on small rings.
"""

from operator import or_

from .bits import bits, mask_of, submasks
from .errors import CheckFailed, GuardExceeded, InvalidStructure
from . import config
from .coverage import Coverage
from .order import Poset, closed_family, frame_of_down_sets, iso_search, set_label
from .presentations import Presentation, present_coherent, present_semantic
from .spectra import TopSpace, space_from_subbasis


class FiniteCommRing:
    """A finite commutative unital ring given by operation tables."""

    def __init__(self, n, add, mul, zero, one, labels=None, _checked=False):
        self.n = n
        self.add = tuple(tuple(r) for r in add)
        self.mul = tuple(tuple(r) for r in mul)
        self.zero = zero
        self.one = one
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if not _checked:
            self._check()

    def _check(self):
        n = self.n
        if len(self.add) != n or len(self.mul) != n:
            raise InvalidStructure("operation tables must be n x n")
        rng = range(n)
        for a in rng:
            if self.add[a][self.zero] != a:
                raise InvalidStructure("0 is not an additive identity")
            if self.mul[a][self.one] != a:
                raise InvalidStructure("1 is not a multiplicative identity")
            if not any(self.add[a][b] == self.zero for b in rng):
                raise InvalidStructure(f"{a} has no additive inverse")
            for b in rng:
                if self.add[a][b] != self.add[b][a]:
                    raise InvalidStructure("addition is not commutative")
                if self.mul[a][b] != self.mul[b][a]:
                    raise InvalidStructure("multiplication is not commutative")
        for a in rng:
            for b in rng:
                for c in rng:
                    if self.add[self.add[a][b]][c] != self.add[a][self.add[b][c]]:
                        raise InvalidStructure("addition is not associative")
                    if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                        raise InvalidStructure("multiplication is not associative")
                    if self.mul[a][self.add[b][c]] != self.add[self.mul[a][b]][self.mul[a][c]]:
                        raise InvalidStructure("multiplication does not distribute")

    def label(self, a):
        return self.labels[a]

    def __repr__(self):
        return f"FiniteCommRing(n={self.n})"


def ring_zmod(n):
    """The ring of integers modulo n (n >= 1; n == 1 is the trivial ring)."""
    if n < 1:
        raise InvalidStructure("zmod needs n >= 1")
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteCommRing(n, add, mul, 0, 1 % n, _checked=True)


def ring_product(x, y):
    n = x.n * y.n

    def pack(a, b):
        return a * y.n + b

    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a1 in range(x.n):
        for b1 in range(y.n):
            for a2 in range(x.n):
                for b2 in range(y.n):
                    i, j = pack(a1, b1), pack(a2, b2)
                    add[i][j] = pack(x.add[a1][a2], y.add[b1][b2])
                    mul[i][j] = pack(x.mul[a1][a2], y.mul[b1][b2])
    labels = [f"({x.label(a)},{y.label(b)})" for a in range(x.n) for b in range(y.n)]
    return FiniteCommRing(n, add, mul, pack(x.zero, y.zero), pack(x.one, y.one),
                          labels=labels, _checked=True)


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


# ---------------------------------------------------------------------------
# ring ideals


class RingIdeal:
    """An ideal as a member mask; the subgroup and absorption laws are
    checked, and a claimed primality flag is verified."""

    def __init__(self, ring, members, prime=None):
        self.ring = ring
        self.members = members
        if not (members >> ring.zero) & 1:
            raise InvalidStructure("an ideal contains 0")
        for a in bits(members):
            for b in bits(members):
                if not (members >> ring.add[a][b]) & 1:
                    raise InvalidStructure("not closed under addition")
            for r in range(ring.n):
                if not (members >> ring.mul[a][r]) & 1:
                    raise InvalidStructure("does not absorb multiplication")
        if prime is not None and prime != is_prime_ideal(ring, members):
            raise InvalidStructure("primality flag is wrong")
        self.prime = is_prime_ideal(ring, members) if prime is None else prime

    def __contains__(self, a):
        return bool((self.members >> a) & 1)

    def __repr__(self):
        names = ",".join(self.ring.label(a) for a in bits(self.members))
        return f"RingIdeal(({names}), prime={self.prime})"


def ideal_generated(ring, gens):
    """The ideal generated by a set: the sum of principal ideals.

    In a commutative unital ring the principal ideal Ag is closed under
    addition, so the sumset Ag_1 + ... + Ag_k is already an ideal.  A
    generator that already lies in the running sum adds nothing.
    """
    out = {ring.zero}
    for g in gens:
        if g in out:
            continue
        multiples = set(ring.mul[g])
        out = {ring.add[a][b] for a in out for b in multiples}
    return mask_of(out)


def all_ideals(ring):
    """Every ideal, as masks ascending: sums of principal ideals."""
    principals = {ideal_generated(ring, [a]) for a in range(ring.n)}
    ideals = closed_family(principals | {1 << ring.zero}, principals, or_,
                           close=lambda u: ideal_generated(ring, bits(u)))
    return sorted(ideals)


def is_prime_ideal(ring, mask):
    if (mask >> ring.one) & 1:
        return False
    for a in range(ring.n):
        for b in range(ring.n):
            if (mask >> ring.mul[a][b]) & 1 and not (mask >> a) & 1 and not (mask >> b) & 1:
                return False
    return True


def prime_ideals(ring):
    return [m for m in all_ideals(ring) if is_prime_ideal(ring, m)]


def proper_ideals(ring):
    return [m for m in all_ideals(ring) if not (m >> ring.one) & 1]


def prime_filters_ring(ring):
    """Complements of prime ideals; the filter axioms are rechecked."""
    full = (1 << ring.n) - 1
    out = []
    for P in prime_ideals(ring):
        S = full & ~P
        if not (S >> ring.one) & 1 or (S >> ring.zero) & 1:
            raise CheckFailed("prime filter fails the unit clauses")
        for a in range(ring.n):
            for b in range(ring.n):
                inS = (S >> ring.mul[a][b]) & 1
                if inS != ((S >> a) & 1 and (S >> b) & 1):
                    raise CheckFailed("prime filter fails the product clause")
                if (S >> ring.add[a][b]) & 1 and not ((S >> a) & 1 or (S >> b) & 1):
                    raise CheckFailed("prime filter fails the sum clause")
        out.append(S)
    return sorted(out)


# ---------------------------------------------------------------------------
# the monoid S(A)


class SMonoid:
    """The idempotent quotient of (A, *), as a meet-semilattice."""

    def __init__(self, ring):
        self.ring = ring
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
                if union(a, ring.mul[a][a]):
                    changed = True
            # congruence: a ~ b forces a*c ~ b*c
            reps = {}
            for a in range(ring.n):
                reps.setdefault(find(a), []).append(a)
            for block in reps.values():
                lead = block[0]
                for other in block[1:]:
                    for c in range(ring.n):
                        if union(ring.mul[lead][c], ring.mul[other][c]):
                            changed = True
        roots = sorted({find(a) for a in range(ring.n)})
        ridx = {r: i for i, r in enumerate(roots)}
        self.pi = tuple(ridx[find(a)] for a in range(ring.n))
        self.classes = tuple(
            mask_of(a for a in range(ring.n) if self.pi[a] == i) for i in range(len(roots))
        )
        self.n = len(roots)
        self.mul = tuple(
            tuple(self.pi[ring.mul[next(bits(self.classes[i]))][next(bits(self.classes[j]))]]
                  for j in range(self.n))
            for i in range(self.n)
        )
        for i in range(self.n):
            if self.mul[i][i] != i:
                raise CheckFailed("quotient is not idempotent")
        # order: x <= y iff x*y == x; meets are products
        up = [mask_of(j for j in range(self.n) if self.mul[i][j] == i) for i in range(self.n)]
        labels = ["[" + ring.label(next(bits(self.classes[i]))) + "]" for i in range(self.n)]
        self.poset = Poset(self.n, up, labels=labels)
        for i in range(self.n):
            for j in range(self.n):
                if self.poset.glb((1 << i) | (1 << j)) != self.mul[i][j]:
                    raise CheckFailed("product is not the meet")


def s_monoid(ring):
    """Quotient of (A, *) by the least congruence identifying a with a^2;
    returns (meet-semilattice poset, projection tuple, SMonoid)."""
    s = SMonoid(ring)
    return s.poset, s.pi, s


def s_congruence_oracle(ring):
    """Independent description of the congruence: the transitive closure
    of the relation 'a and b are both of the form c^k * d'."""
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


# ---------------------------------------------------------------------------
# the coverage and its arithmetic description


def _semigroup_sums(ring, elems):
    """All sums of one or more elements drawn (with repetition) from a set."""
    return closed_family(elems, elems, lambda s, y: ring.add[s][y])


def zariski_coverage(ring, s=None, guard=None):
    """The coverage on S(A): the empty family covers the class of 0, and
    a finite family of classes below x covers x when representatives sum
    into x's class.  Materialised only for small S(A)."""
    if s is None:
        _, _, s = s_monoid(ring)
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
    return Coverage(po, [frozenset(c) for c in covers], trusted_stable=True)


def _powers_till_cycle(ring, a):
    seen = set()
    out = []
    p = a
    while p not in seen:
        seen.add(p)
        out.append(p)
        p = ring.mul[p][a]
    return out


def power_combination_covers(ring, s, x, sieve_mask):
    """The arithmetic covering test: some power of a representative of x
    is a linear combination of elements whose classes lie in the sieve."""
    rep = next(bits(s.classes[x]))
    y = [a for a in range(ring.n) if (sieve_mask >> s.pi[a]) & 1 and s.poset.leq(s.pi[a], x)]
    ideal = ideal_generated(ring, y) if y else (1 << ring.zero)
    return any((ideal >> p) & 1 for p in _powers_till_cycle(ring, rep))


def zariski_closure(ring, s, mask):
    """Least C-ideal on S(A) containing a set, via the arithmetic test."""
    po = s.poset
    out = po.down_closure(mask)
    changed = True
    while changed:
        changed = False
        for x in range(s.n):
            if (out >> x) & 1:
                continue
            if power_combination_covers(ring, s, x, out & po.dn[x]):
                out |= po.dn[x]
                changed = True
    return out


def zariski_ideal_frame(ring, s=None, guard=None):
    """Id_C(S(A)) built from principal closures under join."""
    if s is None:
        _, _, s = s_monoid(ring)
    po = s.poset
    cl = lambda m: zariski_closure(ring, s, m)
    principals = [cl(po.dn[x]) for x in range(s.n)]
    elems = closed_family([cl(0)] + principals, principals, or_, close=cl,
                          bound=config.frame_guard(guard), what="zariski ideal frame")
    return frame_of_down_sets(sorted(elems), po, join_closure=cl, guard=guard)


def zariski_presentation(ring):
    """Generators D(a) with the four defining relation schemas."""
    gens = [f"d{a}" for a in range(ring.n)]
    rels = []
    g = lambda a: ("gen", a)
    rels.append(("=", g(ring.one), ("one",)))
    rels.append(("=", g(ring.zero), ("zero",)))
    for a in range(ring.n):
        for b in range(a, ring.n):
            rels.append(("=", g(ring.mul[a][b]), ("meet", g(a), g(b))))
            rels.append(("<=", g(ring.add[a][b]), ("join", g(a), g(b))))
    return Presentation(gens, rels, "coherent")


def zariski_lattice(ring, guard=None):
    """The lattice L(A), built two independent ways and cross-checked.

    (1) as the distributive lattice presented by the D(a) relations
        (congruence closure when the ring is tiny, else the semantic
        model engine), and
    (2) as the frame of C-ideals on S(A), which at finite scale is its
        own lattice of compact elements.

    Returns (frame, D) where D maps ring elements to frame elements of
    construction (2); a mismatch between the two aborts.
    """
    _, pi, s = s_monoid(ring)
    fr = zariski_ideal_frame(ring, s, guard=guard)
    pres = zariski_presentation(ring)
    if ring.n <= config.FREE_DLAT_GUARD:
        lat = present_coherent(pres)
    else:
        lat = present_semantic(pres)
    if iso_search(lat.frame, fr) is None:
        raise CheckFailed("presented Zariski lattice differs from the ideal-frame construction")
    D = [fr.index[zariski_closure(ring, s, s.poset.dn[pi[a]])] for a in range(ring.n)]
    return fr, D


# ---------------------------------------------------------------------------
# spectra


def spec_space(ring):
    """Spec(A) with the Zariski topology; basic opens are D(a)."""
    primes = prime_ideals(ring)
    subbasis = [
        mask_of(i for i, P in enumerate(primes) if not (P >> a) & 1) for a in range(ring.n)
    ]
    labels = ["(" + ",".join(ring.label(x) for x in bits(P)) + ")" for P in primes]
    return space_from_subbasis(len(primes), subbasis, labels=labels), primes


def zariski_point_space(ring, s=None):
    """The subterminal space over (S(A), C): points are the C-prime
    filters on S(A), opens are the F_I over C-ideals I."""
    if s is None:
        _, _, s = s_monoid(ring)
    po = s.poset
    ring_filters = prime_filters_ring(ring)
    filters = []
    for S in ring_filters:
        F = mask_of(s.pi[a] for a in bits(S))
        if mask_of(a for a in range(ring.n) if (F >> s.pi[a]) & 1) != S:
            raise CheckFailed("a ring prime filter is not a union of classes")
        _check_c_prime(ring, s, F)
        filters.append(F)
    filters = sorted(set(filters))
    if len(filters) != len(ring_filters):
        raise CheckFailed("class map identified two distinct prime filters")
    fr = zariski_ideal_frame(ring, s)
    opens = set()
    for m in fr.element_masks:
        opens.add(mask_of(i for i, F in enumerate(filters) if F & m))
    labels = [set_label(po.label, F) for F in filters]
    return TopSpace(len(filters), opens, labels=labels), filters


def _check_c_prime(ring, s, F):
    """Filter axioms plus the binary sum clause on the underlying ring
    subset, which by induction gives the full covering clause."""
    po = s.poset
    if F == 0:
        raise CheckFailed("empty filter")
    for a in bits(F):
        if po.up[a] & ~F:
            raise CheckFailed("filter is not up-closed")
        for b in bits(F):
            if not (F >> s.mul[a][b]) & 1:
                raise CheckFailed("filter is not meet-closed")
    if (F >> s.pi[ring.zero]) & 1:
        raise CheckFailed("filter contains the class of 0")
    for a in range(ring.n):
        for b in range(ring.n):
            if (F >> s.pi[ring.add[a][b]]) & 1:
                if not ((F >> s.pi[a]) & 1 or (F >> s.pi[b]) & 1):
                    raise CheckFailed("filter misses a sum decomposition")


def spectra_homeomorphism(ring):
    """The explicit homeomorphism between the point space of (S(A), C)
    and Spec(A) with the Zariski topology, verified open-for-open."""
    _, pi, s = s_monoid(ring)
    space1, filters = zariski_point_space(ring, s)
    space2, primes = spec_space(ring)
    if space1.n != space2.n:
        raise CheckFailed(f"point counts differ: {space1.n} vs {space2.n}")
    full = (1 << ring.n) - 1
    point_map = []
    for F in filters:
        S = mask_of(a for a in range(ring.n) if (F >> pi[a]) & 1)
        P = full & ~S
        if P not in primes:
            raise CheckFailed("filter complement is not a prime ideal")
        point_map.append(primes.index(P))
    if sorted(point_map) != list(range(space2.n)):
        raise CheckFailed("point map is not a bijection")
    mapped = {mask_of(point_map[i] for i in bits(U)) for U in space1.opens}
    if mapped != set(space2.opens):
        raise CheckFailed("opens do not correspond under the point bijection")
    return point_map, space1, space2


class ZariskiSite:
    """Caches for repeated Zariski computations over one ring: the monoid
    quotient, power chains, generated ideals, and C-ideal closures."""

    def __init__(self, ring):
        self.ring = ring
        _, self.pi, self.s = s_monoid(ring)
        self._powers = {}
        self._ideals = {}
        self._closures = {}

    def powers(self, a):
        if a not in self._powers:
            self._powers[a] = _powers_till_cycle(self.ring, a)
        return self._powers[a]

    def ideal(self, bs):
        key = frozenset(bs)
        if key not in self._ideals:
            self._ideals[key] = (
                ideal_generated(self.ring, sorted(key)) if key else (1 << self.ring.zero)
            )
        return self._ideals[key]

    def closure(self, mask):
        if mask not in self._closures:
            self._closures[mask] = zariski_closure(self.ring, self.s, mask)
        return self._closures[mask]


def radical_membership(ring, a, bs, site=None):
    """Whether some power of a lies in the ideal generated by bs.

    Decided on the ring side by power iteration, and on the lattice side
    by D(a) <= D(b_1) v ... v D(b_r) in Id_C(S(A)); the two must agree.
    """
    site = site if site is not None else ZariskiSite(ring)
    ideal = site.ideal(bs)
    ring_side = any((ideal >> p) & 1 for p in site.powers(a))
    pi, s = site.pi, site.s
    lhs = site.closure(s.poset.dn[pi[a]])
    rhs = site.closure(mask_of(pi[b] for b in bs))
    lattice_side = lhs & ~rhs == 0
    if ring_side != lattice_side:
        raise CheckFailed(f"radical membership disagreement at a={a}, bs={bs}")
    return ring_side


# ---------------------------------------------------------------------------
# op-ideals


def op_ideal_presentation(ring):
    """The coherent theory of op-ideals: D(ab) <= D(a) & D(b) etc."""
    gens = [f"d{a}" for a in range(ring.n)]
    g = lambda a: ("gen", a)
    rels = [("=", g(ring.one), ("one",)), ("=", g(ring.zero), ("zero",))]
    for a in range(ring.n):
        for b in range(a, ring.n):
            rels.append(("<=", g(ring.mul[a][b]), ("meet", g(a), g(b))))
            rels.append(("<=", g(ring.add[a][b]), ("join", g(a), g(b))))
    return Presentation(gens, rels, "coherent")


def op_ideal_space(ring):
    """Proper ideals with the elemental topology via op-ideal complements."""
    props = proper_ideals(ring)
    subbasis = [
        mask_of(i for i, I in enumerate(props) if not (I >> a) & 1) for a in range(ring.n)
    ]
    labels = ["(" + ",".join(ring.label(x) for x in bits(I)) + ")" for I in props]
    return space_from_subbasis(len(props), subbasis, labels=labels), props


def op_ideal_lattice(ring):
    """The presented lattice D(A), cross-checked against the open-set
    frame of the op-ideal space (finite: every open is compact)."""
    pres = op_ideal_presentation(ring)
    if ring.n <= config.FREE_DLAT_GUARD:
        lat = present_coherent(pres)
    else:
        lat = present_semantic(pres)
    space, props = op_ideal_space(ring)
    opens = space.opens_frame()
    if iso_search(lat.frame, opens) is None:
        raise CheckFailed("presented op-ideal lattice differs from the space opens")
    return lat, space
