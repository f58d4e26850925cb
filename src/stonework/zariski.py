"""Finite commutative rings and the two Zariski spectrum constructions.

The multiplicative quotient S(A), the coverage on it, the Zariski
lattice built two independent ways, prime spectra as spaces, and the
radical-membership dictionary.

No sieve is materialised: the saturated covering of the Zariski
coverage has an arithmetic description (a power of the covered element
is a linear combination of the family), and that test, made once per
class, gives the D of the topology J_D on S(A).  Each ring keeps what is
derived from it in its own ZariskiSite, `ring.site`.
"""

from functools import cached_property
from itertools import chain, compress
from operator import add, and_, ne, or_

from .bits import bits, mask_of, popcount, transpose
from .coverage import Site, ideal_frame, j_closure
from .errors import CheckFailed, GuardExceeded, InvalidStructure
from . import config
from .order import Poset, closed_family, iso_search, set_label
from .presentations import JOIN, MEET, ONE, ZERO, present_coherent, present_semantic
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
        """The ring laws, with the associative and distributive laws read
        off a generating set of (A, +) instead of all triples.

        G is taken greedily (0 last): each element that the sums built so
        far from G miss joins G, so every element is g or x + g with x
        built earlier and g in G.  Light's test: let T be the set of b
        with (x + b) + y = x + (b + y) for all x, y.  If b, c lie in T,
        (x + (b + c)) + y = ((x + b) + c) + y = (x + b) + (c + y)
        = x + (b + (c + y)) = x + ((b + c) + y), so T is closed under +;
        checking T contains G then puts every element in T.  With + an
        associative commutative operation, the set of y with
        a(x + y) = ax + ay for all a, x is closed under + in the same way,
        and so, given distributivity, is the set of z with
        (ax)z = a(xz) for all a, x, since
        (ax)(y + z) = (ax)y + (ax)z = a(xy) + a(xz) = a(x(y + z)).  So
        each law is checked for g in G only: n^2 |G| cells, not n^3.
        """
        n, add, mul, zero, one = self.n, self.add, self.mul, self.zero, self.one
        rng = range(n)
        for table in (add, mul):
            if len(table) != n or any(len(row) != n for row in table):
                raise InvalidStructure("operation tables must be n x n")
            cells = set(chain.from_iterable(table))
            if set(map(type, cells)) - {int} or not cells <= set(rng):
                raise InvalidStructure(f"table entries must be integers in 0..{n - 1}")
        if not all(type(e) is int and 0 <= e < n for e in (zero, one)):
            raise InvalidStructure("0 and 1 must be elements of the ring")
        for a in rng:
            if add[a][zero] != a:
                raise InvalidStructure("0 is not an additive identity")
            if mul[a][one] != a:
                raise InvalidStructure("1 is not a multiplicative identity")
            if zero not in add[a]:
                raise InvalidStructure(f"{a} has no additive inverse")
        if tuple(zip(*add)) != add:
            raise InvalidStructure("addition is not commutative")
        if tuple(zip(*mul)) != mul:
            raise InvalidStructure("multiplication is not commutative")
        gens, built = [], set()
        for a in sorted(rng, key=zero.__eq__):
            if a not in built:
                gens.append(a)
                built = closed_family(built | {a}, gens, lambda x, g: add[x][g])
        # every row below is a function of y (or of x), read in one map
        for g in gens:
            for x in rng:
                if add[add[x][g]] != tuple(map(add[x].__getitem__, add[g])):
                    raise InvalidStructure("addition is not associative")
        for g in gens:
            for a in rng:
                if [*map(mul[a].__getitem__, add[g])] != [*map(add[mul[a][g]].__getitem__, mul[a])]:
                    raise InvalidStructure("multiplication does not distribute")
        for g in gens:
            for a in rng:
                if [*map(mul[g].__getitem__, mul[a])] != [*map(mul[a].__getitem__, mul[g])]:
                    raise InvalidStructure("multiplication is not associative")

    def label(self, a):
        return self.labels[a]

    @cached_property
    def site(self):
        """The ring's ZariskiSite, which keeps what is derived from it."""
        return ZariskiSite(self)

    def __repr__(self):
        return f"FiniteCommRing(n={self.n})"


def ring_zmod(n):
    """The ring of integers modulo n (n >= 1; n == 1 is the trivial ring).

    Each operation table has n^2 cells, refused past the frame-size
    guard before any is made.  The cells share the n element ints, and
    a row of + is a rotation of the elements."""
    if n < 1:
        raise InvalidStructure("zmod needs n >= 1")
    bound = config.frame_guard()
    if n * n > bound:
        raise GuardExceeded(f"each operation table of Z/{n}", n * n, bound)
    vals = tuple(range(n))
    add = [vals[a:] + vals[:a] for a in vals]
    mul = [tuple([vals[a * b % n] for b in vals]) for a in vals]
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
        is_prime = members in ring.site.primes
        if prime is not None and prime != is_prime:
            raise InvalidStructure("primality flag is wrong")
        self.prime = is_prime

    def __contains__(self, a):
        return bool((self.members >> a) & 1)

    def __repr__(self):
        names = ",".join(self.ring.label(a) for a in bits(self.members))
        return f"RingIdeal(({names}), prime={self.prime})"


def ideal_generated(ring, gens):
    """The ideal generated by a set: the sum of principal ideals.

    In a commutative unital ring the principal ideal Ag is an additive
    subgroup, so the sum of the running sum S with it is already an
    ideal.  For additive subgroups H, K, H + K is the union of the
    cosets H + x over x in K; cosets of H are equal or disjoint, so an x
    already in the union adds nothing, and each new coset is one
    translate of H.  H is the larger of S and Ag.  A generator that
    already lies in S adds nothing.
    """
    out = 1 << ring.zero
    for g in gens:
        if (out >> g) & 1:
            continue
        big, small = out, mask_of(ring.mul[g])
        if popcount(big) < popcount(small):
            big, small = small, big
        members = list(bits(big))
        out = big
        for x in bits(small):
            if not (out >> x) & 1:
                out |= mask_of(map(ring.add[x].__getitem__, members))
    return out


def all_ideals(ring):
    """Every ideal, as masks ascending: sums of principal ideals, the
    principal ideal Ag being the set of the row of g in the product
    table."""
    principals = set(map(mask_of, ring.mul))
    ideals = closed_family(principals | {1 << ring.zero}, principals, or_,
                           close=lambda u: ideal_generated(ring, bits(u)))
    return sorted(ideals)


def proper_ideals(ring):
    return [m for m in all_ideals(ring) if not (m >> ring.one) & 1]


def prime_ideals(ring):
    """The prime ideals, ascending: M_e = {a : ae nilpotent} for each
    primitive idempotent e, one that is nonzero with ef in {0, e} for
    every idempotent f.

    A finite commutative ring is the product of the local rings eA over
    its primitive idempotents e (Atiyah-Macdonald, Introduction to
    Commutative Algebra, 8.7).  A prime of a product is the whole of
    every factor but one and a prime of that one.  A finite integral
    domain is a field (multiplication by x != 0 is injective, hence
    onto), so each prime is maximal, and the one prime of the local ring
    eA is its nilradical: the primes are the M_e.  Nilpotency is read off
    the powers of each element, from the ring's tables alone.
    """
    n, mul, zero = ring.n, ring.mul, ring.zero
    nil = [zero in _powers_till_cycle(ring, a) for a in range(n)]
    idem = [e for e in range(n) if mul[e][e] == e != zero]
    return sorted(mask_of(compress(range(n), map(nil.__getitem__, mul[e])))
                  for e in idem if {mul[e][f] for f in idem} <= {zero, e})


def prime_filters_ring(ring):
    """Complements of prime ideals, ascending.

    The filter axioms are rechecked for all of them in one pass over the
    tables: element a holds the mask mem[a] of the filters containing
    it, so the product clause is mem[ab] == mem[a] & mem[b] and the sum
    clause is mem[a + b] within mem[a] | mem[b].
    """
    full = (1 << ring.n) - 1
    out = sorted(full & ~P for P in ring.site.primes)
    mem = transpose(out, ring.n)
    if mem[ring.one] != (1 << len(out)) - 1 or mem[ring.zero]:
        raise CheckFailed("prime filter fails the unit clauses")
    get, meets = mem.__getitem__, {}
    for a, row in enumerate(ring.mul):
        m = mem[a]
        if m not in meets:
            meets[m] = [m & x for x in mem]
        if [*map(get, row)] != meets[m]:
            raise CheckFailed("prime filter fails the product clause")
    if not _sum_clause_holds(ring, mem):
        raise CheckFailed("prime filter fails the sum clause")
    return out


def _sum_clause_holds(ring, mem):
    """Whether mem[a + b] lies within mem[a] | mem[b] for all a, b: with
    mem[a] the mask of the filters holding a, no filter holds a sum and
    neither summand.  One map over each row of the addition table."""
    get, misses = mem.__getitem__, {}
    for a, row in enumerate(ring.add):
        m = mem[a]
        if m not in misses:
            misses[m] = [~(m | x) for x in mem]
        if any(map(and_, map(get, row), misses[m])):
            return False
    return True


# ---------------------------------------------------------------------------
# the monoid S(A)


class SMonoid:
    """The quotient of (A, *) by its least semilattice congruence (the
    least congruence with a ~ a*a), as a meet-semilattice.

    Each class holds exactly one idempotent, and a lies in the class of
    the idempotent among its powers (Tamura-Kimura; Clifford-Preston,
    The Algebraic Theory of Semigroups, vol. 1, 4.3).  At finite scale:
    the powers of a end in a cycle, a cyclic group whose identity e_a is
    the one idempotent power of a.  For k past both tails and a multiple
    of both cycle lengths, (ab)^k = a^k b^k = e_a e_b, an idempotent, so
    e_ab = e_a e_b: a -> e_a is a homomorphism onto the idempotents, and
    its kernel is a congruence with an idempotent quotient.  Any
    congruence with a ~ a*a has a ~ a^k = e_a, so it contains that
    kernel, which is therefore the least.  Classes are numbered by least
    member.

    rep_powers[x] is the mask of the powers of the least member of class
    x, and `ideal(mask)` caches the ideal generated by the members of the
    classes in a mask of classes.
    """

    def __init__(self, ring):
        self.ring = ring
        index, pi, powers, reps = {}, [], [], []
        for a in range(ring.n):
            chain = _powers_till_cycle(ring, a)
            e = next(p for p in chain if ring.mul[p][p] == p)
            if e not in index:
                index[e] = len(index)
                powers.append(mask_of(chain))
                reps.append(a)
            pi.append(index[e])
        self.pi = tuple(pi)
        self.rep_powers = tuple(powers)
        self.n = len(index)
        classes = [0] * self.n
        for a, i in enumerate(pi):
            classes[i] |= 1 << a
        self.classes = tuple(classes)
        self._ideals = {}
        get = self.pi.__getitem__
        self.mul = tuple(tuple(map(get, map(ring.mul[r].__getitem__, reps))) for r in reps)
        for i in range(self.n):
            if self.mul[i][i] != i:
                raise CheckFailed("quotient is not idempotent")
        # order: x <= y iff x*y == x; meets are products
        up = [mask_of(j for j in range(self.n) if self.mul[i][j] == i) for i in range(self.n)]
        self.poset = Poset(self.n, up, labels=["[" + ring.label(r) + "]" for r in reps])
        # x * y is the meet iff the lower bounds of x and y are what lies
        # below x * y
        dn = self.poset.dn
        for x, row in enumerate(self.mul):
            if any(map(ne, map(dn[x].__and__, dn), map(dn.__getitem__, row))):
                raise CheckFailed("product is not the meet")

    def ideal(self, mask):
        if mask not in self._ideals:
            members = 0
            for x in bits(mask):
                members |= self.classes[x]
            self._ideals[mask] = ideal_generated(self.ring, bits(members))
        return self._ideals[mask]


def s_monoid(ring):
    """Quotient of (A, *) by the least congruence identifying a with a^2;
    returns (meet-semilattice poset, projection tuple, SMonoid)."""
    s = SMonoid(ring)
    return s.poset, s.pi, s


# ---------------------------------------------------------------------------
# the coverage and its arithmetic description


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
    return s.ideal(sieve_mask & s.poset.dn[x]) & s.rep_powers[x] != 0


def zariski_closure(ring, mask):
    """Least C-ideal on S(A) containing a set of classes: one j_closure
    pass on the ring's site."""
    return j_closure(ring.site.topology, mask)


def zariski_ideal_frame(ring, guard=None):
    """Id_C(S(A)), the ideal frame of the ring's site (ideal_frame):
    joined by D-part, listed from the down-sets of D."""
    return ideal_frame(ring.site.topology, guard=guard)


def zariski_presentation(ring):
    """L(A) presented on the classes of S(A): a generator D(x) per class
    x, with D([1]) = 1, D([0]) = 0, D(x * y) = D(x) & D(y) for classes
    x <= y, and D(z) <= D(x) | D(y) for each triple (x, y, z) of classes
    x <= y with x, y, z = pi a, pi b, pi(a + b) for some a, b.

    It presents the lattice presented by a generator D(a) per element
    under D(1) = 1, D(0) = 0, D(ab) = D(a) & D(b) and D(a + b) <= D(a) |
    D(b), with D(a) sent to D(pi a).  There D(ac) = D(a) & D(c) <= D(a),
    so a | b^k gives D(b) = D(b^k) <= D(a), where D(b^2) = D(b) & D(b) =
    D(b) gives D(b) = D(b^k) by induction.  If pi a = pi b, the one
    idempotent e of the class is a power of a and of b, so a | e and
    b | e: the element relations derive D(a) = D(b), and collapsing each
    class to one generator is a Tietze move.  pi is a monoid
    homomorphism, so it carries each element relation onto a class
    relation, and each class relation is the image of one.
    """
    return _ClassPresentation(ring.site.s)


class _ClassPresentation:
    """zariski_presentation's relations, made bucket by bucket as in
    _DPresentation.  The sum triples are found in one pass over the
    addition table, class x by class x, each held as one int
    x k^2 + y k + z in the list of its highest class, max(y, z)."""

    def __init__(self, s):
        k, pi = s.n, s.pi
        self.generators = tuple(f"d{x}" for x in range(k))
        self.logic = "coherent"
        self.s = s
        yk, self.tops = [y * k for y in pi], [[] for _ in range(k)]
        for x, members in enumerate(s.classes):
            sums = set()
            for a in bits(members):
                sums.update(map(add, yk, map(pi.__getitem__, s.ring.add[a])))
            for c in sums:
                if c >= x * k:
                    self.tops[max(divmod(c, k))].append(x * k * k + c)
        self.relations = _Relations(2 + k * (k + 1) // 2 + sum(map(len, self.tops)), self.buckets)

    def buckets(self):
        s = self.s
        k, ring = s.n, s.ring
        d = [(x,) for x in range(k)]
        later = [[] for _ in range(k)]
        later[s.pi[ring.one]].append(("=", d[s.pi[ring.one]], (ONE,)))
        later[s.pi[ring.zero]].append(("=", d[s.pi[ring.zero]], (ZERO,)))
        yield []
        for t in range(k):
            now, later[t] = later[t], None
            for x, m in enumerate(s.mul[t][:t + 1]):
                (now if m <= t else later[m]).append(("=", d[m], (x, t, MEET)))
            for c in self.tops[t]:
                x, c = divmod(c, k * k)
                y, z = divmod(c, k)
                now.append(("<=", d[z], (x, y, JOIN)))
            yield now


class _DPresentation:
    """Generators D(a) with D(1) = 1, D(0) = 0, D(ab) <= D(a) & D(b)
    and D(a+b) <= D(a) | D(b) for a <= b; the term D(c) is one shared
    code (c,).

    The members that relation_models, present_semantic and
    present_coherent read of a Presentation: `generators`, `logic`,
    `relations` and `buckets`.  The n(n + 1) + 2 relations are not held:
    `buckets` makes them one bucket at a time, and `relations` counts
    them and, iterated, yields them all.
    """

    def __init__(self, ring):
        self.generators = tuple(f"d{a}" for a in range(ring.n))
        self.logic = "coherent"
        self.ring = ring
        self.relations = _Relations(ring.n * (ring.n + 1) + 2, self.buckets)

    def buckets(self):
        """Presentation.buckets, each made when it is read.  The highest
        generator of a pair's relation is D(b) or its D(c), c = ab or
        a + b: b's bucket takes it when c <= b, and otherwise it waits in
        `later[c]` for c's bucket, so only the relations with
        a <= b' < b < c are held at b."""
        ring = self.ring
        d = [(c,) for c in range(ring.n)]
        later = [[] for _ in range(ring.n)]
        later[ring.one].append(("=", d[ring.one], (ONE,)))
        later[ring.zero].append(("=", d[ring.zero], (ZERO,)))
        yield []
        for b in range(ring.n):
            now, later[b] = later[b], None
            mul_b, add_b = ring.mul[b], ring.add[b]
            for a in range(b + 1):
                c = mul_b[a]
                (now if c <= b else later[c]).append(("<=", d[c], (a, b, MEET)))
                c = add_b[a]
                (now if c <= b else later[c]).append(("<=", d[c], (a, b, JOIN)))
            yield now


class _Relations:
    """`count` relations, made bucket by bucket when iterated."""

    def __init__(self, count, buckets):
        self.count, self.buckets = count, buckets

    def __len__(self):
        return self.count

    def __iter__(self):
        return chain.from_iterable(self.buckets())


def zariski_lattice(ring, guard=None):
    """The lattice L(A), built two independent ways and cross-checked.

    (1) as the distributive lattice presented by the D relations on
        the classes of S(A) (congruence closure when the ring is tiny,
        else the semantic model engine), and
    (2) as the frame of C-ideals on S(A), which at finite scale is its
        own lattice of compact elements.

    Both read S(A), so its classes are first checked against the prime
    ideals, found from the ring's tables alone: a and b share a class iff
    they lie in the same primes.  If a^k = bc, then pi a = pi a^k =
    pi b pi c <= pi b in the semilattice, and the idempotent of a class
    is a power of each member; so a and b share a class iff each divides
    a power of the other, that is iff their radicals agree.  Returns
    (frame, D) where D maps ring elements to frame elements of
    construction (2); a mismatch aborts.
    """
    site = ring.site
    s, mem = site.s, transpose(site.primes, ring.n)
    if len(set(mem)) != s.n or len(set(zip(s.pi, mem))) != s.n:
        raise CheckFailed("the classes of S(A) are not the elements in the same prime ideals")
    fr = site.frame(guard)
    pres = zariski_presentation(ring)
    if ring.n <= config.FREE_DLAT_GUARD:
        lat = present_coherent(pres)
    else:
        lat = present_semantic(pres)
    if iso_search(lat.frame, fr) is None:
        raise CheckFailed("presented Zariski lattice differs from the ideal-frame construction")
    at = [fr.index[zariski_closure(ring, d)] for d in s.poset.dn]
    return fr, list(map(at.__getitem__, s.pi))


# ---------------------------------------------------------------------------
# spectra


def spec_space(ring):
    """Spec(A) with the Zariski topology; basic opens are D(a)."""
    primes = ring.site.primes
    subbasis = [
        mask_of(i for i, P in enumerate(primes) if not (P >> a) & 1) for a in range(ring.n)
    ]
    labels = ["(" + ",".join(ring.label(x) for x in bits(P)) + ")" for P in primes]
    return space_from_subbasis(len(primes), subbasis, labels=labels), primes


def zariski_point_space(ring):
    """The subterminal space over (S(A), C): points are the C-prime
    filters on S(A), opens are the F_I over C-ideals I in the frame
    Id_C(S(A))."""
    s = ring.site.s
    po = s.poset
    ring_filters = prime_filters_ring(ring)
    filters = []
    for S in ring_filters:
        F = mask_of(s.pi[a] for a in bits(S))
        if mask_of(a for a in range(ring.n) if (F >> s.pi[a]) & 1) != S:
            raise CheckFailed("a ring prime filter is not a union of classes")
        filters.append(F)
    _check_c_prime(ring, s, filters)
    filters = sorted(set(filters))
    if len(filters) != len(ring_filters):
        raise CheckFailed("class map identified two distinct prime filters")
    opens = {mask_of(i for i, F in enumerate(filters) if F & m)
             for m in ring.site.frame().element_masks}
    labels = [set_label(po.label, F) for F in filters]
    return TopSpace(len(filters), opens, labels=labels), filters


def _check_c_prime(ring, s, filters):
    """Filter axioms plus the binary sum clause on the underlying ring
    subset, which by induction gives the full covering clause; checked
    for all `filters` at once, each class of S(A) holding the mask of the
    filters that contain it."""
    po = s.poset
    if 0 in filters:
        raise CheckFailed("empty filter")
    mem = transpose(filters, s.n)
    for x in range(s.n):
        if any(mem[x] & ~mem[y] for y in bits(po.up[x])):
            raise CheckFailed("filter is not up-closed")
        if any(mem[x] & mem[y] & ~mem[s.mul[x][y]] for y in range(s.n)):
            raise CheckFailed("filter is not meet-closed")
    if mem[s.pi[ring.zero]]:
        raise CheckFailed("filter contains the class of 0")
    if not _sum_clause_holds(ring, [mem[x] for x in s.pi]):
        raise CheckFailed("filter misses a sum decomposition")


def spectra_homeomorphism(ring):
    """The explicit homeomorphism between the point space of (S(A), C)
    and Spec(A) with the Zariski topology, verified open-for-open."""
    pi = ring.site.s.pi
    space1, filters = zariski_point_space(ring)
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
    """What the Zariski constructions derive from a ring, found on first
    use and kept (a ring holds its own as `ring.site`): S(A), the
    topology on it, the frame Id_C(S(A)), the prime ideals, the powers
    of each element as a mask and generated ideals.  Read under a bound
    below its size, the frame is listed again, and the listing refuses.
    """

    _frame = None

    def __init__(self, ring):
        self.ring = ring
        self._ideals = {}

    @cached_property
    def s(self):
        return s_monoid(self.ring)[2]

    @cached_property
    def topology(self):
        """The Zariski topology on S(A) as the Site J_D, D the classes x
        that the classes strictly below x do not cover.

        Every topology on a finite poset is J_D for one D (j_d_sieves),
        and the sieve dn[x] - {x} covers x in J_D iff x is not in D: one
        covering test per class finds D.  The points of J_D, the up[d]
        for d in D, are the prime ideals (spectra_homeomorphism), so a
        missed prime shows as |D| differing from their number.
        """
        s = self.s
        dmask = mask_of(x for x, d in enumerate(s.poset.dn)
                        if not power_combination_covers(self.ring, s, x, d & ~(1 << x)))
        if popcount(dmask) != len(self.primes):
            raise CheckFailed("the points of the Zariski site are not the prime ideals")
        return Site(s.poset, dmask, "zariski ideal frame")

    def frame(self, guard=None):
        if self._frame is None or self._frame.n > config.frame_guard(guard):
            self._frame = zariski_ideal_frame(self.ring, guard=guard)
        return self._frame

    @cached_property
    def primes(self):
        return prime_ideals(self.ring)

    @cached_property
    def powers(self):
        return [mask_of(_powers_till_cycle(self.ring, a)) for a in range(self.ring.n)]

    def ideal(self, bs):
        key = frozenset(bs)
        if key not in self._ideals:
            self._ideals[key] = ideal_generated(self.ring, sorted(key))
        return self._ideals[key]


def radical_membership(ring, a, bs):
    """Whether some power of a lies in the ideal generated by bs.

    Decided on the ring side by power iteration, and on the lattice side
    by D(a) <= D(b_1) v ... v D(b_r) in Id_C(S(A)); the two must agree.
    A J_D-ideal is the closure of its D-part, so one lies in another iff
    its D-part does: the lattice side compares the D-parts.
    """
    site = ring.site
    s, dmask = site.s, site.topology.dmask
    ring_side = site.ideal(bs) & site.powers[a] != 0
    rhs = s.poset.down_closure(mask_of(s.pi[b] for b in bs))
    lattice_side = s.poset.dn[s.pi[a]] & dmask & ~rhs == 0
    if ring_side != lattice_side:
        raise CheckFailed(f"radical membership disagreement at a={a}, bs={bs}")
    return ring_side


# ---------------------------------------------------------------------------
# op-ideals


def op_ideal_presentation(ring):
    """The coherent theory of op-ideals: D(ab) <= D(a) & D(b) etc."""
    return _DPresentation(ring)


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
