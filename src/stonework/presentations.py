"""Free and presented ordered structures.

Filtering maps and the universal property of Id_J(C); free
meet-semilattices and frames on sets; the free frame on a (complete)
join-semilattice; a small text DSL for lattice presentations in the
horn / coherent / geometric fragments; reflection units.
"""

from itertools import product
from operator import and_, or_

from .bits import bits, mask_of, transpose
from .errors import CheckFailed, GuardExceeded, InvalidStructure, ParseError
from . import config
from .coverage import ideal_frame, named_coverage, principal_j_ideal
from .duality import FrameHom, atom_map, dis_map, irreducible_elements, is_atomic
from .order import (
    FiniteFrame,
    Poset,
    as_poset,
    closed_family,
    frame_hom_failure,
    frame_of_down_sets,
    inclusion_order,
    iso_search,
    lower_sets,
    preorder_from_pairs,
    set_label,
)
from .spectra import space_from_subbasis


# ---------------------------------------------------------------------------
# filtering maps and the universal property of Id_J(C)


def is_filtering(base, frame, f):
    """Conditions (i) and (ii): the images join to the top, and binary
    meets of images are the joins of images of common lower bounds."""
    top_join = frame.join_set(mask_of(set(f)))
    if top_join != frame.top:
        return False
    for c in range(base.n):
        for c2 in range(base.n):
            lower = base.dn[c] & base.dn[c2]
            rhs = frame.join_set(mask_of(f[b] for b in bits(lower)))
            if frame.meet[f[c]][f[c2]] != rhs:
                return False
    return True


def is_j_filtering(J, frame, f):
    """Filtering, and every cover's images join to the member's image:
    for each c, the join of f over dn[c] & D is f[c].

    (ii) with c2 = c makes a filtering f monotone.  The sieves S on c
    whose images join to f[c] then form a topology (stability by meeting
    with f[b] and (ii), transitivity by joins), which holds J's
    generators iff it holds J_D, iff it holds each least covering sieve
    down(dn[c] & D), whose images join as those of dn[c] & D.
    """
    base, dmask = J.base, J.dmask
    if not is_filtering(base, frame, f):
        return False
    return all(frame.join_set(mask_of(f[d] for d in bits(base.dn[c] & dmask))) == f[c]
               for c in range(base.n))


class FilteringMap:
    """A J-filtering assignment from a site into a frame."""

    def __init__(self, J, frame, f):
        self.site = J
        self.frame = frame
        self.f = tuple(f)
        if not is_j_filtering(J, frame, self.f):
            raise InvalidStructure("assignment is not J-filtering")

    def extend(self, guard=None):
        return extend_filtering(self.site, self.frame, self.f, guard=guard)

    def __repr__(self):
        return f"FilteringMap({list(self.f)})"


def extend_filtering(J, frame, f, guard=None):
    """The unique frame hom out of Id_J(C) with f as its restriction along
    the principal-ideal embedding; raises if f is not J-filtering."""
    if not is_j_filtering(J, frame, f):
        raise InvalidStructure("map is not J-filtering")
    src = ideal_frame(J, guard=guard)
    assign = [frame.join_set(mask_of(f[c] for c in bits(m))) for m in src.element_masks]
    h = FrameHom(src, frame, assign)
    for c in range(J.base.n):
        if h.f[src.index[principal_j_ideal(J, c)]] != f[c]:
            raise CheckFailed("extension does not restrict to f on principal ideals")
    return h


def enumerate_frame_homs(dom, cod):
    """All frame homs dom -> cod, exhaustively.

    A frame hom is determined by its values on the join-irreducibles
    (everything else is a join of those), so the search assigns those,
    pruned by monotonicity, and filters the induced total maps.
    """
    irr = dom.join_irreducibles()
    homs = []

    def rec(i, values):
        if i == len(irr):
            assign = []
            for x in range(dom.n):
                below = mask_of(values[j] for j, e in enumerate(irr) if dom.leq(e, x))
                assign.append(cod.join_set(below))
            if frame_hom_failure(dom, cod, assign) is None:
                homs.append(tuple(assign))
            return
        for v in range(cod.n):
            ok = True
            for j in range(i):
                if dom.leq(irr[j], irr[i]) and not cod.leq(values[j], v):
                    ok = False
                    break
                if dom.leq(irr[i], irr[j]) and not cod.leq(v, values[j]):
                    ok = False
                    break
            if ok:
                rec(i + 1, values + [v])

    rec(0, [])
    return sorted(set(homs))


def extension_is_unique(J, frame, f, guard=None):
    """Brute-force check that exactly one frame hom restricts to f."""
    h = extend_filtering(J, frame, f, guard=guard)
    princ = [h.dom.index[principal_j_ideal(J, c)] for c in range(J.base.n)]
    matching = [
        g for g in enumerate_frame_homs(h.dom, frame) if all(g[princ[c]] == f[c] for c in range(J.base.n))
    ]
    return matching == [h.f]


# ---------------------------------------------------------------------------
# free structures


def _nonnegative(k, what):
    if k < 0:
        raise InvalidStructure(f"{what} needs a generator count of at least 0, not {k}")


def _guard_subsets(k, what, guard=None):
    """Refuse, before listing them, the 2^k subsets of k generators when
    they are more than the frame guard allows."""
    _nonnegative(k, what)
    bound = config.frame_guard(guard)
    if k >= max(bound, 0).bit_length():
        raise GuardExceeded(what, 2 ** k if k < 64 else f"2^{k}", bound)


def free_meet_semilattice(k, guard=None):
    """P_fin(A)^op for |A| = k: subsets under reverse inclusion."""
    _guard_subsets(k, "free meet-semilattice", guard)
    masks = range(1 << k)
    return inclusion_order(masks, [set_label(lambda a: f"g{a}", u) for u in masks]).op()


def free_frame_on_set(k, guard=None):
    """Upper sets of P_fin(A), |A| = k: the frame of opens of the
    elemental space.  Returns (frame, generator element indices).

    Every upper set is a union of principal ones, so the carrier is the
    union closure of the 2^k principal upper sets; an intersection of
    upper sets is one too, so the family is closed under both.
    """
    _nonnegative(k, "free frame on a set")
    if k > config.ELEMENTAL_GUARD:
        raise GuardExceeded("free frame on a set", k, config.ELEMENTAL_GUARD)
    n = 1 << k
    principals = [mask_of(v for v in range(n) if u & ~v == 0) for u in range(n)]
    fams = sorted(closed_family([0], principals, or_, bound=config.frame_guard(guard),
                                what="free frame on a set"))
    fr = frame_of_down_sets(fams, None, labels=[f"<{bin(m)}>" for m in fams], guard=guard)
    gens = [fr.index[mask_of(u for u in range(n) if (u >> a) & 1)] for a in range(k)]
    return fr, gens


def _check_all_joins(p):
    for m in range(1 << p.n):
        if p.lub(m) is None:
            raise InvalidStructure("carrier lacks some join; not a complete join-semilattice")


def _cjsl_closure(p, fam):
    """Closure for the free-frame construction on a join-semilattice.

    Least family of finite subsets of the carrier that is up-closed under
    inclusion and closed under the two covering rules coming from the
    defining biimplications "join of the F_{a_i} iff F_{join}":

      * join rule: if some family's join lies in U and U+{a_i} is in for
        every member, then U is in;
      * subsumption rule: if U+{c} is in and c dominates some member of
        U, then U is in (the reverse direction of the biimplication,
        instantiated at two-element families).

    The subsumption rule is forced by the universal property: without it
    the unit fails to be monotone (checked in the tests).
    """
    n = 1 << p.n
    out = fam
    changed = True
    while changed:
        changed = False
        for u in bits(out):
            for v in range(n):
                if u & ~v == 0 and not (out >> v) & 1:
                    out |= 1 << v
                    changed = True
        for u in range(n):
            if (out >> u) & 1:
                continue
            for s in range(1 << p.n):
                if not (u >> p.lub(s)) & 1:
                    continue
                if all((out >> (u | (1 << a))) & 1 for a in bits(s)):
                    out |= 1 << u
                    changed = True
                    break
            if (out >> u) & 1:
                continue
            for c in range(p.n):
                if not (out >> (u | (1 << c))) & 1:
                    continue
                if any(p.leq(a, c) for a in bits(u)):
                    out |= 1 << u
                    changed = True
                    break
    return out


def free_frame_on_cjsl(p, guard=None):
    """The free frame on a complete join-semilattice.

    Elements are up-closed collections of finite subsets of the carrier,
    closed under the covering rule; the unit sends a to the collection of
    subsets containing a.  Returns (frame, eta) with eta injective and
    join-preserving, which is verified.

    The carrier is closed under the closed union by construction
    (`closed_family`), and under intersection because the rules define
    a closure whose fixed sets meet in fixed sets.
    """
    p = as_poset(p)
    if p.n > 4:
        raise GuardExceeded("free frame on a join-semilattice", p.n, 4)
    _check_all_joins(p)
    n = 1 << p.n
    cl = lambda fam: _cjsl_closure(p, fam)
    principals = [cl(mask_of(v for v in range(n) if u & ~v == 0)) for u in range(n)]
    elems = closed_family([cl(0)] + principals, principals, or_, close=cl,
                          bound=config.frame_guard(guard),
                          what="free frame on a join-semilattice")
    fr = frame_of_down_sets(sorted(elems), None, labels=None, join_closure=cl, guard=guard)
    eta = []
    for a in range(p.n):
        # the unit sends a to the closure of I_a = {U : a in U}; the raw
        # I_a need not be closed because the empty family covers every U
        # containing the bottom
        eta.append(fr.index[cl(mask_of(u for u in range(n) if (u >> a) & 1))])
    if len(set(eta)) != p.n:
        raise CheckFailed("unit of the free frame is not injective")
    for s in range(1 << p.n):
        j = p.lub(s)
        joined = fr.join_set(mask_of(eta[a] for a in bits(s)))
        if joined != eta[j]:
            raise CheckFailed("unit does not preserve joins")
    return fr, eta


def free_frame_on_jsl(p, guard=None):
    """Finitary variant: on a finite carrier every family is finite, so
    the construction coincides with the complete one; cross-checked
    against the topological description via prime-style subsets."""
    fr, eta = free_frame_on_cjsl(p, guard=guard)
    space = jsl_space(p)
    opens = space.opens_frame()
    if iso_search(fr, opens) is None:
        raise CheckFailed("ideal-style and topological free frames disagree")
    return fr, eta


def jsl_space(p):
    """Prime-style subsets of a join-semilattice with the elemental
    topology: U with bottom outside and a v b in U iff a or b is."""
    p = as_poset(p)
    _check_all_joins(p)
    bot = p.lub(0)
    pts = []
    for u in range(1 << p.n):
        if (u >> bot) & 1:
            continue
        ok = True
        for a in range(p.n):
            for b in range(p.n):
                j = p.lub((1 << a) | (1 << b))
                inu = (u >> j) & 1
                if inu != ((u >> a) & 1 or (u >> b) & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            pts.append(u)
    subbasis = [mask_of(i for i, u in enumerate(pts) if (u >> a) & 1) for a in range(p.n)]
    return space_from_subbasis(len(pts), subbasis)


# ---------------------------------------------------------------------------
# the presentation DSL


# A term is a tuple of ints in postfix order: a generator is its index and
# these negative codes are the constants and the binary operations.
# join(t1, ..., tn) is t1 ... tn followed by n-1 JOINs; join() is ZERO.
ONE, ZERO, MEET, JOIN = -1, -2, -3, -4

_TOKEN_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'")
_HORN_TERMS = "horn terms admit only generators, 1 and meets"


class Presentation:
    """Generators plus relations between closed terms over 0,1,&,| .

    logic: horn (no joins, no 0), coherent, or geometric (coherent with
    explicit finite join lists spelled join(...)).  A relation is
    (op, t1, t2), op "<=" or "=", with each term a postfix code (see
    ONE, ZERO, MEET, JOIN): over generators x, y the term x & (y | 1) is
    (0, 1, ONE, JOIN, MEET).
    """

    def __init__(self, generators, relations, logic):
        if logic not in ("horn", "coherent", "geometric"):
            raise InvalidStructure(f"unknown logic {logic!r}")
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise InvalidStructure("duplicate generator names")
        self.relations = tuple(relations)
        self.logic = logic
        k = len(self.generators)
        horn = "horn relations admit no joins and no 0" if logic == "horn" else None
        # relations by highest generator + 1 (0: none), for relation_models
        self._by_top = [[] for _ in range(k + 1)]
        for rel in self.relations:
            self._by_top[(_support(rel[1], k, horn) | _support(rel[2], k, horn)).bit_length()].append(rel)

    def buckets(self):
        """The relations by highest generator + 1 (0: none), one list per
        bucket in that order: what relation_models reads."""
        return iter(self._by_top)


def _support(code, ngens, horn=None):
    """The mask of the generators a term code mentions, once the code is
    checked: generators below `ngens`, two terms under each operation, one
    term in all.  Given a message, `horn` refuses 0 and joins."""
    mask = height = 0
    for c in code:
        if type(c) is int and 0 <= c < ngens:
            mask |= 1 << c
        elif c not in (ONE, ZERO, MEET, JOIN):
            raise InvalidStructure(f"term code {c!r} is neither an operation nor a declared generator")
        elif horn and (c == ZERO or c == JOIN):
            raise InvalidStructure(horn)
        height += 1 if c >= ZERO else -1
        if height < 1:
            break
    if height != 1:
        raise InvalidStructure("term code is not one term")
    return mask


def _value(code, gens, top):
    """A term code evaluated in the lattice of ints below `top` under & and
    |, generator i valued gens[i].  With truth tables, extents or columns
    of assignments as values, one call evaluates the term at every point."""
    stack = []
    push = stack.append
    for c in code:
        if c >= 0:
            push(gens[c])
        elif c == MEET:
            b = stack.pop()
            stack[-1] &= b
        elif c == JOIN:
            b = stack.pop()
            stack[-1] |= b
        else:
            push(top if c == ONE else 0)
    return stack[-1]


class _Parser:
    def __init__(self, text, line, gen_index):
        self.text = text
        self.line = line
        self.i = 0
        self.gens = gen_index

    def error(self, msg):
        raise ParseError(msg, line=self.line, column=self.i + 1)

    def skip(self):
        while self.i < len(self.text) and self.text[self.i] in " \t":
            self.i += 1

    def peek(self):
        self.skip()
        return self.text[self.i] if self.i < len(self.text) else ""

    def term(self):
        """One term as postfix code, by shunting-yard: '&' binds tighter
        than '|' and both group to the left.  `groups` holds, for the whole
        term and each open '(' or join( argument, its kind, its operators
        still waiting for a right operand, and its argument number."""
        out = []
        groups = [(None, [], 0)]
        while True:
            # an operand, or the opening of a group
            c = self.peek()
            if c == "(":
                self.i += 1
                groups.append(("(", [], 0))
                continue
            if c == "0" or c == "1":
                self.i += 1
                out.append(ZERO if c == "0" else ONE)
            elif c in _TOKEN_CHARS:
                start = self.i
                while self.i < len(self.text) and self.text[self.i] in _TOKEN_CHARS:
                    self.i += 1
                name = self.text[start:self.i]
                if name == "join":
                    if self.peek() != "(":
                        self.error("join(...) needs parentheses")
                    self.i += 1
                    if self.peek() != ")":
                        groups.append(("join", [], 0))
                        continue
                    self.i += 1
                    out.append(ZERO)
                elif name not in self.gens:
                    self.error(f"unknown generator {name!r}")
                else:
                    out.append(self.gens[name])
            else:
                self.error("expected a term")
            # after an operand: an operator, or the end of groups
            while True:
                c = self.peek()
                kind, ops, arg = groups[-1]
                if c == "&" or c == "|":
                    self.i += 1
                    op = MEET if c == "&" else JOIN
                    while ops and (op == JOIN or ops[-1] == MEET):
                        out.append(ops.pop())
                    ops.append(op)
                    break
                groups.pop()
                out += reversed(ops)
                if kind is None:
                    return tuple(out)
                if kind == "join":
                    if arg:
                        out.append(JOIN)
                    if c == ",":
                        self.i += 1
                        groups.append(("join", [], arg + 1))
                        break
                if c != ")":
                    self.error("expected ')'")
                self.i += 1

    def relation(self):
        t1 = self.term()
        self.skip()
        if self.text[self.i:self.i + 2] == "<=":
            self.i += 2
            op = "<="
        elif self.i < len(self.text) and self.text[self.i] == "=":
            self.i += 1
            op = "="
        else:
            self.error("expected '<=' or '='")
        t2 = self.term()
        self.skip()
        if self.i != len(self.text):
            self.error("trailing input after relation")
        return (op, t1, t2)


def parse_presentation(text, logic):
    """Parse the text DSL: a 'generators:' line then one relation per line."""
    gens = None
    relations = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("generators:"):
            if gens is not None:
                raise ParseError("duplicate generators line", line=ln)
            gens = line[len("generators:"):].split()
            continue
        if gens is None:
            raise ParseError("relations before the generators line", line=ln)
        gi = {g: i for i, g in enumerate(gens)}
        relations.append(_Parser(line, ln, gi).relation())
    if gens is None:
        raise ParseError("missing generators line")
    return Presentation(gens, relations, logic)


def parse_query(text, presentation):
    gi = {g: i for i, g in enumerate(presentation.generators)}
    return _Parser(text.strip(), 1, gi).relation()


# ---------------------------------------------------------------------------
# presented structures


class PresentedLattice:
    """A presented structure: carrier, generator images, entailment."""

    def __init__(self, logic, poset, frame, gen_elements, entails):
        self.logic = logic
        self.poset = poset
        self.frame = frame
        self.gen_elements = tuple(gen_elements)
        self._entails = entails

    def entails(self, rel):
        op, t1, t2 = rel
        if op == "<=":
            return self._entails(t1, t2)
        return self._entails(t1, t2) and self._entails(t2, t1)


def present_horn(pres, guard=None):
    """Meet-semilattice presented by implications: the closure system of
    the relation-driven attribute closure, ordered by reverse inclusion.
    A horn term is the set of generators it meets, its support mask.
    The closure system is found by listing and closing all 2^k subsets of
    the generators, so the frame guard bounds 2^k."""
    k = len(pres.generators)
    _guard_subsets(k, "horn presentation", guard)
    rules = []
    for op, t1, t2 in pres.relations:
        a, b = _support(t1, k, _HORN_TERMS), _support(t2, k, _HORN_TERMS)
        rules.append((a, b))
        if op == "=":
            rules.append((b, a))

    def close(u):
        out = u
        changed = True
        while changed:
            changed = False
            for a, b in rules:
                if a & ~out == 0 and b & ~out:
                    out |= b
                    changed = True
        return out

    closed = sorted({close(u) for u in range(1 << k)})
    labels = [set_label(lambda g: pres.generators[g], u) for u in closed]
    poset = inclusion_order(closed, labels).op()
    gen_elements = [closed.index(close(1 << g)) for g in range(k)]

    def entails(t1, t2):
        return _support(t2, k, _HORN_TERMS) & ~close(_support(t1, k, _HORN_TERMS)) == 0

    return PresentedLattice("horn", poset, None, gen_elements, entails)


def free_bounded_dlat(k):
    """Monotone boolean functions on k inputs as truth-table masks, ascending.

    Built one variable at a time: a table on x_0..x_j is its half at
    x_j = 0 below its half at x_j = 1, and it is monotone iff both halves
    are and the lower half lies below the upper one.
    """
    tables = [0, 1]
    for j in range(k):
        half = 1 << j
        tables = [f0 | (f1 << half) for f1 in tables for f0 in tables if f0 & ~f1 == 0]
    nvals = 1 << k
    gens = [mask_of(v for v in range(nvals) if (v >> i) & 1) for i in range(k)]
    return tables, gens, nvals


def _congruence_roots(tables, bounds):
    """The congruence of the lattice `tables` (ints under & and |, closed
    under both) generated by the pairs (lo, hi) of `bounds`, lo <= hi: the
    least index of each table's class.

    It is the join of the principal congruences θ(lo, hi), and θ(s, t) =
    θ(s ∧ t, s ∨ t) serves any pair.  In a distributive lattice x ≡ y
    (mod θ(lo, hi)) iff x ∧ lo = y ∧ lo and x ∨ hi = y ∨ hi (Grätzer,
    *General Lattice Theory*), so each pair is one union-find pass keyed
    by (t & lo, t | hi), and no pass need be repeated: the transitive
    closure of a union of congruences is their join.
    """
    parent = list(range(len(tables)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lo, hi in bounds:
        first = {}
        for i, t in enumerate(tables):
            j = first.setdefault((t & lo, t | hi), i)
            if j != i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(len(tables))]


def present_coherent(pres, guard=None):
    """Distributive lattice presented by congruence closure on the
    materialised free bounded distributive lattice."""
    k = len(pres.generators)
    bound = guard if guard is not None else config.FREE_DLAT_GUARD
    if k > bound:
        raise GuardExceeded("free distributive lattice generators", k, bound)
    tables, gen_tables, nvals = free_bounded_dlat(k)
    full = (1 << nvals) - 1
    tidx = {t: i for i, t in enumerate(tables)}
    bounds = []
    for op, t1, t2 in pres.relations:
        a = _value(t1, gen_tables, full)
        b = _value(t2, gen_tables, full)
        bounds.append((a & b, a if op == "<=" else a | b))
    root = _congruence_roots(tables, bounds)
    roots = sorted(set(root))
    ridx = {r: i for i, r in enumerate(roots)}
    m = len(roots)

    def q(i):
        return ridx[root[i]]

    # order on the quotient: [x] <= [y]  iff  [x & y] == [x]
    up = [mask_of(ridx[s] for s in roots if q(tidx[tables[r] & tables[s]]) == ridx[r]) for r in roots]
    labels = [f"[{bin(tables[r])}]" for r in roots]
    poset = Poset(m, up, labels=labels)
    meet = [[q(tidx[tables[r] & tables[s]]) for s in roots] for r in roots]
    join = [[q(tidx[tables[r] | tables[s]]) for s in roots] for r in roots]
    frame = FiniteFrame(poset, meet, join)
    gen_elements = [q(tidx[g]) for g in gen_tables]

    def entails(t1, t2):
        a = q(tidx[_value(t1, gen_tables, full)])
        b = q(tidx[_value(t2, gen_tables, full)])
        return frame.meet[a][b] == a

    return PresentedLattice(pres.logic, poset, frame, gen_elements, entails)


def relation_models(pres):
    """All {0,1} assignments of the generators satisfying the relations, as
    generator bitmasks, ascending.

    Breadth first, without recursion: the relations without generators
    are checked on the empty assignment, then step g extends each
    surviving assignment of the generators below g by both values of g
    and keeps the extensions that pass the relations whose highest
    generator is g.  Each such relation is evaluated once over all the
    extensions, with generator columns as values, one bit per extension.
    The relations are read from `pres.buckets()` one bucket per step, so
    a presentation that makes its buckets as they are read is never held.
    """
    buckets = pres.buckets()
    models = [0] if _passing(next(buckets), {ONE: 1, ZERO: 0}, 1) else []
    cols, ok = {}, 0
    for g, rels in enumerate(buckets):
        if not models:
            break
        n = len(models)
        cols = _Columns(models, g, cols, ok)
        ok = _passing(rels, cols, (1 << 2 * n) - 1)
        bit = 1 << g
        models = [models[j] for j in bits(ok & ((1 << n) - 1))] + [models[j] | bit for j in bits(ok >> n)]
    return models


def _passing(rels, gens, top):
    """The points below `top` where every relation holds, as a mask.

    `gens` values the constants too (ONE as `top`, ZERO as 0).  A
    relation of one code against three, one operation on two codes, the
    shape of every relation of a D(a) presentation, is read straight
    from the values; other terms go through the stack evaluator.
    """
    bad = 0
    for op, t1, t2 in rels:
        try:
            (c,) = t1
            x, y, o = t2
        except ValueError:
            v1 = gens[t1[0]] if len(t1) == 1 else _value(t1, gens, top)
            v2 = gens[t2[0]] if len(t2) == 1 else _value(t2, gens, top)
        else:
            v1 = gens[c]
            v2 = gens[x] & gens[y] if o == MEET else gens[x] | gens[y]
        bad |= v1 & ~v2 if op == "<=" else v1 ^ v2
    return top & ~bad


class _Columns(dict):
    """The generator columns over `rows` extended by generator g, first
    with g = 0 and then with g = 1: bits j and n + j of column h are bit h
    of rows[j]; ONE and ZERO are valued too.

    `rows` are the points `ok` of the step before, so each of its columns,
    `prev`, carries over as the bits that `ok` keeps, cut once per
    distinct value when first read: in ASCII digits ('0' is 0x30, '1' is
    0x31) the column masked by `ok` plus twice `ok` is 0x90 + 2 keep + bit
    in each byte, with no carry, so deleting 0x90 drops the points not
    kept.  A column the step before did not hold is read off the rows.
    """

    def __init__(self, rows, g, prev, ok):
        n = len(rows)
        self.rows, self.prev, self.ok, self.cuts = rows, prev, ok, {}
        if prev:
            # the older steps' columns and rows are not read again
            prev.prev = prev.rows = None
            self.keep = int.from_bytes(format(ok, "b").encode(), "big") << 1
            self.digits = bytes.maketrans(b"\x92\x93", b"01")
        self[ONE], self[ZERO], self[g] = (1 << 2 * n) - 1, 0, ((1 << n) - 1) << n

    def __missing__(self, h):
        old = self.prev.get(h)
        if old is None:
            col = int("".join(["1" if m >> h & 1 else "0" for m in reversed(self.rows)]), 2)
            col |= col << len(self.rows)
        elif old in self.cuts:
            col = self.cuts[old]
        else:
            width = self.ok.bit_length()
            digits = int.from_bytes(format(old & self.ok, f"0{width}b").encode(), "big") + self.keep
            col = int(digits.to_bytes(width, "big").translate(self.digits, b"\x90"), 2)
            col = self.cuts[old] = col | col << len(self.rows)
        self[h] = col
        return col


def present_semantic(pres, guard=None):
    """Model-based construction: the sublattice of the powerset of the
    {0,1}-models generated by the generator extents.

    Complete for the coherent fragment: prime filters of the (finite)
    presented lattice separate elements, and they are exactly the
    models.  Used as the oracle against the congruence route and as the
    engine for large generator sets.  A term's extent is its value with
    the generator extents as values.  The family, the unions of meets of
    extents, is closed under union by construction and under
    intersection by distributivity.
    """
    models = relation_models(pres)
    full = (1 << len(models)) - 1
    gen_ext = transpose(models, len(pres.generators))
    # in a powerset the generated sublattice is the joins of meets
    bound = config.frame_guard(guard)
    meets = closed_family([full], gen_ext, and_, bound=bound, what="presented lattice")
    family = sorted(closed_family([0], meets, or_, bound=bound, what="presented lattice"))
    fr = frame_of_down_sets(family, None, labels=[f"<{bin(m)}>" for m in family], guard=guard)
    gen_elements = [fr.index[g] for g in gen_ext]

    def entails(t1, t2):
        return _value(t1, gen_ext, full) & ~_value(t2, gen_ext, full) == 0

    return PresentedLattice(pres.logic, fr.poset, fr, gen_elements, entails)


def present_lattice(pres, guard=None):
    """Free structure on the generators quotiented by the relations.

    horn: attribute-closure meet-semilattice.  coherent / geometric:
    congruence closure on the materialised free distributive lattice
    (generator count guarded); large presentations go through the
    semantic engine explicitly.
    """
    if pres.logic == "horn":
        return present_horn(pres, guard=guard)
    return present_coherent(pres, guard=guard)


# ---------------------------------------------------------------------------
# reflection units


def complemented_elements(fr):
    out = []
    for a in range(fr.n):
        if fr.complement_of(a) is not None:
            out.append(a)
    return out


def reflection_unit(kind, x, targets=None, guard=None):
    """Unit maps of the reflections, with their universal property checked
    by exhaustive hom enumeration against small targets."""
    if kind == "mslat":
        return _reflect_site(as_poset(x), "trivial", targets, guard)
    if kind == "dlat":
        return _reflect_site(as_poset(x), "coherent", targets, guard)
    if kind == "bool":
        return _reflect_bool(x, targets, guard)
    if kind == "atomic":
        return _reflect_atomic(x)
    if kind == "disjunctive":
        return _reflect_disjunctive(x)
    raise InvalidStructure(f"unknown reflection kind {kind!r}")


def _default_targets():
    from .corpus import all_posets

    return [lower_sets(p) for k in range(4) for p in all_posets(k)]


def _reflect_site(p, kind, targets, guard):
    J = named_coverage(p, kind)
    fr = ideal_frame(J, guard=guard)
    eta = [fr.index[principal_j_ideal(J, c)] for c in range(p.n)]
    targets = targets if targets is not None else _default_targets()
    checked = 0
    for L in targets:
        for f in product(range(L.n), repeat=p.n):
            if not is_j_filtering(J, L, f):
                continue
            if not extension_is_unique(J, L, f, guard=guard):
                raise CheckFailed("universal property failed for a filtering map")
            checked += 1
    return eta, {"kind": kind, "filtering_maps_checked": checked, "frame_size": fr.n}


def _reflect_bool(L, targets, guard):
    comp = complemented_elements(L)
    sub = _sub_boolean(L, comp)
    boolean_targets = targets if targets is not None else _small_booleans()
    report = {"kind": "bool", "complemented": len(comp), "bijections": []}
    for B in boolean_targets:
        J = named_coverage(B.poset, "coherent")
        idB = ideal_frame(J, guard=guard)
        frame_homs = enumerate_frame_homs(idB, L)
        bool_homs = _boolean_homs(B, L, comp)
        if len(frame_homs) != len(bool_homs):
            raise CheckFailed("Boolean adjunction bijection failed")
        princ = [idB.index[principal_j_ideal(J, c)] for c in range(B.n)]
        restricted = sorted(tuple(h[princ[c]] for c in range(B.n)) for h in frame_homs)
        if restricted != sorted(bool_homs):
            raise CheckFailed("restriction to principals does not match Boolean homs")
        report["bijections"].append((B.n, len(frame_homs)))
    return sub, report


def _sub_boolean(L, comp):
    # complemented elements are closed under meet and join in a
    # distributive lattice; check and package as a poset
    cset = set(comp)
    for a in comp:
        for b in comp:
            if L.meet[a][b] not in cset or L.join[a][b] not in cset:
                raise CheckFailed("complemented elements not closed under the operations")
    return L.poset.restrict(comp)


def _small_booleans():
    out = []
    for k in range(3):
        out.append(lower_sets(preorder_from_pairs(k, [])))
    return out


def _boolean_homs(B, L, comp):
    """Lattice homs B -> L; they land in the complemented elements."""
    homs = []
    cset = set(comp)
    for f in product(range(L.n), repeat=B.n):
        if frame_hom_failure(B, L, f) is None:
            if not all(v in cset for v in f):
                raise CheckFailed("a lattice hom from a Boolean algebra left the complemented part")
            homs.append(tuple(f))
    return homs


def _reflect_atomic(F):
    _, power, psi = atom_map(F)
    hom = FrameHom(F, power, psi)
    atomic = is_atomic(F)
    is_iso = len(set(psi)) == F.n == power.n
    if atomic != is_iso:
        raise CheckFailed("psi is an isomorphism exactly for atomic frames")
    return hom, {"kind": "atomic", "atomic": atomic, "iso": is_iso}


def _reflect_disjunctive(F):
    ind, _, dis, phi = dis_map(F)
    disjunctive = _is_disjunctive_frame(F, ind)
    is_iso = None not in phi and len(set(phi)) == F.n == dis.n
    if disjunctive != is_iso:
        raise CheckFailed("phi is an isomorphism exactly for disjunctive frames")
    return phi, {"kind": "disjunctive", "disjunctive": disjunctive, "iso": is_iso}


def _is_disjunctive_frame(F, ind=None):
    """Every element is a pairwise-disjoint join of indecomposables."""
    if ind is None:
        ind = irreducible_elements(F, "indecomposable")
    for a in range(F.n):
        below = [e for e in ind if F.leq(e, a)]

        def rec(k, chosen, joined):
            if joined == a:
                return True
            for i in range(k, len(below)):
                e = below[i]
                if any(F.meet[e][c] != F.bot for c in chosen):
                    continue
                if rec(i + 1, chosen + [e], F.join[joined][e]):
                    return True
            return False

        if not rec(0, [], F.bot):
            return False
    return True
