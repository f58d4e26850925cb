"""Free and presented ordered structures.

Filtering maps and the universal property of Id_J(C); free
meet-semilattices and frames on sets; the free frame on a (complete)
join-semilattice; a small text DSL for lattice presentations in the
horn / coherent / geometric fragments; reflection units.
"""

from itertools import product
from operator import and_, or_

from .bits import bits, mask_of
from .errors import CheckFailed, GuardExceeded, InvalidStructure, ParseError
from . import config
from .coverage import (
    GrothendieckTopology,
    ideal_frame,
    named_coverage,
    principal_j_ideal,
    saturate,
)
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
    Jt = saturate(J)
    src = ideal_frame(Jt, guard=guard)
    assign = [frame.join_set(mask_of(f[c] for c in bits(m))) for m in src.element_masks]
    h = FrameHom(src, frame, assign)
    for c in range(Jt.base.n):
        if h.f[src.index[principal_j_ideal(Jt, c)]] != f[c]:
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
    Jt = saturate(J)
    princ = [h.dom.index[principal_j_ideal(Jt, c)] for c in range(Jt.base.n)]
    matching = [
        g for g in enumerate_frame_homs(h.dom, frame) if all(g[princ[c]] == f[c] for c in range(Jt.base.n))
    ]
    return matching == [h.f]


# ---------------------------------------------------------------------------
# free structures


def free_meet_semilattice(k):
    """P_fin(A)^op for |A| = k: subsets under reverse inclusion."""
    masks = range(1 << k)
    return inclusion_order(masks, [set_label(lambda a: f"g{a}", u) for u in masks]).op()


def free_frame_on_set(k, guard=None):
    """Upper sets of P_fin(A), |A| = k: the frame of opens of the
    elemental space.  Returns (frame, generator element indices).

    Every upper set is a union of principal ones, so the carrier is the
    union closure of the 2^k principal upper sets.
    """
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


_TOKEN_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'")


class Presentation:
    """Generators plus relations between closed terms over 0,1,&,| .

    logic: horn (no joins, no 0), coherent, or geometric (coherent with
    explicit finite join lists spelled join(...)).
    """

    def __init__(self, generators, relations, logic):
        if logic not in ("horn", "coherent", "geometric"):
            raise InvalidStructure(f"unknown logic {logic!r}")
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise InvalidStructure("duplicate generator names")
        self.relations = tuple(relations)
        self.logic = logic
        for op, t1, t2 in relations:
            for t in (t1, t2):
                _check_term(t, len(self.generators), logic)


def _check_term(t, ngens, logic):
    tag = t[0]
    if tag == "gen":
        if not 0 <= t[1] < ngens:
            raise InvalidStructure("term mentions an undeclared generator")
    elif tag in ("zero", "join", "Join"):
        if logic == "horn":
            raise InvalidStructure("horn relations admit no joins and no 0")
        if tag == "join":
            _check_term(t[1], ngens, logic)
            _check_term(t[2], ngens, logic)
        elif tag == "Join":
            for s in t[1]:
                _check_term(s, ngens, logic)
    elif tag == "one":
        pass
    elif tag == "meet":
        _check_term(t[1], ngens, logic)
        _check_term(t[2], ngens, logic)
    else:
        raise InvalidStructure(f"unknown term node {tag!r}")


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
        t = self.join_term()
        return t

    def join_term(self):
        t = self.meet_term()
        while self.peek() == "|":
            self.i += 1
            t = ("join", t, self.meet_term())
        return t

    def meet_term(self):
        t = self.atom()
        while self.peek() == "&":
            self.i += 1
            t = ("meet", t, self.atom())
        return t

    def atom(self):
        c = self.peek()
        if c == "(":
            self.i += 1
            t = self.join_term()
            if self.peek() != ")":
                self.error("expected ')'")
            self.i += 1
            return t
        if c == "0":
            self.i += 1
            return ("zero",)
        if c == "1":
            self.i += 1
            return ("one",)
        if c in _TOKEN_CHARS:
            start = self.i
            while self.i < len(self.text) and self.text[self.i] in _TOKEN_CHARS:
                self.i += 1
            name = self.text[start:self.i]
            if name == "join":
                if self.peek() != "(":
                    self.error("join(...) needs parentheses")
                self.i += 1
                args = []
                if self.peek() != ")":
                    args.append(self.join_term())
                    while self.peek() == ",":
                        self.i += 1
                        args.append(self.join_term())
                if self.peek() != ")":
                    self.error("expected ')'")
                self.i += 1
                return ("Join", tuple(args))
            if name not in self.gens:
                self.error(f"unknown generator {name!r}")
            return ("gen", self.gens[name])
        self.error("expected a term")

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


def _horn_norm(t):
    tag = t[0]
    if tag == "gen":
        return 1 << t[1]
    if tag == "one":
        return 0
    if tag == "meet":
        return _horn_norm(t[1]) | _horn_norm(t[2])
    raise InvalidStructure("horn terms admit only generators, 1 and meets")


def present_horn(pres):
    """Meet-semilattice presented by implications: the closure system of
    the relation-driven attribute closure, ordered by reverse inclusion."""
    k = len(pres.generators)
    rules = []
    for op, t1, t2 in pres.relations:
        a, b = _horn_norm(t1), _horn_norm(t2)
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
        return _horn_norm(t2) & ~close(_horn_norm(t1)) == 0

    return PresentedLattice("horn", poset, None, gen_elements, entails)


def _eval_term_tables(t, gen_tables, nvals):
    full = (1 << nvals) - 1
    tag = t[0]
    if tag == "gen":
        return gen_tables[t[1]]
    if tag == "one":
        return full
    if tag == "zero":
        return 0
    if tag == "meet":
        return _eval_term_tables(t[1], gen_tables, nvals) & _eval_term_tables(t[2], gen_tables, nvals)
    if tag == "join":
        return _eval_term_tables(t[1], gen_tables, nvals) | _eval_term_tables(t[2], gen_tables, nvals)
    if tag == "Join":
        out = 0
        for s in t[1]:
            out |= _eval_term_tables(s, gen_tables, nvals)
        return out
    raise InvalidStructure(f"unknown term node {tag!r}")


def free_bounded_dlat(k):
    """Monotone boolean functions on k inputs as truth-table masks."""
    nvals = 1 << k
    tables = []
    for f in range(1 << nvals):
        ok = True
        for a in range(nvals):
            for b in range(nvals):
                if a & ~b == 0 and (f >> a) & 1 and not (f >> b) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            tables.append(f)
    gens = [mask_of(v for v in range(nvals) if (v >> i) & 1) for i in range(k)]
    return tables, gens, nvals


def present_coherent(pres, guard=None):
    """Distributive lattice presented by congruence closure on the
    materialised free bounded distributive lattice."""
    k = len(pres.generators)
    bound = guard if guard is not None else config.FREE_DLAT_GUARD
    if k > bound:
        raise GuardExceeded("free distributive lattice generators", k, bound)
    tables, gen_tables, nvals = free_bounded_dlat(k)
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

    pending = []
    for op, t1, t2 in pres.relations:
        a = _eval_term_tables(t1, gen_tables, nvals)
        b = _eval_term_tables(t2, gen_tables, nvals)
        if op == "<=":
            pending.append((tidx[a & b], tidx[a]))
        else:
            pending.append((tidx[a], tidx[b]))
    changed = True
    while changed:
        changed = False
        for x, y in pending:
            if union(x, y):
                changed = True
        merged = {}
        for i in range(n):
            merged.setdefault(find(i), []).append(i)
        for root, block in merged.items():
            rep = tables[block[0]]
            for other in block[1:]:
                o = tables[other]
                for z in tables:
                    if union(tidx[rep & z], tidx[o & z]):
                        changed = True
                    if union(tidx[rep | z], tidx[o | z]):
                        changed = True
    roots = sorted({find(i) for i in range(n)})
    ridx = {r: i for i, r in enumerate(roots)}
    m = len(roots)

    def q(i):
        return ridx[find(i)]

    # order on the quotient: [x] <= [y]  iff  [x & y] == [x]
    up = [mask_of(ridx[s] for s in roots if q(tidx[tables[r] & tables[s]]) == ridx[r]) for r in roots]
    labels = [f"[{bin(tables[r])}]" for r in roots]
    poset = Poset(m, up, labels=labels)
    meet = [[q(tidx[tables[r] & tables[s]]) for s in roots] for r in roots]
    join = [[q(tidx[tables[r] | tables[s]]) for s in roots] for r in roots]
    frame = FiniteFrame(poset, meet, join)
    gen_elements = [q(tidx[g]) for g in gen_tables]

    def entails(t1, t2):
        a = q(tidx[_eval_term_tables(t1, gen_tables, nvals)])
        b = q(tidx[_eval_term_tables(t2, gen_tables, nvals)])
        return frame.meet[a][b] == a

    return PresentedLattice(pres.logic, poset, frame, gen_elements, entails)


def relation_models(pres):
    """All {0,1} assignments of the generators satisfying the relations,
    by backtracking; models are generator bitmasks, ascending."""
    k = len(pres.generators)
    rels = []
    for op, t1, t2 in pres.relations:
        rels.append((op, t1, t2, _term_support(t1) | _term_support(t2)))
    models = []

    def eval_t(t, m):
        tag = t[0]
        if tag == "gen":
            return (m >> t[1]) & 1
        if tag == "one":
            return 1
        if tag == "zero":
            return 0
        if tag == "meet":
            return eval_t(t[1], m) & eval_t(t[2], m)
        if tag == "join":
            return eval_t(t[1], m) | eval_t(t[2], m)
        if tag == "Join":
            return 1 if any(eval_t(s, m) for s in t[1]) else 0

    def rec(i, m):
        assigned = (1 << i) - 1
        for op, t1, t2, supp in rels:
            if supp & ~assigned:
                continue
            v1, v2 = eval_t(t1, m), eval_t(t2, m)
            if op == "<=" and v1 > v2:
                return
            if op == "=" and v1 != v2:
                return
        if i == k:
            models.append(m)
            return
        rec(i + 1, m)
        rec(i + 1, m | (1 << i))

    rec(0, 0)
    return sorted(models)


def _term_support(t):
    tag = t[0]
    if tag == "gen":
        return 1 << t[1]
    if tag in ("one", "zero"):
        return 0
    if tag == "meet" or tag == "join":
        return _term_support(t[1]) | _term_support(t[2])
    if tag == "Join":
        out = 0
        for s in t[1]:
            out |= _term_support(s)
        return out


def present_semantic(pres, guard=None):
    """Model-based construction: the sublattice of the powerset of the
    {0,1}-models generated by the generator extents.

    Complete for the coherent fragment: prime filters of the (finite)
    presented lattice separate elements, and they are exactly the
    models.  Used as the oracle against the congruence route and as the
    engine for large generator sets.
    """
    models = relation_models(pres)
    nm = len(models)
    full = (1 << nm) - 1
    gen_ext = []
    for g in range(len(pres.generators)):
        gen_ext.append(mask_of(i for i, m in enumerate(models) if (m >> g) & 1))
    # in a powerset the generated sublattice is the joins of meets
    bound = config.frame_guard(guard)
    meets = closed_family([full], gen_ext, and_, bound=bound, what="presented lattice")
    family = sorted(closed_family([0], meets, or_, bound=bound, what="presented lattice"))
    fr = frame_of_down_sets(family, None, labels=[f"<{bin(m)}>" for m in family], guard=guard)
    gen_elements = [fr.index[g] for g in gen_ext]

    def extent(t):
        return mask_of(i for i, m in enumerate(models) if _eval_model(t, m))

    def entails(t1, t2):
        return extent(t1) & ~extent(t2) == 0

    return PresentedLattice(pres.logic, fr.poset, fr, gen_elements, entails)


def _eval_model(t, m):
    tag = t[0]
    if tag == "gen":
        return bool((m >> t[1]) & 1)
    if tag == "one":
        return True
    if tag == "zero":
        return False
    if tag == "meet":
        return _eval_model(t[1], m) and _eval_model(t[2], m)
    if tag == "join":
        return _eval_model(t[1], m) or _eval_model(t[2], m)
    if tag == "Join":
        return any(_eval_model(s, m) for s in t[1])


def present_lattice(pres, guard=None):
    """Free structure on the generators quotiented by the relations.

    horn: attribute-closure meet-semilattice.  coherent / geometric:
    congruence closure on the materialised free distributive lattice
    (generator count guarded); large presentations go through the
    semantic engine explicitly.
    """
    if pres.logic == "horn":
        return present_horn(pres)
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
    out = []
    for k in range(4):
        for p in _small_posets(k):
            out.append(lower_sets(p))
    return out


def _small_posets(k):
    from .corpus import all_posets

    return all_posets(k)


def _reflect_site(p, kind, targets, guard):
    cov = named_coverage(p, kind)
    J = saturate(cov)
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
        J = saturate(named_coverage(B.poset, "coherent"))
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
