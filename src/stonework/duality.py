"""Duality machinery: functor actions on maps, compactness invariants,
recovery of a structure from its ideal frame, and round-trip checkers
for the named dualities.
"""

from .bits import bits, mask_of
from .errors import CheckFailed, InvalidStructure
from .coverage import (
    ideal_frame,
    j_closure,
    named_coverage,
    principal_j_ideal,
    trivial_coverage,
)
from .order import (
    FiniteFrame,
    MonotoneMap,
    Poset,
    as_poset,
    frame_hom_failure,
    inclusion_order,
    is_flat,
    lower_sets,
    preorder_from_pairs,
    set_label,
    upper_sets,
)


class FrameHom:
    """A bot/top/meet/join preserving map between finite frames."""

    def __init__(self, dom, cod, f):
        self.dom = dom
        self.cod = cod
        self.f = tuple(f)
        if len(self.f) != dom.n:
            raise InvalidStructure("assignment length mismatch")
        failure = frame_hom_failure(dom, cod, self.f)
        if failure is not None:
            raise InvalidStructure(f"frame hom must preserve {failure}")

    def __call__(self, i):
        return self.f[i]

    def compose(self, other):
        return FrameHom(other.dom, self.cod, tuple(self.f[other.f[i]] for i in range(other.dom.n)))

    def preserves_all_meets(self):
        """In a finite frame every meet is a finite meet, so a frame hom
        always preserves them; verified via the adjoint laws."""
        adj = []
        for i in range(self.cod.n):
            above = mask_of(j for j in range(self.dom.n) if self.cod.leq(i, self.f[j]))
            adj.append(self.dom.meet_set(above))
        for x in range(self.cod.n):
            for y in range(self.dom.n):
                if self.dom.leq(adj[x], y) != self.cod.leq(x, self.f[y]):
                    return False, (x, y)
        return True, None

    def __repr__(self):
        return f"FrameHom({list(self.f)})"


def identity_frame_hom(fr):
    return FrameHom(fr, fr, range(fr.n))


# ---------------------------------------------------------------------------
# functor actions


def is_cover_preserving(f, J, K):
    """f sends J-covers to families generating K-covers.

    Every J-covering sieve on c holds the least, L = down(dn[c] & D_J),
    so, f being monotone, the sieve it generates on f(c) holds
    down(f(dn[c] & D_J)); that covers iff it holds dn[f(c)] & D_K.  So
    only L is checked, and it is the witness of a failure.
    """
    for c in range(f.dom.n):
        least = f.dom.dn[c] & J.dmask
        image = f.cod.down_closure(mask_of(f(c2) for c2 in bits(least)))
        if f.cod.dn[f(c)] & K.dmask & ~image:
            return False, (c, f.dom.down_closure(least))
    return True, None


def a_on_map(f, J, K, guard=None):
    """The frame hom Id_J(C) -> Id_K(D) induced by a flat cover-preserving
    map: an ideal goes to the smallest K-ideal containing its image."""
    if not is_flat(f):
        raise InvalidStructure("map is not flat")
    ok, witness = is_cover_preserving(f, J, K)
    if not ok:
        raise InvalidStructure(f"map does not preserve covers at {witness}")
    src = ideal_frame(J, guard=guard)
    dst = ideal_frame(K, guard=guard)
    assign = []
    for m in src.element_masks:
        image = mask_of(f(c) for c in bits(m))
        assign.append(dst.index[j_closure(K, image)])
    return FrameHom(src, dst, assign)


def b_on_map(f, guard=None):
    """The frame hom Id(cod) -> Id(dom) taking preimages of ideals."""
    src = ideal_frame(trivial_coverage(f.cod), guard=guard)
    dst = ideal_frame(trivial_coverage(f.dom), guard=guard)
    assign = [dst.index[f.preimage_mask(m)] for m in src.element_masks]
    return FrameHom(src, dst, assign)


def left_adjoint(h):
    """Left adjoint of a frame hom, when it preserves all meets.

    Returns the adjoint as an index assignment h.cod -> h.dom, computed
    by the infimum formula; raises when the adjunction law fails (which
    names a meet h fails to preserve).
    """
    ok, witness = h.preserves_all_meets()
    if not ok:
        raise InvalidStructure(f"no adjoint: adjunction law fails at {witness}")
    adj = []
    for i in range(h.cod.n):
        above = mask_of(j for j in range(h.dom.n) if h.cod.leq(i, h.f[j]))
        adj.append(h.dom.meet_set(above))
    return tuple(adj)


def recover_monotone_from_b(h, dom_poset, cod_poset):
    """Recover g: dom -> cod with h == b_on_map(g), given h: Id(cod) -> Id(dom).

    The left adjoint restricted to principal ideals is g; this fails with
    a CheckFailed when the adjoint does not send principals to principals
    (which cannot happen when h really is a preimage map).
    """
    adj = left_adjoint(h)
    cod_pidx = {cod_poset.dn[c]: c for c in range(cod_poset.n)}
    g = []
    for c in range(dom_poset.n):
        tgt_mask = h.dom.element_masks[adj[h.cod.index[dom_poset.dn[c]]]]
        if tgt_mask not in cod_pidx:
            raise CheckFailed("adjoint does not send principal ideals to principal ideals")
        g.append(cod_pidx[tgt_mask])
    return MonotoneMap(dom_poset, cod_poset, g)


# ---------------------------------------------------------------------------
# compactness invariants


INVARIANT_TAGS = (
    "All",
    "Singleton",
    "Finite",
    "CardinalityLT",
    "FiniteDisjoint",
    "Disjoint",
    "AtomicFinite",
    "Atomic",
    "SupercompactFinite",
    "Supercompact",
    "Directed",
)


class CompactnessInvariant:
    """A decidable property of finite families of frame elements.

    Each tag encodes one clause of the catalogue of refinement
    invariants; `param` carries the cardinal for CardinalityLT.
    """

    def __init__(self, tag, param=None):
        if tag not in INVARIANT_TAGS:
            raise InvalidStructure(f"unknown invariant tag {tag!r}")
        if tag == "CardinalityLT" and (param is None or param < 1):
            raise InvalidStructure("CardinalityLT needs a positive cardinal")
        self.tag = tag
        self.param = param

    def __repr__(self):
        if self.tag == "CardinalityLT":
            return f"CompactnessInvariant(CardinalityLT, {self.param})"
        return f"CompactnessInvariant({self.tag})"

    def holds(self, fr, family):
        """Whether a family (tuple of element indices) satisfies the tag."""
        fam = tuple(family)
        t = self.tag
        if t == "All":
            return True
        if t == "Singleton":
            return len(fam) == 1
        if t == "Finite":
            return True
        if t == "CardinalityLT":
            return len(fam) < self.param
        if t in ("FiniteDisjoint", "Disjoint"):
            return all(
                fr.meet[a][b] == fr.bot for i, a in enumerate(fam) for b in fam[i + 1:]
            )
        if t in ("AtomicFinite", "Atomic"):
            if len(fam) == 1:
                return True
            atoms = set(fr.atoms())
            return all(a in atoms for a in fam)
        if t in ("SupercompactFinite", "Supercompact"):
            if len(fam) == 1:
                return True
            scs = set(supercompact_elements(fr))
            return all(a in scs for a in fam)
        if t == "Directed":
            if not fam:
                return False
            return all(
                any(fr.leq(a, c) and fr.leq(b, c) for c in fam) for a in fam for b in fam
            )
        raise InvalidStructure(f"unhandled tag {t}")


def supercompact_elements(fr):
    """Elements whose every covering family contains them.

    In a finite lattice the worst covering family is everything strictly
    below, so supercompact reduces to join-irreducible; a brute-force
    oracle in the tests cross-checks this on small frames.
    """
    return fr.join_irreducibles()


def is_c_compact(fr, l, inv):
    """Whether every cover of l has a refinement with join l satisfying inv.

    A finite frame is distributive, so its join-irreducibles are
    join-prime.  Hence M(l), the maximal join-irreducibles below l, is a
    cover of l that refines every cover of l, and l is C-compact iff some
    refinement of M(l) with join l satisfies inv.  Such a refinement
    contains M(l) and adds only elements below its members, and each
    built-in invariant that holds on it holds on M(l) too: M(l) is the one
    cover to test."""
    below = fr.poset.dn[l] & mask_of(fr.join_irreducibles())
    return inv.holds(fr, bits(fr.poset.maximal_in(below)))


def c_compact_elements(fr, inv):
    """Sub-poset of elements whose every cover has a refinement satisfying
    the invariant; canonical ascending order."""
    elems = [l for l in range(fr.n) if is_c_compact(fr, l, inv)]
    return fr.poset.restrict(elems), elems


def multicomposition_check(fr, inv, family):
    """If a family of C-compact elements itself satisfies C, its join is
    C-compact; the built-in invariants are all multicomposition-stable."""
    fam = tuple(family)
    for a in fam:
        if not is_c_compact(fr, a, inv):
            raise InvalidStructure(f"family member {a} is not C-compact")
    if not inv.holds(fr, fam):
        raise InvalidStructure("family itself does not satisfy the invariant")
    j = fr.join_set(mask_of(fam))
    return is_c_compact(fr, j, inv)


# ---------------------------------------------------------------------------
# irreducible elements


def irreducible_elements(fr, kind):
    """Elements of the given kind: atoms and join-irreducibles by their
    definitions, indecomposable and directedly irreducible elements by the
    finite rules below (the tests keep the literal scans as oracles)."""
    if kind == "atoms":
        return fr.atoms()
    if kind == "join-irreducible":
        # the bottom is excluded: it is the empty join
        out = []
        for d in range(fr.n):
            if d == fr.bot:
                continue
            ok = True
            for a in range(fr.n):
                for b in range(fr.n):
                    if fr.join[a][b] == d and a != d and b != d:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(d)
        return out
    if kind == "supercompact":
        return supercompact_elements(fr)
    if kind == "indecomposable":
        # a pairwise disjoint family with join a that omits a has members
        # b < a; by distributivity, b and the join of the rest are a
        # disjoint pair below a with join a
        out = []
        for a in range(fr.n):
            below = list(bits(fr.poset.dn[a] & ~(1 << a)))
            if a != fr.bot and not any(
                fr.join[b][c] == a and fr.meet[b][c] == fr.bot for b in below for c in below
            ):
                out.append(a)
        return out
    if kind == "directedly-irreducible":
        # a finite directed family contains its own join
        return list(range(fr.n))
    raise InvalidStructure(f"unknown irreducibility kind {kind!r}")


# ---------------------------------------------------------------------------
# named duality round trips


def check_duality(kind, x, guard=None):
    """Forward functor, inverse functor, and an explicit round-trip witness.

    Returns a report dict with the two objects and the witness; raises
    CheckFailed if the round trip is not an isomorphism (never expected).
    """
    if kind == "alexandrov":
        return _check_alexandrov(x, guard)
    if kind == "stone":
        return _check_stone(x, guard)
    if kind == "birkhoff":
        return _check_birkhoff(x, guard)
    if kind in ("lindenbaum", "atomdlat"):
        return _check_atomic(kind, x)
    if kind == "mslat":
        return _check_mslat(x, guard)
    if kind == "mslatstar":
        return _check_mslatstar(x)
    if kind == "disjunctive":
        return _check_disjunctive(x)
    raise InvalidStructure(f"unknown duality kind {kind!r}")


def _witness_ok(poset_a, poset_b, witness):
    if len(witness) != poset_a.n or sorted(witness) != list(range(poset_b.n)):
        return False
    for i in range(poset_a.n):
        for j in range(poset_a.n):
            if poset_a.leq(i, j) != poset_b.leq(witness[i], witness[j]):
                return False
    return True


def _report(kind, forward, recovered, witness, ok, extra=None):
    rep = {
        "kind": kind,
        "forward": repr(forward),
        "recovered": repr(recovered),
        "witness": list(witness) if witness is not None else None,
        "round_trip_ok": ok,
    }
    if isinstance(recovered, (Poset, FiniteFrame)):
        # the structural object, for DOT emission; stripped before JSON
        rep["recovered_poset"] = recovered.poset if isinstance(recovered, FiniteFrame) else recovered
    if extra:
        rep.update(extra)
    if not ok:
        raise CheckFailed(f"{kind} round trip failed: {rep}")
    return rep


def _check_alexandrov(p, guard):
    """Pos ~ AlexLoc: upper sets, recovered as (supercompacts)^op."""
    p = as_poset(p)
    fr = upper_sets(p, guard=guard)
    sc, elems = c_compact_elements(fr, CompactnessInvariant("Singleton"))
    recovered = sc.op()
    # witness: x maps to its principal upper set
    pos = {e: i for i, e in enumerate(elems)}
    witness = tuple(pos[fr.index[p.up[c]]] for c in range(p.n))
    return _report("alexandrov", fr, recovered, witness, _witness_ok(p, recovered, witness))


def _check_stone(d, guard):
    """DLat ~ coherent locales: coherent ideals, recovered as compacts."""
    if not isinstance(d, FiniteFrame):
        d = FiniteFrame(as_poset(d))
    J = named_coverage(d.poset, "coherent")
    fr = ideal_frame(J, guard=guard)
    comp, elems = c_compact_elements(fr, CompactnessInvariant("Finite"))
    pos = {e: i for i, e in enumerate(elems)}
    witness = tuple(pos[fr.index[principal_j_ideal(J, c)]] for c in range(d.n))
    return _report("stone", fr, comp, witness, _witness_ok(d.poset, comp, witness))


def _check_birkhoff(d, guard):
    """IrrDLat ~ Pos_comp, finitely Birkhoff: join-irreducibles and back."""
    if not isinstance(d, FiniteFrame):
        d = FiniteFrame(as_poset(d))
    irr = irreducible_elements(d, "join-irreducible")
    irr_poset = d.poset.restrict(irr)
    # finite scale: compact ideals on the irreducibles are all lower sets
    rebuilt = lower_sets(irr_poset, guard=guard)
    pos = {e: i for i, e in enumerate(irr)}
    witness = []
    for c in range(d.n):
        below = mask_of(pos[e] for e in irr if d.leq(e, c))
        witness.append(rebuilt.index[below])
    ok = _witness_ok(d.poset, rebuilt.poset, tuple(witness))
    return _report("birkhoff", irr_poset, rebuilt, tuple(witness), ok)


def is_atomic(fr):
    """Every element is the join of the atoms below it."""
    atoms = fr.atoms()
    return all(fr.join_set(mask_of(a for a in atoms if fr.leq(a, x))) == x for x in range(fr.n))


def atom_map(fr):
    """psi: each element to the set of atoms below it, in the powerset
    frame of the atoms.  Returns (atoms, powerset frame, psi)."""
    atoms = fr.atoms()
    power = lower_sets(preorder_from_pairs(len(atoms), []))
    psi = tuple(
        power.index[mask_of(k for k, a in enumerate(atoms) if fr.leq(a, x))] for x in range(fr.n)
    )
    return atoms, power, psi


_NOT_ATOMIC = {
    "lindenbaum": "frame is not atomic",
    "atomdlat": "lattice is not atomic (an element is not a join of atoms)",
}


def _check_atomic(kind, fr):
    """Atomic frames ~ powersets of their atoms via psi (lindenbaum), and
    its finite instance AtDLat ~ Set_f (atomdlat)."""
    if not isinstance(fr, FiniteFrame):
        fr = FiniteFrame(as_poset(fr))
    if not is_atomic(fr):
        raise InvalidStructure(_NOT_ATOMIC[kind])
    atoms, power, psi = atom_map(fr)
    return _report(kind, atoms, power, psi, _witness_ok(fr.poset, power.poset, psi))


def _check_mslat(m, guard):
    """MSLat ~ SCLoc: lower sets, recovered as supercompacts."""
    m = as_poset(m)
    J = trivial_coverage(m)
    fr = ideal_frame(J, guard=guard)
    sc, elems = c_compact_elements(fr, CompactnessInvariant("Singleton"))
    pos = {e: i for i, e in enumerate(elems)}
    witness = tuple(pos[fr.index[m.dn[c]]] for c in range(m.n))
    return _report("mslat", fr, sc, witness, _witness_ok(m, sc, witness))


def _ideal_star(m):
    """Ideals that are principal or empty, as masks, ascending."""
    return sorted({0} | {m.dn[c] for c in range(m.n)})


def _check_mslatstar(m):
    """MSLat* ~ MSLat: adjoin-a-strict-bottom against nonzero-part."""
    m = as_poset(m)
    star_masks = _ideal_star(m)
    star = inclusion_order(star_masks, [set_label(m.label, mk) for mk in star_masks])
    # star must live in MSLat*: bottom (the empty ideal) with no zero divisors
    bot = star_masks.index(0)
    for i, mi in enumerate(star_masks):
        for j, mj in enumerate(star_masks):
            inter = mi & mj
            if inter not in star_masks:
                raise CheckFailed("Id_* not closed under meets")
            if star_masks.index(inter) == bot and i != bot and j != bot:
                raise CheckFailed("Id_* has zero divisors")
    nonzero = [i for i in range(star.n) if star_masks[i] != 0]
    recovered = star.restrict(nonzero)
    witness = tuple(nonzero.index(star_masks.index(m.dn[c])) for c in range(m.n))
    return _report("mslatstar", star, recovered, witness, _witness_ok(m, recovered, witness))


def dis_ideals(p):
    """Ideals of a poset that are disjoint unions of principal ideals:
    some set of members covers each element exactly once."""
    out = []
    for m in p.down_sets():
        gens = p.maximal_in(m)
        ok = True
        for e in bits(m):
            covering = [g for g in bits(gens) if p.leq(e, g)]
            if len(covering) != 1:
                ok = False
                break
        if ok:
            out.append(m)
    return out


def dis_map(fr):
    """phi: each element to the set of indecomposables below it, in
    Dis(Id(I_F)) ordered by inclusion; None where that set leaves Dis.
    Returns (indecomposables, their sub-poset I_F, Dis(Id(I_F)), phi)."""
    ind = irreducible_elements(fr, "indecomposable")
    ind_poset = fr.poset.restrict(ind)
    masks = sorted(dis_ideals(ind_poset))
    for a in masks:
        for b in masks:
            if (a & b) not in masks:
                raise InvalidStructure("Dis(Id(I_F)) is not closed under finite meets")
    dis = inclusion_order(masks, [set_label(ind_poset.label, mk) for mk in masks])
    index = {mk: k for k, mk in enumerate(masks)}
    phi = tuple(index.get(mask_of(k for k, e in enumerate(ind) if fr.leq(e, a))) for a in range(fr.n))
    return ind, ind_poset, dis, phi


def _check_disjunctive(fr):
    """Disjunctive frames ~ ideals-with-unique-cover over indecomposables."""
    _, ind_poset, dis, phi = dis_map(fr)
    # phi must be an isomorphism exactly when fr is disjunctive; the
    # caller asks for the round trip, so disjunctivity is a precondition
    if None in phi:
        raise InvalidStructure("frame is not disjunctive (phi leaves Dis)")
    return _report("disjunctive", ind_poset, dis, phi, _witness_ok(fr.poset, dis, phi))
