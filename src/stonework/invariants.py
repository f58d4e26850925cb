"""Logical invariants as decidable lattice conditions.

Each multi-condition proposition is implemented as independent
evaluators plus an equality assertion; the agreement is the theorem
being tested, so nothing is aliased to a single evaluator.
"""

from .bits import bits, mask_of
from .errors import CheckFailed, GuardExceeded, InvalidStructure
from .coverage import (
    all_sieves,
    ideal_frame,
    named_coverage,
    trivial_coverage,
)
from . import config
from .order import FiniteFrame, as_poset, upper_sets


class HeytingOps:
    """Implication and negation tables derived from a finite frame."""

    def __init__(self, frame):
        self.frame = frame
        n = frame.n
        implies = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                cands = mask_of(c for c in range(n) if frame.leq(frame.meet[c][a], b))
                implies[a][b] = frame.join_set(cands)
        self.implies = tuple(tuple(r) for r in implies)
        self.neg = tuple(self.implies[a][frame.bot] for a in range(n))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if frame.leq(c, self.implies[a][b]) != frame.leq(frame.meet[c][a], b):
                        raise CheckFailed("Heyting adjunction fails")


def heyting(frame):
    return HeytingOps(frame)


def _assert_agree(name, conditions):
    vals = set(conditions.values())
    if len(vals) > 1:
        raise CheckFailed(f"{name}: equivalent conditions disagree: {conditions}")
    return conditions


def _nonzero(d):
    return [a for a in range(d.n) if a != d.bot]


def _nonzero_below(d, j):
    """The nonzero elements below j: a collection whose join is j."""
    return [a for a in bits(d.poset.dn[j]) if a != d.bot]


def _stone_frame(d, guard=None):
    return ideal_frame(named_coverage(d.poset, "coherent"), guard=guard)


def _densely_below(d, ideal_mask, a):
    """Every nonzero b <= a has a nonzero c in the ideal below it."""
    for b in bits(d.poset.dn[a]):
        if b == d.bot:
            continue
        if not any(c != d.bot and d.leq(c, b) for c in bits(ideal_mask)):
            return False
    return True


def almost_discrete_conditions(d, guard=None):
    """The five equivalent faces of almost-discreteness of the Stone
    locale of a finite distributive lattice.

    (iii) asks that every dense collection F of nonzero elements (each
    nonzero a meets some member of F above the bottom) have join 1.  It
    fails iff nz & dn[j] is dense for some j != 1, where nz is the
    nonzero elements: that collection has join j (j lies in it, or j is
    the bottom and it is empty), and conversely a dense F with join
    j != 1 lies inside nz & dn[j], and a collection holding a dense one
    is dense.  So n collections are tested, not the 2^(n-1) subsets of nz.

    (iv) asks for complements, completeness and finite-join suprema.  A
    finite lattice is complete, as the join of a subset is the join of
    its members taken in turn from the bottom, and a finite subset is its
    own finite subfamily, so complements are what is left to evaluate.
    """
    stone = _stone_frame(d, guard=guard)
    ideals = stone.element_masks

    # (i) every element of the Stone frame is complemented
    c1 = all(stone.complement_of(i) is not None for i in range(stone.n))

    # (ii) double-negation stability of every ideal, spelled at the lattice level
    c2 = True
    for I in ideals:
        for a in range(d.n):
            if _densely_below(d, I, a) and not (I >> a) & 1:
                c2 = False
                break
        if not c2:
            break

    # (iii) every dense collection of nonzero elements has a finite
    # subcover of 1: one collection per element j, by the docstring
    c3 = True
    nz = _nonzero(d)
    for j in range(d.n):
        fam = _nonzero_below(d, j)
        dense = all(any(d.meet[ai][a] != d.bot for ai in fam) for a in nz)
        if dense and j != d.top:
            c3 = False
            break

    # (iv) complementation plus completeness plus finite-join suprema; the
    # last two hold in every finite lattice, by the docstring
    every_complemented = all(d.complement_of(a) is not None for a in range(d.n))
    c4 = every_complemented

    # (v) finite Boolean algebra
    c5 = every_complemented

    return _assert_agree(
        "almost discrete",
        {"stone_complemented": c1, "ideal_double_negation": c2,
         "dense_finite_subcover": c3, "complemented_complete": c4,
         "finite_boolean": c5},
    )


def _not_in_ideal(d, I, a):
    """a in the Heyting negation of an ideal: no nonzero part of a meets it."""
    for b in bits(d.poset.dn[a]):
        if b != d.bot and (I >> b) & 1:
            return False
    return True


def extremally_disconnected_conditions(d, guard=None):
    """The four equivalent faces of extremal disconnectedness of the
    Stone locale of a finite distributive lattice.

    (iii) ranges over every collection F of nonzero elements.  By
    distributivity b1 (the b with b & f = 0 for all f in F) and b2 (the b
    whose every nonzero part meets some f in F) depend on F only through
    its join j, and each element j is the join of nz & dn[j] (j lies in
    it, or j is the bottom and it is empty).  So one collection per
    element is evaluated, not the 2^(n-1) subsets of nz.
    """
    stone = _stone_frame(d, guard=guard)
    h = heyting(stone)

    # (i) not-I or not-not-I is the top, in the Stone frame
    c1 = all(
        stone.join[h.neg[i]][h.neg[h.neg[i]]] == stone.top for i in range(stone.n)
    )

    # (ii) a finite covering of 1 by elements of the lattice-level negations
    c2 = True
    for I in stone.element_masks:
        good = mask_of(
            a for a in range(d.n) if _not_in_ideal(d, I, a) or _densely_below(d, I, a)
        )
        if d.join_set(good) != d.top:
            c2 = False
            break

    # (iii) the collection-level formulation, one collection per join j,
    # by the docstring
    c3 = True
    nz = _nonzero(d)
    for j in range(d.n):
        fam = _nonzero_below(d, j)
        b1 = mask_of(
            b for b in nz if all(d.meet[b][ai] == d.bot for ai in fam)
        )
        b2 = mask_of(
            b
            for b in nz
            if all(
                any(d.meet[x][ai] != d.bot for ai in fam)
                for x in bits(d.poset.dn[b])
                if x != d.bot
            )
        )
        if d.join_set(b1 | b2) != d.top:
            c3 = False
            break

    # (iv) double-negation-stable ideals are exactly the principal ideals
    # on complemented elements
    stable = [
        I
        for I in stone.element_masks
        if all((I >> a) & 1 for a in range(d.n) if _densely_below(d, I, a))
    ]
    comp = [x for x in range(d.n) if d.complement_of(x) is not None]
    princ_of_comp = sorted(d.poset.dn[x] for x in comp)
    c4 = sorted(stable) == princ_of_comp and len(set(princ_of_comp)) == len(comp)

    return _assert_agree(
        "extremally disconnected",
        {"stone_de_morgan": c1, "ideal_negation_cover": c2,
         "collection_cover": c3, "stable_ideals_principal": c4},
    )


def mslat_ideal_frame_demorgan(m, guard=None):
    """The ideal frame of a meet-semilattice is always extremally
    disconnected; the condition is evaluated, and asserted true."""
    fr = ideal_frame(trivial_coverage(as_poset(m)), guard=guard)
    h = heyting(fr)
    value = all(fr.join[h.neg[i]][h.neg[h.neg[i]]] == fr.top for i in range(fr.n))
    if not value:
        raise CheckFailed("ideal frame of a meet-semilattice failed De Morgan")
    return value


def amalgamation(p):
    """Common lower bounds force a common upper bound."""
    for a in range(p.n):
        for b in range(p.n):
            if any(p.leq(c, a) and p.leq(c, b) for c in range(p.n)):
                if not any(p.leq(a, d) and p.leq(b, d) for d in range(p.n)):
                    return False
    return True


def alexandrov_demorgan(p, guard=None):
    """Extremal disconnectedness of the Alexandrov frame equals the
    amalgamation property; both computed, asserted equal."""
    fr = upper_sets(p, guard=guard)
    h = heyting(fr)
    frame_side = all(fr.join[h.neg[i]][h.neg[h.neg[i]]] == fr.top for i in range(fr.n))
    amal = amalgamation(p)
    if frame_side != amal:
        raise CheckFailed(f"Alexandrov De Morgan {frame_side} vs amalgamation {amal}")
    return frame_side, amal


def two_valued_conditions(x, kind, guard=None):
    """Two-valuedness at the structure level and at the frame level."""
    if kind == "dlat":
        d = x if isinstance(x, FiniteFrame) else FiniteFrame(as_poset(x))
        structure = d.n == 2
        frame = _stone_frame(d, guard=guard)
    elif kind == "mslat":
        m = as_poset(x)
        structure = m.n == 1
        frame = ideal_frame(trivial_coverage(m), guard=guard)
    elif kind == "preorder":
        structure = x.n >= 1 and all(
            x.leq(a, b) and x.leq(b, a) for a in range(x.n) for b in range(x.n)
        )
        frame = upper_sets(x, guard=guard)
    elif kind == "frame":
        frame = x
        structure = frame.n == 2
    else:
        raise InvalidStructure(f"unknown two-valuedness kind {kind!r}")
    frame_side = frame.n == 2
    if structure != frame_side:
        raise CheckFailed(f"two-valuedness sides disagree: {structure} vs {frame_side}")
    return structure, frame_side


def godel_dummett_frame(fr):
    """(a => b) v (b => a) is the top, for all pairs."""
    h = heyting(fr)
    return all(
        fr.join[h.implies[a][b]][h.implies[b][a]] == fr.top
        for a in range(fr.n)
        for b in range(fr.n)
    )


def j_closed_sieves(J, c):
    """Sieves on c closed for the topology: containing every d whose
    restriction covers, that is, whenever s holds dn[d] & D."""
    p, dmask = J.base, J.dmask
    out = []
    for s in all_sieves(p, c):
        closed = True
        for d in bits(p.dn[c]):
            if (s >> d) & 1:
                continue
            if p.dn[d] & dmask & ~s == 0:
                closed = False
                break
        if closed:
            out.append(s)
    return out


def godel_dummett_site(J):
    """The site-level law: for J-closed sieves R, S on c, the sieve of
    elements where the restrictions nest is J-covering (holds dn[c] & D).
    It lists sieves, so it is refused past the saturation guard."""
    p, dmask = J.base, J.dmask
    if p.n > config.SATURATION_GUARD:
        raise GuardExceeded("saturation", p.n, config.SATURATION_GUARD)
    for c in range(p.n):
        closed = j_closed_sieves(J, c)
        for r in closed:
            for s in closed:
                t = mask_of(
                    d
                    for d in bits(p.dn[c])
                    if (r & p.dn[d]) & ~(s & p.dn[d]) == 0
                    or (s & p.dn[d]) & ~(r & p.dn[d]) == 0
                )
                if p.dn[c] & dmask & ~t:
                    return False
    return True


def godel_dummett_frame_site(fr):
    """The site law for the canonical topology on a finite frame.

    Canonically closed sieves on c are exactly the principal downsets
    below c (unit-tested), so the condition reduces to: for e1, e2 <= c
    the elements where e1 and e2 meet comparably join up to c.
    """
    for c in range(fr.n):
        for e1 in bits(fr.poset.dn[c]):
            for e2 in bits(fr.poset.dn[c]):
                t = mask_of(
                    d
                    for d in bits(fr.poset.dn[c])
                    if fr.leq(fr.meet[e1][d], fr.meet[e2][d])
                    or fr.leq(fr.meet[e2][d], fr.meet[e1][d])
                )
                if fr.join_set(t) != c:
                    return False
    return True


def forest_check(p, direction):
    """Elements with a common upper (resp. lower) bound are comparable."""
    if direction not in ("upper", "lower"):
        raise InvalidStructure("direction must be upper or lower")
    for a in range(p.n):
        for b in range(p.n):
            if direction == "upper":
                bound = any(p.leq(a, r) and p.leq(b, r) for r in range(p.n))
            else:
                bound = any(p.leq(r, a) and p.leq(r, b) for r in range(p.n))
            if bound and not (p.leq(a, b) or p.leq(b, a)):
                return False
    return True
