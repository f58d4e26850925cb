"""JSON file formats and DOT emission.

Formats are owned here: posets, coverages, frames, spaces, rings.  Every
dump round-trips through its loader; loaders validate.
"""

import json

from .bits import bits, mask_of
from .coverage import Coverage
from .errors import InvalidStructure, ParseError
from .order import FiniteFrame, Poset, preorder_from_pairs, transitive_reduction
from .spectra import TopSpace
from .zariski import FiniteCommRing


def poset_to_json(p):
    return {
        "elements": [p.label(i) for i in range(p.n)],
        "leq": [[i, j] for i in range(p.n) for j in bits(p.up[i]) if i != j],
    }


def poset_from_json(obj):
    """Load {"elements": [...], "leq": [[i,j],...]}; pairs are generators
    and the reflexive-transitive closure is applied."""
    try:
        elements = list(obj["elements"])
        pairs = [(int(i), int(j)) for i, j in obj["leq"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad poset object: {exc}")
    labels = [str(e) for e in elements]
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate element labels")
    return preorder_from_pairs(len(elements), pairs, labels=labels)


def coverage_to_json(cov):
    p = cov.base
    covers = {}
    for c in range(p.n):
        fams = sorted(cov.covers[c])
        covers[p.label(c)] = [[p.label(d) for d in bits(f)] for f in fams]
    return {"poset": poset_to_json(p), "covers": covers}


def coverage_from_json(obj):
    try:
        p = poset_from_json(obj["poset"])
        raw = obj["covers"]
    except KeyError as exc:
        raise ParseError(f"bad coverage object: missing {exc}")
    if not isinstance(raw, dict):
        raise ParseError("covers must map element labels to lists of families")
    index = {p.label(i): i for i in range(p.n)}
    covers = [set() for _ in range(p.n)]
    for label, fams in raw.items():
        if label not in index:
            raise ParseError(f"covers mention unknown element {label!r}")
        if not isinstance(fams, list) or not all(isinstance(fam, list) for fam in fams):
            raise ParseError(f"the covers of {label!r} must be a list of lists of labels")
        c = index[label]
        for fam in fams:
            try:
                covers[c].add(mask_of(index[d] for d in fam))
            except (KeyError, TypeError) as exc:
                raise ParseError(f"covering family mentions unknown element {exc}")
    return Coverage(p, [frozenset(f) for f in covers])


def frame_to_json(fr):
    return {
        "elements": [fr.label(i) for i in range(fr.n)],
        "leq": [[i, j] for i in range(fr.n) for j in bits(fr.poset.up[i]) if i != j],
        "bot": fr.bot,
        "top": fr.top,
        "meet": [list(r) for r in fr.meet],
        "join": [list(r) for r in fr.join],
    }


def frame_from_json(obj):
    try:
        p = poset_from_json({"elements": obj["elements"], "leq": obj["leq"]})
        fr = FiniteFrame(Poset(p.n, p.up, labels=p.labels), obj["meet"], obj["join"])
    except KeyError as exc:
        raise ParseError(f"bad frame object: missing {exc}")
    if fr.bot != obj.get("bot") or fr.top != obj.get("top"):
        raise ParseError("frame bounds disagree with the tables")
    return fr


def space_to_json(sp):
    return {
        "points": [sp.label(i) for i in range(sp.n)],
        "opens": sorted(sorted(bits(m)) for m in sp.opens),
    }


def space_from_json(obj):
    try:
        points = [str(x) for x in obj["points"]]
        opens = [mask_of(int(i) for i in o) for o in obj["opens"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad space object: {exc}")
    return TopSpace(len(points), opens, labels=points)


def ring_to_json(r):
    return {"n": r.n, "add": [list(row) for row in r.add], "mul": [list(row) for row in r.mul]}


def ring_from_json(obj):
    try:
        n = int(obj["n"])
        add = [[int(x) for x in row] for row in obj["add"]]
        mul = [[int(x) for x in row] for row in obj["mul"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad ring object: {exc}")
    for table in (add, mul):
        if len(table) != n or any(len(row) != n or not all(0 <= x < n for x in row) for row in table):
            raise ParseError(f"ring tables must be {n} x {n} with entries in 0..{n - 1}")
    zero = next((z for z in range(n) if all(add[a][z] == a for a in range(n))), None)
    one = next((o for o in range(n) if all(mul[a][o] == a for a in range(n))), None)
    if zero is None or one is None:
        raise InvalidStructure("tables have no additive or multiplicative identity")
    return FiniteCommRing(n, add, mul, zero, one)


def dumps(obj):
    """Canonical JSON text: sorted keys, no float drift, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# DOT


def poset_to_dot(p, name="poset"):
    """Hasse diagram (transitive reduction); preorders are drawn on the
    poset quotient with merged labels."""
    from .order import poset_quotient

    q, surj = poset_quotient(p)
    merged = []
    for c in range(q.n):
        names = [p.label(i) for i in range(p.n) if surj(i) == c]
        merged.append("=".join(names))
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for c in range(q.n):
        lines.append(f'  n{c} [label="{merged[c]}"];')
    for i, j in transitive_reduction(q):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def space_to_dot(sp, name="space"):
    """Specialization order of a finite space, as a Hasse diagram."""
    from .spectra import specialization_order

    return poset_to_dot(specialization_order(sp), name=name)
