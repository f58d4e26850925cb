"""JSON file formats and DOT emission.

Formats are owned here: posets, coverages, frames, spaces, rings.  Every
dump round-trips through its loader; loaders validate.
"""

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

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


def _exact_int_lists(x, what):
    """x, which must be a JSON list of lists of exact ints: a bool, a float
    or a numeric string is a ParseError, not read as a number."""
    if type(x) is not list or any(type(row) is not list for row in x):
        raise ParseError(f"{what} must be a list of lists of integers")
    for v in chain.from_iterable(x):
        if type(v) is not int:
            raise ParseError(f"{what} must hold integers only, not {json.dumps(v)}")
    return x


def poset_from_json(obj):
    """Load {"elements": [...], "leq": [[i,j],...]}; pairs are generators
    and the reflexive-transitive closure is applied."""
    try:
        elements, pairs = obj["elements"], _exact_int_lists(obj["leq"], "leq")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad poset object: {exc}")
    if type(elements) is not list:
        raise ParseError("poset elements must be a list")
    if any(len(pair) != 2 for pair in pairs):
        raise ParseError("each leq pair must have two entries")
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
    """The frame's JSON object; its order pairs and tables are `Rows`,
    which `dump` writes a row at a time from the frame's masks or tables,
    with one lookup per cell of a digit string made here."""
    digits = list(map(str, range(fr.n)))
    return {
        "elements": [fr.label(i) for i in range(fr.n)],
        "leq": Rows(lambda nl: _pair_rows(fr.poset.up, digits, nl)),
        "bot": fr.bot,
        "top": fr.top,
        "meet": Rows(lambda nl: _table_rows(fr.meet_rows(digits), nl)),
        "join": Rows(lambda nl: _table_rows(fr.join_rows(digits), nl)),
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
        points, opens = obj["points"], _exact_int_lists(obj["opens"], "opens")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad space object: {exc}")
    if type(points) is not list:
        raise ParseError("space points must be a list")
    n = len(points)
    if not all(0 <= i < n for i in chain.from_iterable(opens)):
        raise ParseError(f"opens must hold point indices in 0..{n - 1}")
    return TopSpace(n, [mask_of(o) for o in opens], labels=[str(x) for x in points])


def ring_to_json(r):
    return {"n": r.n, "add": [list(row) for row in r.add], "mul": [list(row) for row in r.mul]}


def ring_from_json(obj):
    try:
        n = obj["n"]
        add, mul = _exact_int_lists(obj["add"], "add"), _exact_int_lists(obj["mul"], "mul")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad ring object: {exc}")
    if type(n) is not int:
        raise ParseError(f"ring size n must be an integer, not {json.dumps(n)}")
    for table in (add, mul):
        if len(table) != n or any(len(row) != n or not all(0 <= x < n for x in row) for row in table):
            raise ParseError(f"ring tables must be {n} x {n} with entries in 0..{n - 1}")
    zero = next((z for z in range(n) if all(add[a][z] == a for a in range(n))), None)
    one = next((o for o in range(n) if all(mul[a][o] == a for a in range(n))), None)
    if zero is None or one is None:
        raise InvalidStructure("tables have no additive or multiplicative identity")
    return FiniteCommRing(n, add, mul, zero, one)


def dump(obj, write):
    """Write the canonical JSON text of obj a piece at a time:
    `write(piece)` for each piece, in order.

    The same bytes as json.dumps(obj, sort_keys=True, indent=2) + "\n",
    without the pure-Python indent encoder: a list of scalars is one call
    of the C encoder, a list of non-empty int rows is one join of digit
    strings per row, and a `Rows` list is written one row at a time.
    """
    _write(obj, "\n", write)
    write("\n")


def dumps(obj):
    """The text that `dump` writes, as one string."""
    out = []
    dump(obj, out.append)
    return "".join(out)


class Rows:
    """A list that `dump` writes without holding it: `texts(nl)` gives
    the text of each item in turn, for items that start lines indented
    as `nl`.  A list with no items is written as []."""

    def __init__(self, texts):
        self.texts = texts


def _table_rows(rows, nl):
    """The text of each row of digit strings, as a list of ints."""
    cell = nl + "  "
    sep, close = "," + cell, nl + "]"
    for row in rows:
        yield "[" + cell + sep.join(row) + close


def _pair_rows(up, digits, nl):
    """The pairs [i, j] with i strictly below j in the order `up`, the
    text of all pairs with the same i at once, each j read off up[i]."""
    cell = nl + "  "
    ends = [d + nl + "]" for d in digits]
    between = "," + nl
    for i, u in enumerate(up):
        if u & (u - 1):
            head = "[" + cell + digits[i] + "," + cell
            yield head + (between + head).join([ends[j] for j in bits(u) if j != i])


_SCALARS = frozenset({str, int, float, bool, type(None)})
_ROWS = frozenset({list, tuple})


def _write(x, nl, write):
    """Write the indent-2 text of x, where `nl` is a newline followed by
    the indentation of the line that x starts on."""
    inner = nl + "  "
    kind = type(x)
    if kind is dict and x and set(map(type, x)) == {str}:
        sep = "{" + inner
        for key in sorted(x):
            write(sep + encode_basestring_ascii(key) + ": ")
            _write(x[key], inner, write)
            sep = "," + inner
        write(nl + "}")
        return
    if kind is Rows:
        sep = "[" + inner
        for text in x.texts(inner):
            write(sep + text)
            sep = "," + inner
        write("[]" if sep[0] == "[" else nl + "]")
        return
    if (kind is list or kind is tuple) and x:
        types = set(map(type, x))
        if types <= _SCALARS:
            encode = json.JSONEncoder(separators=("," + inner, ": ")).encode
            write("[" + inner + encode(x)[1:-1] + nl + "]")
            return
        if types <= _ROWS:
            text = _int_rows(x, inner)
            if text is not None:
                write("[" + inner + text + nl + "]")
                return
        sep = "[" + inner
        for item in x:
            write(sep)
            _write(item, inner, write)
            sep = "," + inner
        write(nl + "]")
        return
    write(json.dumps(x, sort_keys=True, indent=2).replace("\n", nl))


def _int_rows(rows, nl):
    """The text of non-empty rows of ints, each row starting a line
    indented as `nl`, joined from one digit string per value; None unless
    every value is an exact int, none negative, all below the cell count,
    so that the digit strings never outnumber the cells."""
    if not all(rows) or set(map(type, chain.from_iterable(rows))) != {int}:
        return None
    values = set(chain.from_iterable(rows))
    high = max(values)
    if min(values) < 0 or high >= sum(map(len, rows)):
        return None
    digits = list(map(str, range(high + 1)))
    cell = nl + "  "
    sep, close = "," + cell, nl + "]"
    return ("," + nl).join(["[" + cell + sep.join([digits[i] for i in row]) + close for row in rows])


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
