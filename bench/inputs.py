"""Seeded inputs for the stonework benchmark, and the facts its oracles use.

Everything here is the benchmark's own code: it builds posets, coverages
and ring tables as plain JSON objects, and counts what the oracles need
(down-sets, join-irreducibles, prime factors) without calling stonework.
An input spec is a JSON list such as ["sparse", 13, 240, 300, 4]; the
same spec always gives the same object.
"""

import random
from functools import lru_cache


def _rng(spec):
    return random.Random(":".join(str(x) for x in spec))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def up_masks(n, pairs):
    """Reflexive-transitive closure of generator pairs, as up-set masks."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = up[i]
            for j in _bits(up[i]):
                m |= up[j]
            if m != up[i]:
                up[i], changed = m, True
    return up


def down_masks(up):
    n = len(up)
    return [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]


def count_down_sets(up, within=None):
    """Number of down-sets of the (induced) order on the elements of `within`.

    A down-set either omits x, and lives in the rest minus up(x), or
    contains x, and is down(x) plus a down-set of the rest minus down(x).
    """
    n = len(up)
    dn = down_masks(up)

    @lru_cache(maxsize=None)
    def count(rest):
        if not rest:
            return 1
        x = (rest & -rest).bit_length() - 1
        return count(rest & ~up[x]) + count(rest & ~dn[x])

    return count((1 << n) - 1 if within is None else within)


def join_irreducible_count(up):
    """Elements of a finite lattice with exactly one lower cover."""
    n = len(up)
    dn = down_masks(up)
    out = 0
    for x in range(n):
        below = dn[x] & ~(1 << x)
        lower_covers = [y for y in _bits(below)
                        if not any(z != y and up[y] >> z & 1 for z in _bits(below))]
        out += len(lower_covers) == 1
    return out


def _poset_json(up, labels, rng):
    """A poset object with its elements in a random order, listing only
    the covering pairs as generators."""
    n = len(up)
    order = list(range(n))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    pairs = []
    for i in range(n):
        strict = up[i] & ~(1 << i)
        for j in _bits(strict):
            if not any(strict >> k & 1 and k != j and up[k] >> j & 1 for k in range(n)):
                pairs.append([pos[i], pos[j]])
    pairs.sort()
    return {"elements": [labels[old] for old in order], "leq": pairs}


def _labels(rng, prefix, n):
    tags = rng.sample(range(1000, 10000), n)
    return [f"{prefix}{t}" for t in tags]


def _random_dag(rng, n, p):
    return up_masks(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def _sparse_up(rng, n, lo, hi):
    """A random sparse poset whose down-set count lies in [lo, hi]."""
    while True:
        up = _random_dag(rng, n, rng.uniform(0.2, 0.35))
        if lo <= count_down_sets(up) <= hi:
            return up


def _tree_up(rng, n, cap):
    """A random rooted tree, root at the bottom or the top, with at most
    `cap` down-sets."""
    while True:
        parent = [None] + [rng.randrange(max(0, i - 3), i) for i in range(1, n)]
        if rng.random() < 0.5:
            pairs = [(parent[i], i) for i in range(1, n)]
        else:
            pairs = [(i, parent[i]) for i in range(1, n)]
        up = up_masks(n, pairs)
        if count_down_sets(up) <= cap:
            return up


def _down_set_lattice(rng, lo, hi):
    """The lattice of down-sets of a random small poset, of size in [lo, hi]."""
    while True:
        k = rng.randint(3, 5)
        base = _random_dag(rng, k, rng.uniform(0.1, 0.6))
        dn = down_masks(base)
        sets = sorted({m for m in range(1 << k) if all(dn[i] & ~m == 0 for i in _bits(m))})
        if lo <= len(sets) <= hi:
            return [sum(1 << j for j, b in enumerate(sets) if a & ~b == 0) for a in sets]


def _covered_site(rng, n, cap):
    """A sparse poset, a subset D of it, and explicit covers whose
    saturation is the topology J_D: each c outside D is covered by the
    members of D below it (plus random extra elements below c)."""
    while True:
        up = _random_dag(rng, n, rng.uniform(0.15, 0.3))
        dset = [c for c in range(n) if rng.random() < 0.5]
        dmask = sum(1 << d for d in dset)
        if dset and count_down_sets(up, dmask) <= cap:
            break
    dn = down_masks(up)
    covers = {}
    for c in range(n):
        if dmask >> c & 1:
            continue
        below = dn[c] & ~(1 << c)
        least = below & dmask
        extra = least | sum(1 << d for d in _bits(below) if rng.random() < 0.3)
        covers[c] = [least, extra]
    return up, dmask, covers


def generate(spec):
    """(JSON object, facts) for an input spec; `facts` feeds the oracles."""
    kind = spec[0]
    rng = _rng(spec)
    if kind in ("antichain", "chain", "sparse", "tree"):
        n = spec[1]
        if kind == "antichain":
            up = [1 << i for i in range(n)]
        elif kind == "chain":
            up = up_masks(n, [(i, i + 1) for i in range(n - 1)])
        elif kind == "sparse":
            up = _sparse_up(rng, n, spec[2], spec[3])
        else:
            up = _tree_up(rng, n, spec[2])
        obj = _poset_json(up, _labels(rng, "x", n), rng)
        return obj, {"n": n, "down_sets": count_down_sets(up), "points": n}
    if kind in ("dlat", "boolean"):
        if kind == "boolean":
            k = spec[1]
            up = [sum(1 << b for b in range(1 << k) if a & ~b == 0) for a in range(1 << k)]
        else:
            up = _down_set_lattice(rng, spec[1], spec[2])
        obj = _poset_json(up, _labels(rng, "l", len(up)), rng)
        return obj, {"n": len(up), "down_sets": len(up), "points": join_irreducible_count(up)}
    if kind == "covsite":
        n = spec[1]
        up, dmask, covers = _covered_site(rng, n, spec[2])
        labels = _labels(rng, "s", n)
        poset = _poset_json(up, labels, rng)
        obj = {
            "poset": poset,
            "covers": {
                labels[c]: [[labels[d] for d in _bits(fam)] for fam in fams]
                for c, fams in covers.items()
            },
        }
        return obj, {"n": n, "down_sets": count_down_sets(up, dmask), "points": bin(dmask).count("1")}
    if kind == "ring":
        return _product_ring(spec[1], rng)
    raise ValueError(f"unknown input kind {kind!r}")


def _product_ring(primes, rng):
    """Tables of a product of prime fields, elements in a random order."""
    size = 1
    for q in primes:
        size *= q

    def digits(x):
        out = []
        for q in primes:
            out.append(x % q)
            x //= q
        return out

    def pack(ds):
        x, scale = 0, 1
        for d, q in zip(ds, primes):
            x += d * scale
            scale *= q
        return x

    perm = list(range(size))
    rng.shuffle(perm)
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for a in range(size):
        da = digits(a)
        for b in range(size):
            db = digits(b)
            s = pack([(x + y) % q for x, y, q in zip(da, db, primes)])
            m = pack([(x * y) % q for x, y, q in zip(da, db, primes)])
            add[perm[a]][perm[b]] = perm[s]
            mul[perm[a]][perm[b]] = perm[m]
    return {"n": size, "add": add, "mul": mul}, {"points": len(primes)}


def prime_factors(n):
    out, q = [], 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def divisor_count(n):
    out = 1
    factors = prime_factors(n)
    for q in set(factors):
        out *= factors.count(q) + 1
    return out
