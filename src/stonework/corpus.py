"""Exhaustive small-structure corpora: posets, preorders, sites, lattices.

Enumeration is up to isomorphism via a brute-force canonical form
(minimum relation encoding over all permutations), which is fine at the
tiny sizes the acceptance sweeps use.
"""

from functools import lru_cache
from itertools import permutations

from .bits import bits, mask_of, popcount
from .coverage import Coverage, all_sieves, saturate, topology_failure
from .order import Poset, Preorder, lower_sets, preorder_from_pairs


def _encode(up):
    return tuple(up)


def _permute_up(n, up, perm):
    new = [0] * n
    for i in range(n):
        m = 0
        for j in bits(up[i]):
            m |= 1 << perm[j]
        new[perm[i]] = m
    return new


def canonical_form(p):
    """Minimum encoding of the relation over all permutations of elements."""
    best = None
    for perm in permutations(range(p.n)):
        enc = _encode(_permute_up(p.n, p.up, perm))
        if best is None or enc < best:
            best = enc
    return (p.n, best)


@lru_cache(maxsize=None)
def all_posets(n):
    """All posets on exactly n elements, up to isomorphism."""
    if n == 0:
        return [Poset(0, [])]
    out = {}
    for smaller in all_posets(n - 1):
        m = smaller.n
        downs = smaller.down_sets()
        ups = smaller.up_sets()
        for d in downs:
            for u in ups:
                if d & u:
                    continue
                ok = True
                for x in bits(d):
                    if u & ~smaller.up[x]:
                        ok = False
                        break
                if not ok:
                    continue
                up = [smaller.up[i] | ((1 << m) if (d >> i) & 1 else 0) for i in range(m)]
                up.append((1 << m) | u)
                q = Poset(m + 1, up, _checked=True)
                out.setdefault(canonical_form(q), q)
    return [out[k] for k in sorted(out)]


def posets_upto(n):
    res = []
    for k in range(n + 1):
        res.extend(all_posets(k))
    return res


@lru_cache(maxsize=None)
def all_preorders(n):
    """All preorders on exactly n elements, up to isomorphism.

    Built as block inflations of poset skeletons.
    """
    out = {}
    for k in range(n + 1):
        for skel in all_posets(k):
            for sizes in _compositions(n, k):
                up = []
                offsets = []
                t = 0
                for s in sizes:
                    offsets.append(t)
                    t += s
                blocks = [mask_of(range(offsets[a], offsets[a] + sizes[a])) for a in range(k)]
                for a in range(k):
                    m = 0
                    for b in bits(skel.up[a]):
                        m |= blocks[b]
                    for _ in range(sizes[a]):
                        up.append(m)
                q = Preorder(n, up, _checked=True)
                out.setdefault(canonical_form(q), q)
    return [out[kk] for kk in sorted(out)]


def _compositions(total, parts):
    """Ordered tuples of `parts` positive ints summing to `total`."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts > total:
        return []
    res = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            res.append((first,) + rest)
    return res


def all_grothendieck_topologies(p):
    """Every Grothendieck topology on a preorder (guarded: tiny p only).

    A topology is a tuple over elements of frozensets of sieves.
    """
    sieves = [all_sieves(p, c) for c in range(p.n)]
    optional = [[s for s in sieves[c] if s != p.dn[c]] for c in range(p.n)]
    results = []

    def build(c, acc):
        if c == p.n:
            J = tuple(frozenset(a) for a in acc)
            if topology_failure(p, J, sieves) is None:
                results.append(J)
            return
        opts = optional[c]
        for pick in range(1 << len(opts)):
            chosen = {p.dn[c]}
            for i in bits(pick):
                chosen.add(opts[i])
            build(c + 1, acc + [chosen])

    build(0, [])
    results.sort(key=lambda J: tuple(tuple(sorted(s)) for s in J))
    return results


def random_preorder(n, rng):
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                pairs.append((i, j))
    return preorder_from_pairs(n, pairs)


def random_site(max_n, rng):
    """A random preorder with a random saturated topology on it."""
    n = rng.randint(1, max_n)
    p = random_preorder(n, rng)
    covers = []
    for c in range(n):
        fams = []
        for _ in range(rng.randint(0, 2)):
            sub = mask_of(i for i in bits(p.dn[c]) if rng.random() < 0.5)
            fams.append(sub)
        covers.append(frozenset(fams))
    cov = Coverage(p, covers)
    return p, saturate(cov)


def distributive_lattices_upto(size):
    """All finite bounded distributive lattices with at most `size` elements.

    By Birkhoff these are exactly the lower-set frames of finite posets;
    a poset with k elements has at least k+1 lower sets, so skeletons up
    to size-1 elements suffice.
    """
    out = []
    for p in posets_upto(max(0, size - 1)):
        if 2 ** p.n <= 2 ** size:
            fr = lower_sets(p)
            if fr.n <= size:
                out.append(fr)
    return out


def meet_semilattices_upto(n):
    """Posets with a top element and all binary meets, up to n elements."""
    out = []
    for p in posets_upto(n):
        if p.n == 0:
            continue
        if is_meet_semilattice(p):
            out.append(p)
    return out


def is_meet_semilattice(p):
    if p.n == 0:
        return False
    tops = [i for i in range(p.n) if popcount(p.dn[i]) == p.n]
    if len(tops) != 1:
        return False
    for i in range(p.n):
        for j in range(p.n):
            if p.glb((1 << i) | (1 << j)) is None:
                return False
    return True
