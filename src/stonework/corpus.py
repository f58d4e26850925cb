"""Exhaustive small-structure corpora: posets, preorders, sites, lattices.

Enumeration is up to isomorphism via a brute-force canonical form
(minimum relation encoding over all permutations), which is fine at the
tiny sizes the acceptance sweeps use.
"""

from functools import lru_cache
from itertools import permutations

from .bits import bits, mask_of
from .coverage import Coverage, all_sieves, is_meet_semilattice, j_d_sieves, saturate, topology_failure
from .errors import CheckFailed
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
    """Every Grothendieck topology on a preorder, as a tuple over elements
    of frozensets of sieves, in ascending order of their sorted sieves.

    These are the J_D for the 2**(classes) unions of equivalence classes
    D (see coverage.j_d_sieves); each table is still checked against the
    axioms.
    """
    sieves = [all_sieves(p, c) for c in range(p.n)]
    classes = sorted({p.up[c] & p.dn[c] for c in range(p.n)})
    results = []
    for pick in range(1 << len(classes)):
        dmask = 0
        for i in bits(pick):
            dmask |= classes[i]
        J = j_d_sieves(p, dmask, sieves)
        failure = topology_failure(p, J, sieves)
        if failure is not None:
            raise CheckFailed(f"J_D breaks {failure[0]} at {failure[1]}")
        results.append(J)
    results.sort(key=lambda J: tuple(tuple(sorted(s)) for s in J))
    return results


def random_preorder(n, rng):
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                pairs.append((i, j))
    return preorder_from_pairs(n, pairs)


def random_coverage(p, rng):
    """Up to two random families on each element, not saturated."""
    covers = []
    for c in range(p.n):
        fams = []
        for _ in range(rng.randint(0, 2)):
            fams.append(mask_of(i for i in bits(p.dn[c]) if rng.random() < 0.5))
        covers.append(frozenset(fams))
    return Coverage(p, covers)


def random_site(max_n, rng):
    """A random preorder with a random saturated topology on it."""
    p = random_preorder(rng.randint(1, max_n), rng)
    return p, saturate(random_coverage(p, rng))


def distributive_lattices_upto(size):
    """All finite bounded distributive lattices with at most `size` elements.

    By Birkhoff these are exactly the lower-set frames of finite posets;
    a poset with k elements has at least k+1 lower sets, with equality
    only for the k-chain, so skeletons up to size-2 elements and the
    (size-1)-chain suffice.
    """
    if size < 1:
        return []
    out = [fr for fr in map(lower_sets, posets_upto(size - 2)) if fr.n <= size]
    out.append(lower_sets(Poset(size - 1, [(1 << (i + 1)) - 1 for i in range(size - 1)])))
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

