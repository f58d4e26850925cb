"""Brute-force oracles for the fast paths that enumerate from theorems.

Each function here is the literal definition, searched exhaustively: the
submask scan for down-sets, generate-and-test for topologies, the
fixpoint of the saturation rules, and the 2**n scan for prime filters.
They are exponential and only meant for tiny carriers.
"""

from stonework.bits import bits, submasks
from stonework.coverage import topology_failure
from stonework.spectra import is_j_prime_filter


def brute_down_sets(p, within=None):
    """Every subset of `within` (default: all elements) closed downwards
    inside it, ascending."""
    within = (1 << p.n) - 1 if within is None else within
    return [m for m in submasks(within) if all(p.dn[i] & within & ~m == 0 for i in bits(m))]


def brute_up_sets(p):
    return [m for m in range(1 << p.n) if all(p.up[i] & ~m == 0 for i in bits(m))]


def brute_all_sieves(p, c):
    return brute_down_sets(p, p.dn[c])


def brute_topologies(p):
    """Every table of sieve sets that contains the maximal sieves and
    passes the axioms, sorted as corpus.all_grothendieck_topologies."""
    sieves = [brute_all_sieves(p, c) for c in range(p.n)]
    optional = [[s for s in sieves[c] if s != p.dn[c]] for c in range(p.n)]
    results = []

    def build(c, acc):
        if c == p.n:
            J = tuple(frozenset(a) for a in acc)
            if topology_failure(p, J, sieves) is None:
                results.append(J)
            return
        for pick in range(1 << len(optional[c])):
            build(c + 1, acc + [{p.dn[c]} | {optional[c][i] for i in bits(pick)}])

    build(0, [])
    results.sort(key=lambda J: tuple(tuple(sorted(s)) for s in J))
    return results


def fixpoint_saturation(cov):
    """The sieve table of the least topology containing a coverage's
    generators: close the generated sieves under maximality, stability,
    upward closure and transitivity until nothing changes."""
    p = cov.base
    all_s = [brute_all_sieves(p, c) for c in range(p.n)]
    J = [set() for _ in range(p.n)]
    for c in range(p.n):
        J[c].add(p.dn[c])
        for fam in cov.covers[c]:
            J[c].add(p.down_closure(fam))
    changed = True
    while changed:
        changed = False
        for c in range(p.n):
            for s in list(J[c]):
                for c2 in bits(p.dn[c]):
                    r = s & p.dn[c2]
                    if r not in J[c2]:
                        J[c2].add(r)
                        changed = True
        for c in range(p.n):
            for s in all_s[c]:
                if s in J[c]:
                    continue
                for t in J[c]:
                    if t & ~s == 0 or all((s & p.dn[c2]) in J[c2] for c2 in bits(t)):
                        J[c].add(s)
                        changed = True
                        break
    return tuple(frozenset(s) for s in J)


def brute_j_prime_filters(J):
    """Every subset of the carrier that is a J-prime filter, ascending."""
    return [m for m in range(1 << J.base.n) if is_j_prime_filter(J, m)]
