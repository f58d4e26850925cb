"""Every test the library makes on a site is a mask test on its D; each is
checked here against the sieve loop it replaced (tests/oracles.py), on
every topology of every poset with at most five elements and on seeded
random preorders with raw, unsaturated coverages and their saturations."""

import random
from functools import cache
from itertools import product

from stonework.corpus import all_grothendieck_topologies, posets_upto, random_coverage, random_preorder
from stonework.coverage import (
    GrothendieckTopology,
    induced_coverage,
    is_j_dense,
    is_subcanonical,
    saturate,
)
from stonework.duality import is_cover_preserving
from stonework.invariants import godel_dummett_site, j_closed_sieves
from stonework.order import MonotoneMap, lower_sets
from stonework.presentations import is_j_filtering
from stonework.spectra import is_j_prime_filter

from oracles import (
    loop_contains,
    loop_godel_dummett_site,
    loop_induced_coverage,
    loop_is_cover_preserving,
    loop_is_j_dense,
    loop_is_j_filtering,
    loop_is_j_prime_filter,
    loop_is_subcanonical,
    loop_j_closed_sieves,
)


def _topologies(p):
    return [GrothendieckTopology(p, s, _checked=True) for s in all_grothendieck_topologies(p)]


@cache
def _sites(max_poset=5, randoms=150, max_random=5):
    """Every topology on the posets with at most `max_poset` elements,
    then a raw coverage and its saturation on each of `randoms` seeded
    random preorders."""
    out = [J for p in posets_upto(max_poset) for J in _topologies(p)]
    rng = random.Random(25)
    for _ in range(randoms):
        cov = random_coverage(random_preorder(rng.randint(1, max_random), rng), rng)
        out += [cov, saturate(cov)]
    return out


def test_prime_filter():
    for J in _sites():
        for m in range(1 << J.base.n):
            assert is_j_prime_filter(J, m) == loop_is_j_prime_filter(J, m), (J.base, m)


def test_subcanonical():
    for J in _sites():
        assert is_subcanonical(J) == loop_is_subcanonical(J), J.base


def test_density_and_induced_coverage():
    # the induced coverages are compared on the posets with at most four
    # elements and on the random preorders
    sites = _sites()
    for k, J in enumerate(sites):
        induced = J.base.n < 5 or k >= len(sites) - 300
        for sub in range(1 << J.base.n):
            got = is_j_dense(J, sub)
            assert got == loop_is_j_dense(J, sub), (J.base, sub)
            if got[0] and induced:
                new, old = induced_coverage(J, sub), loop_induced_coverage(J, sub)
                assert (new[0], new[2]) == (old[0], old[2])
                # one D, one topology
                assert new[1].dmask == old[1].dmask, (J.base, sub)


def test_containment():
    # subtopology_from_surjection's check: J_D lies in J_D' iff D' lies in D
    for p in posets_upto(4):
        tops = _topologies(p)
        for J, J2 in product(tops, repeat=2):
            assert (J2.dmask & ~J.dmask == 0) == loop_contains(J, J2)
    sites = _sites()[-100:]
    for J, J2 in zip(sites, sites[2:]):
        if J.base == J2.base:
            assert (J2.dmask & ~J.dmask == 0) == loop_contains(J, J2)


def test_closed_sieves_and_goedel_dummett_site():
    for J in _sites():
        for c in range(J.base.n):
            assert j_closed_sieves(J, c) == loop_j_closed_sieves(saturate(J), c)
        assert godel_dummett_site(J) == loop_godel_dummett_site(J), J.base


def test_cover_preservation():
    # every monotone map between posets with at most three elements, for
    # every pair of topologies; a failure names the same element
    posets = posets_upto(3)
    for p, q in product(posets, repeat=2):
        maps = []
        for f in product(range(q.n), repeat=p.n):
            if all(q.leq(f[i], f[j]) for i in range(p.n) for j in range(p.n) if p.leq(i, j)):
                maps.append(MonotoneMap(p, q, f))
        for J, K in product(_topologies(p), _topologies(q)):
            for f in maps:
                got, want = is_cover_preserving(f, J, K), loop_is_cover_preserving(f, J, K)
                assert got[0] == want[0] and (got[1] or (None,))[0] == (want[1] or (None,))[0]


def test_filtering():
    # every map from a site with at most three elements into the lower-set
    # frames of the posets with at most two elements
    frames = [lower_sets(p) for p in posets_upto(2)]
    for J in _sites(3, 40, 3):
        for L in frames:
            for f in product(range(L.n), repeat=J.base.n):
                assert is_j_filtering(J, L, f) == loop_is_j_filtering(J, L, f), (J.base, f)
