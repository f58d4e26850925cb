"""Benchmark jobs: one verified CLI call or one verified library call.

A job is built from an entry of pool.json.  `call()` is the timed part;
`verify(result)` is not timed and returns None or the reason the job
failed (nonzero exit, changed output digest, or a broken oracle).
Import this module only after the checkout's `src` is on sys.path.
"""

import contextlib
import hashlib
import io
import json
import random

# library calls go through module attributes, so the tracer's wrappers apply
from stonework import cli, corpus, duality, spectra
from stonework.coverage import GrothendieckTopology
from stonework.order import Poset

import inputs


def run_cli(argv):
    """stonework.cli.main(argv) in this process, stdout captured to memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


class CliJob:
    def __init__(self, entry, workdir):
        self.id = entry["id"]
        self.digest = entry.get("digest")
        self.check = entry["check"]
        self.facts = {}
        self.argv = list(entry["argv"])
        if entry.get("input") is not None:
            obj, self.facts = inputs.generate(entry["input"])
            path = workdir / f"{self.id}.json"
            path.write_text(json.dumps(obj))
            self.argv = [str(path) if a == "{input}" else a for a in self.argv]

    def call(self):
        return run_cli(self.argv)

    def verify(self, result):
        code, out = result
        if code != 0:
            return f"exit {code}: {out[:200]}"
        if self.digest is not None and hashlib.sha256(out.encode()).hexdigest() != self.digest:
            return "output digest changed"
        return _oracle(self.check, self.facts, json.loads(out)["result"])


def _expect(what, got, want):
    return None if got == want else f"{what}: got {got}, expected {want}"


def _oracle(check, facts, res):
    kind = check[0]
    if kind in ("zmod", "ring"):
        k = len(set(inputs.prime_factors(check[1]))) if kind == "zmod" else facts["points"]
        return (_expect("points", len(res["spectrum"]["points"]), k)
                or _expect("opens (discrete)", len(res["spectrum"]["opens"]), 2 ** k)
                or _expect("lattice", len(res["lattice"]["elements"]), 2 ** k))
    if kind == "op-ideals":
        return _expect("points", len(res["space"]["points"]), inputs.divisor_count(check[1]) - 1)
    if kind == "frame":
        return _expect("frame", len(res["frame"]["elements"]), facts["down_sets"])
    if kind == "space":
        return (_expect("points", len(res["space"]["points"]), facts["points"])
                or _expect("ideals", res["ideals"], facts["down_sets"]))
    if kind == "filters":
        return _expect("filters", len(res["filters"]), facts["points"])
    raise ValueError(f"unknown check {kind!r}")


def expected_filters(p, J):
    """Filters of J_D are the up-sets up[d], d in D, where D holds the d
    whose sieve of strictly smaller elements does not cover d."""
    dset = [d for d in range(p.n) if p.dn[d] & ~(p.dn[d] & p.up[d]) not in J.sieves[d]]
    return sorted({p.up[d] for d in dset})


class SweepJob:
    """All topologies on a poset, the filter bijection for each, and the
    Alexandrov round trip."""

    def __init__(self, entry, rng):
        self.id = entry["id"]
        # new names, same element order: the order steers the search's cost
        n = len(entry["up"])
        labels = [f"e{t}" for t in rng.sample(range(100, 1000), n)]
        self.poset = Poset(n, entry["up"], labels=labels, _checked=True)

    def call(self):
        p = self.poset
        out = []
        for sieves in corpus.all_grothendieck_topologies(p):
            J = GrothendieckTopology(p, sieves, _checked=True)
            out.append((J, spectra.filter_bijection(J)[2]))
        return out, duality.check_duality("alexandrov", p)

    def verify(self, result):
        tops, report = result
        p = self.poset
        if len(tops) != 2 ** p.n:
            return f"{len(tops)} topologies, expected {2 ** p.n}"
        for J, filters in tops:
            if filters != expected_filters(p, J):
                return "filters differ from {up[d] : d in D}"
        return None if report["round_trip_ok"] else "alexandrov round trip failed"


class RandomSitesJob:
    """The filter bijection on a seeded batch of random_site(6, ...) sites."""

    def __init__(self, entry, rng):
        self.id = entry["id"]
        self.count = entry["count"]
        self.seed = rng.randrange(2 ** 32)

    def call(self):
        rng = random.Random(self.seed)
        out = []
        for _ in range(self.count):
            p, J = corpus.random_site(6, rng)
            out.append((p, J, spectra.filter_bijection(J)[2]))
        return out

    def verify(self, result):
        for p, J, filters in result:
            if filters != expected_filters(p, J):
                return "filters differ from {up[d] : d in D}"
        return None


def make_job(entry, workdir, rng):
    if "argv" in entry:
        return CliJob(entry, workdir)
    if "up" in entry:
        return SweepJob(entry, rng)
    return RandomSitesJob(entry, rng)
