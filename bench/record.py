"""Rebuild bench/pool.json: the benchmark's job pool, with output digests.

    python3 bench/record.py

Run from the root of a checkout whose code is the reference: every
candidate job runs once here, its oracle is checked, and its output
digest and time are recorded.  run.py later requires the same digest.
Slots group interchangeable jobs: the variants of one generated family,
or the candidates whose recorded time lies nearest a target, so every
pass of a run costs about the same whatever the seed picks.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
VARIANTS = 8  # jobs per slot, so at most 8 passes per run
BOOLEAN_VARIANTS = 25  # relabelled runs of point-spectra's largest instance

os.environ.pop("STONEWORK_GUARD", None)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import inputs  # noqa: E402
import jobs  # noqa: E402
from stonework.corpus import all_posets  # noqa: E402


def cli_entry(id_, argv, check, spec=None):
    return {"id": id_, "argv": argv, "check": check, "input": spec}


def measure(entry, workdir):
    """Run a candidate once; record its time and, for CLI jobs, its digest."""
    job = jobs.make_job(entry, workdir, random.Random(entry["id"]))
    t0 = time.perf_counter()
    result = job.call()
    entry["cost_s"] = round(time.perf_counter() - t0, 4)
    failure = job.verify(result)
    if failure:
        raise SystemExit(f"{entry['id']}: {failure}")
    if "argv" in entry:
        entry["digest"] = hashlib.sha256(result[1].encode()).hexdigest()
    print(f"  {entry['id']:<28} {entry['cost_s']:.3f} s", flush=True)
    return entry


def nearest(cands, targets, name):
    """One slot per target time: the VARIANTS unused candidates whose
    recorded time is nearest the target on a log scale."""
    slots, used = [], set()
    for t in targets:
        free = [c for c in cands if c["id"] not in used]
        pick = sorted(free, key=lambda c: abs(math.log(c["cost_s"] / t)))[:VARIANTS]
        used.update(c["id"] for c in pick)
        slots.append({"name": f"{name}~{t}s", "jobs": sorted(pick, key=lambda c: c["id"])})
    return slots


def family(name, make, workdir):
    """A slot of VARIANTS generated variants of one family."""
    return {"name": name, "jobs": [measure(make(v), workdir) for v in range(VARIANTS)]}


def zariski_rings(w):
    zmod = [measure(cli_entry(f"zmod-{n}", ["zariski", "--ring", f"zmod:{n}"], ["zmod", n]), w)
            for n in range(30, 120)]
    opid = [measure(cli_entry(f"op-ideals-{n}", ["zariski", "--ring", f"zmod:{n}", "--op-ideals"],
                              ["op-ideals", n]), w)
            for n in range(30, 91)]
    small = [[2, 3], [2, 2, 2], [3, 3], [2, 5], [2, 7], [2, 2, 3], [3, 5], [2, 3, 3], [2, 2, 5]]
    large = [[3, 7], [2, 11], [2, 2, 2, 3], [2, 13], [2, 2, 7], [2, 3, 5], [3, 11], [2, 17], [5, 7]]

    def ring(group, tag):
        def make(v):
            primes = group[v % len(group)]
            return cli_entry(f"ring-{tag}.v{v}", ["zariski", "--ring", "{input}"],
                             ["ring"], ["ring", primes, v])
        return make

    return {
        "slots": nearest(zmod, [0.1, 0.3, 0.6, 1.0], "zmod")
        + nearest(opid, [0.1, 0.35], "op-ideals")
        + [family("ring-small", ring(small, "small"), w),
           family("ring-large", ring(large, "large"), w),
           family("ring-f2xf2", ring([[2, 2]], "f2xf2"), w)],
        # one fixed input, run three times, each in a fresh interpreter
        "largest": [measure(cli_entry("zmod-120", ["zariski", "--ring", "zmod:120"], ["zmod", 120]), w)] * 3,
    }


def ideal_frames(w):
    def frame(kind, *params, coverage="trivial"):
        def make(v):
            return cli_entry(f"{kind}-{'-'.join(map(str, params))}.v{v}",
                             ["ideal-frame", "{input}", "--coverage", coverage],
                             ["frame"], [kind, *params, v])
        return make

    return {
        "slots": [
            family("antichain-8", frame("antichain", 8), w),
            family("antichain-9", frame("antichain", 9), w),
            family("sparse-12", frame("sparse", 12, 150, 190), w),
            family("sparse-13", frame("sparse", 13, 260, 320), w),
            family("sparse-14", frame("sparse", 14, 340, 400), w),
            family("dlat-12-14", frame("dlat", 12, 14, coverage="coherent"), w),
            family("dlat-15-16", frame("dlat", 15, 16, coverage="coherent"), w),
        ],
        "largest": [measure(cli_entry("antichain-10", ["ideal-frame", "{input}"], ["frame"],
                                      ["antichain", 10, "largest"]), w)],
    }


def point_spectra(w):
    def site(cmd, kind, *params, coverage="trivial"):
        def make(v):
            return cli_entry(f"{cmd}-{kind}-{'-'.join(map(str, params))}.v{v}",
                             [cmd, "--site", "{input}", "--coverage", coverage],
                             [cmd], [kind, *params, v])
        return make

    slots = []
    for cmd in ("space", "filters"):
        slots += [
            family(f"{cmd}-chain-16", site(cmd, "chain", 16), w),
            family(f"{cmd}-tree-15", site(cmd, "tree", 15, 120), w),
            family(f"{cmd}-dlat-12-16", site(cmd, "dlat", 12, 16, coverage="coherent"), w),
            family(f"{cmd}-covsite-14", site(cmd, "covsite", 14, 100), w),
            family(f"{cmd}-covsite-16", site(cmd, "covsite", 16, 100), w),
        ]
    slots.append(family("space-tree-16", site("space", "tree", 16, 120), w))
    boolean = site("space", "boolean", 4, coverage="coherent")
    return {"slots": slots, "largest": [measure(boolean(v), w) for v in range(BOOLEAN_VARIANTS)]}


def theorem_sweep(w):
    posets = []
    for i, p in enumerate(all_posets(5)):
        candidates = math.prod(2 ** (inputs.count_down_sets(list(p.up), p.dn[c]) - 1)
                               for c in range(p.n))
        posets.append({"id": f"poset5-{i}", "up": list(p.up), "candidates": candidates})
    posets.sort(key=lambda e: (e["candidates"], e["id"]))
    largest, timed = posets[-1], posets[:-3]
    for e in timed:
        measure(e, w)
    timed.sort(key=lambda e: e["cost_s"])
    per = 5
    slots = [{"name": f"posets5-{k}", "jobs": timed[k * per:(k + 1) * per]}
             for k in range(len(timed) // per)]
    slots.append(family("random-sites", lambda v: {"id": f"random-sites.v{v}", "count": 200}, w))
    return {"slots": slots, "largest": [measure(largest, w)]}


WORKLOADS = {
    "zariski-rings": zariski_rings,
    "ideal-frames": ideal_frames,
    "point-spectra": point_spectra,
    "theorem-sweep": theorem_sweep,
}


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    pool = {
        "recorded_with": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "probe": cli_entry("probe-chain-17", ["ideal-frame", "{input}"], ["frame"],
                           ["chain", 17, "probe"]),
        "workloads": {},
    }
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as tmp:
        for name, build in WORKLOADS.items():
            print(name, flush=True)
            pool["workloads"][name] = build(Path(tmp))
    (HERE / "pool.json").write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
