"""The stonework benchmark: verified CLI and library jobs, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One single-threaded process runs the
workload in a closed loop: the next job starts when the previous one has
ended.  A job is one `stonework.cli.main(argv)` call, in-process with
stdout captured to memory, or one library call.  Jobs come from
pool.json, which holds the inputs' specs and the output digests recorded
by record.py.

A workload is a list of slots; a pass runs one job of each slot.  The
timed job list is P passes, where P is S divided by the recorded time of
a pass, so the list takes about S seconds at the recorded commit and is
the same work on every commit.  The seed picks which variant of each slot
each pass runs, and in what order, so no input repeats within a run.
The workload's largest instances run between passes, spread over the
run, each in a fresh interpreter: nothing left in this process, by the
passes or by an earlier run of the same input, can serve them.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 every second pass is traced and the last line reports the
per-layer metrics.  Both lists, with their units, come from
BENCHMARK.json.  --tiny runs two small passes, for the self-check.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPS = 15
TINY_SLOTS = 2


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pool():
    return json.loads((HERE / "pool.json").read_text())


def plan(pool, workload, seconds, seed, tiny=False):
    """(passes, largest, rng): the passes are shuffled lists of pool
    entries, one per slot, no entry used twice; the rng later names
    library inputs."""
    slots = pool["workloads"][workload]["slots"]
    largest = pool["workloads"][workload]["largest"]
    rng = random.Random(f"{workload}:{seed}")
    if tiny:
        slots = sorted(slots, key=lambda s: min(e["cost_s"] for e in s["jobs"]))[:TINY_SLOTS]
    orders = [rng.sample(s["jobs"], len(s["jobs"])) for s in slots]
    pass_cost = sum(statistics.mean(e["cost_s"] for e in s["jobs"]) for s in slots)
    count = min(min(len(o) for o in orders), max(2, round(seconds / pass_cost)))
    if tiny:
        largest, count = [orders[0][-1]], 2
    passes = []
    for k in range(count):
        entries = [o[k] for o in orders]
        rng.shuffle(entries)
        passes.append(entries)
    return passes, largest, rng


def timed(job):
    """(seconds, failure or None) of one job; only `call` is timed."""
    t0 = time.perf_counter()
    try:
        result = job.call()
    except Exception as exc:  # a job that raises counts as failed
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    try:
        return seconds, job.verify(result)
    except (KeyError, TypeError, ValueError) as exc:
        return seconds, f"unreadable output: {type(exc).__name__}: {exc}"


def timed_fresh(entry, workdir, seed):
    """(seconds, failure or None) of one job run in a fresh interpreter;
    the seconds are timed inside it, around `call` only."""
    code = ("import json, pathlib, random, sys, jobs, run; "
            "entry, workdir, seed = json.load(sys.stdin); "
            "job = jobs.make_job(entry, pathlib.Path(workdir), random.Random(seed)); "
            "print(json.dumps(run.timed(job)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps([entry, str(workdir), seed]),
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return time.perf_counter() - t0, f"exit {proc.returncode}: {proc.stderr[-200:]}"
    seconds, failure = json.loads(proc.stdout.splitlines()[-1])
    return seconds, failure


def run(passes, largest, workdir, tracer, log):
    """Every pass in a closed loop, with the largest instances, pairs of
    (pool entry, seed), spread between them.  With a tracer, odd passes
    are traced.  Returns ([(traced, [job seconds])], [largest seconds])."""
    done, largest_times = [], []
    after = [max(0, (i + 1) * len(passes) // len(largest) - 1) for i in range(len(largest))]
    for k, jobs in enumerate(passes):
        traced = tracer is not None and k % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            times = []
            for job in jobs:
                if traced:
                    tracer.start_job()
                secs, failure = timed(job)
                times.append(secs)
                log(job.id, failure)
        finally:
            if traced:
                tracer.uninstall()
        done.append((traced, times))
        for (entry, seed), k_after in zip(largest, after):
            if k_after == k:
                secs, failure = timed_fresh(entry, workdir, seed)
                largest_times.append(secs)
                log(entry["id"], failure)
    return done, largest_times


def measure_setup():
    """Median seconds from spawning a fresh interpreter to the return of
    `import stonework.cli` in it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, stonework.cli; print(time.monotonic())"
    samples = []
    for i in range(SETUP_REPS + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first spawn only warms the file cache
            samples.append(float(proc.stdout) - t0)
    return statistics.median(samples)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small mix for the self-check")
    args = ap.parse_args(argv)

    if not (SRC / "stonework" / "cli.py").is_file():
        print(f"no stonework sources under {SRC}", file=sys.stderr)
        return 2
    bench, pool = load_bench(), load_pool()
    if args.workload not in pool["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # the frame guard is reported in every CLI envelope, so it must not
    # come from the caller's environment
    os.environ.pop("STONEWORK_GUARD", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import jobs
    import tracer as tracing

    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        passes, largest, rng = plan(pool, args.workload, args.seconds, args.seed, args.tiny)
        workdir = Path(tmp)
        passes = [[jobs.make_job(e, workdir, rng) for e in entries] for entries in passes]
        largest = [(e, rng.randrange(2 ** 32)) for e in largest]
        probe = jobs.make_job(pool["probe"], workdir, rng)

        failures = []

        def log(job_id, failure):
            if failure:
                failures.append((job_id, failure))
                print(f"FAILED {job_id}: {failure}")

        tracer = tracing.Tracer() if args.trace else None
        setup_s = measure_setup() if not args.trace else None
        done, largest_times = run(passes, [] if args.trace else largest, workdir, tracer, log)
        attempted = sum(len(times) for _, times in done) + len(largest_times)
        _, probe_failure = timed(probe)

    untraced = [times for traced, times in done if not traced]
    job_times = [s for times in untraced for s in times]
    timed_failed = len(failures)
    print(f"workload {args.workload} seed {args.seed}: {len(done)} passes of "
          f"{len(passes[0])} jobs, {attempted} jobs attempted")
    print(f"probe {pool['probe']['id']}: {' '.join((probe_failure or 'ok').split())}")
    print(f"failed_ratio {(timed_failed + bool(probe_failure)) / (attempted + 1):.4f} ratio "
          f"({timed_failed} timed jobs and {int(bool(probe_failure))} probe failed)")

    if args.trace:
        traced = [sum(times) for t, times in done if t]
        overhead = statistics.mean(traced) - statistics.mean(sum(t) for t in untraced)
        metrics = tracer.metrics(bench["per_layer"], len(traced), overhead)
        (RUN_DIR / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.span_records()))
        print(f"  trace.overhead_s {overhead:.4f} s/pass  traced minus untraced, "
              f"{len(traced)} traced passes")
    else:
        values = {
            "setup_s": setup_s,
            "run_s": sum(job_times),
            "job_s.p50": statistics.median(job_times),
            "largest_job_s": statistics.median(largest_times),
            "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in
                               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        notes = {"setup_s": f"median of {SETUP_REPS} fresh interpreters",
                 "run_s": f"{len(done)} passes",
                 "job_s.p50": f"{len(job_times)} jobs",
                 "largest_job_s": f"{largest[0][0]['id']}, median of {len(largest)}"}
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:.4f} {m['unit']}  {notes.get(name, '')}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": timed_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
