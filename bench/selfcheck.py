"""Self-check of the benchmark, on a tiny mix of each workload.

    python3 bench/selfcheck.py        (or: python3 -m pytest bench/selfcheck.py)

Checks that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted with its unit, that every job passes its
oracle and digest, that one seed gives the same jobs and digests twice,
and that the benchmark refuses to run without the program's sources.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_run"
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(root, *args):
    cmd = [sys.executable, *BENCH["command"][1:], *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def test_tiny_runs_emit_every_metric():
    for workload in WORKLOADS:
        for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == want, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_same_seed_same_jobs_and_digests():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import jobs

    pool = run.load_pool()
    SCRATCH.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        seen = []
        for _ in range(2):
            passes, largest, rng = run.plan(pool, workload, 1, 11, tiny=True)
            digests = []
            with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
                for entry in [e for p in passes for e in p] + largest:
                    job = jobs.make_job(entry, Path(tmp), rng)
                    result = job.call()
                    assert job.verify(result) is None, entry["id"]
                    if isinstance(job, jobs.CliJob):
                        digests.append(hashlib.sha256(result[1].encode()).hexdigest())
            seen.append(([[e["id"] for e in p] for p in passes], digests))
        assert seen[0] == seen[1], workload


def test_refuses_without_sources():
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(tmp, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
