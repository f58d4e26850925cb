"""The benchmark's tracer wraps library functions by name; every name it
looks up must still exist, or `bench/run.py --trace 1` breaks.  The
benchmark's files are read here, never written."""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from stonework import cli
from stonework.presentations import relation_models
from stonework.zariski import op_ideal_presentation, ring_zmod, zariski_presentation

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_targets_resolve():
    # loading the module also resolves its corpus.all_sieves lookup
    tracer = _bench_module("tracer")
    assert tracer.TARGETS
    for module, attr, *_ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"stonework.{module}"), attr)), (module, attr)
    assert callable(importlib.import_module("stonework.corpus").all_sieves)


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_streamed_relations():
    # the tracer reads len(args[0].relations) of a relation_models call;
    # the D presentations count their relations without holding them
    tracer = _bench_module("tracer")
    for n in (1, 6, 30):
        ring = ring_zmod(n)
        for pres, count in ((op_ideal_presentation(ring), n * (n + 1) + 2),
                            (zariski_presentation(ring), sum(map(len, zariski_presentation(ring).buckets())))):
            models = relation_models(pres)
            assert tracer._relation_counts((pres,), models) == {"relations": count, "models": len(models)}


def test_tracer_keys_the_zariski_site():
    # the tracer counts an ideal frame built twice in one job by its
    # site's key, and a ring's Zariski frame is an ideal frame too
    tracer = _bench_module("tracer").Tracer()
    site = ring_zmod(30).site
    fr = site.frame()
    assert [tracer._ideal_frame_counts((site.topology,), fr) for _ in range(2)] == \
        [{"elements": fr.n, "repeats": 0}, {"elements": fr.n, "repeats": 1}]


def test_boolean_ring_output_is_pinned(tmp_path, monkeypatch):
    # F2^7 from the benchmark's table generator: 128 classes of S(A), a
    # 128-element frame, the bytes recorded before its site became J_D
    monkeypatch.delenv("STONEWORK_GUARD", raising=False)
    path = tmp_path / "f2_7.json"
    path.write_text(json.dumps(_bench_module("inputs").generate(["ring", [2] * 7, 0])[0]))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["zariski", "--ring", str(path)]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "b70a96996d44325c7708a9ebf08cf9ab699126ea4f69fb84bb2158b0620c467b"


@pytest.mark.parametrize("workload, count",
                         [("zariski-rings", 73), ("point-spectra", 113), ("ideal-frames", 57)],
                         ids=["zariski-rings", "point-spectra", "ideal-frames"])
def test_every_workload_digest_holds(tmp_path, monkeypatch, workload, count):
    # every job of the workload in the benchmark's pool, and its largest
    # instance, prints the bytes whose sha256 the pool recorded
    monkeypatch.delenv("STONEWORK_GUARD", raising=False)
    inputs = _bench_module("inputs")
    work = json.loads((BENCH / "pool.json").read_text())["workloads"][workload]
    entries = {e["id"]: e for e in [e for slot in work["slots"] for e in slot["jobs"]] + work["largest"]}
    assert len(entries) == count
    for entry in entries.values():
        argv = list(entry["argv"])
        if entry["input"] is not None:
            path = tmp_path / f"{entry['id']}.json"
            path.write_text(json.dumps(inputs.generate(entry["input"])[0]))
            argv = [str(path) if a == "{input}" else a for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0, entry["id"]
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == entry["digest"], entry["id"]
