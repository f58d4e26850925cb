"""The benchmark's tracer wraps library functions by name; every name it
looks up must still exist, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    # loading the module also resolves its corpus.all_sieves lookup
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, *_ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"stonework.{module}"), attr)), (module, attr)
    assert callable(importlib.import_module("stonework.corpus").all_sieves)
