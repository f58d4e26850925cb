"""Outside-in tracer for stonework.

While installed, it replaces every binding of selected public functions
across the loaded `stonework.*` modules (including copies made by
`from .x import f`) and `FiniteFrame.__init__`.  Layer-boundary calls
become spans (name, start, end, parent, job) kept in memory; the hot
kernels, called up to millions of times per job, only add to a counter
and a cumulative time.  Self time is a call's duration minus the time of
the traced calls inside it.
"""

import math
import sys
import time
from collections import defaultdict

from stonework import corpus, order

HOT = "hot"
SPAN = "span"


def _frame_cells(args, fr):
    return {"cells": fr.n * fr.n}


def _emit_bytes(args, text):
    return {"bytes": len(text)}


def _relation_counts(args, models):
    return {"relations": len(args[0].relations), "models": len(models)}


def _filter_counts(args, filters):
    J = args[1] if len(args) > 1 and args[1] is not None else args[0]
    return {"masks_tested": 2 ** J.base.n, "filters": len(filters)}


_all_sieves = corpus.all_sieves


def _topology_counts(args, tops):
    p = args[0]
    return {
        "candidates": math.prod(2 ** (len(_all_sieves(p, c)) - 1) for c in range(p.n)),
        "topologies": len(tops),
    }


# (module, attribute, layer metric name, kind, counts from (args, result))
TARGETS = [
    ("presentations", "relation_models", "presentations.relation_models", SPAN, _relation_counts),
    ("presentations", "present_semantic", "presentations.present_semantic", SPAN, None),
    ("presentations", "present_coherent", "presentations.present_coherent", SPAN, None),
    ("zariski", "s_monoid", "zariski.s_monoid", SPAN, None),
    ("zariski", "zariski_ideal_frame", "zariski.zariski_ideal_frame", SPAN, None),
    ("zariski", "zariski_closure", "zariski.zariski_closure", HOT, None),
    ("zariski", "ideal_generated", "zariski.ideal_generated", HOT, None),
    ("zariski", "all_ideals", "zariski.all_ideals", SPAN, None),
    ("zariski", "spectra_homeomorphism", "zariski.spectra_homeomorphism", SPAN, None),
    ("zariski", "zariski_lattice", "zariski.zariski_lattice", SPAN, None),
    ("order", "frame_of_down_sets", "order.frame_of_down_sets", SPAN, _frame_cells),
    ("order", "iso_search", "order.iso_search", SPAN, None),
    ("formats", "dumps", "formats.emit", SPAN, _emit_bytes),
    ("formats", "frame_to_json", "formats.emit", SPAN, None),
    ("formats", "space_to_json", "formats.emit", SPAN, None),
    ("formats", "poset_to_json", "formats.emit", SPAN, None),
    ("formats", "poset_from_json", "formats.load", SPAN, None),
    ("formats", "coverage_from_json", "formats.load", SPAN, None),
    ("formats", "ring_from_json", "formats.load", SPAN, None),
    ("coverage", "coverage_closure", "coverage.closure", HOT, None),
    ("coverage", "j_closure", "coverage.closure", HOT, None),
    ("coverage", "ideal_frame", "coverage.ideal_frame", SPAN, None),
    ("coverage", "saturate", "coverage.saturate", SPAN, None),
    ("spectra", "j_prime_filters", "spectra.j_prime_filters", SPAN, _filter_counts),
    ("spectra", "subterminal_space", "spectra.subterminal_space", SPAN, None),
    ("spectra", "space_from_subbasis", "spectra.space_from_subbasis", SPAN, None),
    ("spectra", "enough_points", "spectra.enough_points", SPAN, None),
    ("spectra", "filter_bijection", "spectra.filter_bijection", SPAN, None),
    ("corpus", "all_grothendieck_topologies", "corpus.all_grothendieck_topologies", SPAN, _topology_counts),
    ("duality", "check_duality", "duality.check_duality", SPAN, None),
] + [
    ("cli", f"cmd_{cmd.replace('-', '_')}", f"cli.{cmd}", SPAN, None)
    for cmd in ("ideal-frame", "space", "filters", "zariski")
]

# layers a per-layer metric may name; its last part is a field of the layer
LAYERS = {name for _, _, name, _, _ in TARGETS} | {"order.FiniteFrame.init"}
# ratio metrics: (numerator, denominator), taken over the run's totals
RATIOS = {
    "coverage.ideal_frame.repeat_ratio": ("coverage.ideal_frame.repeats", "coverage.ideal_frame.calls"),
    "spectra.j_prime_filters.yield": ("spectra.j_prime_filters.filters", "spectra.j_prime_filters.masks_tested"),
    "corpus.all_grothendieck_topologies.yield": (
        "corpus.all_grothendieck_topologies.topologies", "corpus.all_grothendieck_topologies.candidates"),
}
OVERHEAD = "trace.overhead_s"


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)
        self.spans = []      # (name, start, end, parent span id or -1, job)
        self.job = 0
        self._stack = []     # per open traced call: [time of traced calls inside, span id]
        self._framed = set()  # sites whose ideal frame was built in this job
        self._framed_job = None
        self._patches = []

    def start_job(self):
        self.job += 1

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, kind, counts):
        stack, totals, spans, now = self._stack, self.totals, self.spans, time.perf_counter
        is_span = kind == SPAN

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            span_id = len(spans) if is_span else parent
            if is_span:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                totals[name + ".calls"] += 1
                totals[name + ".self_s"] += (t1 - t0) - frame[0]
                if is_span:
                    spans[span_id] = (name, t0, t1, parent, self.job)
            if counts is not None:
                for key, value in counts(args, result).items():
                    totals[f"{name}.{key}"] += value
            return result

        return traced

    def _ideal_frame_counts(self, args, fr):
        """Frame size, and whether this job already framed the same site."""
        if self._framed_job != self.job:
            self._framed, self._framed_job = set(), self.job
        key = args[0].key()
        repeat = key in self._framed
        self._framed.add(key)
        return {"elements": fr.n, "repeats": int(repeat)}

    # -- install / uninstall ---------------------------------------------

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "stonework" or name.startswith("stonework."))]
        for modname, attr, name, kind, counts in TARGETS:
            original = getattr(sys.modules["stonework." + modname], attr)
            if name == "coverage.ideal_frame":
                counts = self._ideal_frame_counts
            wrapper = self._wrap(original, name, kind, counts)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        init = order.FiniteFrame.__init__
        self._patches.append((order.FiniteFrame, "__init__", init))
        order.FiniteFrame.__init__ = self._wrap(init, "order.FiniteFrame.init", SPAN, None)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------

    def metrics(self, declared, passes, overhead_s):
        """{name: {value, unit}} for each declared per-layer metric:
        totals per traced pass, ratios over the totals, and the overhead."""
        t, out = self.totals, {}
        for m in declared:
            name = m["name"]
            if name == OVERHEAD:
                value = overhead_s
            elif name in RATIOS:
                num, den = RATIOS[name]
                value = _ratio(t[num], t[den])
            elif name.rsplit(".", 1)[0] in LAYERS:
                value = t[name] / passes
            else:
                raise KeyError(f"no traced layer for metric {name!r}")
            out[name] = {"value": value, "unit": m["unit"]}
        return out

    def span_records(self):
        return [s for s in self.spans if s is not None]


def _ratio(a, b):
    return a / b if b else 0.0
