"""In-memory span recorder wrapped around the program's layer entry points.

The wrappers are installed from outside the program, at every name a
caller binds (``repro.eval.runner.simulate_fast`` as well as
``repro.sim.fast.simulate_fast``), so they see each call into a layer.
A span is ``[name, start, end, parent, run_id]`` on the shared
``perf_counter`` timebase; each thread keeps its own list and stack, so
a parent is always a span of the same thread.  Spans stay in memory
until :meth:`SpanRecorder.dump` writes them when the run ends.

A layer's self time is its span's duration minus the time its direct
children cover.
"""

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from types import SimpleNamespace
from typing import Dict, List

#: Functions wrapped at every module attribute bound to them.
FUNCTIONS = (
    ("workloads.get_trace", "repro.workloads.cache", "get_trace"),
    ("compiler.pi_words_for", "repro.eval.runner", "pi_words_for"),
    ("sections.get_section_map", "repro.sim.sections", "get_section_map"),
    ("sections.build_family", "repro.sim.sections", "build_family"),
    ("fast.simulate_fast", "repro.sim.fast", "simulate_fast"),
    ("batch.simulate_batch", "repro.sim.batch", "simulate_batch"),
    ("parallel.run_jobs", "repro.eval.parallel", "run_jobs"),
    ("parallel.execute_job", "repro.eval.parallel", "execute_job"),
)

#: Methods wrapped on their class.
METHODS = (
    ("telemetry.record", "repro.obs.telemetry", "RunLedger", "record"),
    ("telemetry.write_jsonl", "repro.obs.telemetry", "RunLedger", "write_jsonl"),
    ("cache.get", "repro.cache.store", "CacheStore", "get"),
    ("cache.put", "repro.cache.store", "CacheStore", "put"),
    ("serve.client_batch", "repro.serve.client", "ServeClient", "run_jobs"),
)

#: Every span name; each yields ``.calls``, ``.s`` and ``.self_s``.
SPAN_NAMES = tuple(n for n, *_ in FUNCTIONS) + ("reference",) + tuple(
    n for n, *_ in METHODS)

#: The twelve ``repro.eval`` drivers, spanned as ``eval.<driver>``.
DRIVERS = (
    "table1", "fig5", "fig6", "table2", "fig7", "fig8", "table3", "table4",
    "ablation_compiler", "ablation_progress", "ablation_apb", "ablation_undo",
)


class SpanRecorder:
    """Collects spans per thread; ``run_id`` tags every span opened."""

    def __init__(self):
        self.run_id = ""
        self._local = threading.local()
        self._threads: List[SimpleNamespace] = []
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = defaultdict(int)

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = SimpleNamespace(spans=[], stack=[])
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args)``, when
        given, is added to ``self.counts[name]`` on every call."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if count is not None:
                self.counts[name] += count(args)
            st = self._state()
            span = [name, clock(), 0.0, st.stack[-1] if st.stack else -1, self.run_id]
            st.stack.append(len(st.spans))
            st.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                st.stack.pop()

        return spanned

    def spans(self) -> List[list]:
        """Every span, with parents rebased to the flat list."""
        out = []
        for st in list(self._threads):
            base = len(out)
            for name, t0, t1, parent, run_id in list(st.spans):
                out.append([name, t0, t1, parent + base if parent >= 0 else -1, run_id])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def install(rec: SpanRecorder, drivers: bool = False) -> None:
    """Wrap the layer entry points (imports every module they live in)."""
    import importlib

    import repro.eval.parallel  # noqa: F401  (binds the engine entry points)
    import repro.serve  # noqa: F401
    if drivers:
        for d in DRIVERS:
            importlib.import_module(f"repro.eval.{d}")
    for name, modname, attr in FUNCTIONS:
        original = getattr(importlib.import_module(modname), attr)
        # run_jobs(jobs, settings, ...): count the jobs submitted.
        count = (lambda args: len(args[0])) if attr == "run_jobs" else None
        wrapped = rec.wrap(name, original, count)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
    for name, modname, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(modname), cls_name)
        setattr(cls, meth, rec.wrap(name, getattr(cls, meth)))

    # Reference runs: the simulator simulate_fast falls back to.
    fast = importlib.import_module("repro.sim.fast")
    base = fast.IntermittentSimulator

    class ReferenceRun(base):
        run = rec.wrap("reference", base.run)

    fast.IntermittentSimulator = ReferenceRun

    if drivers:
        for d in DRIVERS:
            mod = sys.modules[f"repro.eval.{d}"]
            mod.run = rec.wrap(f"eval.{d}", mod.run)


def aggregate(spans: List[list], t_lo: float, t_hi: float) -> Dict[str, Dict[str, float]]:
    """``{name: {calls, s, self_s}}`` over spans starting in ``[t_lo, t_hi]``.

    Self time is the duration minus the direct children's durations (a
    child never outlives its parent within one thread).
    """
    child_s = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if not (t_lo <= t0 <= t_hi):
            continue
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (t1 - t0) - child_s[i]
        # ``s`` counts only outermost calls of a name, so recursion or a
        # wrapper calling its own name is not double counted.
        if not _has_ancestor(spans, parent, name):
            agg["s"] += t1 - t0
    return out


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def counter_snapshot() -> dict:
    """The layers' public counters in this process, right now."""
    import repro.cache as artifact_cache
    from repro.sim import batch, fast, sections
    from repro.workloads import cache as trace_cache

    return {
        "sections": sections.cache_stats(),
        "dispatch": fast.dispatch_stats(),
        "batch": batch.batch_stats(),
        "cache": artifact_cache.stats(),
        "builds": trace_cache.cache_stats()["entries"],
    }


def counter_metrics(a: dict, b: dict) -> Dict[str, float]:
    """Per-layer counter metrics between snapshots ``a`` and ``b``.

    A counter reset in between (the eval CLI zeroes its counters when it
    starts) is harmless because ``a`` is taken where they are still zero.
    """
    def delta(group, key):
        return b[group][key] - a[group][key]

    fallback = delta("dispatch", "fallback")
    dispatches = delta("dispatch", "fast") + fallback
    batched = delta("batch", "rows_batched")
    rows = batched + delta("batch", "rows_fallback")
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    return {
        "workloads.builds": b["builds"],
        "sections.map_hits": delta("sections", "hits"),
        "sections.map_misses": delta("sections", "misses"),
        "sections.family_maps": delta("sections", "family_maps"),
        "sections.family_passes": delta("sections", "family_passes"),
        "sections.enum_s": delta("sections", "enum_seconds"),
        "fast.fallback_frac": fallback / dispatches if dispatches else 0.0,
        "reference.runs": fallback,
        "batch.rows": rows,
        "batch.rows_batched_frac": batched / rows if rows else 0.0,
        "batch.row_reruns": b["batch"]["reasons"].get("row_rerun", 0)
        - a["batch"]["reasons"].get("row_rerun", 0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
    }
