"""One fresh process under test for ``eval-cold``.

Usage: ``python perfbench/child.py SPEC.json`` where the spec names the
workload, seed, mode (``rep`` = set up, run the timed phase and check
it; ``setup`` = set up only), whether to trace, the spawn time on the
``perf_counter`` timebase, and the output paths.  The result is written
as JSON to ``spec["out"]``; nothing but the exit status goes to the
caller otherwise.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu() -> float:
    t = resource.getrusage(resource.RUSAGE_SELF)
    return t.ru_utime + t.ru_stime


def _setup():
    """Imports, C kernel, every trace the workload uses and its PI words."""
    import harness
    from repro.eval.runner import pi_words_for
    from repro.workloads.cache import get_trace
    from repro.workloads.registry import mibench2_names

    harness.require_c_kernel()
    traces = [get_trace(n, size=s) for n in mibench2_names() for s in ("default", "small")]
    get_trace("ds")  # Table 4's mixed-volatility data-structure trace.
    for trace in traces:
        pi_words_for(trace)


def _eval_cold(spec, res):
    import harness
    import jobs as plans
    from repro.eval import __main__ as eval_cli
    from repro.eval.parallel import run_jobs
    from repro.eval.settings import EvalSettings
    from repro.obs import telemetry

    seed = spec["seed"]
    out = io.StringIO()
    before = _snapshot()
    c0, t0 = _cpu(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            eval_cli.main(["all", "--seed", str(seed), "--ledger", spec["ledger"]]
                          + (["--quick"] if spec["smoke"] else []))
    except Exception as exc:  # counted, reported, never raised out
        res["errors"].append(f"repro.eval all: {type(exc).__name__}: {exc}")
        rows = max(1, telemetry.LEDGER.total_rows())
        res["attempted"] += rows
        res["failed"] += rows
    t1 = time.perf_counter()
    res.update(wall_s=t1 - t0, cpu_s=_cpu() - c0, t_lo=t0, t_hi=t1)
    _layer_counters(res, before)
    if res["errors"]:
        return
    res["runs"] = telemetry.LEDGER.total_rows()
    res["attempted"] += res["runs"]
    # A batch is one job as the run ledger times it.
    res["batches_ms"] = [1000.0 * rec.wall_s for rec in telemetry.LEDGER.records]
    res["digest"] = harness.digest([harness.table_text(out.getvalue())])

    # Held-out check: Figure 5 sweep jobs rerun on the eval's warm state
    # and through the verifying reference.
    settings = EvalSettings(seed=seed)
    sample = harness.sample(plans.eval_reference_pool(), harness.REFERENCE_SAMPLES,
                            seed, "eval-cold")
    results = run_jobs(sample, settings)
    _reference(res, [(j, 0, r) for j, r in zip(sample, results)], settings)


def _reference(res, triples, settings):
    import harness

    checked = [t for t in triples if t[2] is not None]  # stalled rows are None
    res["attempted"] += len(checked)
    bad = harness.reference_mismatches(checked, settings)
    res["failed"] += len(bad)
    res["errors"] += [f"reference mismatch: {m}" for m in bad]
    res["reference_checked"] = len(checked)


#: The span recorder of a traced process (one per process).
_REC = None


def _snapshot():
    """Counter snapshot of a traced process (``None`` when untraced)."""
    if _REC is None:
        return None
    import spans

    return spans.counter_snapshot()


def _layer_counters(res, before):
    """Per-layer counters over a traced timed phase."""
    if _REC is None:
        return
    import spans

    res["counters"] = spans.counter_metrics(before, spans.counter_snapshot())
    res["counters"]["parallel.jobs"] = _REC.counts["parallel.run_jobs"]


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    global _REC
    res = {"attempted": 0, "failed": 0, "errors": []}
    rec = None
    if spec.get("traced"):
        import spans

        rec = _REC = spans.SpanRecorder()
        rec.run_id = f"{spec['rep']}/setup"
        spans.install(rec, drivers=True)
    _setup()
    res["setup_s"] = time.perf_counter() - spec["t_spawn"]
    if spec["mode"] == "rep":
        if rec is not None:
            rec.run_id = f"{spec['rep']}/timed"
        _eval_cold(spec, res)
        if rec is not None:
            all_spans = rec.spans()
            res["spans"] = spans.aggregate(all_spans, res["t_lo"], res["t_hi"])
            res["setup_spans"] = spans.aggregate(all_spans, 0.0, res["t_lo"])
            rec.dump(spec["spans"])
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    # Skip tearing down the eval's large heap (about a second per rep,
    # outside every timed phase): the result is written and nothing is
    # left running.
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv[1])
