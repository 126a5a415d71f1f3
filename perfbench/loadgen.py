"""Load generator of ``serve-mixed``: primes a running sweep server, then
drives it with a closed loop of two client threads.

Usage: ``python perfbench/loadgen.py SPEC.json``.  The spec names the
server URL and pid, the seed, the server's spawn time (set-up is timed
from it) and the output paths.  Each client thread posts its planned
32-job batches one after another, waiting for the last event of a batch
before posting the next.  Every served result is digested, a held-out
sample is rerun through the verifying reference, and the server's CPU
time, peak RSS, ``/stats`` tier counters and ``/metrics`` per-tier
resolve histograms are read around the timed phase.
"""

import json
import os
import signal
import sys
import threading
import time
import urllib.request

import harness
import jobs as plans

#: Jobs per priming POST (the clients' batch size).
PRIME_BATCH = 32


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of process ``pid`` (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def post_batch(client, batch, settings, counts):
    """One client-observed batch: ``(results, ms)``, or ``(None, ms)``
    with the batch's jobs counted failed when the server refuses it,
    reports a job error or cannot be reached."""
    from repro.serve.client import ServeError

    counts["attempted"] += len(batch)
    t0 = time.perf_counter()
    try:
        results = client.run_jobs(batch, settings)
    except (ServeError, OSError) as exc:
        counts["failed"] += len(batch)
        counts["errors"].append(f"{type(exc).__name__}: {exc}")
        return None, 1000.0 * (time.perf_counter() - t0)
    return results, 1000.0 * (time.perf_counter() - t0)


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.read()


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from repro.eval.settings import EvalSettings
    from repro.serve import ServeClient

    seed, url, pid = spec["seed"], spec["url"], spec["server_pid"]
    settings = EvalSettings(seed=seed)
    counts = {"attempted": 0, "failed": 0, "errors": []}
    res = {"errors": counts["errors"]}
    rec = None
    if spec.get("traced"):
        import spans

        rec = spans.SpanRecorder()
        spans.install(rec)

    deadline = time.monotonic() + 60.0
    probe = ServeClient(url)
    while not probe.healthz():
        if time.monotonic() > deadline:
            raise RuntimeError(f"no sweep server at {url}")
        time.sleep(0.05)
    primed = plans.prime_jobs(seed, spec["smoke"])
    prime_results = []
    for i in range(0, len(primed), PRIME_BATCH):
        batch = primed[i:i + PRIME_BATCH]
        results, _ = post_batch(probe, batch, settings, counts)
        prime_results += results if results is not None else [None] * len(batch)
    res["setup_s"] = time.perf_counter() - spec["t_spawn"]

    plan = [plans.client_plan(seed, c, primed, spec["smoke"]) for c in range(2)]
    outputs = [[], []]
    lat = [[], []]
    counts_by = [{"attempted": 0, "failed": 0, "errors": []} for _ in range(2)]

    def client_loop(c: int) -> None:
        client = ServeClient(url)
        for batch in plan[c]:
            results, ms = post_batch(client, batch, settings, counts_by[c])
            lat[c].append(ms)
            outputs[c].append((batch, results))

    stats0 = json.loads(_get(url + "/stats"))
    metrics0 = _get(url + "/metrics").decode()
    if spec.get("traced"):
        os.kill(pid, signal.SIGUSR1)
    cpu0, t0 = proc_cpu_s(pid), time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t1 = time.perf_counter()
    cpu1 = proc_cpu_s(pid)
    if spec.get("traced"):
        os.kill(pid, signal.SIGUSR1)
    stats1 = json.loads(_get(url + "/stats"))
    metrics1 = _get(url + "/metrics").decode()
    res.update(wall_s=t1 - t0, cpu_s=cpu1 - cpu0, t_lo=t0, t_hi=t1,
               peak_rss_mb=proc_peak_rss_mb(pid))
    for c, tally in enumerate(counts_by):
        # A client thread that died early left batches unposted.
        missing = sum(len(b) for b in plan[c][len(outputs[c]):])
        counts["attempted"] += tally["attempted"] + missing
        counts["failed"] += tally["failed"] + missing
        counts["errors"] += tally["errors"]
        if missing:
            counts["errors"].append(f"client {c} stopped with {missing} jobs unposted")
    res["batches_ms"] = lat[0] + lat[1]
    res["runs"] = sum(len(b) for c in outputs for b, r in c if r is not None)
    tiers0, tiers1 = stats0["server"]["tiers"], stats1["server"]["tiers"]
    res["tiers"] = {k: tiers1[k] - tiers0.get(k, 0) for k in tiers1}
    hist0, hist1 = (harness.histogram_buckets(text, "repro_resolve_seconds", "tier")
                    for text in (metrics0, metrics1))
    res["resolve_ms"] = {}
    for tier, after in hist1.items():
        p50_s, n = harness.bucket_quantile(hist0.get(tier, {}), after, 0.5)
        res["resolve_ms"][tier] = [1000.0 * p50_s, n]
    if rec is not None:
        res["client_spans"] = spans.aggregate(rec.spans(), t0, t1)

    served = [(b, r) for c in outputs for b, r in c if r is not None]
    if not counts["failed"]:
        res["digest"] = harness.digest(
            None if r is None else harness.result_fields(r)
            for r in prime_results + [x for _, rs in served for x in rs]
        )
    pairs = [(job, 0, r) for b, rs in served for job, r in zip(b, rs) if r is not None]
    picked = harness.sample(pairs, harness.REFERENCE_SAMPLES, seed, "serve-mixed")
    counts["attempted"] += len(picked)
    bad = harness.reference_mismatches(picked, settings)
    counts["failed"] += len(bad)
    counts["errors"] += [f"reference mismatch: {m}" for m in bad]
    res["reference_checked"] = len(picked)
    res["attempted"], res["failed"] = counts["attempted"], counts["failed"]
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
