"""The repository benchmark: host time to reproduce the paper's figures.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload eval-cold --seed 1 --seconds 60 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``eval-cold``  — the full ``repro.eval all`` in a fresh process;
* ``serve-mixed`` — ``python -m repro.serve --jobs 1`` primed past its
  memory tier, then driven by two closed-loop clients.

Each rep runs in fresh processes from a temporary working directory,
with every ``REPRO_*`` knob scrubbed, serially.  Reps start while the
next one should still end within ``--seconds`` (at least one rep, two
when tracing), and every timing is taken over all the reps of the run.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced reps and prints the per-layer metrics.  The last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.

Outputs are checked three ways: every rep's output digest must agree,
must equal ``expected.json`` at the default seed, and a seeded held-out
sample of each rep's results must match the verifying reference
simulator field by field.  Failed or mismatching runs are counted, not
raised.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import fmean

import harness
import spans

WORKLOADS = ("eval-cold", "serve-mixed")

#: Set-up samples per ``eval-cold`` run: time left after the reps goes
#: to set-up-only processes until there are this many.
SETUP_SAMPLES = 7
#: Per-process time limit, seconds.
CHILD_TIMEOUT = 150

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("runs_per_s", "runs/s"),
    ("peak_rss_mb", "MB"), ("batch_p50_ms", "ms"), ("batch_p90_ms", "ms"),
)

#: Per-layer counters and derived values beyond each span's
#: ``.calls``/``.s``/``.self_s`` and the drivers' ``eval.<driver>.s``.
LAYER_EXTRA = (
    ("workloads.builds", "count"), ("workloads.setup_s", "s"),
    ("compiler.setup_s", "s"),
    ("sections.map_hits", "count"), ("sections.map_misses", "count"),
    ("sections.family_maps", "count"), ("sections.family_passes", "count"),
    ("sections.enum_s", "s"), ("fast.fallback_frac", "ratio"),
    ("reference.runs", "count"), ("batch.rows", "count"),
    ("batch.rows_batched_frac", "ratio"), ("batch.row_reruns", "count"),
    ("parallel.jobs", "count"), ("cache.hits", "count"),
    ("cache.misses", "count"), ("cache.hit_frac", "ratio"),
    ("serve.tier.memory", "count"), ("serve.tier.coalesced", "count"),
    ("serve.tier.disk", "count"), ("serve.tier.computed", "count"),
    ("serve.dedupe_frac", "ratio"),
    ("serve.resolve_p50_ms.memory", "ms"), ("serve.resolve_p50_ms.coalesced", "ms"),
    ("serve.resolve_p50_ms.disk", "ms"), ("serve.resolve_p50_ms.computed", "ms"),
    ("serve.resolve_samples", "count"), ("batch.latency_samples", "count"),
    ("traced.wall_s", "s"), ("unattributed.s", "s"), ("tracing.overhead_s", "s"),
    ("failed_frac", "ratio"),
)


def per_layer_units():
    """``[(name, unit)]`` of every per-layer metric, in report order."""
    out = []
    for name in spans.SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
    out += [(f"eval.{d}.s", "s") for d in spans.DRIVERS]
    return out + list(LAYER_EXTRA)


class Bench:
    """One benchmark invocation: its scratch space, processes and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.smoke = smoke
        self.tmp = os.path.join(harness.build_dir(), "tmp", f"{workload}-{os.getpid()}")
        self.env, self.scrubbed = harness.scrubbed_env()
        self.attempted = self.failed = 0
        self.errors = []
        self.seq = 0

    def fresh_dir(self) -> str:
        self.seq += 1
        d = os.path.join(self.tmp, f"cwd{self.seq}")
        os.makedirs(d)
        return d

    def note_failure(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(what)

    # -- processes ---------------------------------------------------- #

    def run_py(self, script: str, spec: dict):
        """Run ``perfbench/<script> SPEC`` in a fresh working directory;
        return its JSON result, or ``None`` after counting the failure."""
        cwd = self.fresh_dir()
        spec_path = os.path.join(cwd, "spec.json")
        spec = dict(spec, smoke=self.smoke, out=os.path.join(cwd, "result.json"),
                    ledger=os.path.join(cwd, "run_ledger.jsonl"))
        spec.setdefault("t_spawn", time.perf_counter())
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with open(os.path.join(cwd, "stderr.txt"), "w") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(harness.BENCH_DIR, script), spec_path],
                    cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
                    stderr=err, timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.note_failure(f"{script} timed out after {CHILD_TIMEOUT}s")
                return None
        if proc.returncode != 0:
            with open(os.path.join(cwd, "stderr.txt")) as err:
                tail = err.read()[-2000:]
            self.note_failure(f"{script} exited {proc.returncode}: {tail}")
            return None
        with open(spec["out"], encoding="utf-8") as fh:
            return json.load(fh)

    def prebuild(self) -> str:
        """Build the C kernel once into the benchmark-owned cache."""
        os.makedirs(harness.cext_cache_dir(), exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-c", "import harness; print(harness.require_c_kernel())"],
            cwd=self.tmp, env=self.env, capture_output=True, text=True,
            timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: C kernel unavailable:\n{proc.stderr}")
        return proc.stdout.strip()

    def spans_path(self, rep: int, suffix: str) -> str:
        os.makedirs(harness.spans_dir(), exist_ok=True)
        return os.path.join(harness.spans_dir(),
                            f"{self.workload}-seed{self.seed}-rep{rep}{suffix}")

    def child_rep(self, rep: int, traced: bool):
        return self.run_py("child.py", {"workload": self.workload, "seed": self.seed,
                                        "mode": "rep", "traced": traced, "rep": rep,
                                        "spans": self.spans_path(rep, ".jsonl")})

    def setup_only(self):
        return self.run_py("child.py", {"workload": self.workload, "seed": self.seed,
                                        "mode": "setup", "traced": False, "rep": -1})

    def serve_rep(self, rep: int, traced: bool):
        """Start a server with a fresh disk tier, prime and drive it, stop it."""
        cwd = self.fresh_dir()
        env, _ = harness.scrubbed_env({"REPRO_CACHE_DIR": os.path.join(cwd, "cache")})
        host_out = self.spans_path(rep, ".server.json")
        if os.path.exists(host_out):
            os.remove(host_out)
        if traced:
            cmd = [sys.executable, os.path.join(harness.BENCH_DIR, "serve_host.py"),
                   host_out, "--"]
        else:
            cmd = [sys.executable, "-m", "repro.serve"]
        cmd += ["--jobs", "1", "--port", "0"]
        log_path = os.path.join(cwd, "server.log")
        t_spawn = time.perf_counter()
        with open(log_path, "w") as log:
            server = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log,
                                      stderr=subprocess.STDOUT)
        try:
            url = self._await_url(server, log_path)
            if url is None:
                self.note_failure("sweep server did not start")
                return None
            spec = {"seed": self.seed, "url": url, "server_pid": server.pid,
                    "traced": traced, "t_spawn": t_spawn}
            res = self.run_py("loadgen.py", spec)
        finally:
            if server.poll() is None:
                server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        if res is not None and traced:
            if not os.path.exists(host_out):
                self.note_failure("traced sweep server wrote no spans")
                return None
            with open(host_out, encoding="utf-8") as fh:
                res["server"] = json.load(fh)
        return res

    @staticmethod
    def _await_url(server, log_path: str):
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and server.poll() is None:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    if line.startswith("serving on "):
                        return line.split()[-1]
            time.sleep(0.02)
        return None

    # -- the run ------------------------------------------------------ #

    def rep(self, rep: int, traced: bool):
        if self.workload == "serve-mixed":
            return self.serve_rep(rep, traced)
        return self.child_rep(rep, traced)

    def run(self):
        """Reps while the next should end within ``seconds``; returns
        (untraced, traced, setups)."""
        untraced, traced, setups = [], [], []
        start = time.perf_counter()

        def fits(longest: float) -> bool:
            return time.perf_counter() - start + longest <= self.seconds

        rep, longest = 0, 0.0
        while True:
            want_traced = self.trace and rep % 2 == 1
            t0 = time.perf_counter()
            res = self.rep(rep, want_traced)
            longest = max(longest, time.perf_counter() - t0)
            rep += 1
            if res is not None:
                (traced if want_traced else untraced).append(res)
                if not want_traced:
                    setups.append(res["setup_s"])
            if not fits(longest) and (not self.trace or rep >= 2):
                break
        if self.workload == "eval-cold" and not self.smoke:
            longest = 0.0
            while len(setups) < SETUP_SAMPLES and fits(longest):
                t0 = time.perf_counter()
                res = self.setup_only()
                longest = max(longest, time.perf_counter() - t0)
                if res is None:
                    break
                setups.append(res["setup_s"])
        return untraced, traced, setups

    def check(self, reps) -> bool:
        """Tally every rep and check that their digests agree with each
        other and, at the default seed, with ``expected.json``."""
        expected = harness.load_expected().get(self.workload) \
            if self.seed == harness.DEFAULT_SEED and not self.smoke else None
        digests = set()
        for res in reps:
            self.attempted += res["attempted"]
            self.failed += res["failed"]
            self.errors += res["errors"]
            if res.get("digest") is not None:
                digests.add(res["digest"])
        self.digests = sorted(digests)
        ok = len(digests) == 1 and (expected is None or digests == {expected})
        if not ok and reps:
            self.note_failure(f"output digests {self.digests} (expected {expected})")
        return ok


def end_to_end(reps, setups) -> dict:
    """The end-to-end metrics over untraced reps, and the batch latency
    sample count.

    ``wall_s`` and ``cpu_s`` are means over the reps and the percentiles
    are taken over the batches of all reps: on a shared host the speed
    drifts over tens of seconds, which only the whole run averages out.
    Set-up time and peak RSS are medians.
    """
    walls = [r["wall_s"] for r in reps]
    lat = [ms for r in reps for ms in r["batches_ms"]]
    return {
        "setup_s": harness.median(setups),
        "wall_s": fmean(walls),
        "cpu_s": fmean(r["cpu_s"] for r in reps),
        "runs_per_s": sum(r["runs"] for r in reps) / sum(walls),
        "peak_rss_mb": harness.median([r["peak_rss_mb"] for r in reps]),
        "batch_p50_ms": harness.percentile(lat, 50),
        "batch_p90_ms": harness.percentile(lat, 90),
    }, len(lat)


def _server_layers(res) -> dict:
    """Per-layer inputs of a traced ``serve-mixed`` rep, from the server's
    spans and counter snapshots and the load generator's client spans."""
    srv = res["server"]
    t_lo, t_hi = res["t_lo"], res["t_hi"]
    out = {"spans": spans.aggregate(srv["spans"], t_lo, t_hi)}
    out["spans"].update(res.get("client_spans", {}))
    out["setup_spans"] = spans.aggregate(srv["spans"], 0.0, t_lo)
    # Self-time attribution covers the server's bridge thread only: the
    # client spans of two threads overlap in wall time.
    out["attributed"] = sum(
        v["self_s"] for k, v in out["spans"].items() if k != "serve.client_batch")
    tiers = res["tiers"]
    jobs = sum(tiers.values())
    resolve = res["resolve_ms"]
    out["counters"] = spans.counter_metrics(srv["snapshots"][0], srv["snapshots"][-1])
    out["counters"].update({
        "parallel.jobs": srv["counts"].get("parallel.run_jobs", 0),
        "serve.dedupe_frac": (jobs - tiers.get("computed", 0)) / jobs if jobs else 0.0,
        "serve.resolve_samples": sum(n for _, n in resolve.values()),
    })
    for tier in ("memory", "coalesced", "disk", "computed"):
        out["counters"][f"serve.tier.{tier}"] = tiers.get(tier, 0)
        out["counters"][f"serve.resolve_p50_ms.{tier}"] = resolve.get(tier, [0.0, 0])[0]
    return out


def per_layer(traced, untraced) -> dict:
    """Median over traced reps of every per-layer metric."""
    rows = []
    for res in traced:
        layers = _server_layers(res) if "server" in res else {
            "spans": res["spans"], "setup_spans": res["setup_spans"],
            "counters": res["counters"],
            "attributed": sum(v["self_s"] for v in res["spans"].values())}
        row = {name: 0.0 for name, _ in per_layer_units()}
        for name, agg in layers["spans"].items():
            if name.startswith("eval."):
                row[f"{name}.s"] = agg["s"]
            else:
                for k in ("calls", "s", "self_s"):
                    row[f"{name}.{k}"] = agg[k]
        row.update(layers["counters"])
        setup = layers["setup_spans"]
        row["workloads.setup_s"] = setup.get("workloads.get_trace", {}).get("s", 0.0)
        row["compiler.setup_s"] = setup.get("compiler.pi_words_for", {}).get("s", 0.0)
        row["batch.latency_samples"] = len(res["batches_ms"])
        row["traced.wall_s"] = res["wall_s"]
        row["unattributed.s"] = res["wall_s"] - layers["attributed"]
        row["tracing.overhead_s"] = res["wall_s"] - fmean(r["wall_s"] for r in untraced)
        rows.append(row)
    return {name: harness.median([r[name] for r in rows]) for name in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"perfbench: no program to measure: {harness.SRC}/repro is missing",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    os.makedirs(bench.tmp)
    try:
        status = bench.prebuild()
        import numpy  # noqa: F401  (version recorded; the program needs it)

        print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print(f"# host: nproc={os.cpu_count()} python={platform.python_version()} "
              f"numpy={numpy.__version__} cext={status.split(' ')[0]} "
              f"scrubbed={','.join(bench.scrubbed) or 'none'}")
        untraced, traced, setups = bench.run()
        correct = bench.check(untraced + traced)
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    attempted = max(1, bench.attempted)
    checks = sum(r.get("reference_checked", 0) for r in untraced + traced)
    print(f"# reps={len(untraced)}+{len(traced)} traced, setup samples={len(setups)}, "
          f"reference checks={checks}, digest={','.join(bench.digests) or 'none'}")
    print("# rep  traced  wall_s  cpu_s  batch_p50_ms  batch_p90_ms")
    for i, r in enumerate(untraced + traced):
        if "runs" in r:
            print(f"# {i:3d}  {int(i >= len(untraced)):6d}  {r['wall_s']:.3f}  {r['cpu_s']:.3f}  "
                  f"{harness.percentile(r['batches_ms'], 50):.4f}  "
                  f"{harness.percentile(r['batches_ms'], 90):.4f}")
    print(f"# failed_frac={bench.failed / attempted:.6f} "
          f"(base: {attempted} attempted runs)")
    for err in bench.errors[:20]:
        print(f"# error: {err}")
    metrics = {}
    # Metrics come from reps whose timed phase ran to the end; a rep whose
    # outputs failed a check still reports its timings (``correct`` is
    # false and the failures are counted either way).
    untraced = [r for r in untraced if "runs" in r]
    traced = [r for r in traced if "runs" in r]
    if untraced and setups:
        values, n_lat = end_to_end(untraced, setups)
        for name, unit in END_TO_END:
            if not args.trace:
                metrics[name] = {"value": values[name], "unit": unit}
            n = f" (n={n_lat})" if name.startswith("batch_p") else ""
            print(f"{name:<14} {values[name]:12.4f} {unit}{n}")
    if args.trace and traced and untraced:
        for r in traced:
            if "resolve_ms" in r:
                print("# resolve p50 samples by tier: " + " ".join(
                    f"{tier}={n}" for tier, (_, n) in sorted(r["resolve_ms"].items())))
        values = per_layer(traced, untraced)
        values["failed_frac"] = bench.failed / attempted
        for name, unit in per_layer_units():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<36} {values[name]:14.6f} {unit}")
    correct = correct and bench.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
