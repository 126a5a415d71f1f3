"""Shared helpers of the benchmark: paths, environment, statistics,
output digests and the verifying-reference cross-check.

Everything here runs either in the orchestrator (``run.py``, which never
imports ``repro``) or inside a process under test (``child.py``,
``loadgen.py``, ``serve_host.py``), so ``repro`` is imported lazily.
"""

import hashlib
import json
import os
import random
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Seed whose output digests are recorded in ``expected.json``.
DEFAULT_SEED = 1

#: Held-out jobs (or batch rows) per rep rerun through the verifying
#: reference simulator.
REFERENCE_SAMPLES = 4


def build_dir() -> str:
    """Benchmark-owned build/scratch directory inside the checkout."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def cext_cache_dir() -> str:
    return os.path.join(build_dir(), "cext")


def spans_dir() -> str:
    """Where traced runs leave their spans for inspection."""
    return os.path.join(build_dir(), "spans")


def scrubbed_env(extra: Optional[Dict[str, str]] = None) -> Tuple[Dict[str, str], List[str]]:
    """The environment of every process under test.

    Every ``REPRO_*`` knob is removed, so the program runs its defaults;
    the C kernel comes from the benchmark-owned prebuilt cache; numeric
    libraries get one thread each.  Returns ``(env, scrubbed_names)``.
    """
    env = dict(os.environ)
    scrubbed = sorted(k for k in env if k.startswith("REPRO_"))
    for k in scrubbed:
        del env[k]
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH_DIR
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = "1"
    env["REPRO_CEXT_CACHE"] = cext_cache_dir()
    env.update(extra or {})
    return env, scrubbed


def require_c_kernel() -> str:
    """Load the C kernel; raise unless this process is on the C path."""
    from repro.core import cext

    cext.chain_scan_lib()
    status = cext.cext_status()
    if not status.startswith("loaded"):
        raise RuntimeError(f"C kernel not loaded: {status}")
    return status


# -- statistics ------------------------------------------------------- #

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 < q < 100)."""
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def histogram_buckets(text: str, name: str, label: str) -> Dict[str, Dict[float, float]]:
    """Cumulative buckets ``{label value: {upper bound: count}}`` of
    histogram ``name`` in a Prometheus text exposition."""
    out: Dict[str, Dict[float, float]] = {}
    prefix = name + "_bucket{"
    for line in text.splitlines():
        if not line.startswith(prefix):
            continue
        labels, value = line[len(prefix):].rsplit("} ", 1)
        pairs = dict(kv.split("=", 1) for kv in labels.split(","))
        le = pairs["le"].strip('"')
        out.setdefault(pairs[label].strip('"'), {})[
            float("inf") if le == "+Inf" else float(le)] = float(value)
    return out


def bucket_quantile(before: Dict[float, float], after: Dict[float, float],
                    q: float) -> Tuple[float, int]:
    """``(value, samples)``: the ``q``-quantile (0 < q < 1) of the
    observations a cumulative histogram gained between two scrapes,
    interpolated linearly inside its bucket as Prometheus'
    ``histogram_quantile`` does.  A quantile in the overflow bucket
    reports the largest finite bound."""
    bounds = sorted(after)
    cum = [after[b] - before.get(b, 0.0) for b in bounds]
    total = int(cum[-1]) if cum else 0
    if not total:
        return 0.0, 0
    need = q * total
    lo_bound, lo_count = 0.0, 0.0
    for bound, count in zip(bounds, cum):
        if count >= need:
            if bound == float("inf"):
                return lo_bound, total
            share = (need - lo_count) / (count - lo_count) if count > lo_count else 1.0
            return lo_bound + (bound - lo_bound) * share, total
        lo_bound, lo_count = bound, count
    return lo_bound, total


# -- digests ---------------------------------------------------------- #

def digest(items: Iterable) -> str:
    """sha256 of the canonical JSON of ``items``, one item at a time."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def result_fields(result) -> dict:
    """A ``SimulationResult`` as the compared/digested dict (stored fields only)."""
    return result.to_dict(include_derived=False)


def table_text(stdout: str) -> str:
    """The rendered driver tables of one ``repro.eval`` run, with the
    per-driver timing lines and the trailing profile dropped."""
    body = stdout.split("\nrun profile\n", 1)[0]
    return "\n".join(
        line for line in body.splitlines()
        if not (line.startswith("[") and " completed in " in line)
    )


def load_expected() -> Dict[str, str]:
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- verifying reference ---------------------------------------------- #

def sample(population: Sequence, k: int, seed: int, salt: str) -> list:
    """A seeded held-out sample of ``k`` items."""
    rng = random.Random(f"{seed}:{salt}")
    return rng.sample(list(population), min(k, len(population)))


def reference_result(job, settings, row: int = 0):
    """Row ``row`` of ``job`` rerun through ``repro.sim.simulator.simulate``
    with dynamic verification on.

    Covers the jobs the benchmark generates: Clank engine, exponential
    schedule, no epoch plan, no volatile segments.
    """
    from repro.eval.parallel import _COST_MODELS
    from repro.eval.runner import pi_words_for
    from repro.sim.simulator import simulate
    from repro.workloads.cache import get_trace

    if (job.engine, job.schedule, job.epoch_cycles, job.volatile_segments) != (
            "clank", "exp", 0, ()):
        raise ValueError(f"reference check does not cover {job}")
    trace = get_trace(job.workload, size=job.size, seed=job.trace_seed)
    return simulate(
        trace, job.clank_config(),
        settings.schedule(job.salt + row * job.seed_stride),
        cost_model=_COST_MODELS[job.cost_model],
        perf_watchdog=job.perf_watchdog,
        progress_watchdog=job.progress_watchdog,
        progress_watchdog_adaptive=job.progress_watchdog_adaptive,
        pi_words=pi_words_for(trace) if job.use_compiler else None,
        verify=True,
        max_power_cycles=job.max_power_cycles,
    )


def reference_mismatches(pairs, settings) -> List[str]:
    """Compare ``(job, row, result)`` triples field by field against the
    verifying reference; one message per mismatching triple.

    ``verified`` is excluded: it records whether the verifier ran, which
    differs by construction.
    """
    bad = []
    for job, row, result in pairs:
        want = result_fields(reference_result(job, settings, row))
        got = result_fields(result)
        want.pop("verified", None)
        got.pop("verified", None)
        if got != want:
            fields = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            bad.append(f"{job.workload} {job.config} salt={job.salt} row={row}: {fields}")
    return bad
