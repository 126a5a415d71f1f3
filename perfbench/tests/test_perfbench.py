"""Self-tests of the benchmark: ``python -m pytest perfbench/tests`` from
the repository root (a few minutes: one tiny traced run per workload)."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_units_and_directions():
    spec = _spec()
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in e2e + layers:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in e2e if m["name"] == "setup_s").items()
    # The file and the code that prints the metrics agree.
    assert [(m["name"], m["unit"]) for m in e2e] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in layers] == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_aggregate_self_time():
    # root [0, 10] with children [1, 4] and [5, 6]; the first has a child [2, 3].
    spans_ = [["a", 0.0, 10.0, -1, "r"], ["b", 1.0, 4.0, 0, "r"],
              ["c", 2.0, 3.0, 1, "r"], ["b", 5.0, 6.0, 0, "r"]]
    agg = spans.aggregate(spans_, 0.0, 10.0)
    assert agg["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert agg["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert agg["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert sum(v["self_s"] for v in agg.values()) == 10.0
    assert spans.aggregate(spans_, 4.5, 10.0) == {"b": {"calls": 1, "s": 1.0, "self_s": 1.0}}


def test_percentile():
    assert harness.percentile([3.0], 99) == 3.0
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert harness.percentile(list(range(101)), 99) == 99.0


def test_bucket_quantile():
    text = "\n".join([
        '# TYPE h histogram',
        'h_bucket{tier="disk",le="0.001"} 2',
        'h_bucket{tier="disk",le="0.01"} 10',
        'h_bucket{tier="disk",le="+Inf"} 12',
        'h_count{tier="disk"} 12',
        'h_bucket{tier="memory",le="0.001"} 4',
        'h_bucket{tier="memory",le="0.01"} 4',
        'h_bucket{tier="memory",le="+Inf"} 4',
    ])
    before = harness.histogram_buckets(text, "h", "tier")
    assert before["disk"] == {0.001: 2.0, 0.01: 10.0, float("inf"): 12.0}
    after = {0.001: 2.0, 0.01: 18.0, float("inf"): 22.0}
    # 10 new observations: 8 in (0.001, 0.01], 2 beyond; the median is
    # the 5th, 5/8 of the way through the second bucket.
    value, n = harness.bucket_quantile(before["disk"], after, 0.5)
    assert n == 10 and abs(value - (0.001 + 0.009 * 5 / 8)) < 1e-12
    assert harness.bucket_quantile(before["memory"], before["memory"], 0.5) == (0.0, 0)


def test_served_rerun_walks_the_primed_sweep_in_order():
    """The two clients take turns over contiguous windows of the primed
    sweep, so together they rerun it in sweep order; the fresh jobs of a
    batch are the same for both clients."""
    primed = list(range(100))
    plans = [jobs.client_plan(7, c, primed) for c in range(2)]
    fresh = [[j for j in b if not isinstance(j, int)] for p in plans for b in p]
    window = jobs.BATCH_JOBS - jobs.FRESH_PER_BATCH
    rerun = []
    for b in range(jobs.BATCHES_PER_CLIENT):
        for p in plans:
            rerun += [j for j in p[b] if isinstance(j, int)]
    assert rerun == [i % len(primed) for i in range(len(rerun))]
    assert len(rerun) == 2 * jobs.BATCHES_PER_CLIENT * window
    assert fresh[0] == fresh[jobs.BATCHES_PER_CLIENT]
    assert all(len(f) == jobs.FRESH_PER_BATCH for f in fresh)


def test_injected_failure_is_counted():
    """A batch sent to a dead port is counted failed, not raised."""
    import loadgen
    from repro.eval.settings import EvalSettings
    from repro.serve import ServeClient

    import socket
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    counts = {"attempted": 0, "failed": 0, "errors": []}
    batch = jobs.sweep_jobs(0, 3)
    results, ms = loadgen.post_batch(ServeClient(f"http://127.0.0.1:{port}", timeout=5),
                                     batch, EvalSettings(), counts)
    assert results is None and ms >= 0.0
    assert counts["attempted"] == 3 and counts["failed"] == 3
    assert "unreachable" in counts["errors"][0]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [n for n, _ in run.per_layer_units()]
    wall = metrics["traced.wall_s"]
    attributed = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and not k.startswith("serve.client_batch"))
    assert attributed <= wall + 1e-6
    assert metrics["unattributed.s"] >= -1e-6
    # Each percentile is printed with its sample count.
    for name in ("batch_p50_ms", "batch_p90_ms"):
        line = next(x for x in lines if x.startswith(name + " "))
        assert re.search(r"\(n=\d+\)$", line), line
