"""Batched schedule-vector replay: N power schedules against one SectionMap.

A Monte Carlo sweep replays the same ``(trace, config)`` under many power
schedules.  This module replays a whole *schedule matrix*
(:class:`~repro.power.schedules.ScheduleBatch`, N rows x on-time columns)
against one shared :class:`~repro.sim.sections.SectionMap`: each row runs
to completion inside the C section walk (``section_walk`` in
``_chainscan.c``, driven exactly as :mod:`repro.sim.fast` drives a scalar
run), reading its on-times straight out of the matrix row.  Each row is
therefore bit-identical to a scalar :func:`~repro.sim.fast.simulate_fast`
call at that row's seed — the equivalence grid in
``tests/test_batch_replay.py`` pins this across configurations, policy
optimizations, PI marking, and both chain-scan kernels.

Fallback.  Whole-batch ineligibility (:func:`~repro.sim.fast.
fallback_reason` with ``batch=True``: a live architecture collector,
``verify=True``, a live recorder, volatile ranges, the static PI hazard)
routes every row through scalar
:func:`simulate_fast`, as does a process without the C kernel (reason
``no-cext``: each row then walks on the Python walker).  *Per-row*
conditions — an unprovable watchdog cut
(:meth:`SectionMap.watchdog_cut_safe`), a no-forward-progress abort, or a
reach-buffer overflow — stop just that row and rerun it scalar
(schedules fully re-seed from their row seed, so the rerun consumes the
identical on-time sequence).  The batch engine therefore never silently
diverges: a row is either served by the C walk or by the very engines
the scalar path would have used.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via tests' import block
    np = None  # soft dependency: batching disables itself without NumPy

from repro.common.errors import SimulationError
from repro.core import cext
from repro.power.schedules import ScheduleBatch
from repro.sim.fast import (
    drive_walk,
    fallback_reason,
    section_map_for,
    simulate_fast,
    walk_constants,
    walk_result,
)
from repro.sim.result import SimulationResult
from repro.sim.simulator import IntermittentSimulator

__all__ = [
    "BatchResult",
    "BatchReplaySimulator",
    "batch_stats",
    "merge_batch_stats",
    "numpy_available",
    "reset_batch_stats",
    "simulate_batch",
]


def numpy_available() -> bool:
    """Whether the soft NumPy dependency imported (callers that build
    :class:`~repro.power.schedules.ScheduleBatch` matrices must check
    before constructing one)."""
    return np is not None

#: 95% normal-approximation half-width multiplier.
_Z95 = 1.959963984540054


# --------------------------------------------------------------------- #
# Result container.
# --------------------------------------------------------------------- #


@dataclass
class BatchResult:
    """Per-schedule results of one batched replay, plus reduced aggregates.

    Attributes:
        name: Workload name.
        config_label: Clank configuration label.
        results: One :class:`SimulationResult` per schedule row, in row
            order; ``None`` marks a row that stalled (no forward progress)
            under ``allow_stall``.
        engines: What served each row — ``"batch"`` (the C walk),
            ``"fast"``/``"reference"`` (per-row or whole-batch scalar
            fallback), or ``"stalled"``.
        reasons: Typed fallback reason per non-batch row (``None`` for
            batch-served rows).
    """

    name: str
    config_label: str
    results: List[Optional[SimulationResult]] = field(default_factory=list)
    engines: List[str] = field(default_factory=list)
    reasons: List[Optional[str]] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return len(self.results)

    @property
    def batch_rows(self) -> int:
        """Rows served by the batched C walk."""
        return sum(1 for e in self.engines if e == "batch")

    def column(self, metric: str) -> List[float]:
        """One derived metric across all completed rows, in row order."""
        return [
            getattr(r, metric) for r in self.results if r is not None
        ]

    def mean_ci(self, metric: str):
        """``(mean, ci95)`` of a derived metric across completed rows.

        The half-width is the normal-approximation 95% interval
        (``1.96 * s / sqrt(n)``, sample standard deviation); 0 when fewer
        than two rows completed.
        """
        col = self.column(metric)
        if not col:
            return (float("nan"), 0.0)
        mean = sum(col) / len(col)
        if len(col) < 2:
            return (mean, 0.0)
        var = sum((x - mean) ** 2 for x in col) / (len(col) - 1)
        return (mean, _Z95 * (var ** 0.5) / (len(col) ** 0.5))

    def summary_stats(self) -> Dict[str, tuple]:
        """``{metric: (mean, ci95)}`` for the overhead metrics the
        figures report."""
        return {
            metric: self.mean_ci(metric)
            for metric in (
                "checkpoint_overhead", "reexec_overhead",
                "restart_overhead", "run_time_overhead",
            )
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config_label": self.config_label,
            "results": [
                None if r is None else r.to_dict(include_derived=False)
                for r in self.results
            ],
            "engines": list(self.engines),
            "reasons": list(self.reasons),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BatchResult":
        return cls(
            name=d["name"],
            config_label=d["config_label"],
            results=[
                None if r is None else SimulationResult.from_dict(r)
                for r in d["results"]
            ],
            engines=list(d["engines"]),
            reasons=list(d["reasons"]),
        )


# --------------------------------------------------------------------- #
# The batched walk.
# --------------------------------------------------------------------- #


class BatchReplaySimulator(IntermittentSimulator):
    """Replay a :class:`ScheduleBatch` row by row over one SectionMap.

    Construction mirrors the reference simulator (same ``"auto"`` watchdog
    resolution, same ``max_power_cycles`` default — both derive from the
    batch's ``mean_on_time``, which every row shares).  :meth:`run_batch`
    walks all rows; rows it cannot carry exactly come back flagged for a
    scalar rerun (:func:`simulate_batch` performs it transparently).
    """

    def __init__(self, trace, config, schedules: ScheduleBatch, **kwargs):
        if not isinstance(schedules, ScheduleBatch):
            raise TypeError("BatchReplaySimulator needs a ScheduleBatch")
        super().__init__(trace, config, schedules.row_schedule(0), **kwargs)
        self.schedules = schedules

    def run_batch(self, eng):
        """Walk every row on the C walk engine ``eng``
        (:func:`repro.core.cext.walk_engine`); returns ``(results,
        needs_scalar)`` where ``results[r]`` is the row's
        :class:`SimulationResult` (``None`` when flagged) and
        ``needs_scalar`` lists the rows the walk could not carry (an
        unsafe watchdog cut, the ``max_power_cycles`` abort or a
        reach-buffer overflow — the scalar engines reproduce all three
        exactly)."""
        smap = section_map_for(self)
        consts = walk_constants(self)
        sbatch = self.schedules
        results: List[Optional[SimulationResult]] = [None] * sbatch.rows
        needs_scalar: List[int] = []
        for r in range(sbatch.rows):
            mat = sbatch.matrix
            eng.begin(smap, consts,
                      mat.ctypes.data + r * mat.strides[0], mat.shape[1])

            def refill(r=r):
                cols = sbatch.matrix.shape[1]
                sbatch.ensure_columns(max(8, 2 * cols))
                mat = sbatch.matrix
                return mat.ctypes.data + r * mat.strides[0], mat.shape[1]

            if drive_walk(eng, smap, refill) == cext.BW_DONE:
                results[r] = walk_result(self, eng.st)
            else:
                needs_scalar.append(r)
        return results, needs_scalar


# --------------------------------------------------------------------- #
# Dispatch.
# --------------------------------------------------------------------- #

#: Process-wide batch dispatch counters: batches walked, rows served by
#: the batched C walk, rows handed to the scalar engines, and why.
_BSTATS = {
    "batches": 0,
    "rows_batched": 0,
    "rows_fallback": 0,
    "reasons": {},
}


def batch_stats() -> dict:
    """Batch dispatch counts since reset (see :data:`_BSTATS` shape)."""
    return {
        "batches": _BSTATS["batches"],
        "rows_batched": _BSTATS["rows_batched"],
        "rows_fallback": _BSTATS["rows_fallback"],
        "reasons": dict(_BSTATS["reasons"]),
    }


def reset_batch_stats() -> None:
    _BSTATS["batches"] = 0
    _BSTATS["rows_batched"] = 0
    _BSTATS["rows_fallback"] = 0
    _BSTATS["reasons"] = {}


def merge_batch_stats(delta: dict) -> None:
    """Fold a worker's batch-counter delta into this process's counters."""
    _BSTATS["batches"] += delta.get("batches", 0)
    _BSTATS["rows_batched"] += delta.get("rows_batched", 0)
    _BSTATS["rows_fallback"] += delta.get("rows_fallback", 0)
    reasons = _BSTATS["reasons"]
    for reason, count in delta.get("reasons", {}).items():
        reasons[reason] = reasons.get(reason, 0) + count


def _count_fallback(reason: str, rows: int = 1) -> None:
    _BSTATS["rows_fallback"] += rows
    reasons = _BSTATS["reasons"]
    reasons[reason] = reasons.get(reason, 0) + rows


#: Whole-batch reason when the C kernel is unavailable: every row walks
#: on the scalar Python walker instead.
NO_CEXT = "no-cext"


def simulate_batch(
    trace, config, schedules: ScheduleBatch, allow_stall: bool = False,
    **kwargs,
) -> BatchResult:
    """Replay every schedule row; on the C walk when eligible, else scalar.

    Whole-batch ineligibility (:func:`~repro.sim.fast.fallback_reason`,
    or no C kernel) routes all rows through :func:`simulate_fast`; rows
    the C walk stops mid-flight (unprovable watchdog cut,
    no-forward-progress abort, reach-buffer overflow) rerun scalar
    individually — their fresh row schedule consumes the identical on-time
    sequence, so the outcome is bit-identical to never having batched.

    Args:
        allow_stall: Return ``None`` (engine ``"stalled"``) for rows whose
            scalar rerun aborts without forward progress, instead of
            propagating :class:`SimulationError`.
    """
    from repro.sim import fast as fast_dispatch

    N = schedules.rows
    sim = BatchReplaySimulator(trace, config, schedules, **kwargs)
    eng = None
    reason = fallback_reason(sim, batch=True)
    if reason is not None:
        # verify defaults to True, as in IntermittentSimulator: a caller
        # that never opted out of the dynamic verifier gets the verifying
        # reference engine, exactly as simulate_fast would dispatch.
        whole_batch_reason = reason.value
    else:
        eng = cext.walk_engine()
        whole_batch_reason = NO_CEXT

    batch = BatchResult(
        name=trace.name,
        config_label=config.label(),
        results=[None] * N,
        engines=["batch"] * N,
        reasons=[None] * N,
    )

    needs_scalar: List[int] = list(range(N))
    if eng is not None:
        results, needs_scalar = sim.run_batch(eng)
        batch.results = results
        _BSTATS["batches"] += 1
        _BSTATS["rows_batched"] += N - len(needs_scalar)
        if needs_scalar:
            _count_fallback("row_rerun", len(needs_scalar))
    else:
        _count_fallback(whole_batch_reason, N)

    for r in needs_scalar:
        schedule = schedules.row_schedule(r)
        try:
            batch.results[r] = simulate_fast(
                trace, config, schedule, **kwargs
            )
        except SimulationError:
            if not allow_stall:
                raise
            batch.results[r] = None
            batch.engines[r] = "stalled"
            batch.reasons[r] = None
            continue
        engine, reason = fast_dispatch.last_dispatch()
        batch.engines[r] = engine
        batch.reasons[r] = reason
    return batch
