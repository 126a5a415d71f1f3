"""Section-memoized replay: simulate a power schedule as a section walk.

The reference :class:`~repro.sim.simulator.IntermittentSimulator` replays a
trace access-by-access for every run, re-deriving the same idempotent
sections under every power schedule.  :class:`FastReplaySimulator` instead
walks the schedule over the precomputed
:class:`~repro.sim.sections.SectionMap`: within one section attempt the
only schedule-dependent questions are *which access the remaining on-time
cannot complete* and *which access a watchdog fires after*, and both are a
``bisect`` over the trace's cycle prefix sums.  Useful/re-executed cycles
split at the furthest-ever-completed index by interval arithmetic; the
checkpoint's WBB flush size is a ``bisect`` over the section's recorded
buffer-growth steps.  The result is bit-identical to the reference
simulator — same cycle buckets, ``checkpoints_by_cause``, power-cycle and
output counts — at a per-run cost proportional to the number of *section
attempts* rather than the number of accesses.

Two walkers.  Whenever the C kernel loads (:mod:`repro.core.cext`) and no
architecture collector is live, the walk runs in C (``section_walk``): it
reads the SectionMap's flat section tables in place and returns to Python
only for more schedule on-times, a section the tables lack, or a
``watchdog_cut_safe`` verdict.  The Python walker (:meth:`FastReplay
Simulator.walk_python`) is the readable reference of the same walk, the
no-compiler path (``REPRO_CEXT=0`` or no C compiler), the instrumented
path under ``--arch``, and the rerun for a C walk that hits its
power-cycle cap or reach-buffer bound — so a stalled run raises the
identical :class:`SimulationError`.  :func:`dispatch_stats` counts which
walker served each fast run.

Eligibility.  The fast path models forced checkpoints, PI marking, the
output-commit protocol, text writes, and both watchdogs (including the
adaptive Progress Watchdog's non-volatile halving state machine) exactly.
It refuses — by raising :class:`FastPathIneligible`, which
:func:`simulate_fast` turns into a reference-simulator rerun — when a run
needs state the section walk does not carry (:func:`fallback_reason`, the
one eligibility chain the batch engine shares):

* ``verify=True`` (the dynamic verifier checks every read value),
* a live recorder (events fire per access, not per section),
* mixed-volatility ranges (per-checkpoint dirty-word costs),
* the static PI false-write hazard
  (:attr:`~repro.sim.sections.SectionMap.pi_hazard`),
* at run time: a watchdog checkpoint that commits *below* the furthest
  executed index while ignore-false-writes is on AND the stale
  directly-committed value some failed power cycle left ahead of the cut
  would flip the word's next false-write classification
  (:meth:`~repro.sim.sections.SectionMap.watchdog_cut_safe` decides this
  exactly from the section's direct-commit writes — derived lazily for
  just the sections such cuts actually hit — and the walker's record of
  failed-cycle reaches) — the walk then aborts and the reference
  simulator re-runs the schedule (bit-identical: every schedule re-seeds
  itself on ``reset()``).
"""

import struct
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Optional

from repro.common.errors import SimulationError
from repro.core import cext
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR, HAZARD_CAUSES
from repro.obs.recorder import live_recorder
from repro.obs.telemetry import FallbackReason
from repro.sim.result import SimulationResult
from repro.sim.sections import (
    SEC_DETECTOR,
    SEC_FINAL,
    SEC_FORCED,
    SEC_OUTPUT,
    SEC_TEXT,
    VARIANT_DIRECT,
    VARIANT_FORCED_DONE,
    VARIANT_NORMAL,
    _CAUSE_ID,
    _CAUSE_KIND_BY_ID,
    _CAUSE_NAME_BY_ID,
    SectionMap,
    get_section_map,
)
from repro.sim.simulator import IntermittentSimulator

#: Stand-in ``flat_index().get`` for maps without flat storage: every
#: probe misses, so the walker takes the dict/scalar path unchanged.
_NO_FLAT_GET = {}.get

# The C walk's protocol constants, bound once for its driver loop.
_BW_NEED_SECTION = cext.BW_NEED_SECTION
_BW_NEED_ONTIMES = cext.BW_NEED_ONTIMES
_ST_OUT = cext.ST_OUT
_ST_ORDER = cext.ST_ORDER
_ST_COUNTS = cext.ST_COUNTS
_WALK_CAUSE_NAMES = cext.WALK_CAUSE_NAMES
#: Cap on the on-times drawn before a scalar C walk starts.
_MAX_FIRST_DRAWS = 64
_RESULT_SLOTS = itemgetter(
    cext.ST_USEFUL, cext.ST_CKPT, cext.ST_RESTART, cext.ST_REEXEC,
    cext.ST_WASTED, cext.ST_PC, cext.ST_WASTED_PC, cext.ST_OUTPUTS,
    cext.ST_DUP, cext.ST_WBB, cext.ST_NORDER,
)


class _NotInt64(Exception):
    """A schedule draw the C walk's int64 buffer cannot hold."""


class FastPathIneligible(Exception):
    """This run needs the reference simulator (see module docstring).

    Carries the typed :class:`~repro.obs.telemetry.FallbackReason` so the
    dispatch point can count *why* — not just *that* — a run fell back.
    """

    def __init__(self, reason: FallbackReason, detail: str = ""):
        self.reason = reason
        super().__init__(detail or reason.value)


def section_map_for(sim) -> SectionMap:
    """The shared SectionMap of a simulator's run (memoized on it)."""
    smap = sim.__dict__.get("_smap")
    if smap is None:
        smap = sim._smap = get_section_map(
            sim.trace, sim.config, sim.pi_words, sim.pi_access_indices,
            sim.forced_checkpoints,
        )
    return smap


_DETAIL = {
    FallbackReason.VERIFY: "dynamic verification replays per access",
    FallbackReason.LIVE_RECORDER: "event recording replays per access",
    FallbackReason.VOLATILE_RANGES: "mixed-volatility is not section-memoized",
    FallbackReason.PI_HAZARD: (
        "access-marked PI writes alias tracked writes under "
        "ignore-false-writes"
    ),
}


def fallback_reason(sim, batch: bool = False) -> Optional[FallbackReason]:
    """Why ``sim`` cannot run on the section walk, or None if it can.

    The one eligibility chain of the scalar and batched fast paths, in
    order: a live architecture collector (batch only: the scalar walk
    instruments itself), ``verify``, a live recorder, volatile ranges,
    the static PI hazard.  The SectionMap is looked up only when every
    cheaper check passes.
    """
    if batch and ARCH_COLLECTOR.enabled:
        return FallbackReason.ARCH_COLLECTOR
    if sim.verify:
        return FallbackReason.VERIFY
    if live_recorder(sim.recorder) is not None:
        return FallbackReason.LIVE_RECORDER
    if sim.volatile_ranges:
        return FallbackReason.VOLATILE_RANGES
    if section_map_for(sim).pi_hazard:
        return FallbackReason.PI_HAZARD
    return None


def walk_constants(sim) -> tuple:
    """The run constants of the C walk's parameter block."""
    cost = sim.cost_model
    return (
        cost.register_checkpoint_cycles, cost.wbb_flush_base_cycles,
        cost.wbb_entry_flush_cycles, cost.restart_cycles(0),
        sim.perf_watchdog_load, sim.progress_watchdog_load,
        1 if sim.progress_watchdog_adaptive else 0,
        1 if sim.config.optimizations.ignore_false_writes else 0,
        sim.max_power_cycles,
    )


def drive_walk(eng, smap: SectionMap, refill) -> int:
    """Run the loaded C walk to a terminal stop, answering its requests.

    ``refill()`` must extend the on-time buffer by at least one draw and
    return its ``(address, count)``.  Returns ``BW_DONE`` (the result is
    in ``eng.st``), ``BW_FALLBACK`` (rerun on the Python walker), or
    ``BW_NEED_CUT`` for a watchdog cut :meth:`SectionMap.
    watchdog_cut_safe` rejects (rerun on the reference simulator).
    """
    fn, w_addr, st_addr = eng.fn, eng.w_addr, eng.st_addr
    st = eng.st
    w = eng.w
    chain_section = smap.chain_section
    add_section = eng.add_section
    while True:
        rc = fn(w_addr, st_addr)
        if rc == _BW_NEED_SECTION:
            # An off-table key: a watchdog cut's resume point, or any key
            # of a map without flat tables.  Served once per key while
            # the engine stays on this map.
            key = st[_ST_OUT]
            end, cause, _, steps = chain_section(key >> 2, key & 3)
            add_section(key, end, _CAUSE_ID[cause], steps)
        elif rc == _BW_NEED_ONTIMES:
            w[cext.W_ONTIMES], w[cext.W_NONTIMES] = refill()
        elif rc == cext.BW_NEED_CUT:
            o = _ST_OUT
            if not smap.watchdog_cut_safe(
                st[o], st[o + 1], st[o + 2], st[o + 3], eng.reaches()
            ):
                return rc
            st[cext.ST_CUT_OK] = 1
        else:
            return rc  # BW_DONE or BW_FALLBACK


def walk_result(sim, st) -> SimulationResult:
    """The :class:`SimulationResult` of a finished C walk's state."""
    v = st.tolist()
    (useful, ckpt, restart, reexec, wasted, pc, wasted_pc, outputs, dup,
     wbb, norder) = _RESULT_SLOTS(v)
    by_cause = {}
    for c in v[_ST_ORDER:_ST_ORDER + norder]:
        by_cause[_WALK_CAUSE_NAMES[c]] = v[_ST_COUNTS + c]
    trace = sim.trace
    return SimulationResult(
        name=trace.name,
        config_label=sim.config.label(),
        baseline_cycles=trace.total_cycles,
        useful_cycles=useful,
        checkpoint_cycles=ckpt,
        restart_cycles=restart,
        reexec_cycles=reexec,
        wasted_cycles=wasted,
        checkpoints_by_cause=by_cause,
        power_cycles=pc,
        wasted_power_cycles=wasted_pc,
        outputs=outputs,
        duplicate_outputs=dup,
        wbb_words_flushed=wbb,
        verified=False,
        completed=True,
        metrics={},
    )


class FastReplaySimulator(IntermittentSimulator):
    """Drop-in :class:`IntermittentSimulator` running the section walk.

    Construction is identical to the reference simulator (it *is* the
    reference ``__init__``: same ``"auto"`` watchdog resolution, same
    ``max_power_cycles`` default).  :meth:`run` raises
    :class:`FastPathIneligible` instead of silently degrading; use
    :func:`simulate_fast` for transparent fallback.  After a completed
    run, :attr:`walker` names the walker that served it.
    """

    #: ``"c"`` or ``"python"`` once :meth:`run` has returned.
    walker: Optional[str] = None

    def run(self) -> SimulationResult:
        reason = fallback_reason(self)
        if reason is not None:
            raise FastPathIneligible(reason, _DETAIL.get(reason, ""))
        smap = section_map_for(self)
        if not ARCH_COLLECTOR.enabled:
            eng = cext.walk_engine()
            if eng is not None:
                result = self._walk_c(eng, smap)
                if result is not None:
                    self.walker = "c"
                    return result
        self.walker = "python"
        return self.walk_python(smap)

    def _walk_c(self, eng, smap: SectionMap) -> Optional[SimulationResult]:
        """The C walk; None when the Python walker must redo the run."""
        schedule = self.schedule
        schedule.reset()
        next_on = schedule.next_on_time
        # Draw about as many on-times as the run should need (one per
        # expected power cycle, plus the boot); the walk asks for more,
        # doubling, when it runs out.
        first = min(_MAX_FIRST_DRAWS, 2 + int(
            self.trace.total_cycles / max(1.0, schedule.mean_on_time)
        ))
        have = 0

        def refill():
            nonlocal have
            want = max(first, 2 * have)
            buf = eng.grow_ontimes(want)
            try:
                for k in range(have, want):
                    buf[k] = next_on()
            except (OverflowError, TypeError) as exc:
                raise _NotInt64 from exc
            have = want
            return buf.buffer_info()[0], have

        try:
            eng.begin(smap, walk_constants(self), *refill())
            rc = drive_walk(eng, smap, refill)
        except (_NotInt64, struct.error):
            return None  # a value the int64 walk cannot hold: walk in Python
        if rc == cext.BW_DONE:
            return walk_result(self, eng.st)
        if rc == cext.BW_FALLBACK:
            return None
        raise FastPathIneligible(
            FallbackReason.WATCHDOG_CUT,
            "watchdog checkpoint below the furthest executed index with "
            "ignore-false-writes",
        )

    def walk_python(self, smap: SectionMap) -> SimulationResult:
        """The Python section walk: the reference of the C walk."""
        trace = self.trace
        ct = smap.ct
        n = ct.n
        gcum = ct.cum_cycles
        acc_cycles = ct.cycles
        cost = self.cost_model
        base_ck = cost.register_checkpoint_cycles
        flush_base = cost.wbb_flush_base_cycles
        per_entry = cost.wbb_entry_flush_cycles
        rcost = cost.restart_cycles(0)
        schedule = self.schedule
        schedule.reset()
        next_on = schedule.next_on_time
        secs_get = smap._sections.get
        # Family-built maps carry their sections as flat parallel arrays
        # (sorted keys / ends / cause ids / step offsets / step values).
        # The walker reads those directly — no per-section tuple is ever
        # built for the ~everything that replays on the canonical chain;
        # only off-chain resume keys (watchdog cuts, direct re-entries)
        # fall through to the per-key ``chain_section`` resolver.
        flat = smap._flat
        if flat is not None:
            _, ends_f, causes_f, soff_f, sval_f = flat
            fidx_get = smap.flat_index().get
            section_of = smap.chain_section
        else:
            ends_f = causes_f = soff_f = sval_f = None
            fidx_get = _NO_FLAT_GET
            section_of = smap.section
        names = _CAUSE_NAME_BY_ID
        kinds = _CAUSE_KIND_BY_ID
        cut_safe = smap.watchdog_cut_safe
        forced = smap.forced
        max_pc = self.max_power_cycles
        name = trace.name
        ig_fw = self.config.optimizations.ignore_false_writes

        # Architectural introspection (repro.obs.analyze): one flag check
        # per run.  When enabled, each *commit* (never each access) does
        # bisect arithmetic over the section's memoized growth steps —
        # the schedule-independent stats ride the section walk for free.
        arch = ARCH_COLLECTOR.run_accumulator()
        if arch is not None:
            arch_stats = smap.arch_stats
            arch_waddrs = ct.waddrs
            rm_dup = self.config.optimizations.remove_duplicates
            arch_last_t = 0

        perf_load = self.perf_watchdog_load
        perf_on = perf_load > 0
        prog_default = self.progress_watchdog_load
        prog_configured = prog_default > 0
        prog_adaptive = self.progress_watchdog_adaptive
        # The Progress Watchdog's non-volatile state (Section 4.2).
        prog_nv_load = 0
        prog_no_ckpt = False
        prog_enabled = False
        prog_remaining = 0

        useful = reexec = wasted = ckpt_cycles = restart_cycles = 0
        ckpt_counts = {}
        power_cycles = 1
        wasted_power_cycles = 0
        outputs = duplicate_outputs = 0
        wbb_flushed = 0
        furthest = 0  # number of accesses ever completed
        progress = False  # any commit / new furthest this power cycle
        forced_done = -1  # index whose compiler checkpoint committed
        direct = False  # next section starts with a direct text write
        i = 0  # trace position of the last committed checkpoint
        # Failed power cycles that got past their committed start, as
        # time-ordered (reach, section_start) pairs: exactly the state
        # watchdog_cut_safe needs to resolve each stale word's surviving
        # value.  Only consulted under ignore-false-writes; a same-start
        # entry at or below a new reach replays the identical prefix and
        # is fully shadowed by it, so it is popped on append.
        reaches = []

        # --- helpers (mirroring the reference simulator exactly) ----------

        def restart_sequence() -> int:
            nonlocal restart_cycles, power_cycles, wasted_power_cycles
            nonlocal progress, prog_enabled, prog_nv_load, prog_no_ckpt
            nonlocal prog_remaining
            while True:
                on_left = next_on()
                progress = False
                prog_enabled = False
                if prog_configured:
                    if not prog_no_ckpt:
                        prog_no_ckpt = True
                    else:
                        if prog_nv_load > 0 and prog_adaptive:
                            prog_nv_load = max(1, prog_nv_load // 2)
                        elif prog_nv_load == 0:
                            prog_nv_load = prog_default
                        prog_enabled = True
                        prog_remaining = prog_nv_load
                if on_left >= rcost:
                    restart_cycles += rcost
                    return on_left - rcost
                restart_cycles += on_left
                power_cycles += 1
                wasted_power_cycles += 1
                if power_cycles > max_pc:
                    raise SimulationError(
                        f"{name}: no forward progress after "
                        f"{power_cycles} power cycles (restart cost {rcost} "
                        f"exceeds on-times)"
                    )

        def power_loss(at_i: int) -> int:
            nonlocal power_cycles, wasted_power_cycles
            if ig_fw and at_i > i:
                while reaches and reaches[-1][1] == i and reaches[-1][0] <= at_i:
                    reaches.pop()
                reaches.append((at_i, i))
                if len(reaches) > 64:
                    reaches[:] = [e for e in reaches if e[0] > i]
            if not progress:
                wasted_power_cycles += 1
            power_cycles += 1
            if power_cycles > max_pc:
                raise SimulationError(
                    f"{name}: exceeded {max_pc} power "
                    f"cycles at trace position {at_i}/{n}"
                )
            return restart_sequence()

        # --- section walk -------------------------------------------------
        # Accounting of executed spans (split at ``furthest``) and commits
        # is inlined below rather than in helpers: both happen exactly once
        # per section attempt, and for small-buffer configurations whose
        # sections span a handful of accesses the two closure calls were
        # the walker's single largest cost.

        ckpt_get = ckpt_counts.get
        on_left = restart_sequence()  # first boot
        while True:
            s = i
            if direct:
                variant = VARIANT_DIRECT
            elif forced_done == s and s in forced:
                variant = VARIANT_FORCED_DONE
            else:
                variant = VARIANT_NORMAL
            k = (s << 2) | variant
            j = fidx_get(k)
            if j is not None:
                end = ends_f[j]
                cz = causes_f[j]
                cause = names[cz]
                kind = kinds[cz]
                sa = soff_f[j]
                sb = soff_f[j + 1]
                stepsrc = sval_f
            else:
                sec = secs_get(k)
                if sec is None:
                    sec = section_of(s, variant)
                end, cause, kind, stepsrc = sec
                sa = 0
                sb = len(stepsrc)
            base = gcum[s]

            # Watchdog firing inside the span [s, end): the earliest access
            # m whose completion expires a timer (ties: progress wins, as in
            # the reference's if/elif).
            fire_m = -1
            fire_cause = ""
            if prog_enabled:
                j = bisect_left(gcum, base + prog_remaining, s + 1, end + 1)
                if j <= end:
                    fire_m = j - 1
                    fire_cause = "progress_wdt"
            if perf_on:
                j = bisect_left(gcum, base + perf_load, s + 1, end + 1)
                if j <= end and (fire_m < 0 or j - 1 < fire_m):
                    fire_m = j - 1
                    fire_cause = "perf_wdt"

            # First span access the on-time cannot complete (power fails
            # mid-access).  A same-index watchdog firing loses: it needs the
            # access to have completed.
            u = bisect_right(gcum, base + on_left, s + 1, end + 1)
            if u <= end and (fire_m < 0 or u - 1 <= fire_m):
                mf = u - 1
                if mf <= furthest:
                    reexec += gcum[mf] - base
                elif s >= furthest:
                    useful += gcum[mf] - base
                    furthest = mf
                    progress = True
                else:
                    reexec += gcum[furthest] - base
                    useful += gcum[mf] - gcum[furthest]
                    furthest = mf
                    progress = True
                wasted += on_left - (gcum[mf] - base)
                if not (direct and mf == s):
                    # The compiler-inserted call re-executes on replay; the
                    # direct text write (first access after its checkpoint)
                    # is the one failure site that keeps the latch.
                    forced_done = -1
                on_left = power_loss(mf)
                direct = False
                continue

            if fire_m >= 0:
                m1 = fire_m + 1
                if m1 <= furthest:
                    reexec += gcum[m1] - base
                elif s >= furthest:
                    useful += gcum[m1] - base
                    furthest = m1
                    progress = True
                else:
                    reexec += gcum[furthest] - base
                    useful += gcum[m1] - gcum[furthest]
                    furthest = m1
                    progress = True
                on_left -= gcum[m1] - base
                nwbb = bisect_left(stepsrc, m1, sa, sb) - sa
                c = base_ck + (flush_base + nwbb * per_entry if nwbb else 0)
                if on_left < c:
                    wasted += on_left
                    on_left = power_loss(m1)
                    direct = False
                    continue
                if (
                    ig_fw
                    and furthest > m1
                    and not cut_safe(s, variant, m1, furthest, reaches)
                ):
                    # Stale-view hazard: this checkpoint lands inside a span
                    # an earlier power cycle executed past, and the stale
                    # directly-committed value would flip a false-write
                    # classification on re-execution.  Only the reference's
                    # live memory view decides those; hand the whole run
                    # back to it.
                    raise FastPathIneligible(
                        FallbackReason.WATCHDOG_CUT,
                        "watchdog checkpoint below the furthest executed "
                        "index with ignore-false-writes",
                    )
                on_left -= c
                ckpt_cycles += c
                wbb_flushed += nwbb
                ckpt_counts[fire_cause] = ckpt_get(fire_cause, 0) + 1
                if arch is not None:
                    rf_s, wf_s, apb_s, rf_peak = arch_stats(s, variant)
                    e = useful + reexec + wasted + ckpt_cycles + restart_cycles
                    arch.record_commit(
                        fire_cause,
                        (
                            bisect_left(rf_s, m1) - (nwbb if rm_dup else 0),
                            bisect_left(wf_s, m1),
                            nwbb,
                            bisect_left(apb_s, m1),
                        ),
                        None,
                        m1 - s,
                        (e - c) - arch_last_t,
                        c,
                    )
                    arch.record_section(
                        (s << 2) | variant,
                        (rf_peak, len(wf_s), sb - sa, len(apb_s)),
                    )
                    arch_last_t = e
                if prog_configured:
                    prog_enabled = False
                    prog_nv_load = 0
                    prog_no_ckpt = False
                progress = True
                i = m1
                direct = False
                continue

            # The whole span executes; handle the boundary.
            if end <= furthest:
                reexec += gcum[end] - base
            elif s >= furthest:
                useful += gcum[end] - base
                furthest = end
                progress = True
            else:
                reexec += gcum[furthest] - base
                useful += gcum[end] - gcum[furthest]
                furthest = end
                progress = True
            on_left -= gcum[end] - base

            if kind == SEC_DETECTOR or kind == SEC_TEXT or kind == SEC_OUTPUT:
                # The boundary access is fetched first — power can fail on
                # the access itself before the checkpoint is attempted (the
                # reference's pre-classification affordability check).
                ce = acc_cycles[end]
                if on_left < ce:
                    wasted += on_left
                    forced_done = -1
                    on_left = power_loss(end)
                    direct = False
                    continue
                nwbb = sb - sa
                c = base_ck + (flush_base + nwbb * per_entry if nwbb else 0)
                if on_left < c:
                    wasted += on_left
                    on_left = power_loss(end)
                    direct = False
                    continue
                on_left -= c
                ckpt_cycles += c
                wbb_flushed += nwbb
                ckpt_counts[cause] = ckpt_get(cause, 0) + 1
                if arch is not None:
                    rf_s, wf_s, apb_s, rf_peak = arch_stats(s, variant)
                    e = useful + reexec + wasted + ckpt_cycles + restart_cycles
                    arch.record_commit(
                        cause,
                        (
                            len(rf_s) - (nwbb if rm_dup else 0),
                            len(wf_s),
                            nwbb,
                            len(apb_s),
                        ),
                        arch_waddrs[end] if cause in HAZARD_CAUSES else None,
                        end - s,
                        (e - c) - arch_last_t,
                        c,
                    )
                    arch.record_section(
                        (s << 2) | variant,
                        (rf_peak, len(wf_s), nwbb, len(apb_s)),
                    )
                    arch_last_t = e
                if prog_configured:
                    prog_enabled = False
                    prog_nv_load = 0
                    prog_no_ckpt = False
                progress = True
                i = end

                if kind == SEC_DETECTOR:
                    direct = False
                    continue
                if kind == SEC_TEXT:
                    # The text write commits directly as the first access of
                    # the next section (scanned from end+1); its failure
                    # semantics — forced_done survives — ride on the direct
                    # flag.
                    direct = True
                    continue

                # SEC_OUTPUT: the GO phase.  The output access executes
                # between its two checkpoints and never ticks the watchdogs;
                # any power loss forgets the pre-checkpoint (output_ready is
                # volatile), so a retry re-runs the whole protocol from the
                # committed start.
                direct = False
                if on_left < ce:
                    wasted += on_left
                    forced_done = -1
                    on_left = power_loss(end)
                    continue
                on_left -= ce
                outputs += 1
                if end < furthest:
                    duplicate_outputs += 1
                    reexec += ce
                else:
                    useful += ce
                    furthest = end + 1
                    progress = True
                if on_left < base_ck:
                    wasted += on_left
                    on_left = power_loss(end + 1)
                    continue
                on_left -= base_ck
                ckpt_cycles += base_ck
                ckpt_counts["output"] = ckpt_get("output", 0) + 1
                if arch is not None:
                    # GO-phase post-commit: the buffers were reset by the
                    # pre-checkpoint and the output bypasses the detector.
                    e = useful + reexec + wasted + ckpt_cycles + restart_cycles
                    arch.record_commit(
                        "output", (0, 0, 0, 0), None, 1,
                        (e - base_ck) - arch_last_t, base_ck,
                    )
                    arch_last_t = e
                if prog_configured:
                    prog_enabled = False
                    prog_nv_load = 0
                    prog_no_ckpt = False
                progress = True
                i = end + 1
                continue

            if kind == SEC_FORCED:
                nwbb = sb - sa
                c = base_ck + (flush_base + nwbb * per_entry if nwbb else 0)
                if on_left < c:
                    wasted += on_left
                    forced_done = -1
                    on_left = power_loss(end)
                    direct = False
                    continue
                on_left -= c
                ckpt_cycles += c
                wbb_flushed += nwbb
                ckpt_counts[cause] = ckpt_get(cause, 0) + 1
                if arch is not None:
                    rf_s, wf_s, apb_s, rf_peak = arch_stats(s, variant)
                    e = useful + reexec + wasted + ckpt_cycles + restart_cycles
                    arch.record_commit(
                        cause,
                        (
                            len(rf_s) - (nwbb if rm_dup else 0),
                            len(wf_s),
                            nwbb,
                            len(apb_s),
                        ),
                        None,
                        end - s,
                        (e - c) - arch_last_t,
                        c,
                    )
                    arch.record_section(
                        (s << 2) | variant,
                        (rf_peak, len(wf_s), nwbb, len(apb_s)),
                    )
                    arch_last_t = e
                if prog_configured:
                    prog_enabled = False
                    prog_nv_load = 0
                    prog_no_ckpt = False
                progress = True
                forced_done = end
                i = end
                direct = False
                continue

            # SEC_FINAL.
            nwbb = sb - sa
            c = base_ck + (flush_base + nwbb * per_entry if nwbb else 0)
            if on_left < c:
                wasted += on_left
                on_left = power_loss(n)
                direct = False
                continue
            on_left -= c
            ckpt_cycles += c
            wbb_flushed += nwbb
            ckpt_counts[cause] = ckpt_get(cause, 0) + 1
            if arch is not None:
                rf_s, wf_s, apb_s, rf_peak = arch_stats(s, variant)
                e = useful + reexec + wasted + ckpt_cycles + restart_cycles
                arch.record_commit(
                    cause,
                    (
                        len(rf_s) - (nwbb if rm_dup else 0),
                        len(wf_s),
                        nwbb,
                        len(apb_s),
                    ),
                    None,
                    n - s,
                    (e - c) - arch_last_t,
                    c,
                )
                arch.record_section(
                    (s << 2) | variant,
                    (rf_peak, len(wf_s), nwbb, len(apb_s)),
                )
            if prog_configured:
                prog_enabled = False
                prog_nv_load = 0
                prog_no_ckpt = False
            break

        if arch is not None:
            ARCH_COLLECTOR.fold_run(name, self.config.label(), arch, "fast")

        return SimulationResult(
            name=name,
            config_label=self.config.label(),
            baseline_cycles=trace.total_cycles,
            useful_cycles=useful,
            checkpoint_cycles=ckpt_cycles,
            restart_cycles=restart_cycles,
            reexec_cycles=reexec,
            wasted_cycles=wasted,
            checkpoints_by_cause=ckpt_counts,
            power_cycles=power_cycles,
            wasted_power_cycles=wasted_power_cycles,
            outputs=outputs,
            duplicate_outputs=duplicate_outputs,
            wbb_words_flushed=wbb_flushed,
            verified=False,
            completed=True,
            metrics={},
        )


#: Process-wide dispatch counters: runs completed on the section walk
#: (split by the walker that served them), and runs handed to the
#: reference simulator broken out by typed reason.
_STATS = {
    "fast": 0,
    "walker": {"c": 0, "python": 0},
    "reasons": {reason.value: 0 for reason in FallbackReason},
}

#: (engine, fallback_reason) of the most recent simulate_fast dispatch —
#: the hook run_clank/execute_job read to stamp their RunRecords without
#: simulate_fast having to know any sweep context.
_LAST = ("fast", None)


def dispatch_stats() -> dict:
    """Dispatch counts since reset, with the fallback-reason breakdown.

    ``{"fast": int, "fallback": int, "walker": {"c": int, "python": int},
    "reasons": {reason: int}}`` — the ``fast``/``fallback`` pair keeps
    the historical two-counter shape (``fallback`` is the sum over
    reasons); ``walker`` splits ``fast`` by the walker that served it.
    """
    reasons = dict(_STATS["reasons"])
    return {
        "fast": _STATS["fast"],
        "fallback": sum(reasons.values()),
        "walker": dict(_STATS["walker"]),
        "reasons": reasons,
    }


def fast_stats() -> dict:
    """``{"fast": int, "fallback": int}`` dispatch counts since reset
    (the pre-reason API; see :func:`dispatch_stats` for the breakdown)."""
    stats = dispatch_stats()
    return {"fast": stats["fast"], "fallback": stats["fallback"]}


def reset_dispatch_stats() -> None:
    """Zero the dispatch counters (benchmark guards, tests, eval CLI)."""
    _STATS["fast"] = 0
    for counters in (_STATS["walker"], _STATS["reasons"]):
        for key in counters:
            counters[key] = 0


#: Historical name, kept for callers of the two-counter API.
reset_fast_stats = reset_dispatch_stats


def merge_dispatch_stats(delta: dict) -> None:
    """Fold a worker's dispatch-count delta into this process's counters
    (:func:`repro.eval.parallel.run_jobs` merges per-job payload deltas so
    parent-side :func:`dispatch_stats` covers pooled runs too)."""
    _STATS["fast"] += delta.get("fast", 0)
    for group in ("walker", "reasons"):
        counters = _STATS[group]
        for key, count in delta.get(group, {}).items():
            counters[key] = counters.get(key, 0) + count


def last_dispatch():
    """``(engine, fallback_reason)`` of the most recent dispatch."""
    return _LAST


def simulate_fast(trace, config, schedule, **kwargs) -> SimulationResult:
    """Run on the fast path when eligible, else on the reference simulator.

    The fallback is exact: power schedules fully re-seed on ``reset()``, so
    a reference rerun — even after a partially walked fast attempt —
    consumes the identical on-time sequence.
    """
    global _LAST
    sim = FastReplaySimulator(trace, config, schedule, **kwargs)
    try:
        result = sim.run()
    except FastPathIneligible as exc:
        reason = exc.reason.value
    else:
        _STATS["fast"] += 1
        _STATS["walker"][sim.walker] += 1
        _LAST = ("fast", None)
        return result
    _STATS["reasons"][reason] += 1
    _LAST = ("reference", reason)
    return IntermittentSimulator(trace, config, schedule, **kwargs).run()
