"""The section-memoized fast path: equivalence, eligibility, caches.

The contract under test is strong: :class:`repro.sim.fast.FastReplaySimulator`
must be *bit-identical* to the reference :class:`IntermittentSimulator` on
every eligible run — same cycle buckets, same ``checkpoints_by_cause``,
same power-cycle and output counts — and :func:`simulate_fast` must fall
back to the reference (transparently and exactly) whenever a run is not
eligible.  The optional C chain-scan kernel (:mod:`repro.core.cext`) must
in turn be branch-identical to the pure-Python generator it ports.
"""

import os
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.common.errors import SimulationError
from repro.compiler.epoch_analysis import compile_with_epochs
from repro.core import cext
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.core.detector import IdempotencyDetector
from repro.eval.runner import pi_words_for
from repro.obs.recorder import MemoryRecorder, NullRecorder
from repro.power.schedules import (
    ExponentialPower,
    FixedPower,
    ReplayPower,
    RuntPower,
)
from repro.sim.fast import (
    FastPathIneligible,
    FastReplaySimulator,
    fast_stats,
    reset_fast_stats,
    simulate_fast,
)
from repro.sim.sections import (
    SectionMap,
    cache_stats,
    clear_cache,
    get_section_map,
    reset_cache_stats,
)
from repro.sim.simulator import IntermittentSimulator, simulate
from repro.trace.access import READ, WRITE
from repro.workloads import get_trace

from tests.conftest import DATA_WORD, make_trace

CONFIGS = [(1, 0, 0, 0), (8, 4, 0, 0), (8, 4, 2, 0), (16, 8, 4, 4)]

OPT_COMBOS = [
    PolicyOptimizations.none(),
    PolicyOptimizations.all(),
    PolicyOptimizations(ignore_false_writes=True),
    PolicyOptimizations(latest_checkpoint=True),
    PolicyOptimizations(no_wf_overflow=True, ignore_false_writes=True),
]


def _pair(trace, config, schedule_args, **kw):
    """(reference, fast) result dicts for one run; both verify=False."""
    ref = IntermittentSimulator(
        trace, config, ExponentialPower(*schedule_args), verify=False, **kw
    ).run()
    fast = simulate_fast(
        trace, config, ExponentialPower(*schedule_args), verify=False, **kw
    )
    return (
        ref.to_dict(include_derived=False),
        fast.to_dict(include_derived=False),
    )


class TestEquivalence:
    """Fast path vs. reference, across the shapes the evaluation sweeps."""

    @pytest.mark.parametrize("name", ["crc", "fft", "rc4", "qsort"])
    def test_buffer_grid(self, name):
        trace = get_trace(name, "small")
        for spec in CONFIGS:
            config = ClankConfig.from_tuple(spec)
            for seed in (1, 2):
                for on in (800, 2000):
                    a, b = _pair(
                        trace, config, (on, seed),
                        perf_watchdog="auto", progress_watchdog="auto",
                    )
                    assert a == b, (name, spec, seed, on)

    def test_optimization_combos(self):
        trace = get_trace("crc", "small")
        for opts in OPT_COMBOS:
            config = ClankConfig(8, 4, 2, 4, optimizations=opts)
            for seed in (3, 4):
                a, b = _pair(
                    trace, config, (1200, seed),
                    perf_watchdog="auto", progress_watchdog="auto",
                )
                assert a == b, opts

    def test_untracked_wbb_owned_writes(self):
        """Small-RF configs with a WBB under latest-checkpoint: sections
        enter the untracked tail with live WBB entries, and writes to the
        captured addresses must pass in place (never a latest_write
        boundary) in the reference simulator and the chain scan alike."""
        trace = get_trace("rc4", "small")
        for spec in ((1, 0, 1, 0), (2, 1, 1, 0), (2, 2, 2, 0)):
            config = ClankConfig.from_tuple(spec)
            for seed in (1, 4):
                a, b = _pair(
                    trace, config, (600, seed),
                    perf_watchdog="auto", progress_watchdog="auto",
                )
                assert a == b, (spec, seed)
                assert a["checkpoints_by_cause"].get("latest_write", 0) == \
                    b["checkpoints_by_cause"].get("latest_write", 0)

    def test_no_watchdogs_and_perf_only(self):
        trace = get_trace("fft", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        for kw in (
            dict(perf_watchdog=0, progress_watchdog=0),
            dict(perf_watchdog="auto", progress_watchdog=0),
            dict(perf_watchdog=0, progress_watchdog="auto"),
        ):
            a, b = _pair(trace, config, (900, 7), **kw)
            assert a == b, kw

    def test_pi_marking(self):
        trace = get_trace("rc4", "small")
        piw = pi_words_for(trace)
        config = ClankConfig(8, 4, 2, 0,
                             optimizations=PolicyOptimizations.all())
        for seed in (5, 6):
            a, b = _pair(
                trace, config, (1000, seed),
                pi_words=piw, perf_watchdog="auto", progress_watchdog="auto",
            )
            assert a == b, seed

    def test_forced_checkpoints(self):
        trace = get_trace("qsort", "small")
        n = len(trace.accesses)
        forced = frozenset({0, n // 3, n // 2, n})
        config = ClankConfig.from_tuple((8, 4, 0, 0))
        for seed in (8, 9):
            a, b = _pair(
                trace, config, (700, seed),
                forced_checkpoints=forced,
                perf_watchdog="auto", progress_watchdog="auto",
            )
            assert a == b, seed

    def test_tiny_buffers_heavy_watchdog_cuts(self):
        # rf=1 under ignore-false-writes is the shape that exercises
        # watchdog_cut_safe hardest (long sections, frequent cuts).
        trace = get_trace("crc", "small")
        config = ClankConfig(
            1, 0, 0, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        for seed in (1, 2, 3):
            a, b = _pair(
                trace, config, (800, seed),
                perf_watchdog=0, progress_watchdog="auto",
            )
            assert a == b, seed


class TestEligibility:
    """Runs the section walk cannot carry must raise, and simulate_fast
    must transparently (and exactly) rerun them on the reference."""

    def _sim(self, **kw):
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        defaults = dict(verify=False, perf_watchdog="auto",
                        progress_watchdog="auto")
        defaults.update(kw)
        return FastReplaySimulator(
            trace, config, ExponentialPower(900, seed=1), **defaults
        )

    def test_verify_ineligible(self):
        with pytest.raises(FastPathIneligible):
            self._sim(verify=True).run()

    def test_live_recorder_ineligible(self):
        with pytest.raises(FastPathIneligible):
            self._sim(recorder=MemoryRecorder()).run()

    def test_null_recorder_eligible(self):
        # NullRecorder normalizes to "no recorder": stays on the fast path.
        assert self._sim(recorder=NullRecorder()).run().completed

    def test_volatile_ranges_ineligible(self):
        trace = get_trace("crc", "small")
        vol = (trace.memory_map.word_range("stack"),)
        with pytest.raises(FastPathIneligible):
            self._sim(volatile_ranges=vol).run()

    def test_pi_hazard_ineligible(self):
        # An access-marked PI write aliasing a tracked write of the same
        # word, under ignore-false-writes: the static hazard trips.
        trace = make_trace(
            [(WRITE, 0, 5), (READ, 1), (WRITE, 0, 5), (WRITE, 2, 1)]
        )
        config = ClankConfig(
            4, 2, 1, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        smap = SectionMap(trace, config, pi_access_indices=frozenset({2}))
        assert smap.pi_hazard
        sim = FastReplaySimulator(
            trace, config, ExponentialPower(500, seed=1),
            pi_access_indices=frozenset({2}), verify=False,
        )
        with pytest.raises(FastPathIneligible):
            sim.run()

    def test_fallback_is_exact(self):
        # verify=True is ineligible; simulate_fast must return the
        # reference's own result for the identical schedule.
        trace = get_trace("fft", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        ref = IntermittentSimulator(
            trace, config, ExponentialPower(900, seed=2), verify=True
        ).run()
        reset_fast_stats()
        via = simulate_fast(
            trace, config, ExponentialPower(900, seed=2), verify=True
        )
        assert fast_stats() == {"fast": 0, "fallback": 1}
        assert via.to_dict() == ref.to_dict()


class TestCExtension:
    """The C chain-scan kernel vs. the pure-Python reference generator."""

    def _chain(self, det, ct, forced, pw, pi_idx):
        scratch = det.chain_scratch(ct)
        return list(
            (s, v, end, cause, steps)
            for s, v, end, cause, steps, _ in det.straightline_chain(
                ct, 0, False, -1, forced, pw, pi_idx, scratch
            )
        )

    def test_engine_matches_python_generator(self):
        lib = cext.chain_scan_lib()
        if lib is None:
            pytest.skip(f"C kernel unavailable: {cext.cext_status()}")
        names = cext.CAUSE_NAMES
        trace = get_trace("crc", "small")
        ct = trace.compiled()
        forced = [0, ct.n // 2]
        piw = pi_words_for(trace)
        for spec in CONFIGS:
            for opts in OPT_COMBOS:
                config = ClankConfig(*spec, optimizations=opts)
                det = IdempotencyDetector(
                    config, trace.memory_map.text_word_range
                )
                eng = det.chain_scan_engine(ct, forced, piw, frozenset())
                assert eng is not None
                nsec = eng.scan(0, 0, -1)
                from_c = [
                    (
                        eng.out_start[k], eng.out_variant[k], eng.out_end[k],
                        names[eng.out_cause[k]],
                        tuple(
                            eng.out_steps[eng.out_steps_off[k]:
                                          eng.out_steps_off[k + 1]]
                        ),
                    )
                    for k in range(nsec)
                ]
                assert from_c == self._chain(det, ct, forced, piw,
                                             frozenset())

    def test_first_dw_matches_python_collect_dw(self):
        lib = cext.chain_scan_lib()
        if lib is None:
            pytest.skip(f"C kernel unavailable: {cext.cext_status()}")
        trace = get_trace("fft", "small")
        ct = trace.compiled()
        opts = PolicyOptimizations(ignore_false_writes=True,
                                   no_wf_overflow=True)
        config = ClankConfig(4, 2, 1, 0, optimizations=opts)
        det = IdempotencyDetector(config, trace.memory_map.text_word_range)
        eng = det.chain_scan_engine(ct, [], frozenset(), frozenset())
        scratch = det.chain_scratch(ct)
        starts = [
            (s, v) for s, v, *_ in det.straightline_chain(
                ct, 0, False, -1, [], frozenset(), frozenset(), scratch
            )
        ][:8]
        for s, v in starts:
            chain = det.straightline_chain(
                ct, s, v == 2, s if v == 1 else -1, [],
                frozenset(), frozenset(), scratch, collect_dw=True,
            )
            py_dw = next(chain)[5]
            chain.close()
            assert eng.scan_first_dw(s, 1 if v == 2 else 0,
                                     s if v == 1 else -1) == py_dw

    def test_repro_cext_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_CEXT", "0")
        cext.reset_for_tests()
        try:
            assert cext.chain_scan_lib() is None
            assert "disabled" in cext.cext_status()
            # With the kernel gated off the SectionMap silently uses the
            # Python generator — and must produce the same sections.
            trace = get_trace("crc", "small")
            config = ClankConfig.from_tuple((8, 4, 2, 0))
            py_map = SectionMap(trace, config)
            py_map.section(0, 0)
            monkeypatch.setenv("REPRO_CEXT", "1")
            cext.reset_for_tests()
            c_map = SectionMap(trace, config)
            # The Python path materializes the whole chain eagerly; the C
            # path indexes it and materializes per query — every section
            # the reference enumerated must come back identical.
            assert py_map._sections
            for key, sec in py_map._sections.items():
                assert c_map.section(key >> 2, key & 3) == sec
        finally:
            cext.reset_for_tests()


class TestWatchdogCutSafe:
    def test_trivial_cases(self):
        trace = get_trace("crc", "small")
        config = ClankConfig(
            1, 0, 0, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        smap = SectionMap(trace, config)
        end, _, _, _ = smap.section(0, 0)
        # No failed cycle survived past the cut: nothing can be stale.
        assert smap.watchdog_cut_safe(0, 0, 1, max(2, end), [])
        # Reaches at or below the cut are re-committed by the committing
        # cycle itself.
        assert smap.watchdog_cut_safe(0, 0, 2, max(3, end), [(2, 0), (1, 0)])

    def test_direct_writes_memoized(self):
        trace = get_trace("crc", "small")
        config = ClankConfig(
            1, 0, 0, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        smap = SectionMap(trace, config)
        dw = smap._direct_writes(0, 0)
        assert dw == tuple(sorted(dw))
        assert smap._direct_writes(0, 0) is dw  # cached


class TestCaches:
    def test_section_map_cache_hits(self):
        clear_cache()
        reset_cache_stats()
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 0, 0))
        m1 = get_section_map(trace, config)
        m2 = get_section_map(trace, config)
        assert m1 is m2
        stats = cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["cached"] == 1
        assert stats["evictions"] == 0
        # A different config is a different key.
        get_section_map(trace, ClankConfig.from_tuple((1, 0, 0, 0)))
        assert cache_stats()["misses"] == 2

    def test_fast_stats_counts(self):
        reset_fast_stats()
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 0, 0))
        kw = dict(perf_watchdog="auto", progress_watchdog="auto")
        simulate_fast(trace, config, ExponentialPower(900, seed=1),
                      verify=False, **kw)
        simulate_fast(trace, config, ExponentialPower(900, seed=1),
                      verify=True, **kw)
        stats = fast_stats()
        assert stats["fast"] == 1 and stats["fallback"] == 1

    def test_compiled_trace_staleness(self):
        trace = make_trace([(WRITE, 0, 1), (READ, 0), (WRITE, 1, 2)])
        ct = trace.compiled()
        assert trace.compiled() is ct  # cached
        # Boundary-element identity is the safety net...
        trace.accesses.append(trace.accesses.pop())  # same objects: cached
        assert trace.compiled() is ct
        from repro.trace.access import Access
        trace.accesses.append(Access(READ, DATA_WORD, 1, 4))
        assert trace.compiled() is not ct  # length changed: rebuilt
        # ...and invalidate() is the explicit contract for interior edits.
        ct2 = trace.compiled()
        trace.invalidate()
        assert trace.compiled() is not ct2

    def test_same_summary_different_content_keys_apart(self):
        # Same name, length, total cycles and checksum; different
        # accesses.  Only the content key tells the traces apart, and
        # the SectionMap LRU and the PI cache must both use it.
        a = make_trace([(WRITE, 0, 1), (READ, 0), (WRITE, 1, 2), (READ, 1)])
        b = make_trace([(READ, 0), (WRITE, 0, 1), (READ, 1), (WRITE, 1, 2)])
        assert (a.name, len(a), a.total_cycles, a.checksum) == \
            (b.name, len(b), b.total_cycles, b.checksum)
        clear_cache()
        config = ClankConfig.from_tuple((1, 0, 0, 0))
        assert get_section_map(a, config) is not get_section_map(b, config)
        assert pi_words_for(a) != pi_words_for(b)
        for trace in (a, b):
            kw = dict(pi_words=pi_words_for(trace), verify=False)
            got = simulate_fast(trace, config, FixedPower(10 ** 6), **kw)
            ref = IntermittentSimulator(
                trace, config, FixedPower(10 ** 6), **kw
            ).run()
            assert got.to_dict() == ref.to_dict()
        results = [
            simulate_fast(t, config, FixedPower(10 ** 6), verify=False)
            for t in (a, b)
        ]
        assert results[0].checkpoints_by_cause != \
            results[1].checkpoints_by_cause


class TestVolDirtyRollback:
    def test_rolled_back_volatile_words_not_billed(self):
        """Words dirtied by a rolled-back section must not inflate the next
        checkpoint's incremental-save cost (regression: ``vol_dirty`` was
        not cleared on power loss)."""
        vol_word = DATA_WORD + 4
        trace = make_trace(
            [
                (WRITE, 0, 11),
                (WRITE, 1, 12),
                (WRITE, 2, 13),
                (WRITE, 3, 14),
                (WRITE, 4, 15),  # the volatile word
                (WRITE, 5, 16),
            ]
        )
        config = ClankConfig.from_tuple((8, 8, 2, 0))
        # Cycle 1 (65): dies mid access 5, after dirtying the volatile
        # word.  Cycle 2 (106): progress watchdog fires after access 2;
        # its checkpoint precedes the volatile write, so with the rollback
        # clearing vol_dirty it must bill zero volatile words; it then
        # re-dirties the word and dies at access 5.  Cycle 3 (200): runs
        # from the cut to the final checkpoint, which bills one.
        result = IntermittentSimulator(
            trace,
            config,
            ReplayPower([65, 106, 200]),
            progress_watchdog=9,
            progress_watchdog_adaptive=False,
            volatile_ranges=((vol_word, vol_word + 1),),
            verify=True,
        ).run()
        assert result.verified
        assert result.checkpoints_by_cause == {"progress_wdt": 1, "final": 1}
        base = IntermittentSimulator(
            trace, config, ReplayPower([10 ** 6]), verify=True
        ).cost_model
        assert result.checkpoint_cycles == (
            base.checkpoint_cycles(0, 0) + base.checkpoint_cycles(0, 1)
        )


# ---- differential: C walker == Python walker == verifying reference ---- #

_MIBENCH = ("crc", "limits", "fft", "rc4", "qsort", "sha")
_ALL_OPTS = PolicyOptimizations.all_settings()

_programs = st.lists(
    st.tuples(
        st.sampled_from([READ, WRITE]),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=80,
).map(lambda raw: tuple(
    (k, off) if k == READ else (k, off, v) for k, off, v in raw
))
_loads = st.one_of(
    st.just(0), st.just("auto"), st.integers(min_value=20, max_value=400)
)
_schedules = st.one_of(
    st.tuples(st.just("exp"), st.sampled_from([40, 150, 300, 800, 3000]),
              st.integers(0, 1000)),
    st.tuples(st.just("runt"), st.sampled_from([150, 800, 3000]),
              st.integers(1, 40), st.sampled_from([0.3, 0.7]),
              st.integers(0, 1000)),
    st.tuples(st.just("fixed"), st.integers(1, 600)),
)
_capacities = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16]), st.sampled_from([0, 1, 4, 8]),
    st.sampled_from([0, 1, 2, 4]), st.sampled_from([0, 2, 4]),
)
_cases = st.tuples(
    st.one_of(st.sampled_from(_MIBENCH), _programs),
    _capacities,
    st.integers(0, len(_ALL_OPTS) - 1),
    _loads,
    _loads,
    st.booleans(),
    st.sampled_from(["none", "pi", "epochs", "forced"]),
    st.integers(0, 1000),
    _schedules,
    st.one_of(st.none(), st.integers(3, 40)),
)

#: Shrunk cases that reach every stop of the C walk's protocol (checked
#: by test_fixed_cases_reach_every_path); they also run as examples of
#: the property.
_FIXED_CASES = {
    "unsafe_cut": ("limits", (16, 0, 2, 0), 31, "auto", "auto", True, "pi",
                   0, ("exp", 300, 96), None),
    "refill": ("rc4", (16, 0, 4, 2), 14, 0, 0, True, "pi", 0,
               ("exp", 3000, 26), None),
    "tiny_refill": ("crc", (8, 4, 2, 0), 15, 0, 0, True, "epochs", 143,
                    ("exp", 40, 17), None),
    "safe_cut": ("sha", (4, 8, 2, 0), 29, 0, 83, True, "none", 0,
                 ("fixed", 300), None),
    "stall_walk": ("fft", (1, 4, 0, 0), 18, 81, 190, True, "pi", 0,
                   ("fixed", 300), None),
    "stall_restart": ("crc", (8, 4, 2, 0), 0, 0, 0, True, "none", 0,
                      ("exp", 40, 7), 5),
}
# Its cuts resume at keys off the canonical chain.
_FIXED_CASES["off_chain_section"] = _FIXED_CASES["unsafe_cut"]


def _case_trace(source):
    """A generated case's trace: a tiny MiBench trace or a program."""
    if isinstance(source, str):
        return get_trace(source, "tiny")
    # Every generated program shares make_trace's default name, so
    # same-length programs differ only in content: the SectionMap and PI
    # caches must key them apart by that content.
    return make_trace(list(source))


def _marking_kwargs(trace, marking: str, mark_seed: int) -> dict:
    """The compiler marking of a generated case, as simulator kwargs."""
    if marking == "pi":
        return dict(pi_words=pi_words_for(trace))
    if marking == "epochs":
        plan = compile_with_epochs(trace, 40 + mark_seed)
        return dict(pi_access_indices=plan.ignorable,
                    forced_checkpoints=plan.boundaries)
    if marking == "forced":
        n = len(trace.accesses)
        rng = random.Random(mark_seed)
        return dict(
            forced_checkpoints=frozenset(rng.sample(range(n), min(n, 3)))
        )
    return {}


def _case_inputs(case):
    """``(trace, config, make_schedule, kwargs)`` of a differential case."""
    (source, spec, opt_idx, perf, prog, adaptive, marking, mark_seed,
     sched, max_pc) = case
    trace = _case_trace(source)
    config = ClankConfig.from_tuple(spec, _ALL_OPTS[opt_idx])
    kw = dict(perf_watchdog=perf, progress_watchdog=prog,
              progress_watchdog_adaptive=adaptive, max_power_cycles=max_pc)
    kw.update(_marking_kwargs(trace, marking, mark_seed))

    def make_schedule():
        if sched[0] == "exp":
            return ExponentialPower(sched[1], seed=sched[2])
        if sched[0] == "runt":
            return RuntPower(sched[1], sched[2], sched[3], seed=sched[4])
        return FixedPower(sched[1])

    return trace, config, make_schedule, kw


def _outcome(run):
    try:
        return ("ok", run().to_dict(include_derived=False))
    except FastPathIneligible as exc:
        return ("ineligible", exc.reason.value)
    except SimulationError as exc:
        return ("stall", str(exc))


def _walk(case, use_c: bool, codes=None):
    """One fast-path walk with the C kernel on or off; ``codes`` collects
    the C walk's stop codes."""
    trace, config, make_schedule, kw = _case_inputs(case)
    codes = set() if codes is None else codes
    saved = os.environ.get("REPRO_CEXT")
    os.environ["REPRO_CEXT"] = "1" if use_c else "0"
    cext.reset_for_tests()
    try:
        eng = cext.walk_engine()
        assert (eng is not None) == (use_c and cext.chain_scan_lib()
                                     is not None)
        if eng is not None:
            step = eng.fn

            def probe(w, st_):
                rc = step(w, st_)
                codes.add(rc)
                return rc

            eng.fn = probe
        sim = FastReplaySimulator(trace, config, make_schedule(),
                                  verify=False, **kw)
        out = _outcome(sim.run)
        if out[0] == "ok":
            # Only a power-cycle-cap or reach-buffer stop re-walks in Python.
            assert sim.walker == ("c" if eng is not None else "python") or (
                cext.BW_FALLBACK in codes
            )
        return out
    finally:
        if saved is None:
            del os.environ["REPRO_CEXT"]
        else:
            os.environ["REPRO_CEXT"] = saved
        cext.reset_for_tests()


def _check_differential(case, codes=None):
    """C walker == Python walker == ``simulate(verify=True)``, field by
    field (``verified`` excepted); returns the C walk's outcome."""
    via_c = _walk(case, True, codes)
    via_py = _walk(case, False)
    assert via_c == via_py
    trace, config, make_schedule, kw = _case_inputs(case)
    ref = _outcome(
        lambda: simulate(trace, config, make_schedule(), verify=True, **kw)
    )
    fast = via_c
    if fast[0] == "ineligible":
        # The fast path refuses; simulate_fast's reference rerun must
        # still match the verifying reference.
        fast = _outcome(lambda: simulate_fast(
            trace, config, make_schedule(), verify=False, **kw
        ))
    assert fast[0] == ref[0]
    if ref[0] == "ok":
        assert ref[1].pop("verified") and not fast[1].pop("verified")
    assert fast == ref
    return via_c


class TestWalkerDifferential:
    """Generated (trace, config, watchdogs, marking, schedule) inputs: the
    C section walk, the Python walker and the verifying reference agree."""

    @settings(max_examples=30, deadline=None)
    @given(case=_cases)
    @example(case=_FIXED_CASES["unsafe_cut"])
    @example(case=_FIXED_CASES["refill"])
    @example(case=_FIXED_CASES["tiny_refill"])
    @example(case=_FIXED_CASES["safe_cut"])
    @example(case=_FIXED_CASES["stall_walk"])
    @example(case=_FIXED_CASES["stall_restart"])
    # Shrunk counterexamples: same-length synthetic programs, which
    # shared one SectionMap while the caches keyed traces by name,
    # length, cycles and checksum instead of content.
    @example(case=(((READ, 0),) * 8, (8, 0, 4, 4), 19, 0, 0, False, "pi", 0,
                   ("exp", 40, 0), None))
    @example(case=(((READ, 0),) * 7, (1, 0, 0, 0), 0, 0, 20, False, "none",
                   0, ("exp", 40, 0), 18))
    def test_walkers_agree_with_reference(self, case):
        _check_differential(case)

    def test_draws_past_int64_walk_in_python(self):
        # The C walk holds on-times as int64; a schedule drawing past
        # that range is walked by the Python walker, identically.
        trace = get_trace("crc", "tiny")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        huge = ReplayPower([2 ** 70])
        sim = FastReplaySimulator(trace, config, huge, verify=False)
        result = sim.run().to_dict(include_derived=False)
        assert sim.walker == "python"
        ref = IntermittentSimulator(
            trace, config, ReplayPower([2 ** 70]), verify=False
        ).run()
        assert result == ref.to_dict(include_derived=False)

    @pytest.mark.parametrize("path", sorted(_FIXED_CASES))
    def test_fixed_cases_reach_every_path(self, path):
        if cext.chain_scan_lib() is None:
            pytest.skip(f"C kernel unavailable: {cext.cext_status()}")
        codes = set()
        outcome = _check_differential(_FIXED_CASES[path], codes)
        reached = {
            "unsafe_cut": outcome == ("ineligible", "watchdog_cut")
            and cext.BW_NEED_CUT in codes,
            "off_chain_section": cext.BW_NEED_SECTION in codes,
            "refill": cext.BW_NEED_ONTIMES in codes,
            "tiny_refill": cext.BW_NEED_ONTIMES in codes,
            "safe_cut": outcome[0] == "ok" and cext.BW_NEED_CUT in codes,
            # The two max_power_cycles messages: the cap hit mid-walk, and
            # a boot loop no on-time can get past.
            "stall_walk": outcome[0] == "stall" and cext.BW_FALLBACK in codes
            and "power cycles at trace position" in outcome[1],
            "stall_restart": outcome[0] == "stall"
            and cext.BW_FALLBACK in codes
            and "no forward progress" in outcome[1],
        }
        assert reached[path], (path, outcome, codes)
