"""Config-family chain scans must be bit-identical to scalar scans.

The batched family kernel (C ``family_chain_scan`` and its pure-Python
reference ``family_chain_scan_py``) enumerates a whole sweep family's
section tables in one kernel call.  Every test here builds the same
family twice — once through :func:`repro.sim.sections.build_family`
and once config-by-config through lazily scanned SectionMaps — and
requires the fully-materialized section dictionaries to match exactly,
across the C and Python kernels, PI markings, forced-checkpoint resume
variants, ragged member depths, and the output-segment overflow retry.
A generated differential test draws the traces, families and markings,
and a fig5 job plan pins that family prefetch changes no result.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core import cext
from repro.core.config import ClankConfig
from repro.eval import fig5
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import DEFAULT_SETTINGS
from repro.sim import sections
from repro.sim.sections import (
    SectionMap,
    build_family,
    clear_cache,
    get_section_map,
)
from repro.trace.access import READ, WRITE
from repro.workloads import get_trace
from repro.workloads.registry import mibench2_names

from tests.test_fast_replay import (
    _ALL_OPTS,
    _MIBENCH,
    _capacities,
    _case_trace,
    _marking_kwargs,
    _programs,
)


@pytest.fixture(autouse=True)
def _isolate():
    """Each test starts from an empty SectionMap cache and resolves the
    kernel afresh under the process's ``REPRO_CEXT``, so a run with
    ``REPRO_CEXT=0`` exercises the Python kernels in every test that
    does not pin one."""
    clear_cache()
    cext.reset_for_tests()
    yield
    clear_cache()
    cext.reset_for_tests()


def _grid(rf=(1, 2, 8, 16), wf=(0, 1, 8), wbb=(0, 2), apb=(0, 2)):
    return [ClankConfig.from_tuple(t)
            for t in itertools.product(rf, wf, wbb, apb)]


def _scalar_tables(trace, configs, **kw):
    """Reference: per-config scalar scans (no family pass)."""
    clear_cache()
    out = []
    for cfg in configs:
        m = get_section_map(trace, cfg, **kw)
        m.section(0, 0)  # walk the whole canonical chain
        out.append(dict(m._sections))
    clear_cache()
    return out


def _family_tables(trace, configs, **kw):
    maps = build_family(trace, configs, **kw)
    out = []
    for m in maps:
        m.section(0, 0)  # materializes the flat store
        out.append(dict(m._sections))
    return out


def _assert_equal(scalar, family, configs):
    for cfg, a, b in zip(configs, scalar, family):
        assert a == b, cfg


def _set_cext(monkeypatch, enabled):
    monkeypatch.setenv("REPRO_CEXT", "1" if enabled else "0")
    cext.reset_for_tests()
    assert (cext.chain_scan_lib() is not None) == enabled


@pytest.mark.parametrize("use_cext", [True, False],
                         ids=["cext", "python"])
class TestFamilyEquivalence:
    def test_capacity_grid(self, monkeypatch, use_cext):
        _set_cext(monkeypatch, use_cext)
        trace = get_trace("crc", "small")
        grid = _grid()
        scalar = _scalar_tables(trace, grid)
        family = _family_tables(trace, grid)
        _assert_equal(scalar, family, grid)

    def test_pi_marking(self, monkeypatch, use_cext):
        _set_cext(monkeypatch, use_cext)
        trace = get_trace("crc", "small")
        grid = _grid(rf=(2, 8), wf=(0, 4), wbb=(0, 2), apb=(0, 2))
        pi = frozenset(range(0, trace.compiled().n, 7))
        kw = dict(pi_access_indices=pi)
        scalar = _scalar_tables(trace, grid, **kw)
        family = _family_tables(trace, grid, **kw)
        _assert_equal(scalar, family, grid)

    def test_forced_resume_variants(self, monkeypatch, use_cext):
        # Forced checkpoints at index 0 and mid-trace exercise the
        # zero-length compiler section and the variant-1 resume, plus
        # the variant-2 direct re-entry after text writes.
        _set_cext(monkeypatch, use_cext)
        trace = get_trace("qsort", "small")
        n = trace.compiled().n
        forced = frozenset({0, n // 3, n // 2})
        grid = _grid(rf=(1, 8), wf=(0, 4), wbb=(0, 2), apb=(0,))
        kw = dict(forced_checkpoints=forced)
        scalar = _scalar_tables(trace, grid, **kw)
        family = _family_tables(trace, grid, **kw)
        _assert_equal(scalar, family, grid)

    def test_ragged_depths(self, monkeypatch, use_cext):
        # rf=1/wbb=0 fragments into many short sections while rf=24
        # spans the trace in a few — one family, wildly different
        # member depths.
        _set_cext(monkeypatch, use_cext)
        trace = get_trace("fft", "small")
        grid = [ClankConfig.from_tuple(t)
                for t in ((1, 0, 0, 0), (1, 1, 1, 0), (4, 4, 4, 4),
                          (24, 8, 4, 0), (16, 0, 2, 2))]
        scalar = _scalar_tables(trace, grid)
        family = _family_tables(trace, grid)
        _assert_equal(scalar, family, grid)


def test_overflow_retry_is_exact():
    # Force the kernel's per-member output segments far below the
    # section count so scan() must double-and-retry; the persistent
    # generation write-back keeps the retried results identical.
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")
    trace = get_trace("fft", "small")  # hundreds of sections per member
    grid = _grid(rf=(1, 2), wf=(0, 1), wbb=(0, 2), apb=(0,))
    scalar = _scalar_tables(trace, grid)
    saved = cext._FAM_PERCAP[0]
    cext._FAM_PERCAP[0] = 4
    try:
        family = _family_tables(trace, grid)
        assert cext._FAM_PERCAP[0] > 4  # the retry actually fired
    finally:
        cext._FAM_PERCAP[0] = saved
    _assert_equal(scalar, family, grid)


def test_single_member_degrades_to_scalar(monkeypatch):
    # A one-config family is a plain chain scan; the family counters
    # must not claim a batched pass for it.
    trace = get_trace("crc", "small")
    before = sections.cache_stats()
    maps = build_family(trace, [ClankConfig.from_tuple((8, 4, 2, 0))])
    maps[0].section(0, 0)
    after = sections.cache_stats()
    assert maps[0]._sections
    assert after["family_passes"] == before["family_passes"]
    assert after["family_maps"] == before["family_maps"]


def test_family_counters_and_cache_population(monkeypatch):
    trace = get_trace("crc", "small")
    grid = _grid(rf=(2, 8), wf=(0, 4), wbb=(0, 2), apb=(0,))
    before = sections.cache_stats()
    build_family(trace, grid)
    after = sections.cache_stats()
    assert after["family_passes"] == before["family_passes"] + 1
    assert after["family_maps"] == before["family_maps"] + len(grid)
    # Every member is now cache-resident: no further scans needed.
    stats0 = sections.cache_stats()
    for cfg in grid:
        get_section_map(trace, cfg)
    stats1 = sections.cache_stats()
    assert stats1["misses"] == stats0["misses"]


# ---- differential: C family kernel == Python family kernel == scalar ---- #


def _event_tables(k, events):
    """Per-member ``{key: (end, cause, steps)}`` of a Python-kernel run."""
    tables = [{} for _ in range(k)]
    for c, s, v, end, cid, steps in events:
        tables[c][(s << 2) | v] = (end, cext.CAUSE_NAMES[cid], tuple(steps))
    return tables


def _c_tables(k, out):
    """The same tables from the C kernel's member-major output segments."""
    nev, _, ev_key, ev_end, ev_cause, ev_nsteps, steps, ev_cap, st_cap = out
    tables = []
    for c in range(k):
        table = {}
        pos = c * st_cap
        for j in range(c * ev_cap, c * ev_cap + nev[c]):
            ns = ev_nsteps[j]
            table[ev_key[j]] = (ev_end[j], cext.CAUSE_NAMES[ev_cause[j]],
                                tuple(steps[pos:pos + ns]))
            pos += ns
        tables.append(table)
    return tables


def _scalar_table(trace, config, kw, python: bool):
    """One member's canonical chain from its own lazily scanned map: the
    Python reference generator, or whichever chain-scan kernel loads."""
    m = SectionMap(trace, config, **kw)
    if python:
        m._engine = None  # no C engine: straightline_chain scans
    m.section(0, 0)
    return {k: (end, cause, tuple(steps))
            for k, (end, cause, _, steps) in m._sections.items()}


def _check_family_differential(case):
    source, members, marking, mark_seed = case
    trace = _case_trace(source)
    kw = _marking_kwargs(trace, marking, mark_seed)
    configs = [ClankConfig.from_tuple(spec, _ALL_OPTS[opt])
               for spec, opt in members]
    maps = [SectionMap(trace, cfg, **kw) for cfg in configs]
    m0 = maps[0]
    det0 = m0._detector
    shift = det0.apb.prefix_low_bits
    params = [m._detector.family_params() for m in maps]
    py = _event_tables(
        len(maps), sections._family_scan_py(m0.ct, det0, shift, m0, params)
    )
    lib = cext.chain_scan_lib()
    if lib is not None:
        eng = cext.FamilyScanEngine(
            lib, m0.ct, det0._text_lo, det0._text_hi, shift,
            m0._forced_sorted, m0.pi_words, m0.pi_indices, params,
        )
        assert _c_tables(len(maps), eng.scan(0)) == py
    for cfg, table in zip(configs, py):
        assert _scalar_table(trace, cfg, kw, python=True) == table, cfg
        assert _scalar_table(trace, cfg, kw, python=False) == table, cfg


_family_cases = st.tuples(
    st.one_of(st.sampled_from(_MIBENCH), _programs),
    st.lists(st.tuples(_capacities, st.integers(0, len(_ALL_OPTS) - 1)),
             min_size=2, max_size=8),
    st.sampled_from(["none", "pi", "epochs", "forced"]),
    st.integers(0, 1000),
)


@settings(max_examples=25, deadline=None)
@given(case=_family_cases)
@example(case=("qsort", [((1, 0, 0, 0), 0), ((16, 8, 4, 4), 31),
                         ((2, 1, 1, 0), 9), ((8, 4, 2, 2), 22)],
               "epochs", 7))
@example(case=("rc4", [((1, 0, 1, 0), 31), ((2, 2, 2, 0), 31),
                       ((4, 1, 0, 2), 4)], "pi", 0))
@example(case=(((WRITE, 0, 1), (READ, 1), (WRITE, 1, 2), (READ, 0),
                (WRITE, 0, 1)),
               [((1, 0, 0, 0), 0), ((1, 1, 1, 2), 31)], "forced", 3))
def test_family_kernels_agree_with_scalar_maps(case):
    """Generated (trace, 2-8 member family, marking): the C family kernel,
    its Python reference and every member's own lazily scanned SectionMap
    enumerate the same canonical chain, section by section."""
    _check_family_differential(case)


# ---- a real sweep plan: family prefetch is a pure amortization ---- #


def test_fig5_plan_family_prefetch_changes_nothing(monkeypatch):
    # One workload's fig5 job plan, run twice from cleared caches: with
    # family prefetch, and with it stubbed out (every map then scans
    # lazily per config).  The results must be identical, and the
    # prefetching run must actually have family-built its maps.
    settings_ = DEFAULT_SETTINGS.quick()
    names = mibench2_names()
    workload = "crc"
    jobs = [
        SimJob(workload=workload, config=key[:4], size=settings_.sweep_size,
               salt=names.index(workload), use_compiler=key[4])
        for key in fig5.sweep_keys()
    ]

    def sweep():
        clear_cache()
        sections.reset_cache_stats()
        results = run_jobs(jobs, settings_, n_workers=1)
        return ([r.to_dict() for r in results], sections.cache_stats())

    family, fam_stats = sweep()
    monkeypatch.setattr(sections, "prefetch_family", lambda *a, **k: None)
    lazy, lazy_stats = sweep()
    assert family == lazy
    assert lazy_stats["family_maps"] == 0
    assert fam_stats["family_maps"] >= 0.8 * fam_stats["misses"] > 0
