"""Optional C acceleration: the section-chain scans and the section walk.

Two loops carry the fast path's remaining cost, and both are
branch-light integer code over flat arrays — exactly the shape a C
compiler turns into a ~20x faster kernel:

* the O(n-accesses) chain scan per ``(trace, config)`` key
  (:meth:`~repro.core.detector.IdempotencyDetector.straightline_chain`,
  scalar and config-family batched), which enumerates a
  :class:`~repro.sim.sections.SectionMap`;
* the section walk of every fast-path run and batched row
  (:meth:`repro.sim.fast.FastReplaySimulator.walk_python` is its
  reference), driven through :class:`WalkEngine` over the SectionMap's
  flat tables in place.

This module compiles the line-for-line C ports in ``_chainscan.c`` on
demand with whatever system C compiler is present and drives them
through :mod:`ctypes`.  It is strictly optional infrastructure:

* no compiler, a failed compile, a failed load, or ``REPRO_CEXT=0`` all
  degrade silently to the pure-Python implementations (the references,
  which stay the source of truth for semantics);
* the shared library is cached in the system temp directory keyed by a
  hash of the C source, so each source revision compiles once per
  machine, not once per process;
* no third-party packages and no ``Python.h`` are involved — the kernels
  take plain int32/int64 buffers, built from the standard library only.

``cext_status()`` reports which path a process ended up on (tests and the
CI equivalence matrix pin both paths explicitly).
"""

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
import threading
from array import array
from bisect import bisect_left
from typing import Optional

#: Mirrors the CAUSE_* codes in _chainscan.c.
CAUSE_NAMES = (
    "final", "compiler", "output", "text_write", "violation",
    "wbb_full", "wf_full", "apb_full", "rf_full", "latest_write",
)

#: Mirrors the F_* flag bits in _chainscan.c.
F_APB_ON = 1
F_IGNORE_TEXT = 2
F_IGNORE_FALSE_WRITES = 4
F_REMOVE_DUPLICATES = 8
F_NO_WF_OVERFLOW = 16
F_LATEST_CHECKPOINT = 32
F_HAS_PI = 64
F_FIRST_DW = 128

_SOURCE = os.path.join(os.path.dirname(__file__), "_chainscan.c")

_lib = None
_tried = False
_status = "untried"


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build() -> Optional[ctypes.CDLL]:
    """Compile (if needed) and load the kernel; None on any failure."""
    global _status
    if os.environ.get("REPRO_CEXT", "1") == "0":
        _status = "disabled (REPRO_CEXT=0)"
        return None
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError as exc:
        _status = f"source unreadable: {exc}"
        return None
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache_dir = os.environ.get("REPRO_CEXT_CACHE") or tempfile.gettempdir()
    so_path = os.path.join(cache_dir, f"repro_chainscan_{digest}.so")
    if not os.path.exists(so_path):
        cc = _compiler()
        if cc is None:
            _status = "no C compiler on PATH"
            return None
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd)
        try:
            subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", tmp, _SOURCE],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so_path)  # atomic: racing processes all win
        except Exception as exc:
            _status = f"compile failed: {exc}"
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return None
    try:
        lib = ctypes.CDLL(so_path)
        fn = lib.chain_scan
    except (OSError, AttributeError) as exc:
        _status = f"load failed: {exc}"
        return None
    c_i32 = ctypes.c_int32
    p = ctypes.c_void_p
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        p, p, p, p, p,                      # ops, wids, pids, pi, fs
        c_i32, c_i32,                       # nfs, n
        c_i32, c_i32, c_i32,                # start, direct, forced_done
        c_i32, c_i32, c_i32, c_i32, c_i32,  # caps, flags
        p, p, p, p, p,                      # scratch + gen
        p, p, p, p, p, p,                   # outputs
        p,                                  # dw_out (F_FIRST_DW)
    )
    try:
        fam = lib.family_chain_scan
    except AttributeError as exc:  # pragma: no cover - stale .so only
        _status = f"load failed: {exc}"
        return None
    c_i64 = ctypes.c_int64
    fam.restype = c_i64
    fam.argtypes = (
        p, p, p, p, p,                      # ops, wids, pids, pi, fs
        c_i32, c_i32, c_i32, c_i32,         # nfs, n, n_words, n_prefixes
        c_i32, c_i32,                       # start0, nk
        p, p,                               # caps, cflags
        p, p, p, p, p,                      # membership scratch + gen
        p, p, p, p,                         # ev_key/end/cause/nsteps
        p,                                  # steps_out
        c_i64, c_i64,                       # ev_percap, st_percap
        p, p,                               # out_nev, out_nst
    )
    try:
        bw = lib.section_walk
    except AttributeError as exc:  # pragma: no cover - stale .so only
        _status = f"load failed: {exc}"
        return None
    bw.restype = c_i64
    bw.argtypes = (p, p)                    # parameter block, walk state
    _status = f"loaded ({so_path})"
    return lib


def chain_scan_lib() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or None (memoized, never raises)."""
    global _lib, _tried
    if not _tried:
        _tried = True
        _lib = _build()
    return _lib


def cext_status() -> str:
    """Human-readable disposition of the C kernel for this process."""
    return _status


def reset_for_tests() -> None:
    """Forget the load attempt so tests can re-gate via REPRO_CEXT."""
    global _lib, _tried, _status
    _lib = None
    _tried = False
    _status = "untried"
    _walk_tls.engine = None


def _addr(buf) -> int:
    """Base address of an ``array.array`` (0 rejects empty buffers)."""
    return buf.buffer_info()[0]


class ChainScanEngine:
    """Prebound ctypes arguments for one SectionMap's chain scans.

    Holds references to every buffer the kernel reads or writes (the
    per-trace memoized scan/prefix/PI arrays, the shared generation
    scratch, and the per-trace output staging buffers), so each
    :meth:`scan` call is a single foreign-function invocation.  The
    output buffers are staging only — the caller copies what it keeps —
    and are shared per trace, which is safe single-threaded (the
    process-parallel engine gives each worker its own process).
    """

    __slots__ = ("_fn", "_args", "out_start", "out_variant", "out_end",
                 "out_cause", "out_steps_off", "out_steps", "out_dw")

    def __init__(self, lib, ct, params, forced_sorted, pi_words, pi_indices):
        (rf_cap, wf_cap, wbb_cap, apb_cap, flags,
         text_lo, text_hi, shift) = params
        ops_b, wids_b, n_words = ct.scan_buffers(text_lo, text_hi)
        if flags & F_APB_ON:
            pids_b, n_prefixes = ct.prefix_buffers(shift)
            pids_addr = _addr(pids_b)
        else:
            pids_b, n_prefixes = None, 1
            pids_addr = 0
        if pi_words or pi_indices:
            flags |= F_HAS_PI
            pi_b = ct.pi_mask_buffer(pi_words, pi_indices)
            pi_addr = _addr(pi_b)
        else:
            pi_b = None
            pi_addr = 0
        scratch = ct.c_chain_scratch(
            n_words if n_words else 1, shift if flags & F_APB_ON else -1,
            n_prefixes,
        )
        gen_b, rf_b, wf_b, wbb_b, apb_b = scratch
        out = ct.c_chain_outputs()
        (self.out_start, self.out_variant, self.out_end,
         self.out_cause, self.out_steps_off, self.out_steps,
         self.out_dw) = out
        fs_b = array("i", forced_sorted) if forced_sorted else array("i", [0])
        self._fn = lib.chain_scan
        self._args = (
            _addr(ops_b) if ct.n else 0,
            _addr(wids_b) if ct.n else 0,
            pids_addr,
            pi_addr,
            _addr(fs_b),
            len(forced_sorted),
            ct.n,
            rf_cap, wf_cap, wbb_cap, apb_cap, flags,
            _addr(rf_b), _addr(wf_b), _addr(wbb_b), _addr(apb_b),
            _addr(gen_b),
            _addr(self.out_start), _addr(self.out_variant),
            _addr(self.out_end), _addr(self.out_cause),
            _addr(self.out_steps_off), _addr(self.out_steps),
            _addr(self.out_dw),
            # Buffer lifetimes: the arrays must outlive this engine.
            (ops_b, wids_b, pids_b, pi_b, fs_b, gen_b,
             rf_b, wf_b, wbb_b, apb_b),
        )

    def scan(self, start: int, direct: int, forced_done: int) -> int:
        """Run the kernel from one section entry; returns section count."""
        a = self._args
        return self._fn(
            a[0], a[1], a[2], a[3], a[4], a[5], a[6],
            start, direct, forced_done,
            a[7], a[8], a[9], a[10], a[11],
            a[12], a[13], a[14], a[15], a[16],
            a[17], a[18], a[19], a[20], a[21], a[22], a[23],
        )

    def scan_first_dw(self, start: int, direct: int, forced_done: int):
        """Scan just the first section, returning its direct-commit
        write indices (the ``collect_dw`` mode of the Python generator)."""
        a = self._args
        self._fn(
            a[0], a[1], a[2], a[3], a[4], a[5], a[6],
            start, direct, forced_done,
            a[7], a[8], a[9], a[10], a[11] | F_FIRST_DW,
            a[12], a[13], a[14], a[15], a[16],
            a[17], a[18], a[19], a[20], a[21], a[22], a[23],
        )
        dw = self.out_dw
        k = dw[0]
        return tuple(dw[1:k + 1]) if k else ()


#: Member limit per batched family kernel call (chunking bound; the
#: sequential kernel itself has no hard cap).
FAMILY_MAX = 64


#: Initial per-member event/step segment size for family scans; grows by
#: doubling on kernel overflow (module-level so the learned size carries
#: across the transient per-chunk engines of one process).
_FAM_PERCAP = [1024]

#: Reused family-scan output arrays keyed by role; the kernel reports how
#: much of each it wrote, so they are handed out unzeroed and only grown.
_FAM_OUT: dict = {}


def _fam_out(key: str, nmin: int):
    """A reusable output array of at least ``nmin`` items.

    ``key`` names the role; its first character is the ``array``
    typecode (``"i2"``/``"i3"`` are distinct int32 buffers).
    """
    buf = _FAM_OUT.get(key)
    if buf is None or len(buf) < nmin:
        buf = array(key[0], bytes(nmin * array(key[0]).itemsize))
        _FAM_OUT[key] = buf
    return buf


class FamilyScanEngine:
    """Prebound ctypes arguments for one config family's batched scan.

    A family shares ``(trace, PI marking, forced checkpoints, text
    bounds, APB prefix shift)`` and differs only per member in the four
    buffer capacities and the policy flag bits.  One :meth:`scan` call
    runs every member's chain scan inside a single kernel invocation
    and fills member-major output segments — each bit-identical to a
    :class:`ChainScanEngine` scan of that member, by construction.

    Membership scratch is the per-trace memoized family block array
    (:meth:`~repro.trace.trace.ConcreteTrace.c_family_scratch`): the
    persistent generation counter makes stale stamps invisible, so no
    per-call zeroing happens.  Output segments grow by doubling when the
    kernel reports overflow; the learned size sticks process-wide, and
    the segment arrays themselves are reused across engines (the kernel
    writes the prefix it reports, so stale suffixes are never read).
    """

    __slots__ = ("_fn", "_pre", "_nk", "_keep")

    def __init__(self, lib, ct, text_lo, text_hi, shift, forced_sorted,
                 pi_words, pi_indices, members):
        nk = len(members)
        if not 0 < nk <= FAMILY_MAX:
            raise ValueError(f"family size {nk} outside 1..{FAMILY_MAX}")
        ops_b, wids_b, n_words = ct.scan_buffers(text_lo, text_hi)
        if any(m[4] & F_APB_ON for m in members):
            pids_b, n_prefixes = ct.prefix_buffers(shift)
            pids_addr = _addr(pids_b)
            scratch_shift = shift
        else:
            pids_b, n_prefixes = None, 1
            pids_addr = 0
            scratch_shift = -1
        has_pi = bool(pi_words or pi_indices)
        if has_pi:
            pi_b = ct.pi_mask_buffer(pi_words, pi_indices)
            pi_addr = _addr(pi_b)
        else:
            pi_b = None
            pi_addr = 0
        caps_b = array("i", bytes(4 * 4 * nk))
        flags_b = array("i", bytes(4 * nk))
        for c, (rf, wf, wbb, apb, fl) in enumerate(members):
            caps_b[4 * c] = rf
            caps_b[4 * c + 1] = wf
            caps_b[4 * c + 2] = wbb
            caps_b[4 * c + 3] = apb
            flags_b[c] = (fl | F_HAS_PI) if has_pi else fl
        gen_b, rf_b, wf_b, wbb_b, apb_b = ct.c_family_scratch(
            max(n_words, 1), scratch_shift, n_prefixes, nk
        )
        fs_b = array("i", forced_sorted) if forced_sorted else array("i", [0])
        self._fn = lib.family_chain_scan
        self._nk = nk
        self._pre = (
            _addr(ops_b) if ct.n else 0,
            _addr(wids_b) if ct.n else 0,
            pids_addr,
            pi_addr,
            _addr(fs_b),
            len(forced_sorted),
            ct.n,
            max(n_words, 1),
            n_prefixes,
            _addr(caps_b),
            _addr(flags_b),
            _addr(rf_b), _addr(wf_b), _addr(wbb_b), _addr(apb_b),
            _addr(gen_b),
        )
        # Buffer lifetimes: the arrays must outlive this engine.
        self._keep = (ops_b, wids_b, pids_b, pi_b, fs_b, caps_b,
                      flags_b, gen_b, rf_b, wf_b, wbb_b, apb_b)

    def scan(self, start0: int = 0):
        """One batched pass from ``start0`` covering every member.

        Returns ``(nev, nst, ev_key, ev_end, ev_cause, ev_nsteps,
        steps_out, ev_percap, st_percap)``: member ``c``'s ``nev[c]``
        section records occupy ``[c * ev_percap, c * ev_percap +
        nev[c])`` of the event arrays, and its ``nst[c]`` flattened WBB
        steps occupy ``[c * st_percap, c * st_percap + nst[c])`` of
        ``steps_out``.  The event/step arrays are shared process-wide
        scratch — consume (slice) them before the next ``scan`` call.
        """
        a = self._pre
        nk = self._nk
        while True:
            percap = _FAM_PERCAP[0]
            ev_key = _fam_out("q", percap * nk)
            ev_end = _fam_out("i", percap * nk)
            ev_cause = _fam_out("B", percap * nk)
            ev_nsteps = _fam_out("i2", percap * nk)
            steps_out = _fam_out("i3", percap * nk)
            out_nev = array("i", bytes(4 * nk))
            out_nst = array("i", bytes(4 * nk))
            rc = self._fn(
                a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], a[8],
                start0, nk,
                a[9], a[10],
                a[11], a[12], a[13], a[14], a[15],
                _addr(ev_key), _addr(ev_end), _addr(ev_cause),
                _addr(ev_nsteps),
                _addr(steps_out),
                percap, percap,
                _addr(out_nev), _addr(out_nst),
            )
            if rc == 0:
                return (out_nev, out_nst, ev_key, ev_end, ev_cause,
                        ev_nsteps, steps_out, percap, percap)
            if rc == -2:  # pragma: no cover - guarded in __init__
                raise ValueError("empty family rejected by kernel")
            # Overflow: double the per-member segments and rescan (the
            # kernel's generation write-back keeps the scratch valid).
            _FAM_PERCAP[0] = percap * 2


# --------------------------------------------------------------------- #
# The section walk (section_walk).
# --------------------------------------------------------------------- #

#: Checkpoint causes the walk counts: the chain-scan causes plus the two
#: watchdogs (mirrors CAUSE_PROGRESS_WDT / CAUSE_PERF_WDT).
WALK_CAUSE_NAMES = CAUSE_NAMES + ("progress_wdt", "perf_wdt")

#: Mirrors the BW_* stop codes in _chainscan.c.
BW_DONE = 0
BW_NEED_SECTION = 1
BW_NEED_ONTIMES = 2
BW_NEED_CUT = 3
BW_FALLBACK = 4

#: Mirrors the W_* parameter-block slots this module writes after setup.
W_ONTIMES = 8
W_NONTIMES = 9
W_SKEYS = 21
BW_NPARAMS = 28

#: Mirrors the ST_* walk-state slots Python reads or writes.
ST_USEFUL = 7
ST_REEXEC = 8
ST_WASTED = 9
ST_CKPT = 10
ST_RESTART = 11
ST_PC = 12
ST_WASTED_PC = 13
ST_OUTPUTS = 14
ST_DUP = 15
ST_WBB = 16
ST_NREACH = 17
ST_CUT_OK = 24
ST_OUT = 25
ST_NORDER = 29
ST_COUNTS = 30
ST_ORDER = 42
BW_NSLOTS = 54

#: A fresh walk: forced_done = -1, one power cycle, first boot pending.
_ST_INIT = array("q", bytes(8 * BW_NSLOTS))
_ST_INIT[3] = -1   # ST_FORCED_DONE
_ST_INIT[12] = 1   # ST_PC
_ST_INIT[18] = 1   # ST_PHASE = PH_RESTART

#: Reach-buffer capacity, in (reach, start) pairs; the walk prunes at 64
#: and reports BW_FALLBACK on overflow.
REACH_CAP = 256

#: Side-table capacity in sections; past it the table starts over.
SIDE_CAP = 1 << 16

_pack_params = struct.Struct(f"{BW_NPARAMS}q").pack_into
_pack_side = struct.Struct("7q").pack_into


class WalkEngine:
    """Reusable buffers and prebound ctypes arguments for ``section_walk``.

    One engine per thread (:func:`walk_engine`) serves every walk: the
    parameter block, walk state, reach buffer, on-time buffer and side
    table are allocated once and rewritten per walk, so loading a walk
    is one ``pack_into`` and each stop costs one foreign call.  The
    section tables are the SectionMap's own flat arrays, read in place.
    Sections they lack go to the side table (:meth:`add_section`), kept
    while consecutive walks share a map (the rows of a batch, a sweep
    over schedules) and dropped when the map changes — so the engine
    holds one map's off-chain sections at most, never a table per map.
    """

    __slots__ = ("fn", "w_addr", "st_addr", "w", "st", "reach", "ontimes",
                 "side_map", "skeys", "sends", "scauses", "soffs",
                 "snsteps", "ssteps", "_reach_addr")

    def __init__(self, lib):
        self.fn = lib.section_walk
        self.w = array("q", bytes(8 * BW_NPARAMS))
        self.st = array("q", bytes(8 * BW_NSLOTS))
        self.reach = array("q", bytes(16 * REACH_CAP))
        self.ontimes = array("q", bytes(8 * 64))
        self.w_addr = _addr(self.w)
        self.st_addr = _addr(self.st)
        self._reach_addr = _addr(self.reach)
        self.side_map = None
        self._clear_side()

    def _clear_side(self) -> None:
        self.skeys = array("q")
        self.sends = array("i")
        self.scauses = array("B")
        self.soffs = array("q")
        self.snsteps = array("i")
        self.ssteps = array("i")

    def _pack_side(self) -> None:
        _pack_side(
            self.w, 8 * W_SKEYS, self.skeys.buffer_info()[0],
            len(self.skeys), self.sends.buffer_info()[0],
            self.scauses.buffer_info()[0], self.soffs.buffer_info()[0],
            self.snsteps.buffer_info()[0], self.ssteps.buffer_info()[0],
        )

    def begin(self, smap, consts, ontimes_addr, n_ontimes):
        """Load one walk over ``smap``: its trace's prefix sums, its flat
        section tables, and the run constants ``consts`` = ``(base_ck,
        flush_base, per_entry, rcost, perf_load, prog_default,
        prog_adaptive, ig_fw, max_pc)``.  Raises ``struct.error`` when a
        value does not fit int64.
        """
        ct = smap.ct
        flat = smap._flat
        if flat is not None:
            keys, ends, causes, soff, steps = flat
            tables = (
                keys.buffer_info()[0], len(keys), ends.buffer_info()[0],
                causes.buffer_info()[0], soff.buffer_info()[0],
                steps.buffer_info()[0],
            )
        else:
            tables = _NO_TABLES
        if smap is not self.side_map:
            self.side_map = smap
            self._clear_side()
        _pack_params(
            self.w, 0, ct.cum_cycles_buffer().buffer_info()[0], ct.n,
            *tables, ontimes_addr, n_ontimes, *consts,
            self._reach_addr, REACH_CAP, 0, 0, 0, 0, 0, 0, 0,
        )
        self._pack_side()
        self.st[:] = _ST_INIT

    def add_section(self, key, end, cause_id, steps) -> None:
        """Serve ``key`` (a section the flat tables lack) from now on."""
        if len(self.skeys) >= SIDE_CAP:
            self._clear_side()
        k = bisect_left(self.skeys, key)
        self.skeys.insert(k, key)
        self.sends.insert(k, end)
        self.scauses.insert(k, cause_id)
        self.soffs.insert(k, len(self.ssteps))
        self.snsteps.insert(k, len(steps))
        self.ssteps.extend(steps)
        self._pack_side()

    def reaches(self):
        """The walk's live ``(reach, section_start)`` pairs, time-ordered."""
        r = self.reach[:2 * self.st[ST_NREACH]]
        return list(zip(r[0::2], r[1::2]))

    def grow_ontimes(self, need: int):
        """The scalar on-time buffer, grown to hold ``need`` draws."""
        buf = self.ontimes
        if len(buf) < need:
            grown = array("q", bytes(8 * max(need, 2 * len(buf))))
            grown[:len(buf)] = buf
            buf = self.ontimes = grown
        return buf


_NO_TABLES = (0, 0, 0, 0, 0, 0)


_walk_tls = threading.local()


def walk_engine() -> Optional[WalkEngine]:
    """This thread's :class:`WalkEngine`, or None without the kernel."""
    eng = getattr(_walk_tls, "engine", None)
    if eng is None:
        lib = chain_scan_lib()
        if lib is None:
            return None
        eng = _walk_tls.engine = WalkEngine(lib)
    return eng
