/* Straight-line idempotent-section chain scan.
 *
 * A C port of the inner loop of
 * ``repro.core.detector.IdempotencyDetector.straightline_chain`` — the
 * one O(n-accesses) pass the section-memoized fast path cannot avoid.
 * The Python generator remains the reference implementation (and the
 * fallback when no C compiler is available); this kernel must replay its
 * decision sequence branch-for-branch.  Inputs are the same precomputed
 * per-trace arrays (``CompiledTrace.scan_arrays`` / ``prefix_ids``) and
 * the same generation-stamped flat membership scratch, so the two
 * implementations share every data-structure invariant.
 *
 * Compiled on demand by ``repro.core.cext`` via the system C compiler;
 * no Python.h dependency, plain int32 buffers across the ctypes
 * boundary.
 */

#include <stdint.h>

/* Checkpoint-cause codes; repro.core.cext.CAUSE_NAMES mirrors them. */
#define CAUSE_FINAL 0
#define CAUSE_COMPILER 1
#define CAUSE_OUTPUT 2
#define CAUSE_TEXT_WRITE 3
#define CAUSE_VIOLATION 4
#define CAUSE_WBB_FULL 5
#define CAUSE_WF_FULL 6
#define CAUSE_APB_FULL 7
#define CAUSE_RF_FULL 8
#define CAUSE_LATEST_WRITE 9

/* Flag bits; repro.core.cext builds them from the detector state. */
#define F_APB_ON 1
#define F_IGNORE_TEXT 2
#define F_IGNORE_FALSE_WRITES 4
#define F_REMOVE_DUPLICATES 8
#define F_NO_WF_OVERFLOW 16
#define F_LATEST_CHECKPOINT 32
#define F_HAS_PI 64
/* Scan only the first section, recording its direct-commit (write-first
 * path) trace indices into dw_out — the lazy derivation behind
 * SectionMap.watchdog_cut_safe. */
#define F_FIRST_DW 128

/* ops[i] bits (CompiledTrace.scan_arrays): 1 write, 2 text, 4 output
 * write, 8 false write. */

int64_t chain_scan(
    const uint8_t *ops,      /* [n] per-access op bits */
    const int32_t *wids,     /* [n] dense word ids */
    const int32_t *pids,     /* [n] dense prefix ids (APB) or NULL */
    const uint8_t *pi,       /* [n] PI membership mask or NULL */
    const int32_t *fs,       /* [nfs] ascending forced-checkpoint indices */
    int32_t nfs,
    int32_t n,
    int32_t start,
    int32_t direct,          /* entry is a committed direct text write */
    int32_t forced_done,     /* committed compiler checkpoint index or -1 */
    int32_t rf_cap,
    int32_t wf_cap,
    int32_t wbb_cap,
    int32_t apb_cap,
    int32_t flags,
    int32_t *rf_g,           /* [n_words] generation-stamp scratch */
    int32_t *wf_g,           /* [n_words] */
    int32_t *wbb_g,          /* [n_words] */
    int32_t *apb_g,          /* [n_prefixes] */
    int32_t *gen_io,         /* [1] generation counter, persists */
    int32_t *sec_start,      /* [max_sections] outputs ... */
    uint8_t *sec_variant,
    int32_t *sec_end,
    uint8_t *sec_cause,
    int32_t *steps_off,      /* [max_sections + 1] */
    int32_t *steps_flat,     /* [n + 1] WBB-growth indices, flattened */
    int32_t *dw_out)         /* [n + 1] F_FIRST_DW: count, then indices */
{
    const int apb_on = flags & F_APB_ON;
    const int ignore_text = flags & F_IGNORE_TEXT;
    const int ig_fw = flags & F_IGNORE_FALSE_WRITES;
    const int rm_dup = flags & F_REMOVE_DUPLICATES;
    const int no_wf_ovf = flags & F_NO_WF_OVERFLOW;
    const int latest = flags & F_LATEST_CHECKPOINT;
    const int has_pi = flags & F_HAS_PI;
    const int first_dw = flags & F_FIRST_DW;
    int32_t dw_n = 0;
    int32_t g = *gen_io;
    int64_t nsec = 0;
    int32_t nsteps = 0;
    int32_t fidx = 0;

    steps_off[0] = 0;
    for (;;) {
        /* -- section entry: resolve the variant -- */
        while (fidx < nfs && fs[fidx] < start)
            fidx++;
        int at_forced = (fidx < nfs && fs[fidx] == start);
        int32_t variant, scan_from;
        if (direct) {
            variant = 2;
            scan_from = start + 1;
        } else if (at_forced && forced_done != start) {
            /* Zero-length section: the compiler checkpoint fires before
             * the access at ``start`` is even classified. */
            sec_start[nsec] = start;
            sec_variant[nsec] = 0;
            sec_end[nsec] = start;
            sec_cause[nsec] = CAUSE_COMPILER;
            steps_off[nsec + 1] = nsteps;
            nsec++;
            if (first_dw) {
                dw_out[0] = dw_n;
                *gen_io = g;
                return nsec;
            }
            forced_done = start;
            continue;
        } else {
            variant = at_forced ? 1 : 0;
            scan_from = start;
        }
        int32_t nf_idx = at_forced ? fidx + 1 : fidx;
        int32_t next_forced = (nf_idx < nfs) ? fs[nf_idx] : n + 1;

        /* -- straight-line scan to the next boundary -- */
        g += 1; /* stamp bump == clear all four buffers */
        int32_t rf_len = 0, wf_len = 0, wbb_len = 0, apb_len = 0;
        int untracked = 0;
        int32_t end = n;
        uint8_t cause = CAUSE_FINAL;
        int32_t i = scan_from;
        while (i < n) {
            if (i == next_forced) {
                end = i;
                cause = CAUSE_COMPILER;
                break;
            }
            uint8_t op = ops[i];
            if (op & 1) {
                /* Write. */
                if (op & 4) {
                    end = i;
                    cause = CAUSE_OUTPUT;
                    break;
                }
                if (has_pi && pi[i]) {
                    i++;
                    continue;
                }
                if (ignore_text && (op & 2)) {
                    end = i;
                    cause = CAUSE_TEXT_WRITE;
                    break;
                }
                int32_t v = wids[i];
                if (wbb_g[v] == g) {
                    i++; /* in-place update; no growth */
                    continue;
                }
                if (wf_g[v] == g) {
                    if (first_dw)
                        dw_out[++dw_n] = i;
                    i++;
                    continue;
                }
                if (rf_g[v] == g) {
                    /* Idempotency violation. */
                    if (ig_fw && (op & 8)) {
                        i++;
                        continue;
                    }
                    if (wbb_cap == 0) {
                        end = i;
                        cause = CAUSE_VIOLATION;
                        break;
                    }
                    if (wbb_len >= wbb_cap) {
                        end = i;
                        cause = CAUSE_WBB_FULL;
                        break;
                    }
                    wbb_g[v] = g;
                    wbb_len++;
                    steps_flat[nsteps++] = i;
                    if (rm_dup) {
                        rf_g[v] = 0;
                        rf_len--;
                    }
                    i++;
                    continue;
                }
                /* Fresh address: write-dominated. */
                if (wf_cap == 0) {
                    if (first_dw)
                        dw_out[++dw_n] = i;
                    i++;
                    continue;
                }
                if (wf_len >= wf_cap) {
                    if (no_wf_ovf) {
                        if (first_dw)
                            dw_out[++dw_n] = i;
                        i++;
                        continue;
                    }
                    end = i;
                    cause = CAUSE_WF_FULL;
                    break;
                }
                if (apb_on) {
                    int32_t p = pids[i];
                    if (apb_g[p] != g) {
                        if (apb_len >= apb_cap) {
                            if (no_wf_ovf) {
                                if (first_dw)
                                    dw_out[++dw_n] = i;
                                i++;
                                continue;
                            }
                            end = i;
                            cause = CAUSE_APB_FULL;
                            break;
                        }
                        apb_g[p] = g;
                        apb_len++;
                    }
                }
                wf_g[v] = g;
                wf_len++;
                if (first_dw)
                    dw_out[++dw_n] = i;
                i++;
                continue;
            }
            /* Read. */
            if (has_pi && pi[i]) {
                i++;
                continue;
            }
            if (ignore_text && (op & 2)) {
                i++;
                continue;
            }
            int32_t v = wids[i];
            if (rf_g[v] == g || wbb_g[v] == g || wf_g[v] == g) {
                i++;
                continue;
            }
            if (rf_len >= rf_cap) {
                if (!latest) {
                    end = i;
                    cause = CAUSE_RF_FULL;
                    break;
                }
                untracked = 1;
                i++;
                break; /* drop into the untracked tail loop */
            }
            if (apb_on) {
                int32_t p = pids[i];
                if (apb_g[p] != g) {
                    if (apb_len >= apb_cap) {
                        if (!latest) {
                            end = i;
                            cause = CAUSE_APB_FULL;
                            break;
                        }
                        untracked = 1;
                        i++;
                        break;
                    }
                    apb_g[p] = g;
                    apb_len++;
                }
            }
            rf_g[v] = g;
            rf_len++;
            i++;
        }
        if (untracked) {
            /* Untracked tail (latest-checkpoint mode after a read-side
             * fill): reads always pass, so only writes need
             * classifying. */
            while (i < n) {
                if (i == next_forced) {
                    end = i;
                    cause = CAUSE_COMPILER;
                    break;
                }
                uint8_t op = ops[i];
                if (op & 1) {
                    if (op & 4) {
                        end = i;
                        cause = CAUSE_OUTPUT;
                        break;
                    }
                    if (has_pi && pi[i]) {
                        /* PI write: passes. */
                    } else if (wbb_g[wids[i]] == g) {
                        /* WBB-owned write: in-place update, never a
                         * boundary — mirrors on_write. */
                    } else if (ig_fw && (op & 8)) {
                        /* False write: passes. */
                    } else {
                        end = i;
                        cause = CAUSE_LATEST_WRITE;
                        break;
                    }
                }
                i++;
            }
        }
        sec_start[nsec] = start;
        sec_variant[nsec] = (uint8_t)variant;
        sec_end[nsec] = end;
        sec_cause[nsec] = cause;
        steps_off[nsec + 1] = nsteps;
        nsec++;
        if (first_dw) {
            dw_out[0] = dw_n;
            *gen_io = g;
            return nsec;
        }

        /* -- follow the boundary into the next section -- */
        if (cause == CAUSE_FINAL)
            break;
        if (cause == CAUSE_COMPILER) {
            forced_done = end;
            direct = 0;
            start = end;
        } else if (cause == CAUSE_TEXT_WRITE) {
            direct = 1;
            start = end;
        } else if (cause == CAUSE_OUTPUT) {
            direct = 0;
            start = end + 1;
        } else {
            direct = 0;
            start = end;
        }
    }
    *gen_io = g;
    return nsec;
}

/* ------------------------------------------------------------------ *
 * Section-walk replay: one power schedule over a SectionMap.
 *
 * A C port of the section walk in ``repro.sim.fast.FastReplaySimulator``,
 * serving every scalar fast-path run and every batched row
 * (``repro.sim.batch``).  One call replays one schedule until it
 * finishes or needs Python — a section the flat tables do not hold,
 * more schedule on-times, a ``watchdog_cut_safe`` verdict — and is then
 * re-entered with the same state array once Python has supplied what
 * was missing.  Resumability is by construction: every return to
 * Python happens either before any state mutation of the current
 * section attempt (BW_NEED_SECTION, BW_NEED_CUT — the re-entered walk
 * re-derives the identical decision point) or with the attempt fully
 * accounted and only the restart sequence pending (BW_NEED_ONTIMES,
 * marked by PH_RESTART, where each restart iteration is itself atomic
 * around its single schedule draw).  BW_FALLBACK runs (power-cycle
 * budget exhausted, reach-buffer overflow) are re-walked whole by the
 * Python walker — schedules re-seed, so the rerun is exact and raises
 * the identical SimulationError.
 *
 * Sections are read in place from the SectionMap's flat canonical-chain
 * arrays (sorted keys, ends, cause ids, step offsets, steps — the
 * family scan's output) by binary search with a next-row hint: the
 * canonical chain is walked in key order, so a hit is almost always the
 * current row (a retry after power loss) or the next one.  A key the
 * tables do not hold (an off-chain resume after a watchdog cut, or any
 * key of a map without flat tables) is served once by Python into the
 * side table, which the caller keeps for as long as it walks the same
 * map — so the rows of a batch share it.  No per-map table is built:
 * the walk costs O(1) memory beyond the map itself.
 */

/* Stop codes. */
#define BW_DONE 0
#define BW_NEED_SECTION 1   /* st[ST_OUT] = (start<<2)|variant */
#define BW_NEED_ONTIMES 2
#define BW_NEED_CUT 3       /* st[ST_OUT..+3] = start, variant, cut, furthest */
#define BW_FALLBACK 4

/* Parameter block (int64 slots; pointers stored as addresses). */
#define W_GCUM 0            /* const int64_t[n+1] cycle prefix sums */
#define W_N 1
#define W_KEYS 2            /* const int64_t[nkeys] sorted section keys */
#define W_NKEYS 3
#define W_ENDS 4            /* const int32_t[nkeys] boundary indices */
#define W_CAUSES 5          /* const uint8_t[nkeys] CAUSE_* ids */
#define W_SOFF 6            /* const int64_t[nkeys+1] step offsets */
#define W_STEPS 7           /* const int32_t[] wbb growth steps */
#define W_ONTIMES 8         /* const int64_t[n_ontimes] schedule draws */
#define W_NONTIMES 9
#define W_BASE_CK 10
#define W_FLUSH_BASE 11
#define W_PER_ENTRY 12
#define W_RCOST 13
#define W_PERF_LOAD 14
#define W_PROG_DEFAULT 15
#define W_PROG_ADAPTIVE 16
#define W_IG_FW 17
#define W_MAX_PC 18
#define W_REACH 19          /* int64_t[2*reach_cap] (reach, start) pairs */
#define W_REACH_CAP 20
/* Side table: sections Python served on request, sorted by key. */
#define W_SKEYS 21          /* const int64_t[nside] sorted section keys */
#define W_NSIDE 22
#define W_SENDS 23          /* const int32_t[nside] */
#define W_SCAUSES 24        /* const uint8_t[nside] CAUSE_* ids */
#define W_SOFFS 25          /* const int64_t[nside] offsets into W_SSTEPS */
#define W_SNSTEPS 26        /* const int32_t[nside] step counts */
#define W_SSTEPS 27         /* const int32_t[] wbb growth steps */
#define BW_NPARAMS 28

/* Persistent int64 state slots (one array per walk). */
#define ST_I 0
#define ST_FURTHEST 1
#define ST_ONLEFT 2
#define ST_FORCED_DONE 3
#define ST_POS 4            /* next schedule draw */
#define ST_PROG_NV 5
#define ST_PROG_REM 6
#define ST_USEFUL 7
#define ST_REEXEC 8
#define ST_WASTED 9
#define ST_CKPT 10
#define ST_RESTART 11
#define ST_PC 12
#define ST_WASTED_PC 13
#define ST_OUTPUTS 14
#define ST_DUP 15
#define ST_WBB 16
#define ST_NREACH 17
#define ST_PHASE 18
#define ST_DIRECT 19
#define ST_PROGRESS 20
#define ST_PROG_NO_CKPT 21
#define ST_PROG_EN 22
#define ST_ROW 23           /* table row of the last lookup (the hint) */
#define ST_CUT_OK 24        /* 1: the pending cut was judged safe */
#define ST_OUT 25           /* 4 slots: stop-code details */
#define ST_NORDER 29
#define ST_COUNTS 30        /* BW_NCAUSES per-cause checkpoint counts */
#define ST_ORDER 42         /* cause ids in first-checkpoint order */
#define BW_NSLOTS 54

/* Checkpoint causes past the chain-scan CAUSE_* ids. */
#define CAUSE_PROGRESS_WDT 10
#define CAUSE_PERF_WDT 11
#define BW_NCAUSES 12

#define PH_WALK 0
#define PH_RESTART 1        /* mid power-loss: resume the boot loop */

/* Section kinds / entry variants; repro.sim.sections mirrors them. */
#define BSEC_DETECTOR 0
#define BSEC_TEXT 1
#define BSEC_FORCED 2
#define BSEC_OUTPUT 3
#define BSEC_FINAL 4
#define BVAR_FORCED_DONE 1
#define BVAR_DIRECT 2

/* Boundary kind of each CAUSE_* id (repro.sim.sections._KIND_BY_CAUSE). */
static const int32_t bw_kind_of[10] = {
    BSEC_FINAL, BSEC_FORCED, BSEC_OUTPUT, BSEC_TEXT, BSEC_DETECTOR,
    BSEC_DETECTOR, BSEC_DETECTOR, BSEC_DETECTOR, BSEC_DETECTOR,
    BSEC_DETECTOR,
};

static int64_t bw_bisect_left64(const int64_t *a, int64_t x,
                                int64_t lo, int64_t hi)
{
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

static int64_t bw_bisect_right64(const int64_t *a, int64_t x,
                                 int64_t lo, int64_t hi)
{
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (a[mid] <= x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

static int64_t bw_bisect_left32(const int32_t *a, int64_t x,
                                int64_t lo, int64_t hi)
{
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* One checkpoint of cause ``c``; the first of each cause also records
 * its position, so Python rebuilds checkpoints_by_cause in the
 * insertion order the Python walker produces. */
static void bw_count(int64_t *st, int64_t c)
{
    if (st[ST_COUNTS + c]++ == 0)
        st[ST_ORDER + st[ST_NORDER]++] = c;
}

/* Progress-watchdog reset and progress mark at every commit. */
static void bw_commit(const int64_t *w, int64_t *st)
{
    if (w[W_PROG_DEFAULT] > 0) {
        st[ST_PROG_EN] = 0;
        st[ST_PROG_NV] = 0;
        st[ST_PROG_NO_CKPT] = 0;
    }
    st[ST_PROGRESS] = 1;
}

/* The boot loop of ``restart_sequence``: draw on-times until one affords
 * the restart routine.  Atomic per iteration around its draw, so a
 * BW_NEED_ONTIMES return re-enters cleanly at the loop top. */
static int bw_restart(const int64_t *w, int64_t *st)
{
    const int64_t *ontimes = (const int64_t *)(intptr_t)w[W_ONTIMES];
    const int64_t rcost = w[W_RCOST];
    const int64_t prog_default = w[W_PROG_DEFAULT];
    for (;;) {
        int64_t on;
        if (st[ST_POS] >= w[W_NONTIMES]) return BW_NEED_ONTIMES;
        on = ontimes[st[ST_POS]++];
        st[ST_PROGRESS] = 0;
        st[ST_PROG_EN] = 0;
        if (prog_default > 0) {
            if (!st[ST_PROG_NO_CKPT]) {
                st[ST_PROG_NO_CKPT] = 1;
            } else {
                if (st[ST_PROG_NV] > 0 && w[W_PROG_ADAPTIVE]) {
                    st[ST_PROG_NV] >>= 1;
                    if (st[ST_PROG_NV] < 1) st[ST_PROG_NV] = 1;
                } else if (st[ST_PROG_NV] == 0) {
                    st[ST_PROG_NV] = prog_default;
                }
                st[ST_PROG_EN] = 1;
                st[ST_PROG_REM] = st[ST_PROG_NV];
            }
        }
        if (on >= rcost) {
            st[ST_RESTART] += rcost;
            st[ST_ONLEFT] = on - rcost;
            return 0;
        }
        st[ST_RESTART] += on;
        st[ST_PC] += 1;
        st[ST_WASTED_PC] += 1;
        if (st[ST_PC] > w[W_MAX_PC]) return BW_FALLBACK;
    }
}

/* ``power_loss(at_i)`` + the restart: record the failed cycle's reach,
 * tick the power-cycle counters, then boot.  Enters PH_RESTART before
 * the boot loop so a BW_NEED_ONTIMES resume skips straight back in.
 * Every caller has already cleared ST_DIRECT where the Python walker
 * does. */
static int bw_power_loss(int64_t at_i, const int64_t *w, int64_t *st)
{
    int64_t i = st[ST_I];
    if (w[W_IG_FW] && at_i > i) {
        int64_t *reach = (int64_t *)(intptr_t)w[W_REACH];
        int64_t nr = st[ST_NREACH];
        while (nr > 0 && reach[2 * (nr - 1) + 1] == i
               && reach[2 * (nr - 1)] <= at_i)
            nr--;
        if (nr >= w[W_REACH_CAP]) return BW_FALLBACK;
        reach[2 * nr] = at_i;
        reach[2 * nr + 1] = i;
        nr++;
        if (nr > 64) {
            int64_t kept = 0, k;
            for (k = 0; k < nr; k++) {
                if (reach[2 * k] > i) {
                    reach[2 * kept] = reach[2 * k];
                    reach[2 * kept + 1] = reach[2 * k + 1];
                    kept++;
                }
            }
            nr = kept;
        }
        st[ST_NREACH] = nr;
    }
    if (!st[ST_PROGRESS]) st[ST_WASTED_PC] += 1;
    st[ST_PC] += 1;
    if (st[ST_PC] > w[W_MAX_PC]) return BW_FALLBACK;
    st[ST_PHASE] = PH_RESTART;
    return bw_restart(w, st);
}

/* The useful/re-executed split of an executed span [st[ST_I], m). */
static void bw_account(int64_t m, const int64_t *gcum, int64_t *st)
{
    int64_t s = st[ST_I], fu = st[ST_FURTHEST];
    if (m <= fu) {
        st[ST_REEXEC] += gcum[m] - gcum[s];
    } else if (s >= fu) {
        st[ST_USEFUL] += gcum[m] - gcum[s];
        st[ST_FURTHEST] = m;
        st[ST_PROGRESS] = 1;
    } else {
        st[ST_REEXEC] += gcum[fu] - gcum[s];
        st[ST_USEFUL] += gcum[m] - gcum[fu];
        st[ST_FURTHEST] = m;
        st[ST_PROGRESS] = 1;
    }
}

/* Resolve ``key`` to (end, cause, steps, nsteps): the flat tables first
 * (hint row, the next row, then binary search), then the side table.
 * Returns 0 when neither holds the key. */
static int bw_lookup(const int64_t *w, int64_t *st, int64_t key,
                     int32_t *end, int32_t *cause,
                     const int32_t **steps, int64_t *nsteps)
{
    const int64_t *keys = (const int64_t *)(intptr_t)w[W_KEYS];
    const int64_t nkeys = w[W_NKEYS];
    int64_t row = st[ST_ROW];
    if (row >= nkeys || keys[row] != key) {
        if (row + 1 < nkeys && keys[row + 1] == key) {
            row += 1;
        } else {
            row = nkeys ? bw_bisect_left64(keys, key, 0, nkeys) : 0;
            if (row >= nkeys || keys[row] != key) row = -1;
        }
    }
    if (row >= 0) {
        const int64_t *soff = (const int64_t *)(intptr_t)w[W_SOFF];
        st[ST_ROW] = row;
        *end = ((const int32_t *)(intptr_t)w[W_ENDS])[row];
        *cause = ((const uint8_t *)(intptr_t)w[W_CAUSES])[row];
        *steps = (const int32_t *)(intptr_t)w[W_STEPS] + soff[row];
        *nsteps = soff[row + 1] - soff[row];
        return 1;
    }
    {
        const int64_t *skeys = (const int64_t *)(intptr_t)w[W_SKEYS];
        const int64_t nside = w[W_NSIDE];
        row = nside ? bw_bisect_left64(skeys, key, 0, nside) : 0;
        if (row < nside && skeys[row] == key) {
            *end = ((const int32_t *)(intptr_t)w[W_SENDS])[row];
            *cause = ((const uint8_t *)(intptr_t)w[W_SCAUSES])[row];
            *steps = (const int32_t *)(intptr_t)w[W_SSTEPS]
                + ((const int64_t *)(intptr_t)w[W_SOFFS])[row];
            *nsteps = ((const int32_t *)(intptr_t)w[W_SNSTEPS])[row];
            return 1;
        }
    }
    return 0;
}

int64_t section_walk(const int64_t *w, int64_t *st)
{
    const int64_t *gcum = (const int64_t *)(intptr_t)w[W_GCUM];
    const int64_t base_ck = w[W_BASE_CK];
    const int64_t flush_base = w[W_FLUSH_BASE];
    const int64_t per_entry = w[W_PER_ENTRY];
    const int64_t perf_load = w[W_PERF_LOAD];
    int rc;
    if (st[ST_PHASE] == PH_RESTART) {
        rc = bw_restart(w, st);
        if (rc) return rc;
        st[ST_PHASE] = PH_WALK;
    }
    for (;;) {
        int64_t s = st[ST_I];
        int64_t variant = 0;
        int64_t key, base, on_left, nsteps, u;
        int64_t fire_m = -1;
        int32_t end, cause, kind, fire_prog = 0;
        const int32_t *steps;
        /* forced_done is only ever set to the end of a compiler-cause
         * section, which is a forced index by construction — so the
         * Python walker's ``s in forced`` test always holds here. */
        if (st[ST_DIRECT]) {
            variant = BVAR_DIRECT;
        } else if (st[ST_FORCED_DONE] == s) {
            variant = BVAR_FORCED_DONE;
        }
        key = (s << 2) | variant;
        if (!bw_lookup(w, st, key, &end, &cause, &steps, &nsteps)) {
            st[ST_OUT] = key;
            return BW_NEED_SECTION;
        }
        kind = bw_kind_of[cause];
        base = gcum[s];
        on_left = st[ST_ONLEFT];

        if (st[ST_PROG_EN]) {
            int64_t j = bw_bisect_left64(gcum, base + st[ST_PROG_REM],
                                         s + 1, (int64_t)end + 1);
            if (j <= end) {
                fire_m = j - 1;
                fire_prog = 1;
            }
        }
        if (perf_load > 0) {
            int64_t j = bw_bisect_left64(gcum, base + perf_load,
                                         s + 1, (int64_t)end + 1);
            if (j <= end && (fire_m < 0 || j - 1 < fire_m)) {
                fire_m = j - 1;
                fire_prog = 0;
            }
        }

        u = bw_bisect_right64(gcum, base + on_left, s + 1, (int64_t)end + 1);
        if (u <= end && (fire_m < 0 || u - 1 <= fire_m)) {
            /* Power fails mid-span. */
            int64_t mf = u - 1;
            int64_t was_direct = st[ST_DIRECT];
            bw_account(mf, gcum, st);
            st[ST_WASTED] += on_left - (gcum[mf] - base);
            if (!(was_direct && mf == s)) st[ST_FORCED_DONE] = -1;
            st[ST_DIRECT] = 0;
            rc = bw_power_loss(mf, w, st);
            if (rc) return rc;
            st[ST_PHASE] = PH_WALK;
            continue;
        }

        if (fire_m >= 0) {
            /* A watchdog fires after access fire_m. */
            int64_t m1 = fire_m + 1;
            int64_t span = gcum[m1] - base;
            int64_t nwbb = bw_bisect_left32(steps, m1, 0, nsteps);
            int64_t c = base_ck + (nwbb ? flush_base + nwbb * per_entry : 0);
            if (on_left - span >= c && w[W_IG_FW] && st[ST_FURTHEST] > m1) {
                /* The cut needs watchdog_cut_safe — decided in Python,
                 * before any mutation so the resume re-derives it. */
                if (st[ST_CUT_OK] != 1) {
                    st[ST_OUT] = s;
                    st[ST_OUT + 1] = variant;
                    st[ST_OUT + 2] = m1;
                    st[ST_OUT + 3] = st[ST_FURTHEST];
                    return BW_NEED_CUT;
                }
                st[ST_CUT_OK] = 0;
            }
            bw_account(m1, gcum, st);
            st[ST_ONLEFT] = on_left = on_left - span;
            if (on_left < c) {
                st[ST_WASTED] += on_left;
                st[ST_DIRECT] = 0;
                rc = bw_power_loss(m1, w, st);
                if (rc) return rc;
                st[ST_PHASE] = PH_WALK;
                continue;
            }
            st[ST_ONLEFT] -= c;
            st[ST_CKPT] += c;
            st[ST_WBB] += nwbb;
            bw_count(st, fire_prog ? CAUSE_PROGRESS_WDT : CAUSE_PERF_WDT);
            bw_commit(w, st);
            st[ST_I] = m1;
            st[ST_DIRECT] = 0;
            continue;
        }

        /* The whole span executes; handle the boundary. */
        bw_account(end, gcum, st);
        st[ST_ONLEFT] = on_left = on_left - (gcum[end] - base);

        if (kind == BSEC_DETECTOR || kind == BSEC_TEXT
            || kind == BSEC_OUTPUT) {
            int64_t ce = gcum[end + 1] - gcum[end];  /* boundary access */
            int64_t c = base_ck
                + (nsteps ? flush_base + nsteps * per_entry : 0);
            if (on_left < ce) {
                /* Power fails on the boundary access itself, before the
                 * checkpoint is attempted. */
                st[ST_WASTED] += on_left;
                st[ST_FORCED_DONE] = -1;
                st[ST_DIRECT] = 0;
                rc = bw_power_loss(end, w, st);
                if (rc) return rc;
                st[ST_PHASE] = PH_WALK;
                continue;
            }
            if (on_left < c) {
                st[ST_WASTED] += on_left;
                st[ST_DIRECT] = 0;
                rc = bw_power_loss(end, w, st);
                if (rc) return rc;
                st[ST_PHASE] = PH_WALK;
                continue;
            }
            st[ST_ONLEFT] = on_left = on_left - c;
            st[ST_CKPT] += c;
            st[ST_WBB] += nsteps;
            bw_count(st, cause);
            bw_commit(w, st);
            st[ST_I] = end;

            if (kind == BSEC_DETECTOR) {
                st[ST_DIRECT] = 0;
                continue;
            }
            if (kind == BSEC_TEXT) {
                st[ST_DIRECT] = 1;
                continue;
            }

            /* BSEC_OUTPUT: the GO phase. */
            st[ST_DIRECT] = 0;
            if (on_left < ce) {
                st[ST_WASTED] += on_left;
                st[ST_FORCED_DONE] = -1;
                rc = bw_power_loss(end, w, st);
                if (rc) return rc;
                st[ST_PHASE] = PH_WALK;
                continue;
            }
            st[ST_ONLEFT] = on_left = on_left - ce;
            st[ST_OUTPUTS] += 1;
            if (end < st[ST_FURTHEST]) {
                st[ST_DUP] += 1;
                st[ST_REEXEC] += ce;
            } else {
                st[ST_USEFUL] += ce;
                st[ST_FURTHEST] = (int64_t)end + 1;
                st[ST_PROGRESS] = 1;
            }
            if (on_left < base_ck) {
                st[ST_WASTED] += on_left;
                rc = bw_power_loss((int64_t)end + 1, w, st);
                if (rc) return rc;
                st[ST_PHASE] = PH_WALK;
                continue;
            }
            st[ST_ONLEFT] -= base_ck;
            st[ST_CKPT] += base_ck;
            bw_count(st, CAUSE_OUTPUT);
            bw_commit(w, st);
            st[ST_I] = (int64_t)end + 1;
            continue;
        }

        {
            /* BSEC_FORCED and BSEC_FINAL: a checkpoint at the boundary. */
            int64_t c = base_ck
                + (nsteps ? flush_base + nsteps * per_entry : 0);
            if (on_left < c) {
                st[ST_WASTED] += on_left;
                if (kind == BSEC_FORCED) st[ST_FORCED_DONE] = -1;
                st[ST_DIRECT] = 0;
                rc = bw_power_loss(kind == BSEC_FORCED ? end : w[W_N],
                                   w, st);
                if (rc) return rc;
                st[ST_PHASE] = PH_WALK;
                continue;
            }
            st[ST_ONLEFT] -= c;
            st[ST_CKPT] += c;
            st[ST_WBB] += nsteps;
            bw_count(st, cause);
            bw_commit(w, st);
            if (kind == BSEC_FINAL)
                return BW_DONE;
            st[ST_FORCED_DONE] = end;
            st[ST_I] = end;
            st[ST_DIRECT] = 0;
        }
    }
}

/* ------------------------------------------------------------------ *
 * Config-family chain scan: one kernel call, K configurations.
 *
 * A sweep family's members differ only in buffer capacities and policy
 * flags, never in the trace, the PI marking, or the forced-checkpoint
 * set — so their chain scans read the same ops/wids/pids/pi arrays.
 * This kernel runs the members *sequentially*, each as a verbatim copy
 * of chain_scan's loop with its state held in registers, so every
 * member's section table is bit-identical to an independent scalar
 * scan by construction.  The win over K separate chain_scan calls is
 * structural, not microarchitectural: one foreign-function invocation,
 * one engine setup, and member-major flat emission that the caller
 * installs with contiguous slice copies instead of a per-section
 * Python ingest loop.  (An earlier lockstep variant advanced all K
 * state machines per access; it saved the shared ops/wids loads but
 * paid more per member-access in strided state traffic than the
 * scalar loop pays in total, so sequential is strictly faster.)
 *
 * Membership scratch is member-major (member c owns the contiguous
 * block rf_g[c*n_words .. (c+1)*n_words)), matching the scalar
 * kernel's access locality; the shared generation counter persists
 * across calls (like chain_scan's), so the scratch is never re-zeroed.
 * Sections are emitted member-major into pre-segmented output arrays
 * (member c owns slots [c*ev_percap, (c+1)*ev_percap) and steps
 * [c*st_percap, ...)); per-section WBB growth steps are written
 * directly into the member's steps segment as they are discovered —
 * sequential emission needs no staging.
 *
 * Returns 0, -1 when any member's event or steps segment would
 * overflow (the caller doubles the segment sizes and retries; the
 * generation write-back keeps the partially-stamped scratch valid),
 * or -2 for a non-positive nk.
 * ------------------------------------------------------------------ */

int64_t family_chain_scan(
    const uint8_t *ops,       /* [n] per-access op bits */
    const int32_t *wids,      /* [n] dense word ids */
    const int32_t *pids,      /* [n] dense prefix ids or NULL */
    const uint8_t *pi,        /* [n] PI membership mask or NULL */
    const int32_t *fs,        /* [nfs] ascending forced indices */
    int32_t nfs,
    int32_t n,
    int32_t n_words,          /* scratch block stride per member */
    int32_t n_prefixes,       /* APB scratch block stride per member */
    int32_t start0,           /* chain entry (canonical: 0) */
    int32_t nk,               /* members in the family */
    const int32_t *caps,      /* [4*nk] rf, wf, wbb, apb per member */
    const int32_t *cflags,    /* [nk] per-member F_* bits */
    int32_t *rf_g,            /* [nk*n_words] stamp scratch, member-major */
    int32_t *wf_g,            /* [nk*n_words] */
    int32_t *wbb_g,           /* [nk*n_words] */
    int32_t *apb_g,           /* [nk*n_prefixes] */
    int32_t *gen_io,          /* [1] generation counter, persists */
    int64_t *ev_key,          /* [nk*ev_percap] outputs, member-major */
    int32_t *ev_end,
    uint8_t *ev_cause,
    int32_t *ev_nsteps,
    int32_t *steps_out,       /* [nk*st_percap] member-major wbb steps */
    int64_t ev_percap,
    int64_t st_percap,
    int32_t *out_nev,         /* [nk] out: events per member */
    int32_t *out_nst)         /* [nk] out: steps per member */
{
    int32_t g = *gen_io;

    if (nk <= 0)
        return -2;
    for (int32_t c = 0; c < nk; c++) {
        const int32_t rf_cap = caps[4 * c];
        const int32_t wf_cap = caps[4 * c + 1];
        const int32_t wbb_cap = caps[4 * c + 2];
        const int32_t apb_cap = caps[4 * c + 3];
        const int32_t flags = cflags[c];
        const int apb_on = flags & F_APB_ON;
        const int ignore_text = flags & F_IGNORE_TEXT;
        const int ig_fw = flags & F_IGNORE_FALSE_WRITES;
        const int rm_dup = flags & F_REMOVE_DUPLICATES;
        const int no_wf_ovf = flags & F_NO_WF_OVERFLOW;
        const int latest = flags & F_LATEST_CHECKPOINT;
        const int has_pi = flags & F_HAS_PI;
        int32_t *rf_c = rf_g + (int64_t)c * n_words;
        int32_t *wf_c = wf_g + (int64_t)c * n_words;
        int32_t *wbb_c = wbb_g + (int64_t)c * n_words;
        int32_t *apb_c = apb_g + (int64_t)c * n_prefixes;
        int64_t *key_c = ev_key + (int64_t)c * ev_percap;
        int32_t *end_c = ev_end + (int64_t)c * ev_percap;
        uint8_t *cz_c = ev_cause + (int64_t)c * ev_percap;
        int32_t *ns_c = ev_nsteps + (int64_t)c * ev_percap;
        int32_t *st_c = steps_out + (int64_t)c * st_percap;
        int32_t nev = 0, nst = 0;
        int32_t start = start0;
        int32_t direct = 0, forced_done = -1;
        int32_t fidx = 0;

        for (;;) {
            /* -- section entry: resolve the variant -- */
            while (fidx < nfs && fs[fidx] < start)
                fidx++;
            int at_forced = (fidx < nfs && fs[fidx] == start);
            int32_t variant, scan_from;
            if (direct) {
                variant = 2;
                scan_from = start + 1;
            } else if (at_forced && forced_done != start) {
                /* Zero-length section: the compiler checkpoint fires
                 * before the access at ``start`` is classified. */
                if (nev >= ev_percap)
                    goto overflow;
                key_c[nev] = (int64_t)start << 2;
                end_c[nev] = start;
                cz_c[nev] = CAUSE_COMPILER;
                ns_c[nev] = 0;
                nev++;
                forced_done = start;
                continue;
            } else {
                variant = at_forced ? 1 : 0;
                scan_from = start;
            }
            int32_t nf_idx = at_forced ? fidx + 1 : fidx;
            int32_t next_forced = (nf_idx < nfs) ? fs[nf_idx] : n + 1;

            /* -- straight-line scan to the next boundary -- */
            g += 1; /* stamp bump == clear all four buffers */
            int32_t rf_len = 0, wf_len = 0, wbb_len = 0, apb_len = 0;
            int untracked = 0;
            int32_t end = n;
            uint8_t cause = CAUSE_FINAL;
            int32_t sec_nst0 = nst;
            int32_t i = scan_from;
            while (i < n) {
                if (i == next_forced) {
                    end = i;
                    cause = CAUSE_COMPILER;
                    break;
                }
                uint8_t op = ops[i];
                if (op & 1) {
                    /* Write. */
                    if (op & 4) {
                        end = i;
                        cause = CAUSE_OUTPUT;
                        break;
                    }
                    if (has_pi && pi[i]) {
                        i++;
                        continue;
                    }
                    if (ignore_text && (op & 2)) {
                        end = i;
                        cause = CAUSE_TEXT_WRITE;
                        break;
                    }
                    int32_t v = wids[i];
                    if (wbb_c[v] == g) {
                        i++; /* in-place update; no growth */
                        continue;
                    }
                    if (wf_c[v] == g) {
                        i++;
                        continue;
                    }
                    if (rf_c[v] == g) {
                        /* Idempotency violation. */
                        if (ig_fw && (op & 8)) {
                            i++;
                            continue;
                        }
                        if (wbb_cap == 0) {
                            end = i;
                            cause = CAUSE_VIOLATION;
                            break;
                        }
                        if (wbb_len >= wbb_cap) {
                            end = i;
                            cause = CAUSE_WBB_FULL;
                            break;
                        }
                        wbb_c[v] = g;
                        wbb_len++;
                        if (nst >= st_percap)
                            goto overflow;
                        st_c[nst++] = i;
                        if (rm_dup) {
                            rf_c[v] = 0;
                            rf_len--;
                        }
                        i++;
                        continue;
                    }
                    /* Fresh address: write-dominated. */
                    if (wf_cap == 0) {
                        i++;
                        continue;
                    }
                    if (wf_len >= wf_cap) {
                        if (no_wf_ovf) {
                            i++;
                            continue;
                        }
                        end = i;
                        cause = CAUSE_WF_FULL;
                        break;
                    }
                    if (apb_on) {
                        int32_t p = pids[i];
                        if (apb_c[p] != g) {
                            if (apb_len >= apb_cap) {
                                if (no_wf_ovf) {
                                    i++;
                                    continue;
                                }
                                end = i;
                                cause = CAUSE_APB_FULL;
                                break;
                            }
                            apb_c[p] = g;
                            apb_len++;
                        }
                    }
                    wf_c[v] = g;
                    wf_len++;
                    i++;
                    continue;
                }
                /* Read. */
                if (has_pi && pi[i]) {
                    i++;
                    continue;
                }
                if (ignore_text && (op & 2)) {
                    i++;
                    continue;
                }
                int32_t v = wids[i];
                if (rf_c[v] == g || wbb_c[v] == g || wf_c[v] == g) {
                    i++;
                    continue;
                }
                if (rf_len >= rf_cap) {
                    if (!latest) {
                        end = i;
                        cause = CAUSE_RF_FULL;
                        break;
                    }
                    untracked = 1;
                    i++;
                    break; /* drop into the untracked tail loop */
                }
                if (apb_on) {
                    int32_t p = pids[i];
                    if (apb_c[p] != g) {
                        if (apb_len >= apb_cap) {
                            if (!latest) {
                                end = i;
                                cause = CAUSE_APB_FULL;
                                break;
                            }
                            untracked = 1;
                            i++;
                            break;
                        }
                        apb_c[p] = g;
                        apb_len++;
                    }
                }
                rf_c[v] = g;
                rf_len++;
                i++;
            }
            if (untracked) {
                /* Untracked tail (latest-checkpoint mode after a
                 * read-side fill): reads always pass, so only writes
                 * need classifying. */
                while (i < n) {
                    if (i == next_forced) {
                        end = i;
                        cause = CAUSE_COMPILER;
                        break;
                    }
                    uint8_t op = ops[i];
                    if (op & 1) {
                        if (op & 4) {
                            end = i;
                            cause = CAUSE_OUTPUT;
                            break;
                        }
                        if (has_pi && pi[i]) {
                            /* PI write: passes. */
                        } else if (wbb_c[wids[i]] == g) {
                            /* WBB-owned write: in-place update, never
                             * a boundary — mirrors on_write. */
                        } else if (ig_fw && (op & 8)) {
                            /* False write: passes. */
                        } else {
                            end = i;
                            cause = CAUSE_LATEST_WRITE;
                            break;
                        }
                    }
                    i++;
                }
            }
            if (nev >= ev_percap)
                goto overflow;
            key_c[nev] = ((int64_t)start << 2) | variant;
            end_c[nev] = end;
            cz_c[nev] = cause;
            ns_c[nev] = nst - sec_nst0;
            nev++;

            /* -- follow the boundary into the next section -- */
            if (cause == CAUSE_FINAL)
                break;
            if (cause == CAUSE_COMPILER) {
                forced_done = end;
                direct = 0;
                start = end;
            } else if (cause == CAUSE_TEXT_WRITE) {
                direct = 1;
                start = end;
            } else if (cause == CAUSE_OUTPUT) {
                direct = 0;
                start = end + 1;
            } else {
                direct = 0;
                start = end;
            }
        }
        out_nev[c] = nev;
        out_nst[c] = nst;
    }
    *gen_io = g;
    return 0;

overflow:
    /* Persist the generation watermark even on overflow: the retry's
     * per-section pre-increment then starts above every stamp already
     * in scratch. */
    *gen_io = g;
    return -1;
}
