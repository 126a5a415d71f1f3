"""The job plans of the workloads, all pure functions of the seed."""

import random
from typing import List

#: Jobs in the sweep that primes the server: more than its 4,096-entry
#: memory tier, so an in-order rerun finds none of them in memory.
PRIME_JOBS = 4800
#: Jobs per client batch, and how many of them are fresh (never primed).
BATCH_JOBS = 32
FRESH_PER_BATCH = 6
#: Batches each of the two clients posts per rep.
BATCHES_PER_CLIENT = 150


def _names():
    from repro.workloads.registry import mibench2_names

    return mibench2_names()


def _sweep_configs():
    """Figure 5's unique (config, compiler) grid points, in sweep order."""
    from repro.eval.fig5 import FAMILIES, family_configs

    keys, seen = [], set()
    for family in FAMILIES:
        use_compiler = family.endswith("+C")
        for config in family_configs(family.replace("+C", "")):
            key = (config.as_tuple(), use_compiler)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys


#: Figure 5 grid points of the served sweep: few enough that the
#: server enumerates each (trace, config) section map once and then
#: replays it under many power-schedule salts.
SWEEP_POINTS = 8


def sweep_jobs(start: int, count: int, size: str = "small") -> List:
    """Jobs ``start .. start+count-1`` of an endless served sweep:
    ``SWEEP_POINTS`` Figure 5 grid points round-robin over the suite,
    then again with the next block of salts."""
    from repro.eval.parallel import SimJob

    names = _names()
    grid = _sweep_configs()
    keys = grid[::len(grid) // SWEEP_POINTS][:SWEEP_POINTS]
    per_lap = len(keys) * len(names)
    out = []
    for index in range(start, start + count):
        lap, pos = divmod(index, per_lap)
        key_idx, name_idx = divmod(pos, len(names))
        config, use_compiler = keys[key_idx]
        out.append(SimJob(workload=names[name_idx], config=config, size=size,
                          salt=name_idx + len(names) * lap,
                          use_compiler=use_compiler))
    return out


def prime_jobs(seed: int, smoke: bool = False) -> List:
    """The priming sweep: ``PRIME_JOBS`` jobs (64 for ``smoke``) from a
    seed-chosen offset."""
    start = random.Random(f"{seed}:prime").randrange(0, 50_000)
    return sweep_jobs(start, 64 if smoke else PRIME_JOBS)


def client_plan(seed: int, client: int, primed: List, smoke: bool = False) -> List[List]:
    """The batches one client posts in one rep.

    The two clients rerun the primed sweep in sweep order, as
    ``repro.eval --server`` does: the sweep is cut into contiguous
    windows of ``BATCH_JOBS - FRESH_PER_BATCH`` jobs that the clients
    take in turn (client 0 the even windows, client 1 the odd ones),
    wrapping round at the end.  A sweep larger than the server's memory
    tier rerun in order is the scan that defeats its LRU.  Each batch
    also carries ``FRESH_PER_BATCH`` fresh jobs that both clients post in
    the same order, so each is computed once and coalesced or served
    from memory for the other client.  ``smoke`` posts two batches.
    """
    batches = 2 if smoke else BATCHES_PER_CLIENT
    window = BATCH_JOBS - FRESH_PER_BATCH
    fresh_start = 100_000 + random.Random(f"{seed}:fresh").randrange(0, 50_000)
    fresh = sweep_jobs(fresh_start, batches * FRESH_PER_BATCH)
    plan = []
    for b in range(batches):
        first = (2 * b + client) * window
        jobs = [primed[(first + i) % len(primed)] for i in range(window)]
        for i in range(FRESH_PER_BATCH):
            jobs.insert((i * BATCH_JOBS) // FRESH_PER_BATCH,
                        fresh[b * FRESH_PER_BATCH + i])
        plan.append(jobs)
    return plan


def eval_reference_pool() -> List:
    """Candidate held-out jobs for ``eval-cold``: Figure 5's own sweep
    jobs (sweep-size traces, salt = benchmark index)."""
    from repro.eval.parallel import SimJob

    return [
        SimJob(workload=name, config=config, size="small", salt=salt,
               use_compiler=use_compiler)
        for config, use_compiler in _sweep_configs()
        for salt, name in enumerate(_names())
    ]
