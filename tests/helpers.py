"""Helpers shared across test modules (tests/ is a package)."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.config import (
    HLRC_INT,
    HLRC_POLL,
    TMK_MC_POLL,
    TMK_UDP_INT,
    ClusterConfig,
    RunConfig,
    Variant,
)
from repro.core import Program, SharedArray, run_program, run_sequential


def replay_ids(engines):
    """Ids of a golden replay over ``engines``: ``kernels``/``scalar``
    x ``fastpath``/``legacy`` x ``engines``.  Pass them with
    ``pytest.mark.parametrize("replay", ..., indirect=True)``; the
    ``replay`` fixture (tests/conftest.py) reads them."""
    return [
        f"{body}-{access}-{engine}"
        for body in ("kernels", "scalar")
        for access in ("fastpath", "legacy")
        for engine in engines
    ]


def values_match(a, b, rtol=1e-9, atol=1e-9) -> bool:
    """Compare worker return values (scalars, arrays, or tuples)."""
    if isinstance(a, (tuple, list)):
        return all(values_match(x, y, rtol, atol) for x, y in zip(a, b))
    return np.allclose(a, b, rtol=rtol, atol=atol)


def run_app_everywhere(module, scale, variants, proc_counts, rtol=1e-7):
    """Run an app module under each (variant, nprocs) and compare with
    the sequential reference; returns the list of mismatches."""
    app = module.program()
    params = module.default_params(scale)
    seq = run_sequential(app, params)
    failures = []
    for variant in variants:
        for nprocs in proc_counts:
            cfg = RunConfig(variant=variant, nprocs=nprocs)
            if nprocs > cfg.compute_cpus_available:
                continue
            par = run_program(app, cfg, params)
            if not values_match(seq.values[0], par.values[0], rtol=rtol):
                failures.append((variant.name, nprocs))
    return failures


# -- random race-free LRC programs (differentials against test oracles) --

PAGE = 256  # bytes: a 4 KiB array is 16 sharing units
SLOTS = 16 * PAGE // 8
LOCK_BASE = SLOTS  # lock-protected counters live past the barrier slots
N_LOCKS = 4

# Biased towards a few hot units and ranks, so that pages are shared
# repeatedly (multi-notice merges, and under ``homing="dynamic"`` enough
# fetches by one reader for homes to migrate mid-run).
_slot = st.one_of(
    st.sampled_from([0, 1, PAGE // 8, 5 * PAGE // 8]),
    st.integers(0, SLOTS - 1),
)
_rank = st.one_of(st.sampled_from([0, 1]), st.integers(0, 15))
_round = st.fixed_dictionaries(
    {
        # (slot, writer, value): the first writer named for a slot wins
        "writes": st.lists(
            st.tuples(_slot, _rank, st.integers(-99, 99)), max_size=24
        ),
        # (rank, lock, amount): lock-protected increments before the barrier
        "locked": st.lists(
            st.tuples(_rank, st.integers(0, N_LOCKS - 1), st.integers(1, 9)),
            max_size=6,
        ),
        # per-rank compute before the barrier, staggering arrivals
        "skew": st.lists(
            st.sampled_from([0.0, 12.0, 62.0, 74.0, 100.0, 333.3]),
            min_size=16,
            max_size=16,
        ),
        # (reader, slot): read back after the barrier
        "reads": st.lists(st.tuples(_rank, _slot), max_size=12),
    }
)


def lrc_program(rounds):
    """A race-free SPMD program: per round, single-writer slot writes
    and lock-protected increments, a barrier, then cross-rank reads."""

    def setup(space, params):
        arr = SharedArray.alloc(
            space, "fuzz", np.float64, (SLOTS + N_LOCKS * PAGE // 8,)
        )
        arr.initialize(np.zeros(arr.shape))
        return {"arr": arr}

    def worker(env, shared, params):
        arr = shared["arr"]
        seen = []
        for rnd in rounds:
            written = set()
            for slot, writer, value in rnd["writes"]:
                if slot in written:
                    continue
                written.add(slot)
                if writer % env.nprocs == env.rank:
                    yield from arr.put(env, slot, float(value))
            for rank, lock, amount in rnd["locked"]:
                if rank % env.nprocs != env.rank:
                    continue
                counter = LOCK_BASE + lock * PAGE // 8
                yield from env.lock_acquire(lock)
                value = yield from arr.get(env, counter)
                yield from arr.put(env, counter, value + amount)
                yield from env.lock_release(lock)
            yield from env.compute(rnd["skew"][env.rank])
            yield from env.barrier(0)
            for reader, slot in rnd["reads"]:
                if reader % env.nprocs == env.rank:
                    seen.append((yield from arr.get(env, slot)))
            yield from env.barrier(1)
        env.stop_timer()
        if env.rank == 0:
            return (yield from arr.read_all(env)), seen
        return seen

    return Program("fuzz_lrc", setup, worker)


LRC_VARIANTS = [TMK_MC_POLL, TMK_UDP_INT, HLRC_POLL, HLRC_INT]

#: ``@given(**LRC_FUZZ_AXES)``: a random program and the configuration
#: axes the LRC differentials sweep it over.
LRC_FUZZ_AXES = dict(
    rounds=st.lists(_round, min_size=1, max_size=8),
    variant=st.sampled_from(LRC_VARIANTS),
    homing=st.sampled_from(["first-touch", "round-robin", "dynamic"]),
    network=st.sampled_from(["memch", "rdma", "ethernet"]),
    nprocs=st.sampled_from([2, 3, 4, 8, 16]),
)


def lrc_fuzz_config(variant, homing, network, nprocs) -> RunConfig:
    """The traced small-page configuration :func:`lrc_program` runs on."""
    return RunConfig(
        variant=variant,
        nprocs=nprocs,
        cluster=ClusterConfig(page_size=PAGE),
        network=network,
        homing=homing,
        trace=True,
    )


def timelines(tracer, nprocs):
    """Every processor's trace timeline, event for event."""
    return [tracer.for_pid(pid) for pid in range(nprocs)]
