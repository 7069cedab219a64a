"""Helpers shared across test modules (tests/ is a package)."""

from __future__ import annotations

import numpy as np
from hypothesis import example
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
from repro.memory import policy


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


def tiny_result():
    """A real result that costs about a millisecond (sequential sor at
    ``tiny``): what cache tests store when the content does not matter."""
    from repro import api

    return api.run_point("sor", scale="tiny")


def values_match(a, b, rtol=0.0) -> bool:
    """Worker return values (scalars, arrays, ``None`` or tuples of
    them) are equal, bit for bit unless a call site names a ``rtol``."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(
            values_match(x, y, rtol) for x, y in zip(a, b)
        )
    if rtol:
        return np.allclose(a, b, rtol=rtol, atol=0.0)
    return np.array_equal(a, b)


#: Water against its sequential run: each processor sums its chunk's
#: pair forces privately and adds the sum to the shared force vectors
#: under a lock, so a molecule's force adds the same terms in another
#: order than the one-chunk sequential sum (at most 3.4e-15 relative
#: at ``tiny`` scale, 2-16 processors, every variant).
WATER_SEQUENTIAL_RTOL = 1e-12


def run_app_everywhere(module, scale, variants, proc_counts):
    """Run an app module under each (variant, nprocs) and compare with
    the sequential reference; returns the list of mismatches."""
    app = module.program()
    rtol = WATER_SEQUENTIAL_RTOL if app.name == "water" else 0.0
    params = module.default_params(scale)
    seq = run_sequential(app, params)
    failures = []
    for variant in variants:
        for nprocs in proc_counts:
            cfg = RunConfig(variant=variant, nprocs=nprocs)
            if nprocs > cfg.compute_cpus_available:
                continue
            par = run_program(app, cfg, params)
            if not values_match(seq.values[0], par.values[0], rtol):
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

#: Every value of each configuration axis the LRC differentials sweep.
LRC_AXIS_VALUES = dict(
    variant=LRC_VARIANTS,
    network=["memch", "rdma", "ethernet"],
    nprocs=[2, 3, 4, 8, 16],
    granularity=policy.GRANULARITIES,
    prefetch=policy.PREFETCHES,
    homing=policy.HOMINGS,
)

#: The sharing-policy axes, which the app-level policy property draws
#: from too.
POLICY_AXES = {
    name: st.sampled_from(LRC_AXIS_VALUES[name])
    for name in ("granularity", "prefetch", "homing")
}

#: ``@given(**LRC_FUZZ_AXES)``: a random program and the configuration
#: it runs on.
LRC_FUZZ_AXES = dict(
    rounds=st.lists(_round, min_size=1, max_size=8),
    **{name: st.sampled_from(vals) for name, vals in LRC_AXIS_VALUES.items()},
)


def covering_examples(axis_values, **fixed):
    """``@example``s that together take every value of every axis: row
    ``i`` takes each axis's ``i``-th value, cycling the shorter axes."""

    def decorate(test):
        for i in range(max(map(len, axis_values.values()))):
            row = {k: vals[i % len(vals)] for k, vals in axis_values.items()}
            test = example(**fixed, **row)(test)
        return test

    return decorate


#: Two fixed rounds for the explicit examples: four ranks write the
#: first, second and sixth 256-byte unit (slots 0, 32, 160) and lock
#: counters, then read each other's writes.
EXAMPLE_ROUNDS = [
    dict(writes=[(0, 0, 5), (1, 1, 7), (32, 2, -3), (160, 3, 9)],
         locked=[(0, 0, 2), (1, 0, 3), (2, 1, 4)],
         skew=[0.0, 12.0, 62.0, 74.0] * 4,
         reads=[(1, 0), (0, 1), (3, 32), (2, 160)]),
    dict(writes=[(0, 1, 6), (32, 0, 8), (40, 3, -1)],
         locked=[(3, 0, 1), (0, 1, 5)],
         skew=[100.0, 0.0, 333.3, 12.0] * 4,
         reads=[(0, 32), (2, 0), (1, 40), (3, 160)]),
]

#: The tier-1 examples of every ``@given(**LRC_FUZZ_AXES)`` test.
lrc_examples = covering_examples(LRC_AXIS_VALUES, rounds=EXAMPLE_ROUNDS)


def lrc_fuzz_config(**axes) -> RunConfig:
    """The traced small-page configuration :func:`lrc_program` runs on,
    at one value of each ``LRC_AXIS_VALUES`` axis."""
    return RunConfig(
        cluster=ClusterConfig(page_size=PAGE), trace=True, **axes
    )
