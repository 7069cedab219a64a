"""Ilink: genetic linkage analysis from FASTLINK (paper Section 4.2).

"The main shared data is a pool of sparse arrays of genotype
probabilities.  Updates to each array are parallelized.  A master
processor assigns individual array elements to processors in a round
robin fashion in order to improve load balance.  After each processor
has updated its elements, the master processor sums the contributions.
Barriers are used for synchronization.  Scalability is limited by an
inherent serial component and inherent load imbalance."

The essential property the paper's analysis hinges on is *sparsity*:
"only a small portion of each page is modified between synchronization
operations", so TreadMarks' diffs carry far less data than Cashmere's
whole-page reads.  The synthetic genotype recurrence below preserves
that: each iteration updates ``density`` of the elements of each array
in the pool, scattered across its pages, and the master then reduces the
pool serially.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import WorkingSet
from repro.core import Program, Region, SharedArray
from repro.apps import kernels
from repro.apps.common import deterministic_rng, pick_scale

US_PER_UPDATE = 25.0  # one genotype-probability recurrence
US_PER_SUM_ELEM = 0.04  # the master's serial reduction


def default_params(scale: str = "small") -> Dict:
    """Scaled-down versions of the paper's CLP data set (15 MB pool)."""
    sizes = {
        "tiny": dict(arrays=4, elems=2048, density=0.05, iters=3),
        "small": dict(arrays=6, elems=8192, density=0.05, iters=3),
        "large": dict(arrays=12, elems=16384, density=0.05, iters=6),
        # ~12.6 MB of genarrays, matching the paper's 15 MB CLP pool.
        "xlarge": dict(arrays=24, elems=65536, density=0.05, iters=8),
    }
    return pick_scale(sizes, scale)


def _sparse_slots(params: Dict) -> np.ndarray:
    """The elements updated each iteration (sparse, deterministic)."""
    rng = deterministic_rng(params.get("seed", 1997) + 2)
    arrays, elems = params["arrays"], params["elems"]
    per_array = max(1, int(elems * params["density"]))
    slots = np.stack(
        [
            np.sort(rng.choice(elems, size=per_array, replace=False))
            for _ in range(arrays)
        ]
    )
    return slots


def setup(space, params: Dict) -> Dict:
    arrays, elems = params["arrays"], params["elems"]
    rng = deterministic_rng(params.get("seed", 1997))
    pool = SharedArray.alloc(space, "ilink_pool", np.float64, (arrays, elems))
    result = SharedArray.alloc(space, "ilink_result", np.float64, (arrays,))
    pool.initialize(rng.random((arrays, elems)))
    result.initialize(np.zeros(arrays))
    return {"pool": pool, "result": result, "slots": _sparse_slots(params)}


def worker(env, shared: Dict, params: Dict):
    arrays, elems, iters = params["arrays"], params["elems"], params["iters"]
    pool, result, slots = shared["pool"], shared["result"], shared["slots"]
    rank, nprocs = env.rank, env.nprocs
    ws = WorkingSet(primary=0)
    # One region per pool array over this rank's round-robin slots, each
    # slot its own one-element segment: the batched scatter replays the
    # element-by-element write loop's per-span protocol charges exactly.
    scatter_regions: Dict[int, Region] = {}
    for it in range(iters):
        # Parallel sparse update: the master assigns elements round-robin.
        n_updates = 0
        for a in range(arrays):
            my_slots = slots[a][rank::nprocs]
            if len(my_slots) == 0:
                continue
            row = yield from pool.read_rows(env, a, a + 1)
            row = row[0]
            values = row[my_slots]
            n_updates += len(my_slots)
            updated = kernels.ilink_update(values, it)
            reg = scatter_regions.get(a)
            if reg is None:
                reg = scatter_regions[a] = Region(
                    pool,
                    [(a * elems + int(s), 1) for s in my_slots],
                    (len(my_slots),),
                )
            yield from pool.write_region(env, reg, updated)
        yield from env.compute(
            max(n_updates, 1) * US_PER_UPDATE, polls=max(n_updates, 1), ws=ws
        )
        yield from env.barrier(0)
        # Serial component: the master sums all contributions.
        if rank == 0:
            pool_rows = []
            for a in range(arrays):
                row = yield from pool.read_rows(env, a, a + 1)
                pool_rows.append(row[0])
            total = kernels.ilink_reduce(pool_rows)
            yield from env.compute(
                arrays * elems * US_PER_SUM_ELEM, polls=arrays * elems
            )
            yield from result.write_range(env, 0, total)
        yield from env.barrier(0)
    env.stop_timer()
    if env.rank == 0:
        final = yield from result.read_all(env)
        pool_final = yield from pool.read_all(env)
        return final, pool_final
    return None


def program() -> Program:
    return Program(name="ilink", setup=setup, worker=worker)
