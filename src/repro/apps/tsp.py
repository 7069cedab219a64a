"""TSP: branch-and-bound traveling salesman (paper Section 4.2).

"Locks are used to insert and delete unsolved tours in a priority queue.
Updates to the shortest path are protected by a separate lock.  The
algorithm is nondeterministic in the sense that the earlier some
processor stumbles upon the shortest path, the more quickly other parts
of the search space can be pruned."

The shared priority queue (a binary heap of tour slots), the free list,
and the current best tour all live in DSM shared memory and are accessed
under the queue/best locks exactly as in the original program.  Partial
tours deeper than ``local_depth`` remaining cities are solved locally by
depth-first search — the standard coarsening that makes distributed TSP
compute-bound.  The amount of work done varies with the schedule, but
the final tour length is always the optimum, which is what the tests
verify.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core import Program, SharedArray
from repro.apps import kernels
from repro.apps.common import deterministic_rng, pick_scale

QUEUE_LOCK = 0
BEST_LOCK = 1

US_PER_BOUND = 2.0  # lower-bound computation per expanded child
US_PER_DFS_NODE = 150.0  # one node of the local depth-first solve (the paper's
# 17-city subtrees are far deeper; this keeps the task grain comparable)


def default_params(scale: str = "small") -> Dict:
    """Scaled-down versions of the paper's 17-city run.

    ``local_depth`` is the subtree size solved entirely within one
    processor; it sets the task granularity exactly as in distributed
    branch-and-bound codes of the era.
    """
    sizes = {
        "tiny": dict(cities=8, local_depth=5),
        "small": dict(cities=12, local_depth=9),
        "large": dict(cities=13, local_depth=9),
        # Branch-and-bound work explodes factorially: 14 cities is the
        # largest instance that stays overnight-feasible in pure Python
        # (the paper's 17-city run is out of reach here).
        "xlarge": dict(cities=14, local_depth=10),
    }
    return pick_scale(sizes, scale)


def distances(params: Dict) -> np.ndarray:
    rng = deterministic_rng(params.get("seed", 1997))
    c = params["cities"]
    pts = rng.random((c, 2)) * 100.0
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return d


def setup(space, params: Dict) -> Dict:
    c = params["cities"]
    slots = params.get("max_slots", 4096)
    record = c + 3  # bound, length, depth, path[c]
    pool = SharedArray.alloc(space, "tsp_pool", np.float64, (slots, record))
    heap = SharedArray.alloc(space, "tsp_heap", np.float64, (slots + 1,))
    # control: heap_size, free_top, n_idle, best_len
    control = SharedArray.alloc(space, "tsp_control", np.float64, (4,))
    freelist = SharedArray.alloc(space, "tsp_free", np.float64, (slots,))
    best_path = SharedArray.alloc(space, "tsp_best", np.float64, (c,))

    d = distances(params)
    # Seed the incumbent with a greedy nearest-neighbour tour, as real
    # branch-and-bound codes do; without it the first tasks explore
    # unpruned subtrees.
    greedy_len, greedy_path = _greedy_tour(d)
    root = np.zeros(record)
    root[0] = kernels.tsp_lower_bound(d, [0], 0.0)
    root[1] = 0.0
    root[2] = 1.0
    root[3] = 0.0  # tour starts at city 0
    pool_init = np.zeros((slots, record))
    pool_init[0] = root
    pool.initialize(pool_init)
    heap_init = np.zeros(slots + 1)
    heap_init[0] = 1  # one entry
    heap_init[1] = 0  # slot 0
    heap.initialize(heap_init)
    # control = [heap_size, free_top, n_idle, best_len]; slots 1..slots-1
    # start on the free stack (slot 0 holds the root tour).
    control.initialize(
        np.array([1.0, float(slots - 1), 0.0, greedy_len])
    )
    free_init = np.zeros(slots)
    free_init[: slots - 1] = np.arange(1, slots, dtype=np.float64)
    freelist.initialize(free_init)
    best_path.initialize(np.array(greedy_path, np.float64))
    return {
        "pool": pool,
        "heap": heap,
        "control": control,
        "free": freelist,
        "best_path": best_path,
        "dist": d,
        "record": record,
        "slots": slots,
    }


def _greedy_tour(d: np.ndarray):
    """Nearest-neighbour tour from city 0 (the initial incumbent)."""
    c = len(d)
    path = [0]
    total = 0.0
    while len(path) < c:
        last = path[-1]
        nxt = min(
            (j for j in range(c) if j not in path), key=lambda j: d[last][j]
        )
        total += d[last][nxt]
        path.append(nxt)
    total += d[path[-1]][0]
    return total, path


def _dfs_solve(d, path, length, best_len):
    """Branch-and-bound DFS under a node.

    Returns ``(best_len, best_path, nodes)`` where ``nodes`` is the
    number of search-tree nodes actually visited (pruned subtrees cost
    nothing, as in the real program).
    """
    c = len(d)
    min_edge = [min(d[i][j] for j in range(c) if j != i) for i in range(c)]
    remaining = frozenset(range(c)) - frozenset(path)
    state = {"best": best_len, "path": None, "nodes": 0}
    stack = list(path)

    def descend(last, rem, total):
        state["nodes"] += 1
        if not rem:
            final = total + d[last][path[0]]
            if final < state["best"]:
                state["best"] = final
                state["path"] = list(stack)
            return
        optimistic = total + sum(min_edge[city] for city in rem)
        if optimistic >= state["best"]:
            return
        for city in sorted(rem, key=lambda j: d[last][j]):
            extended = total + d[last][city]
            if extended >= state["best"]:
                continue
            stack.append(city)
            descend(city, rem - {city}, extended)
            stack.pop()

    descend(path[-1], remaining, length)
    return state["best"], state["path"], state["nodes"]


def worker(env, shared: Dict, params: Dict):
    c = params["cities"]
    local_depth = params["local_depth"]
    d = shared["dist"]
    pool, heap = shared["pool"], shared["heap"]
    control, freelist = shared["control"], shared["free"]
    best_path_arr = shared["best_path"]
    record = shared["record"]
    # The search is data-dependent scalar control flow; the kernel layer
    # hosts the bound and DFS implementations.
    lower_bound, dfs_solve = kernels.tsp_lower_bound, kernels.tsp_dfs_solve

    def read_control():
        vals = yield from control.read_range(env, 0, 4)
        return vals

    idle_backoff = 500.0
    registered_idle = False
    while True:
        yield from env.lock_acquire(QUEUE_LOCK)
        ctl = yield from read_control()
        heap_size, free_top, n_idle, best_len = (
            int(ctl[0]),
            int(ctl[1]),
            int(ctl[2]),
            float(ctl[3]),
        )
        if heap_size == 0:
            # Register as idle and *stay* registered while the queue is
            # empty; a processor deregisters only when it takes work, so
            # the idle count converges and termination is detected.
            if not registered_idle:
                registered_idle = True
                n_idle += 1
                yield from control.put(env, 2, n_idle)
            yield from env.lock_release(QUEUE_LOCK)
            if n_idle >= env.nprocs:
                break  # queue drained and everyone idle: done
            yield from env.compute(idle_backoff, polls=50)
            idle_backoff = min(idle_backoff * 2.0, 8000.0)
            continue
        if registered_idle:
            registered_idle = False
            yield from control.put(env, 2, max(n_idle - 1, 0))
        idle_backoff = 500.0
        # Pop the most promising tour (heap root).
        slot = yield from _heap_pop(env, heap, pool, heap_size)
        yield from control.put(env, 0, heap_size - 1)
        tour = yield from pool.read_range(env, slot * record, record)
        yield from freelist.put(env, int(ctl[1]), slot)
        yield from control.put(env, 1, free_top + 1)
        yield from env.lock_release(QUEUE_LOCK)

        bound, length, depth = float(tour[0]), float(tour[1]), int(tour[2])
        path = [int(x) for x in tour[3 : 3 + depth]]
        if bound >= best_len:
            continue  # pruned

        if c - depth <= local_depth:
            # Solve the subtree locally with DFS.
            found_len, found_path, nodes = dfs_solve(d, path, length, best_len)
            yield from env.compute(
                max(nodes, 1) * US_PER_DFS_NODE, polls=max(nodes, 1)
            )
            if found_path is not None:
                yield from env.lock_acquire(BEST_LOCK)
                current = yield from control.get(env, 3)
                if found_len < float(current):
                    yield from control.put(env, 3, found_len)
                    yield from best_path_arr.write_range(
                        env, 0, np.array(found_path, np.float64)
                    )
                yield from env.lock_release(BEST_LOCK)
            continue

        # Expand one level and push the children.
        last = path[-1]
        children = []
        for city in range(c):
            if city in path:
                continue
            child_len = length + d[last][city]
            child_path = path + [city]
            child_bound = lower_bound(d, child_path, child_len)
            children.append((child_bound, child_len, child_path))
        yield from env.compute(
            len(children) * US_PER_BOUND * c, polls=len(children) * c
        )
        for child_bound, child_len, child_path in children:
            if child_bound >= best_len:
                continue
            yield from env.lock_acquire(QUEUE_LOCK)
            ctl = yield from read_control()
            heap_size, free_top = int(ctl[0]), int(ctl[1])
            if free_top == 0:
                raise RuntimeError("tsp slot pool exhausted")
            slot = int((yield from freelist.get(env, free_top - 1)))
            yield from control.put(env, 1, free_top - 1)
            rec = np.zeros(record)
            rec[0] = child_bound
            rec[1] = child_len
            rec[2] = len(child_path)
            rec[3 : 3 + len(child_path)] = child_path
            yield from pool.write_range(env, slot * record, rec)
            yield from _heap_push(env, heap, pool, heap_size, slot, record)
            yield from control.put(env, 0, heap_size + 1)
            yield from env.lock_release(QUEUE_LOCK)
    env.stop_timer()
    if env.rank == 0:
        best_len = yield from control.get(env, 3)
        path = yield from best_path_arr.read_all(env)
        return float(best_len), [int(x) for x in path]
    return None


def _heap_pop(env, heap, pool, heap_size):
    """Remove and return the slot with the lowest bound (timed reads and
    writes of the shared heap array, under the queue lock)."""
    root = int((yield from heap.get(env, 1)))
    if heap_size == 1:
        return root
    last = yield from heap.get(env, heap_size)
    yield from heap.put(env, 1, last)
    # Sift down by bound.
    i = 1
    size = heap_size - 1
    while True:
        left, right = 2 * i, 2 * i + 1
        if left > size:
            break
        child = left
        if right <= size:
            lb = yield from _bound_of(env, heap, pool, left)
            rb = yield from _bound_of(env, heap, pool, right)
            if rb < lb:
                child = right
        here = yield from _bound_of(env, heap, pool, i)
        there = yield from _bound_of(env, heap, pool, child)
        if there >= here:
            break
        a = yield from heap.get(env, i)
        b = yield from heap.get(env, child)
        yield from heap.put(env, i, b)
        yield from heap.put(env, child, a)
        i = child
    return root


def _bound_of(env, heap, pool, heap_index):
    slot = int((yield from heap.get(env, heap_index)))
    record = pool.shape[1]
    bound = yield from pool.read_range(env, slot * record, 1)
    return float(bound[0])


def _heap_push(env, heap, pool, heap_size, slot, record):
    i = heap_size + 1
    yield from heap.put(env, i, slot)
    while i > 1:
        parent = i // 2
        mine = yield from _bound_of(env, heap, pool, i)
        theirs = yield from _bound_of(env, heap, pool, parent)
        if theirs <= mine:
            break
        a = yield from heap.get(env, i)
        b = yield from heap.get(env, parent)
        yield from heap.put(env, i, b)
        yield from heap.put(env, parent, a)
        i = parent


def reference(params: Dict) -> float:
    """Exact optimum via branch-and-bound DFS (test oracle)."""
    d = distances(params)
    best, _path, _nodes = _dfs_solve(d, [0], 0.0, np.inf)
    return best


def program() -> Program:
    return Program(name="tsp", setup=setup, worker=worker)
