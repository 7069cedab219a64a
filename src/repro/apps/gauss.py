"""Gauss: Gaussian elimination with cyclic row distribution
(paper Section 4.2).

"Each row of the matrix is the responsibility of a single processor.
For load balance, the rows are distributed among processors cyclically.
A synchronization flag for each row indicates when it is available to
other rows for use as a pivot."

Rows are padded to a page, as the paper's 2048-column rows occupy whole
pages.  Row ``k``'s flag is ``k`` and its owner is ``k % nprocs`` —
exactly the convention the TreadMarks flag implementation needs.

Section 4.3 attributes the large Cashmere/TreadMarks gap to cache
behaviour: the primary working set (pivot row + target row, plus the
doubled copy under Cashmere) shrinks as elimination proceeds and fits L1
"first for TreadMarks and at a later point for Cashmere"; the secondary
working set (each processor's remaining rows) eventually fits L2, giving
Cashmere a late jump that TreadMarks misses because twins and diffs
compete for the same space.  The working-set declarations below encode
precisely that analysis.

Back-substitution runs untimed on rank 0 after the final barrier: at
simulation scale its serial page fetches would dominate, whereas at the
paper's scale it is noise (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import WorkingSet
from repro.core import Program, SharedArray
from repro.apps import kernels
from repro.apps.common import deterministic_rng, pick_scale

US_PER_ELEM = 0.1  # one dependent multiply-subtract, memory bound

PAPER_N = 2046
PAPER_DATA_BYTES = 33 * 1024 * 1024  # Table 2: 33 MB


def cost_overrides(params: Dict) -> Dict:
    """Scale the cache sizes with the scaled-down problem.

    Gauss's paper behaviour is defined by where its working sets cross
    the cache boundaries (primary vs. 16 KB L1, per-processor data vs.
    1 MB L2).  Shrinking the matrix without shrinking the caches would
    erase those transitions, so the simulated caches shrink by the same
    ratios, keeping the crossover processor counts where the paper saw
    them (documented in DESIGN.md / EXPERIMENTS.md).
    """
    from repro.config import CostModel

    base = CostModel()
    n = params["n"]
    row_ratio = n / PAPER_N
    data_bytes = n * _padded_width(n, 8192) * 8
    data_ratio = data_bytes / PAPER_DATA_BYTES
    return {
        "l1_bytes": max(2048, int(base.l1_bytes * row_ratio)),
        "l2_bytes": max(32 * 1024, int(base.l2_bytes * data_ratio)),
    }


def default_params(scale: str = "small") -> Dict:
    """Scaled-down versions of the paper's 2046x2046 system."""
    sizes = {
        "tiny": dict(n=48),
        "small": dict(n=320),
        "large": dict(n=512),
        # The paper's full 2046x2046 system.
        "xlarge": dict(n=2046),
    }
    return pick_scale(sizes, scale)


def _padded_width(n: int, page_size: int) -> int:
    per_page = page_size // 8
    width = n + 1  # augmented column
    return ((width + per_page - 1) // per_page) * per_page


def setup(space, params: Dict) -> Dict:
    n = params["n"]
    # Pad to the VM page (not the sharing unit): data layout must not
    # vary with the granularity policy, or results would differ.
    width = _padded_width(n, space.vm_page_size)
    rng = deterministic_rng(params.get("seed", 1997))
    a = rng.random((n, n)) + np.eye(n) * n  # diagonally dominant
    b = rng.random(n)
    augmented = np.zeros((n, width))
    augmented[:, :n] = a
    augmented[:, n] = b
    matrix = SharedArray.alloc(space, "gauss_matrix", np.float64, (n, width))
    matrix.initialize(augmented)
    return {"matrix": matrix, "n": n, "width": width}


def _ws(n: int, k: int, rank_rows: int, row_bytes: int) -> WorkingSet:
    active = (n - k) * 8  # live portion of one row
    return WorkingSet(
        primary=2 * active,  # pivot row + target row
        doubled=active,  # MC copy of the row being eliminated
        secondary=rank_rows * row_bytes,  # my remaining rows
        twin_l2=(rank_rows * row_bytes) // 2,  # twins + diff cache
    )


def worker(env, shared: Dict, params: Dict):
    n, width = params["n"], shared["width"]
    matrix = shared["matrix"]
    rank, nprocs = env.rank, env.nprocs
    row_bytes = width * 8
    # Local cache of rows already read; rows never change after their
    # flag is set, so this mirrors what stays in local memory.
    mine = {
        r: None for r in range(rank, n, nprocs)
    }
    # Vectorized-path mirror of this rank's rows.  Each row has exactly
    # one writer (this rank), so once gathered hot the mirror always
    # equals shared memory, and the pages it shadows can never be
    # invalidated (no other processor ever produces write notices for
    # them) — skipping the re-read each round drops only reads that
    # would have been event-free hot hits.  ``mirror_rows`` is the
    # ascending row list the mirror covers; each round's ``my_rows`` is
    # a suffix of it.
    mirror = None
    mirror_rows = None
    # Loop-invariant gather geometry, hoisted out of the pivot loop
    # (ROADMAP "profiled micro-levers"): each step's region covers a
    # suffix of this rank's ascending row list with a sliding column
    # window, so the per-row byte bases are computed once up front and
    # ``my_rows`` advances by pointer instead of a fresh O(rows)
    # comprehension per pivot.
    rows_list = list(mine)  # ascending: range(rank, n, nprocs) order
    gather = matrix.row_gather(rows_list)
    next_idx = 0  # first entry of rows_list still > k
    for k in range(n - 1):
        owner = k % nprocs
        if owner == rank:
            yield from env.flag_set(k)
        else:
            yield from env.flag_wait(k)
        pivot = matrix.rows(env, k, k + 1)  # hot: no generator frame
        if pivot is None:
            pivot = yield from matrix.read_rows(env, k, k + 1)
        pivot = pivot[0]
        while next_idx < len(rows_list) and rows_list[next_idx] <= k:
            next_idx += 1
        my_rows = rows_list[next_idx:]
        if not my_rows:
            continue
        rank_rows = len(my_rows)
        elems = kernels.gauss_elim_elems(rank_rows, n, k)
        yield from env.compute(
            elems * US_PER_ELEM,
            polls=elems,
            ws=_ws(n, k, rank_rows, row_bytes),
        )
        if mirror is None:
            # One hot gather of my full remaining rows seeds the mirror.
            # A miss (a cold page) leaves it unseeded and this round
            # runs the row loop below — bit-identical fault replay —
            # until a later round gathers hot.
            got = matrix.region_view(env, gather.region(next_idx))
            if got is not None:
                mirror = np.array(got)  # writable copy
                mirror_rows = my_rows
        if mirror is not None:
            # One kernel call over a strided slice of the mirror, then
            # one region write of the live columns — same per-row [k, n]
            # segments, same row order, as the row loop's write_range
            # calls.
            i0 = len(mirror_rows) - rank_rows
            block = mirror[i0:, k : n + 1]
            updated = kernels.gauss_eliminate(block, pivot, k, n)
            yield from matrix.write_region(
                env, gather.region(next_idx, k, n + 1), updated
            )
            block[:] = updated
            continue
        for r in my_rows:
            current = matrix.rows(env, r, r + 1)
            if current is None:
                current = yield from matrix.read_rows(env, r, r + 1)
            current = current[0]
            factor = current[k] / pivot[k]
            updated = current[k : n + 1] - factor * pivot[k : n + 1]
            updated[0] = 0.0
            # Only the active columns [k, n] change; columns left of the
            # pivot are already zero and the padding is never touched.
            yield from matrix.write_range(
                env, r * width + k, updated
            )
    yield from env.barrier(0)
    env.stop_timer()
    if rank == 0:
        # Untimed back-substitution and verification gather.
        final = yield from matrix.read_all(env)
        x = _back_substitute(final[:, : n + 1])
        return x, final[:, : n + 1]
    return None


def _back_substitute(aug: np.ndarray) -> np.ndarray:
    n = len(aug)
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (aug[i, n] - aug[i, i + 1 : n] @ x[i + 1 :]) / aug[i, i]
    return x


def reference(params: Dict) -> np.ndarray:
    """Direct NumPy solution of the same system."""
    rng = deterministic_rng(params.get("seed", 1997))
    n = params["n"]
    a = rng.random((n, n)) + np.eye(n) * n
    b = rng.random(n)
    return np.linalg.solve(a, b)


def program() -> Program:
    return Program(name="gauss", setup=setup, worker=worker)
