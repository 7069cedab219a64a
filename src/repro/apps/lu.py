"""LU: blocked dense LU factorization from SPLASH-2 (paper Section 4.2).

"The matrix A is divided into square blocks for temporal and spatial
locality.  Each block is owned by a particular processor, which performs
all computation on it."

The matrix is stored block-contiguous, so with the paper's 32x32 blocks
one block is exactly one 8 KB page.  The paper traces Cashmere's poor LU
performance to write doubling pushing the 16 KB primary working set out
of the 21064A's first-level cache (Section 4.3), which the working-set
declaration below reproduces.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import WorkingSet
from repro.core import Program, SharedArray
from repro.apps import kernels
from repro.apps.common import deterministic_rng, pick_scale

# Per-flop cost of the blocked kernels (dgemm-like inner loops, cache
# resident on a 233 MHz 21064A).
US_PER_FLOP = 0.03


def default_params(scale: str = "small") -> Dict:
    """Scaled-down versions of the paper's 2048x2048, 32x32-block run."""
    sizes = {
        "tiny": dict(n=64, block=16),
        "small": dict(n=512, block=32),
        "large": dict(n=768, block=32),
        # The paper's full 2048x2048 matrix with 32x32 blocks.
        "xlarge": dict(n=2048, block=32),
    }
    return pick_scale(sizes, scale)


def _owner(bi: int, bj: int, nblocks: int, nprocs: int) -> int:
    """2D scatter ownership, as in SPLASH-2."""
    return (bi * nblocks + bj) % nprocs


def _working_set(block: int) -> WorkingSet:
    """The paper's analysis: primary working set is two blocks (the
    destination block plus a source block); doubling adds the MC copy of
    the destination block."""
    block_bytes = block * block * 8
    return WorkingSet(
        primary=2 * block_bytes,
        doubled=block_bytes,
        twin=0,  # twins are touched once per interval, not per inner loop
    )


def setup(space, params: Dict) -> Dict:
    n, block = params["n"], params["block"]
    if n % block:
        raise ValueError("matrix size must be a multiple of the block size")
    nb = n // block
    rng = deterministic_rng(params.get("seed", 1997))
    # Diagonally dominant so the factorization needs no pivoting.
    dense = rng.random((n, n)) + np.eye(n) * n
    blocked = (
        dense.reshape(nb, block, nb, block).swapaxes(1, 2).copy()
    )  # [bi][bj][i][j], each block contiguous
    matrix = SharedArray.alloc(
        space, "lu_matrix", np.float64, (nb * nb, block * block)
    )
    matrix.initialize(blocked.reshape(nb * nb, block * block))
    return {"matrix": matrix, "dense": dense}


def _block_row(nb: int, bi: int, bj: int) -> int:
    return bi * nb + bj


def worker(env, shared: Dict, params: Dict):
    n, block = params["n"], params["block"]
    nb = n // block
    matrix = shared["matrix"]
    ws = _working_set(block)
    # The kernels copy their input up front, so they accept the
    # read-only zero-copy block views from ``region_view``.
    block_regions = {}  # row -> Region, page spans computed once
    view_missed = set()  # rows whose region_view probe missed once

    def read_block(bi, bj):
        row = _block_row(nb, bi, bj)
        if row not in view_missed:
            # Hot hit: a read-only zero-copy view of the block's page
            # (one block is page-contiguous).  Blocks are only written
            # in a *different* phase from every read of them, with
            # barriers between, so a view taken here holds stable bytes
            # for as long as the caller keeps it.  Remote blocks are
            # re-invalidated every step, so after the first miss the
            # probe can never pay off — skip it from then on (the view
            # is event-free, so skipping it cannot change the
            # simulation).
            reg = block_regions.get(row)
            if reg is None:
                reg = block_regions[row] = matrix.region_rows(row, row + 1)
            view = matrix.region_view(env, reg)
            if view is not None:
                return view.reshape(block, block)
            view_missed.add(row)
        rows = matrix.rows(env, row, row + 1)  # hot: no generator frame
        if rows is None:
            rows = yield from matrix.read_rows(env, row, row + 1)
        return rows.reshape(block, block)

    def write_block(bi, bj, data):
        yield from matrix.write_rows(
            env, _block_row(nb, bi, bj), data.reshape(1, block * block)
        )

    for k in range(nb):
        # Phase 1: the diagonal block's owner factors it in place.
        if _owner(k, k, nb, env.nprocs) == env.rank:
            diag = yield from read_block(k, k)
            yield from env.compute(
                kernels.flop_cost(kernels.lu_diag_flops(block), US_PER_FLOP),
                polls=block * block,
                ws=ws,
            )
            lu = kernels.lu_factor_diag(diag)
            yield from write_block(k, k, lu)
        yield from env.barrier(0)

        # Phase 2: perimeter blocks (row k and column k).
        diag = None
        for bi in range(k + 1, nb):
            if _owner(bi, k, nb, env.nprocs) == env.rank:
                if diag is None:
                    diag = yield from read_block(k, k)
                mine = yield from read_block(bi, k)
                yield from env.compute(
                    kernels.flop_cost(
                        kernels.lu_perimeter_flops(block), US_PER_FLOP
                    ),
                    polls=block * block,
                    ws=ws,
                )
                yield from write_block(
                    bi, k, kernels.lu_solve_col(mine, diag)
                )
            if _owner(k, bi, nb, env.nprocs) == env.rank:
                if diag is None:
                    diag = yield from read_block(k, k)
                mine = yield from read_block(k, bi)
                yield from env.compute(
                    kernels.flop_cost(
                        kernels.lu_perimeter_flops(block), US_PER_FLOP
                    ),
                    polls=block * block,
                    ws=ws,
                )
                yield from write_block(
                    k, bi, kernels.lu_solve_row(mine, diag)
                )
        yield from env.barrier(0)

        # Phase 3: interior update A[i][j] -= L[i][k] @ U[k][j].
        col_cache = {}
        row_cache = {}
        for bi in range(k + 1, nb):
            for bj in range(k + 1, nb):
                if _owner(bi, bj, nb, env.nprocs) != env.rank:
                    continue
                if bi not in col_cache:
                    col_cache[bi] = yield from read_block(bi, k)
                if bj not in row_cache:
                    row_cache[bj] = yield from read_block(k, bj)
                mine = yield from read_block(bi, bj)
                yield from env.compute(
                    kernels.flop_cost(
                        kernels.lu_interior_flops(block), US_PER_FLOP
                    ),
                    polls=block * block,
                    ws=ws,
                )
                updated = kernels.lu_interior_update(
                    mine, col_cache[bi], row_cache[bj]
                )
                yield from write_block(bi, bj, updated)
        yield from env.barrier(0)
    env.stop_timer()
    if env.rank == 0:
        final = yield from matrix.read_all(env)
        return final
    return None


def program() -> Program:
    return Program(name="lu", setup=setup, worker=worker)
