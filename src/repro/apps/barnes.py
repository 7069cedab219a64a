"""Barnes: hierarchical Barnes-Hut N-body from SPLASH (Section 4.2).

"Each leaf of the program's tree represents a body, and each internal
node a 'cell': a collection of bodies in close physical proximity.  The
major shared data structures are two arrays, one representing the bodies
and the other representing the cells.  The Barnes-Hut tree construction
is performed sequentially, while all other phases are parallelized...
Synchronization consists of barriers between phases."

Bodies are 9 doubles (position, velocity, acceleration), so ~113 bodies
share one 8 KB page and the interleaved assignment of bodies to
processors produces heavy multi-writer false sharing — the pattern on
which the paper reports Cashmere beating TreadMarks (home-node merging
replaces diff exchanges among all writers of a page).  The sequential
tree build on processor 0 is the serial fraction that makes Barnes stop
scaling past 16 processors in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config import WorkingSet
from repro.core import Program, Region, SharedArray
from repro.apps import kernels
from repro.apps.common import deterministic_rng, pick_scale

THETA = 0.6  # opening angle
US_PER_INTERACTION = 10.0  # one gravity interaction (the paper's
# 128K-body traversals are ~10x deeper; this keeps per-body work comparable)
US_PER_TREE_NODE = 8.0  # sequential tree construction per insertion
DT = 0.025
BODY_FIELDS = 9  # pos(3) + vel(3) + acc(3)
CELL_FIELDS = 16  # mass, com(3), half, children(8), body, padding(2)
CHUNK = 4  # bodies are handed out in interleaved chunks of this size


def default_params(scale: str = "small") -> Dict:
    """Scaled-down versions of the paper's 128K-body run."""
    sizes = {
        "tiny": dict(n_bodies=64, steps=2),
        "small": dict(n_bodies=1024, steps=2),
        "large": dict(n_bodies=2048, steps=2),
        # Host cost is the force traversal, not the octree build: of a
        # sequential small run's 2.73 profiled seconds the all-scalar
        # walk was 2.44 s (89 %) and the build 0.09 s (3 %).  Batched
        # (``kernels.barnes_forces``) a small point costs 0.3-0.6 s and
        # a large one 1-2 s; the paper runs 128K on real hardware.
        "xlarge": dict(n_bodies=4096, steps=3),
    }
    return pick_scale(sizes, scale)


@dataclass
class _Cell:
    """One Barnes-Hut octree cell (built privately, then published)."""

    center: np.ndarray
    half: float
    mass: float = 0.0
    com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    children: List[Optional[int]] = field(default_factory=lambda: [None] * 8)
    body: Optional[int] = None  # leaf payload


def setup(space, params: Dict) -> Dict:
    n = params["n_bodies"]
    rng = deterministic_rng(params.get("seed", 1997))
    bodies = SharedArray.alloc(
        space, "barnes_bodies", np.float64, (n, BODY_FIELDS)
    )
    init = np.zeros((n, BODY_FIELDS))
    init[:, 0:3] = rng.random((n, 3)) * 2.0 - 1.0  # positions
    init[:, 3:6] = (rng.random((n, 3)) - 0.5) * 0.1  # velocities
    bodies.initialize(init)
    # The cell array: mass, com(3), half, children(8 indices), body,
    # padded to 16 doubles so 64 cells tile an 8 KB page exactly.  A
    # Barnes-Hut octree holds ~1.5 cells per body; 2.5x is headroom.
    max_cells = (5 * n) // 2
    cells = SharedArray.alloc(
        space, "barnes_cells", np.float64, (max_cells, CELL_FIELDS)
    )
    cells.initialize(np.zeros((max_cells, CELL_FIELDS)))
    masses = np.ones(n) / n
    return {"bodies": bodies, "cells": cells, "masses": masses, "max_cells": max_cells}


def _build_tree(positions: np.ndarray, masses: np.ndarray) -> List[_Cell]:
    """Sequential Barnes-Hut tree build; returns the flattened cells."""
    center = (positions.max(axis=0) + positions.min(axis=0)) / 2.0
    half = float((positions.max(axis=0) - positions.min(axis=0)).max()) / 2.0
    half = max(half, 1e-6) * 1.01
    cells: List[_Cell] = [_Cell(center=center.copy(), half=half)]

    def octant(cell: _Cell, pos: np.ndarray) -> int:
        index = 0
        for axis in range(3):
            if pos[axis] > cell.center[axis]:
                index |= 1 << axis
        return index

    def child_center(cell: _Cell, index: int) -> np.ndarray:
        offset = np.array(
            [
                cell.half / 2 if index & (1 << axis) else -cell.half / 2
                for axis in range(3)
            ]
        )
        return cell.center + offset

    def insert(cell_idx: int, body: int) -> None:
        cell = cells[cell_idx]
        if cell.body is None and all(c is None for c in cell.children):
            if cell.mass == 0.0:
                cell.body = body
                cell.mass = masses[body]
                cell.com = positions[body].copy()
                return
        if cell.body is not None:
            old = cell.body
            cell.body = None
            _push_down(cell_idx, old)
        _push_down(cell_idx, body)
        cell.mass += masses[body]

    def _push_down(cell_idx: int, body: int) -> None:
        cell = cells[cell_idx]
        index = octant(cell, positions[body])
        if cell.children[index] is None:
            child = _Cell(
                center=child_center(cell, index), half=cell.half / 2
            )
            cells.append(child)
            cell.children[index] = len(cells) - 1
        insert(cell.children[index], body)

    for body in range(len(positions)):
        root = cells[0]
        if root.body is None and all(c is None for c in root.children):
            if root.mass == 0.0:
                root.body = body
                root.mass = masses[body]
                root.com = positions[body].copy()
                continue
        insert(0, body)

    _summarize(cells, 0, positions, masses)
    return cells


def _summarize(cells: List[_Cell], idx: int, positions, masses) -> None:
    cell = cells[idx]
    if cell.body is not None:
        cell.mass = masses[cell.body]
        cell.com = positions[cell.body].copy()
        return
    total = 0.0
    com = np.zeros(3)
    for child_idx in cell.children:
        if child_idx is None:
            continue
        _summarize(cells, child_idx, positions, masses)
        child = cells[child_idx]
        total += child.mass
        com += child.mass * child.com
    cell.mass = total
    cell.com = com / total if total > 0 else cell.center.copy()


def _encode_cells(cells: List[_Cell], max_cells: int) -> np.ndarray:
    if len(cells) > max_cells:
        raise RuntimeError("cell array overflow; raise max_cells")
    out = np.zeros((max_cells, CELL_FIELDS))
    for i, cell in enumerate(cells):
        out[i, 0] = cell.mass
        out[i, 1:4] = cell.com
        out[i, 4] = cell.half
        out[i, 5:13] = [
            -1.0 if c is None else float(c) for c in cell.children
        ]
        out[i, 13] = -1.0 if cell.body is None else float(cell.body)
    return out


def _force_on(body: int, pos: np.ndarray, fetch_cell, masses):
    """Barnes-Hut traversal; ``fetch_cell`` is a generator that reads one
    cell record from the shared cell array, faulting pages on demand (the
    real program touches only the tree pages its traversals visit)."""
    force = np.zeros(3)
    interactions = 0
    stack = [0]
    while stack:
        idx = stack.pop()
        record = yield from fetch_cell(idx)
        mass = record[0]
        if mass <= 0.0:
            continue
        com = record[1:4]
        half = record[4]
        leaf_body = int(record[13])
        delta = com - pos
        dist2 = float(delta @ delta)
        if leaf_body >= 0:
            if leaf_body != body:
                interactions += 1
                force += mass * delta / (dist2 + 1e-4) ** 1.5
            continue
        if dist2 > 0 and (2 * half) ** 2 < THETA * THETA * dist2:
            interactions += 1
            force += mass * delta / (dist2 + 1e-4) ** 1.5
            continue
        for child in record[5:13]:
            if child >= 0:
                stack.append(int(child))
    return force, interactions


def _my_chunks(rank: int, nprocs: int, n: int) -> List[int]:
    """Interleaved chunk assignment (dynamic load balance stand-in that
    keeps the multi-writer false sharing of the real program)."""
    mine = []
    chunk_count = (n + CHUNK - 1) // CHUNK
    for chunk in range(rank, chunk_count, nprocs):
        mine.extend(
            range(chunk * CHUNK, min((chunk + 1) * CHUNK, n))
        )
    return mine


def worker(env, shared: Dict, params: Dict):
    n, steps = params["n_bodies"], params["steps"]
    bodies, cells = shared["bodies"], shared["cells"]
    masses, max_cells = shared["masses"], shared["max_cells"]
    mine = _my_chunks(env.rank, env.nprocs, n)
    ws = WorkingSet(primary=0)
    # Bulk regions over this rank's interleaved bodies, built once: the
    # acceleration columns (one segment per body), and the pos/vel
    # columns as *two* segments per body so the batched write takes the
    # per-span protocol charges of two writes per body (position, then
    # velocity), in body order.
    acc_region = bodies.region_row_gather(mine, 6, 9)
    posvel_region = Region(
        bodies,
        [
            seg
            for b in mine
            for seg in ((b * BODY_FIELDS, 3), (b * BODY_FIELDS + 3, 3))
        ],
        (len(mine), 6),
    )
    for _ in range(steps):
        # Phase 1: sequential tree construction on processor 0.
        if env.rank == 0:
            all_bodies = yield from bodies.read_all(env)
            positions = all_bodies[:, 0:3]
            yield from env.compute(n * US_PER_TREE_NODE, polls=n)
            tree = _build_tree(positions, masses)
            encoded = _encode_cells(tree, max_cells)
            yield from cells.write_rows(env, 0, encoded)
        yield from env.barrier(0)

        # Phase 2: force computation on assigned bodies.  Tree pages
        # are demand-fetched by the traversals, as in the real program.
        # Fetch-blocking heuristic keyed on the VM page (not the sharing
        # unit): keeps the access pattern — and results — policy-invariant.
        page_rows = env.protocol.space.vm_page_size // (CELL_FIELDS * 8)
        cell_cache = {}
        # The batched traversal's private copy of the blocks fetched so
        # far, filled only from ``read_rows`` replies.
        table = np.zeros((max_cells, CELL_FIELDS))
        size2 = np.zeros(max_cells)
        have = np.zeros(-(-max_cells // page_rows), dtype=bool)

        def fetch_cell(idx):
            block = idx // page_rows
            rows = cell_cache.get(block)
            if rows is None:
                first = block * page_rows
                last = min(first + page_rows, max_cells)
                rows = yield from cells.read_rows(env, first, last)
                cell_cache[block] = rows
                table[first:last] = rows
                size2[first:last] = [(2 * half) ** 2 for half in rows[:, 4]]
                have[block] = True
            return rows[idx - block * page_rows]

        all_bodies = yield from bodies.read_all(env)
        new_acc = {}
        # Speculation state: a walk that stays inside the fetched blocks
        # makes no protocol call, so ``kernels.barnes_forces`` computes
        # it ahead of time (``done``); a walk that would fault runs the
        # scalar ``_force_on`` below — same first-touch order, same
        # faults — and the not-yet-done rest is re-speculated once the
        # cache has grown (it only grows, and nobody writes ``cells``
        # between the two barriers).
        ids = np.asarray(mine, dtype=np.intp)
        spec_force = np.zeros((len(mine), 3))
        spec_inter = np.zeros(len(mine), dtype=np.int64)
        done = np.zeros(len(mine), dtype=bool)
        seen_blocks = 0
        for i, body in enumerate(mine):
            if not done[i] and len(cell_cache) > seen_blocks:
                seen_blocks = len(cell_cache)
                todo = i + np.flatnonzero(~done[i:])
                spec_force[todo], spec_inter[todo], done[todo] = (
                    kernels.barnes_forces(
                        ids[todo], all_bodies[ids[todo], 0:3], table,
                        size2, have, page_rows, THETA * THETA,
                    )
                )
            if done[i]:
                force, inter = spec_force[i], int(spec_inter[i])
            else:
                # Compute interleaves with tree-page fetches, as in the
                # real traversal: remote requests land while this
                # processor is busy, which is where the
                # interrupt-vs-polling gap lives.
                force, inter = yield from _force_on(
                    body, all_bodies[body, 0:3], fetch_cell, masses
                )
            new_acc[body] = force / masses[body]
            yield from env.compute(
                inter * US_PER_INTERACTION, polls=max(inter, 1), ws=ws
            )
        if mine:
            acc_block = np.stack([new_acc[b] for b in mine])
            yield from bodies.write_region(env, acc_region, acc_block)
        yield from env.barrier(0)

        # Phase 3: position/velocity update for assigned bodies.
        all_bodies = yield from bodies.read_all(env)
        yield from env.compute(len(mine) * 1.0, polls=len(mine))
        if mine:
            pos_block, vel_block = kernels.barnes_integrate(
                all_bodies, mine, DT
            )
            posvel = np.concatenate([pos_block, vel_block], axis=1)
            yield from bodies.write_region(env, posvel_region, posvel)
        yield from env.barrier(0)
    env.stop_timer()
    if env.rank == 0:
        final = yield from bodies.read_all(env)
        return final
    return None


def program() -> Program:
    return Program(name="barnes", setup=setup, worker=worker)
