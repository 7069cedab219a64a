"""Water: molecular dynamics from SPLASH (paper Section 4.2).

"The shared array of molecule structures is divided into equal
contiguous chunks, with each chunk assigned to a different processor.
The bulk of the interprocessor communication happens during a
computation phase that computes intermolecular forces.  Each processor
accumulates its forces locally and then acquires per-processor locks to
update the globally shared force vectors, resulting in a migratory
sharing pattern."

The physics is a simplified Lennard-Jones pairwise potential over the
oxygen positions: the O(n^2/2) force phase, the lock-protected global
accumulation, and the barrier structure are exactly the paper's; the
intra-molecular terms are folded into the per-pair cost constant.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import WorkingSet
from repro.core import Program, SharedArray
from repro.apps import kernels
from repro.apps.common import band, deterministic_rng, pick_scale

US_PER_PAIR = 0.45  # Lennard-Jones pair: ~30 flops incl. the sqrt
US_PER_MOL_UPDATE = 0.3  # position/velocity integration per molecule
DT = 1e-4


def default_params(scale: str = "small") -> Dict:
    """Scaled-down versions of the paper's 4096-molecule run."""
    sizes = {
        "tiny": dict(n_mols=48, steps=2),
        "small": dict(n_mols=3072, steps=2),
        "large": dict(n_mols=4096, steps=2),
        # The paper's 4096 molecules, run for twice the steps so the
        # steady-state sharing pattern dominates startup.
        "xlarge": dict(n_mols=4096, steps=4),
    }
    return pick_scale(sizes, scale)


def setup(space, params: Dict) -> Dict:
    n = params["n_mols"]
    rng = deterministic_rng(params.get("seed", 1997))
    positions = SharedArray.alloc(space, "water_pos", np.float64, (n, 3))
    velocities = SharedArray.alloc(space, "water_vel", np.float64, (n, 3))
    forces = SharedArray.alloc(space, "water_force", np.float64, (n, 3))
    positions.initialize(rng.random((n, 3)) * 4.0)
    velocities.initialize((rng.random((n, 3)) - 0.5) * 0.1)
    forces.initialize(np.zeros((n, 3)))
    return {"pos": positions, "vel": velocities, "force": forces}


def worker(env, shared: Dict, params: Dict):
    n, steps = params["n_mols"], params["steps"]
    pos, vel, force = shared["pos"], shared["vel"], shared["force"]
    rank, nprocs = env.rank, env.nprocs
    lo, hi = band(rank, nprocs, n)
    n_mine = hi - lo
    pairs = sum(max(n - i - 1, 0) for i in range(lo, hi))
    ws = WorkingSet(primary=min(n * 3 * 8, 12 * 1024))
    # One region per victim chunk, reused across the migratory
    # accumulation loop every step (the chunk bands never change).
    accum_regions: Dict[int, object] = {}
    for _ in range(steps):
        # Zero the global force vectors for the chunk we own (ranks
        # past the last molecule own none).
        if n_mine:
            yield from force.write_rows(env, lo, np.zeros((n_mine, 3)))
        yield from env.barrier(0)

        # Force phase: all positions against my chunk.
        all_pos = yield from pos.read_rows(env, 0, n)
        yield from env.compute(pairs * US_PER_PAIR, polls=pairs, ws=ws)
        contrib = kernels.water_pair_forces(all_pos[lo:hi], lo, all_pos)

        # Migratory accumulation under per-processor locks.
        for victim in range(nprocs):
            target = (rank + victim) % nprocs
            vlo, vhi = band(target, nprocs, n)
            if vhi == vlo:
                continue
            yield from env.lock_acquire(target)
            updated = None
            reg = accum_regions.get(target)
            if reg is None:
                reg = accum_regions[target] = force.region_rows(vlo, vhi)
            current = force.region_view(env, reg)
            if current is not None:
                # Consume the (possibly zero-copy) view before the next
                # yield; the add snapshots the same bytes the cold
                # path's read copies.
                updated = current + contrib[vlo:vhi]
            if updated is None:
                current = yield from force.read_rows(env, vlo, vhi)
            yield from env.compute(
                (vhi - vlo) * 3 * 0.05, polls=vhi - vlo
            )
            if updated is None:
                yield from force.write_rows(
                    env, vlo, current + contrib[vlo:vhi]
                )
            else:
                yield from force.write_region(env, reg, updated)
            yield from env.lock_release(target)
        yield from env.barrier(0)

        # Update phase: integrate my molecules.
        if n_mine:
            my_force = yield from force.read_rows(env, lo, hi)
            my_vel = yield from vel.read_rows(env, lo, hi)
            my_pos = yield from pos.read_rows(env, lo, hi)
            yield from env.compute(
                n_mine * US_PER_MOL_UPDATE, polls=n_mine, ws=ws
            )
            new_vel, new_pos = kernels.water_integrate(
                my_pos, my_vel, my_force, DT
            )
            yield from vel.write_rows(env, lo, new_vel)
            yield from pos.write_rows(env, lo, new_pos)
        yield from env.barrier(0)
    env.stop_timer()
    if rank == 0:
        final_pos = yield from pos.read_all(env)
        final_vel = yield from vel.read_all(env)
        return final_pos, final_vel
    return None


def program() -> Program:
    return Program(name="water", setup=setup, worker=worker)
