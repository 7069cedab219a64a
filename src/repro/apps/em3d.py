"""Em3d: electromagnetic wave propagation in 3D (paper Section 4.2).

"The major data structure is an array that contains the set of magnetic
and electric nodes.  These are equally distributed among the processors
in the system.  For each phase in the computation, each processor
updates the electromagnetic potential of its nodes based on the
potential of neighboring nodes...  the standard input assumes that nodes
that belong to a processor have dependencies only on nodes that belong
to that processor or neighboring processors.  Processors use barriers to
synchronize between computational phases."

The dependency graph here follows the standard input: each node depends
on ``degree`` nodes of the other kind drawn from a window around its own
index, so remote dependencies touch only the neighbouring bands.  The
node count is deliberately not a multiple of the page size, so band
boundaries split pages and a halo page is only *partially* written by
the neighbour — the sharing granularity on which "the diffs of
TreadMarks result in less data communication than ... page reads"
(Section 4.3).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import WorkingSet
from repro.core import Program, SharedArray
from repro.apps import kernels
from repro.apps.common import band, deterministic_rng, pick_scale

US_PER_EDGE = 0.3  # one weighted dependency update
WINDOW = 96  # dependency window around a node's own index


def default_params(scale: str = "small") -> Dict:
    """Scaled-down versions of the paper's 60646-node graph."""
    sizes = {
        "tiny": dict(n_nodes=256, degree=4, iters=4),
        "small": dict(n_nodes=31200, degree=8, iters=8),
        "large": dict(n_nodes=46800, degree=8, iters=12),
        # The paper's full 60646-node bipartite graph.
        "xlarge": dict(n_nodes=60646, degree=8, iters=16),
    }
    return pick_scale(sizes, scale)


def _dependencies(params: Dict) -> Dict[str, np.ndarray]:
    """Static dependency lists (private data, built at program load)."""
    rng = deterministic_rng(params.get("seed", 1997) + 1)
    n, degree = params["n_nodes"], params["degree"]
    offsets = rng.integers(-WINDOW, WINDOW + 1, size=(n, degree))
    targets = (np.arange(n)[:, None] + offsets) % n
    weights = rng.random((n, degree)) * 0.01
    return {"targets": targets, "weights": weights}


def setup(space, params: Dict) -> Dict:
    n = params["n_nodes"]
    rng = deterministic_rng(params.get("seed", 1997))
    e_nodes = SharedArray.alloc(space, "em3d_e", np.float64, (n,))
    h_nodes = SharedArray.alloc(space, "em3d_h", np.float64, (n,))
    e_nodes.initialize(rng.random(n))
    h_nodes.initialize(rng.random(n))
    deps = _dependencies(params)
    return {"e": e_nodes, "h": h_nodes, **deps}


def worker(env, shared: Dict, params: Dict):
    n, degree, iters = params["n_nodes"], params["degree"], params["iters"]
    e_nodes, h_nodes = shared["e"], shared["h"]
    targets, weights = shared["targets"], shared["weights"]
    lo, hi = band(env.rank, env.nprocs, n)
    n_mine = hi - lo
    my_targets = targets[lo:hi]
    my_weights = weights[lo:hi]
    # The halo spans the dependency window on each side.
    rlo, rhi = max(lo - WINDOW, 0), min(hi + WINDOW, n)
    edges = n_mine * degree
    ws = WorkingSet(primary=0)

    def wrap_indices():
        # Dependencies wrap around the ring; fold them into [rlo, rhi) by
        # reading the wrapped rows separately.
        inside = (my_targets >= rlo) & (my_targets < rhi)
        return inside

    inside_mask = wrap_indices()
    for _ in range(iters):
        for mine, other in ((e_nodes, h_nodes), (h_nodes, e_nodes)):
            window = yield from other.read_range(env, rlo, rhi - rlo)
            full = None
            if not inside_mask.all():
                full = yield from other.read_range(env, 0, n)
            yield from env.compute(edges * US_PER_EDGE, polls=edges, ws=ws)
            gathered = kernels.em3d_gather(
                window, full, my_targets, inside_mask, rlo, rhi
            )
            current = yield from mine.read_range(env, lo, n_mine)
            updated = kernels.em3d_update(current, my_weights, gathered)
            yield from mine.write_range(env, lo, updated)
            yield from env.barrier(0)
    env.stop_timer()
    if env.rank == 0:
        e_final = yield from e_nodes.read_all(env)
        h_final = yield from h_nodes.read_all(env)
        return e_final, h_final
    return None


def program() -> Program:
    return Program(name="em3d", setup=setup, worker=worker)
