"""Processor placements used in the paper's evaluation (Section 4.3).

"The configurations we use are as follows: 1 processor: trivial;
2: separate nodes; 4: one processor in each of 4 nodes; 8: two processors
in each of 4 nodes; 12: three processors in each of 4 nodes; 16: two
processors in each of 8 nodes; 24: three processors in each of 8 nodes;
and 32: trivial, but not applicable to csm_pp."
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.config import ClusterConfig, Mechanism

# nprocs -> (nodes used, compute CPUs per node)
PAPER_PLACEMENTS = {
    1: (1, 1),
    2: (2, 1),
    4: (4, 1),
    8: (4, 2),
    12: (4, 3),
    16: (8, 2),
    24: (8, 3),
    32: (8, 4),
}

PAPER_PROCESSOR_COUNTS = (1, 2, 4, 8, 12, 16, 24, 32)


def paper_processor_counts(max_procs: int = 32) -> Tuple[int, ...]:
    return tuple(n for n in PAPER_PROCESSOR_COUNTS if n <= max_procs)


def cluster_for(
    nprocs: int,
    base: Optional[ClusterConfig] = None,
    mechanism: Optional[Mechanism] = None,
) -> ClusterConfig:
    """A cluster with room for ``nprocs``, grown from ``base`` if needed.

    At or below the base capacity this returns ``base`` unchanged, so
    every paper-range configuration keeps the eight-node AlphaServer
    topology (and its goldens).  Past it, nodes are added while the
    per-node CPU count, page size, and cache line stay fixed — the
    cluster scales out, never up, matching how the era's (and today's)
    installations grew.  ``mechanism=PROTOCOL_PROCESSOR`` reserves one
    CPU per node for request service when sizing.
    """
    if nprocs < 1:
        raise ValueError("need at least one processor")
    base = base if base is not None else ClusterConfig()
    compute_cpus = base.cpus_per_node
    if mechanism is Mechanism.PROTOCOL_PROCESSOR:
        compute_cpus -= 1
    if compute_cpus < 1:
        raise ValueError("no compute CPUs left on each node")
    if nprocs <= base.n_nodes * compute_cpus:
        return base
    n_nodes = -(-nprocs // compute_cpus)  # ceil division
    return replace(base, n_nodes=n_nodes)


def placement(
    nprocs: int,
    cluster: ClusterConfig,
    mechanism: Mechanism,
) -> List[Tuple[int, int]]:
    """Map ranks to (node, cpu) slots following the paper's scheme."""
    if nprocs < 1:
        raise ValueError("need at least one processor")
    compute_cpus = cluster.cpus_per_node
    if mechanism is Mechanism.PROTOCOL_PROCESSOR:
        compute_cpus -= 1  # the last CPU of each node services requests
    if compute_cpus < 1:
        raise ValueError("no compute CPUs left on each node")

    shape = PAPER_PLACEMENTS.get(nprocs)
    if shape is not None:
        nodes_used, cpus_used = shape
        if nodes_used <= cluster.n_nodes and cpus_used <= compute_cpus:
            return [
                (nid, cpu)
                for nid in range(nodes_used)
                for cpu in range(cpus_used)
            ]

    # Fallback for non-paper counts or smaller clusters: spread across as
    # many nodes as possible, then stack CPUs round-robin.
    nodes_used = min(cluster.n_nodes, nprocs)
    if nprocs > nodes_used * compute_cpus:
        raise ValueError(
            f"cannot place {nprocs} processors on {cluster.n_nodes} nodes "
            f"x {compute_cpus} compute CPUs"
        )
    slots = []
    for cpu in range(compute_cpus):
        for nid in range(nodes_used):
            slots.append((nid, cpu))
    return sorted(slots[:nprocs])
