"""Weak- and strong-scaling sweeps past the paper's 32 processors.

The paper's evaluation stops at the testbed's 32 CPUs; ROADMAP's top
open item is to push the same protocols to 64-1024-processor clusters
(PR 7).  This driver runs the two standard scaling disciplines:

**Strong scaling** holds the problem fixed (the context's scale tier)
and grows the machine; the reported metric is the speedup relative to
the sweep's first processor count (ideal: ``nprocs / ref``).  Using the
first point — not a sequential run — as the reference keeps xlarge
sweeps feasible: a full-size sequential baseline would dwarf the sweep
itself.

**Weak scaling** grows the problem with the machine, holding the work
per processor constant: the app's dominant linear dimension (rows for
sor, graph nodes for em3d, ...) is scaled by ``nprocs / ref``.  The
metric is parallel efficiency ``T(ref) / T(p)`` (ideal: 1.0); the
distance below 1.0 is protocol overhead growing with the processor
count — exactly the page-based-DSM scalability wall the sweep probes.

Both metrics share one formula (``T(ref) / T(p)``); only the ideal
differs.  Counts past the base cluster's 32 CPUs run on clusters grown
node-by-node via :func:`repro.harness.configs.cluster_for`, and each
point's cluster and parameters enter its result-cache key as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import CSM_POLL, TMK_MC_POLL, Variant
from repro.harness.configs import cluster_for
from repro.harness.declaration import Param
from repro.harness.runner import BatchPoint, ExperimentContext

#: The app's dominant linear work dimension, scaled with the processor
#: count under weak scaling.  Apps whose work is superlinear in one
#: parameter (gauss/lu in n, tsp in cities) have no honest linear knob
#: and support strong scaling only.
WEAK_KNOBS = {
    "sor": "rows",
    "em3d": "n_nodes",
    "ilink": "elems",
    "water": "n_mols",
    "barnes": "n_bodies",
}

#: Default sweep: the paper's top count, then 8x and 32x past it.
DEFAULT_COUNTS = (8, 64, 256)

MODES = ("weak", "strong")

HELP = (
    "weak/strong scaling past the paper (64-1024 processors; "
    "see EXPERIMENTS.md 'Scaling past the paper')"
)

#: The last three are RunConfig knobs applied to every point.
PARAMS = (
    Param(
        "mode",
        "choice",
        default="weak",
        choices=MODES,
        help="grow the problem with the machine (weak) or hold it "
        "fixed (strong)",
    ),
    Param("app", "app", default="sor"),
    Param(
        "counts",
        "counts",
        help="processor counts (default 8 64 256; the first is the "
        "reference point)",
    ),
    Param(
        "variants",
        "variants",
        help="protocol variants (default: csm_poll tmk_mc_poll)",
    ),
    Param(
        "barrier_fanin",
        "procs",
        flag="--fanin",
        help="tree-barrier fan-in (default: auto — binary at <=32p, "
        "4-ary past; CHANGES simulated results)",
    ),
    Param(
        "dir_shards",
        "procs",
        help="Cashmere directory shards (default: auto — replicated "
        "at <=32p, one per node past; CHANGES simulated results on "
        "point-to-point fabrics)",
    ),
    Param(
        "node_mem_pages",
        "procs",
        flag="--node-mem",
        help="per-node memory-pressure limit: evict cold remote page "
        "copies past this many resident pages (default: unlimited; "
        "CHANGES simulated results)",
    ),
)


@dataclass
class ScalePoint:
    """One (processor count, variant) measurement of a scaling sweep."""

    app: str
    variant: str
    mode: str
    nprocs: int
    exec_time: float  # simulated microseconds
    metric: float  # T(ref)/T(p): efficiency (weak) or rel. speedup (strong)


def weak_params(app: str, base: Dict, ref: int, nprocs: int) -> Dict:
    """``base`` re-sized so per-processor work stays constant vs ``ref``."""
    knob = WEAK_KNOBS.get(app)
    if knob is None:
        raise ValueError(
            f"{app} has no linear work dimension; weak scaling supports "
            f"{sorted(WEAK_KNOBS)} — use mode='strong'"
        )
    scaled = dict(base)
    scaled[knob] = max(nprocs, round(base[knob] * nprocs / ref))
    return scaled


def points(
    ctx: ExperimentContext,
    app: str = "sor",
    mode: str = "weak",
    counts: Optional[Sequence[int]] = None,
    variants: Optional[Sequence[Variant]] = None,
    **overrides,
) -> List[BatchPoint]:
    """Every simulation of one sweep, count-major.

    The first count is the reference; under weak scaling each count's
    input grows from the context's scale tier by :func:`weak_params`.
    Counts past ``ctx.cluster``'s capacity get a cluster grown node by
    node.  ``overrides`` (``barrier_fanin=8``, ``dir_shards=4``,
    ``node_mem_pages=...``) apply to every point and enter its cache
    key.
    """
    if mode not in MODES:
        raise ValueError(f"unknown scaling mode {mode!r}; known: {MODES}")
    counts = sorted(set(counts or DEFAULT_COUNTS))
    ref = counts[0]
    base = ctx.params(app)
    knobs = tuple(sorted(overrides.items()))
    batch = []
    for nprocs in counts:
        params = (
            weak_params(app, base, ref, nprocs) if mode == "weak" else base
        )
        for variant in variants or (CSM_POLL, TMK_MC_POLL):
            batch.append(
                BatchPoint(
                    app,
                    variant,
                    nprocs,
                    overrides=knobs,
                    params=tuple(sorted(params.items())),
                    cluster=cluster_for(
                        nprocs, ctx.cluster, variant.mechanism
                    ),
                )
            )
    return batch


def sweep(
    ctx: ExperimentContext,
    app: str = "sor",
    mode: str = "weak",
    counts: Sequence[int] = DEFAULT_COUNTS,
    variants: Optional[Sequence[Variant]] = None,
    overrides: Optional[Dict] = None,
) -> List[ScalePoint]:
    """Run one scaling sweep (:func:`points`); points come back
    count-major."""
    batch = points(ctx, app, mode, counts, variants, **(overrides or {}))
    results = ctx.run_batch(batch)
    ref_time: Dict[str, float] = {}
    scaled: List[ScalePoint] = []
    for point, result in zip(batch, results):
        exec_time = result.exec_time
        ref_time.setdefault(point.variant.name, exec_time)
        scaled.append(
            ScalePoint(
                app=app,
                variant=point.variant.name,
                mode=mode,
                nprocs=point.nprocs,
                exec_time=exec_time,
                metric=ref_time[point.variant.name] / exec_time,
            )
        )
    return scaled


def render(points: List[ScalePoint]) -> str:
    if not points:
        return "(no points)"
    mode = points[0].mode
    metric_name = "efficiency" if mode == "weak" else "rel-speedup"
    variants: List[str] = []
    for point in points:
        if point.variant not in variants:
            variants.append(point.variant)
    counts = sorted({p.nprocs for p in points})
    header = f"{mode} scaling: {points[0].app} ({metric_name} vs {counts[0]}p)"
    width = max(len(metric_name), 11)
    lines = [header]
    lines.append(
        f"{'nprocs':>8}"
        + "".join(f"{v:>16} {metric_name:>{width}}" for v in variants)
    )
    for nprocs in counts:
        cells = []
        for variant in variants:
            match = next(
                p
                for p in points
                if p.nprocs == nprocs and p.variant == variant
            )
            cells.append(
                f"{match.exec_time / 1e6:>14.3f}s {match.metric:>{width}.3f}"
            )
        lines.append(f"{nprocs:>8}" + "".join(cells))
    return "\n".join(lines)


def run(
    ctx: ExperimentContext = None,
    app: str = "sor",
    mode: str = "weak",
    counts: Optional[Sequence[int]] = None,
    variants: Optional[Sequence[Variant]] = None,
    **overrides,
):
    """Run one scaling sweep and wrap it in the common result envelope.

    Extra keyword overrides (``barrier_fanin=8``, ``dir_shards=4``,
    ``node_mem_pages=...``) apply to every point — the CLI's scaling
    knobs ride through here.
    """
    from repro.harness import results

    ctx = ctx or ExperimentContext()
    scaled = sweep(ctx, app, mode, counts, variants, overrides)
    config = {
        "app": app,
        "mode": mode,
        "counts": sorted({p.nprocs for p in scaled}),
        "variants": sorted({p.variant for p in scaled}),
        "overrides": dict(overrides),
    }
    return results.build("scaling", ctx, scaled, render(scaled), config)
