"""Network-sensitivity sweeps.

The paper attributes the narrow Cashmere/TreadMarks gap to "three
principal factors": modest cross-sectional bandwidth, the lack of remote
reads, and small first-level caches.  These sweeps vary the modelled
network (bandwidth, latency) and report how each system's speedup
responds — quantifying the paper's claim that finer-grain DSM "is in a
position to make excellent use" of better hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.config import CSM_POLL, TMK_MC_POLL, Variant
from repro.harness.declaration import Param
from repro.harness.runner import BatchPoint, ExperimentContext

HELP = "network-sensitivity sweeps"

PARAMS = (
    Param(
        "knob", "choice", default="bandwidth", choices=("bandwidth", "latency")
    ),
    Param("app", "app", default="sor"),
    Param("nprocs", "procs", default=16, flag="--procs"),
)


@dataclass
class SweepPoint:
    """One (knob value, variant) measurement."""

    knob: str
    value: float
    variant: str
    speedup: float


def _sweep(
    ctx: ExperimentContext,
    app: str,
    nprocs: int,
    knob: str,
    swept_costs: Sequence,
    variants: Optional[Sequence[Variant]],
) -> List[SweepPoint]:
    """Run every (knob value, variant) point in one batch.

    The sequential baseline never touches the network, so it is
    independent of the swept knobs: one baseline run is shared by every
    swept point instead of being recomputed per knob value.
    """
    variants = list(variants or (CSM_POLL, TMK_MC_POLL))
    batch = [BatchPoint(app, None)]
    for _value, costs in swept_costs:
        batch.extend(
            BatchPoint(app, variant, nprocs, costs=ctx.costs_for(app, costs))
            for variant in variants
        )
    results = ctx.run_batch(batch)
    seq = results[0]
    points = []
    cursor = 1
    for value, _costs in swept_costs:
        for variant in variants:
            points.append(
                SweepPoint(
                    knob=knob,
                    value=value,
                    variant=variant.name,
                    speedup=results[cursor].speedup_over(seq.exec_time),
                )
            )
            cursor += 1
    return points


def sweep_bandwidth(
    ctx: ExperimentContext,
    app: str = "sor",
    nprocs: int = 16,
    multipliers: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 10.0),
    variants: Optional[Sequence[Variant]] = None,
) -> List[SweepPoint]:
    """Scale link and aggregate bandwidth together."""
    swept = [
        (
            multiplier,
            replace(
                ctx.costs,
                mc_link_bandwidth=ctx.costs.mc_link_bandwidth * multiplier,
                mc_aggregate_bandwidth=(
                    ctx.costs.mc_aggregate_bandwidth * multiplier
                ),
            ),
        )
        for multiplier in multipliers
    ]
    return _sweep(ctx, app, nprocs, "bandwidth", swept, variants)


def sweep_latency(
    ctx: ExperimentContext,
    app: str = "sor",
    nprocs: int = 16,
    latencies: Sequence[float] = (2.6, 5.2, 10.4, 20.8),
    variants: Optional[Sequence[Variant]] = None,
) -> List[SweepPoint]:
    """Vary the Memory Channel remote-write latency."""
    swept = [
        (latency, replace(ctx.costs, mc_latency=latency))
        for latency in latencies
    ]
    return _sweep(ctx, app, nprocs, "latency", swept, variants)


def run(
    ctx: ExperimentContext = None,
    knob: str = "bandwidth",
    app: str = "sor",
    nprocs: int = 16,
    variants: Optional[Sequence[Variant]] = None,
):
    """Run one sweep and wrap it in the common result envelope.

    The rendered text includes the per-variant gains line the CLI
    prints, so ``DriverResult.text`` is the complete report.
    """
    from repro.harness import results

    ctx = ctx or ExperimentContext()
    if knob == "bandwidth":
        points = sweep_bandwidth(ctx, app=app, nprocs=nprocs, variants=variants)
    elif knob == "latency":
        points = sweep_latency(ctx, app=app, nprocs=nprocs, variants=variants)
    else:
        raise ValueError(f"unknown sweep knob {knob!r}")
    text = render(points) + f"\ngains: {gains(points)}"
    config = {"knob": knob, "app": app, "nprocs": nprocs}
    return results.build("sweep", ctx, points, text, config)


def gains(points: List[SweepPoint]) -> Dict[str, float]:
    """Best-over-worst speedup ratio per variant across the sweep."""
    by_variant: Dict[str, List[float]] = {}
    for point in points:
        by_variant.setdefault(point.variant, []).append(point.speedup)
    return {
        name: max(values) / min(values)
        for name, values in by_variant.items()
    }


def render(points: List[SweepPoint]) -> str:
    knob = points[0].knob if points else "knob"
    variants = []
    for point in points:
        if point.variant not in variants:
            variants.append(point.variant)
    values = sorted({p.value for p in points})
    lines = [f"{knob:>12}" + "".join(f"{v:>13}" for v in variants)]
    for value in values:
        cells = []
        for variant in variants:
            match = next(
                p
                for p in points
                if p.value == value and p.variant == variant
            )
            cells.append(f"{match.speedup:>13.2f}")
        lines.append(f"{value:>12.1f}" + "".join(cells))
    return "\n".join(lines)
