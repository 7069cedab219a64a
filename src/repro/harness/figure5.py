"""Figure 5: speedups of the eight applications, 1..32 processors, for
all six protocol variants.

"All calculations are with respect to the sequential times in Table 2."
``csm_pp`` is not applicable at 32 processors (the fourth CPU of each
node is the protocol processor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import ALL_VARIANTS, Variant
from repro.apps import registry
from repro.harness.configs import paper_processor_counts
from repro.harness.declaration import Param
from repro.harness.runner import BatchPoint, ExperimentContext, feasible_counts

# The full paper sweep is 1, 2, 4, 8, 12, 16, 24, 32; the default keeps
# the distinctive points and halves the run count.
DEFAULT_COUNTS = (1, 2, 4, 8, 16, 32)

HELP = "speedup curves"

PARAMS = (
    Param("apps", "apps"),
    Param("variants", "variants"),
    Param("counts", "counts", help="processor counts (default 1 2 4 8 16 32)"),
    Param(
        "full",
        "bool",
        default=False,
        help="use the paper's full sweep (adds 12 and 24 processors)",
    ),
)


@dataclass
class SpeedupCurve:
    app: str
    variant: str
    points: Dict[int, float] = field(default_factory=dict)


def _axes(apps, variants):
    return list(apps or registry.APP_NAMES), list(variants or ALL_VARIANTS)


def points(
    ctx: ExperimentContext,
    apps: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[Variant]] = None,
    counts: Optional[Sequence[int]] = None,
    full: bool = False,
) -> List[BatchPoint]:
    """Every simulation of the figure, app-major: each app's sequential
    baseline, then each variant at the counts it can field on
    ``ctx.cluster`` (``csm_pp`` gives up a CPU a node to its protocol
    processor, so it stops at 24).  ``full`` selects the paper's
    processor counts."""
    apps, variants = _axes(apps, variants)
    counts = paper_processor_counts() if full else (counts or DEFAULT_COUNTS)
    batch: List[BatchPoint] = []
    for app in apps:
        batch.append(BatchPoint(app, None))
        for variant in variants:
            feasible = feasible_counts(counts, variant, ctx.cluster)
            batch.extend(BatchPoint(app, variant, n) for n in feasible)
    return batch


def generate(
    ctx: ExperimentContext = None,
    apps: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[Variant]] = None,
    counts: Optional[Sequence[int]] = None,
    full: bool = False,
) -> List[SpeedupCurve]:
    ctx = ctx or ExperimentContext()
    apps, variants = _axes(apps, variants)
    curves = {
        (app, variant.name): SpeedupCurve(app=app, variant=variant.name)
        for app in apps
        for variant in variants
    }
    batch = points(ctx, apps, variants, counts, full)
    for point, speedup in speedups(ctx, batch):
        curves[point.app, point.variant.name].points[point.nprocs] = speedup
    return list(curves.values())


def speedups(ctx: ExperimentContext, batch: List[BatchPoint]):
    """``(point, speedup over its app's baseline)`` for every parallel
    point of ``batch``.

    Every point is an independent simulation; one run_batch fans them
    across ``ctx.jobs`` workers and the result cache.  Baselines run
    first, so the context's counters accumulate in the same order
    whatever the enumeration.
    """
    sequential = [p for p in batch if p.variant is None]
    parallel = [p for p in batch if p.variant is not None]
    results = ctx.run_batch(sequential + parallel)
    baseline = {p.app: r.exec_time for p, r in zip(sequential, results)}
    return [
        (p, r.speedup_over(baseline[p.app]))
        for p, r in zip(parallel, results[len(sequential):])
    ]


def run(
    ctx: ExperimentContext = None,
    apps: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[Variant]] = None,
    counts: Optional[Sequence[int]] = None,
    full: bool = False,
):
    """Generate Figure 5 and wrap it in the common result envelope."""
    from repro.harness import results

    ctx = ctx or ExperimentContext()
    curves = generate(ctx, apps, variants, counts, full)
    config = {
        "apps": sorted({c.app for c in curves}),
        "variants": sorted({c.variant for c in curves}),
        "counts": sorted({n for c in curves for n in c.points}),
    }
    return results.build("figure5", ctx, curves, render(curves), config)


def chart(curves: List[SpeedupCurve]) -> str:
    """One ASCII speedup chart per application."""
    from repro.harness import plots

    apps = list(dict.fromkeys(curve.app for curve in curves))
    return "\n\n".join(
        plots.line_chart(
            {c.variant: c.points for c in curves if c.app == app},
            title=f"Figure 5: {app}",
        )
        for app in apps
    )


def render(curves: List[SpeedupCurve]) -> str:
    counts = sorted({n for c in curves for n in c.points})
    lines = []
    apps = []
    for curve in curves:
        if curve.app not in apps:
            apps.append(curve.app)
    for app in apps:
        lines.append(f"== {app} ==")
        lines.append(
            f"{'variant':<13}" + "".join(f"{n:>8}" for n in counts)
        )
        for curve in curves:
            if curve.app != app:
                continue
            cells = [
                f"{curve.points[n]:>8.2f}" if n in curve.points else f"{'-':>8}"
                for n in counts
            ]
            lines.append(f"{curve.variant:<13}" + "".join(cells))
    return "\n".join(lines)
