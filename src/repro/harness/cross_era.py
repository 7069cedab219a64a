"""The cross-era study: Cashmere vs. TreadMarks on three interconnects.

The paper's verdict — Cashmere's directory protocol beats TreadMarks by
exploiting cheap user-level remote *writes* — is a statement about one
1996 network.  This driver re-runs the Figure 5 Cashmere-vs-TreadMarks
matrix under every :mod:`repro.cluster.network` backend (the paper's
Memory Channel, a modern RDMA fabric with one-sided reads, and
commodity kernel Ethernet) and renders a per-backend speedup table plus
an advantage summary, so the repo answers the obvious follow-up with
reproducible numbers: *does the conclusion survive the network it was
built on?*

Each backend's simulated results are pinned bit-identically by
``tests/golden_cross_era_<backend>.txt`` (rendered output, diffed in
CI's backend matrix) and ``tests/golden_networks.json`` (raw exec
times/counters, replayed on production and the test oracles).  The
methodology writeup lives in EXPERIMENTS.md; the backend constants and
their sources in docs/NETWORKS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import (
    CSM_POLL,
    NETWORK_BACKENDS,
    TMK_MC_POLL,
    Variant,
)
from repro.apps import registry
from repro.harness.runner import BatchPoint, ExperimentContext, feasible_counts

#: The paper's head-to-head pair: its best Cashmere against its best
#: TreadMarks (both polling; Section 5's headline comparison).
DEFAULT_VARIANTS = (CSM_POLL, TMK_MC_POLL)

#: Processor counts for the matrix; the top of the paper's sweep is the
#: interesting regime (bandwidth pressure), the bottom sanity-checks.
DEFAULT_COUNTS = (1, 2, 4, 8, 16, 32)


@dataclass
class CrossEraCell:
    """Speedup curve of one (network, app, variant) combination."""

    network: str
    app: str
    variant: str
    points: Dict[int, float] = field(default_factory=dict)


def generate(
    ctx: ExperimentContext = None,
    apps: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[Variant]] = None,
    counts: Optional[Sequence[int]] = None,
    networks: Optional[Sequence[str]] = None,
) -> List[CrossEraCell]:
    ctx = ctx or ExperimentContext()
    apps = list(apps or registry.APP_NAMES)
    variants = list(variants or DEFAULT_VARIANTS)
    counts = list(counts or DEFAULT_COUNTS)
    networks = list(networks or NETWORK_BACKENDS)
    # One batch: each app's sequential baseline once (it never touches
    # the network), then every network x app x variant x count point,
    # with the backend riding in the per-point RunConfig overrides so
    # the result cache keys each backend's results separately.
    batch: List[BatchPoint] = [BatchPoint(app, None) for app in apps]
    cells = []
    for network in networks:
        for app in apps:
            for variant in variants:
                cell = CrossEraCell(
                    network=network, app=app, variant=variant.name
                )
                feasible = feasible_counts(counts, variant, ctx)
                batch.extend(
                    BatchPoint(
                        app,
                        variant,
                        n,
                        overrides=(("network", network),),
                    )
                    for n in feasible
                )
                cells.append((cell, feasible))
    results = ctx.run_batch(batch)
    sequential = dict(zip(apps, results[: len(apps)]))
    cursor = len(apps)
    for cell, feasible in cells:
        for nprocs in feasible:
            cell.points[nprocs] = results[cursor].speedup_over(
                sequential[cell.app].exec_time
            )
            cursor += 1
    return [cell for cell, _ in cells]


def advantage(cells: List[CrossEraCell]) -> Dict[str, Dict[str, float]]:
    """``{app: {network: csm_speedup / tmk_speedup}}`` at the largest
    processor count both systems reached.

    > 1 means the paper's conclusion (Cashmere wins) holds on that
    backend; < 1 means TreadMarks' round-trip protocol comes out ahead.
    Apps missing either system on a backend are skipped.
    """
    by_key: Dict[tuple, CrossEraCell] = {
        (c.network, c.app, c.variant): c for c in cells
    }
    ratios: Dict[str, Dict[str, float]] = {}
    for (network, app, variant), cell in sorted(by_key.items()):
        if variant != CSM_POLL.name:
            continue
        rival = by_key.get((network, app, TMK_MC_POLL.name))
        if rival is None:
            continue
        shared = sorted(set(cell.points) & set(rival.points))
        if not shared:
            continue
        at = shared[-1]
        ratios.setdefault(app, {})[network] = (
            cell.points[at] / rival.points[at]
        )
    return ratios


def render(cells: List[CrossEraCell]) -> str:
    counts = sorted({n for c in cells for n in c.points})
    networks = []
    apps = []
    for cell in cells:
        if cell.network not in networks:
            networks.append(cell.network)
        if cell.app not in apps:
            apps.append(cell.app)
    lines = []
    for network in networks:
        lines.append(f"== network: {network} ==")
        for app in apps:
            rows = [
                c for c in cells
                if c.network == network and c.app == app
            ]
            if not rows:
                continue
            lines.append(f"-- {app} --")
            lines.append(
                f"{'variant':<13}" + "".join(f"{n:>8}" for n in counts)
            )
            for cell in rows:
                body = "".join(
                    f"{cell.points[n]:>8.2f}" if n in cell.points
                    else f"{'-':>8}"
                    for n in counts
                )
                lines.append(f"{cell.variant:<13}" + body)
        lines.append("")
    ratios = advantage(cells)
    if ratios:
        lines.append(
            "== cross-era summary: csm_poll / tmk_mc_poll speedup ratio "
            "(>1 = Cashmere ahead) =="
        )
        lines.append(
            f"{'app':<10}" + "".join(f"{net:>10}" for net in networks)
        )
        for app in apps:
            per_net = ratios.get(app, {})
            lines.append(
                f"{app:<10}"
                + "".join(
                    f"{per_net[net]:>10.2f}" if net in per_net
                    else f"{'-':>10}"
                    for net in networks
                )
            )
    return "\n".join(lines)


def chart(cells: List[CrossEraCell]) -> str:
    """One speedup chart per app, overlaying every network x variant."""
    from repro.harness import plots

    apps = []
    for cell in cells:
        if cell.app not in apps:
            apps.append(cell.app)
    blocks = []
    for app in apps:
        series = {
            f"{c.variant}@{c.network}": c.points
            for c in cells
            if c.app == app and c.points
        }
        if not series:
            continue
        blocks.append(
            plots.line_chart(series, title=f"Cross-era study: {app}")
        )
    return "\n\n".join(blocks)


def run(
    ctx: ExperimentContext = None,
    apps: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[Variant]] = None,
    counts: Optional[Sequence[int]] = None,
    networks: Optional[Sequence[str]] = None,
):
    """Run the cross-era study, wrapped in the common result envelope."""
    from repro.harness import results

    ctx = ctx or ExperimentContext()
    cells = generate(
        ctx, apps=apps, variants=variants, counts=counts, networks=networks
    )
    config = {
        "apps": sorted({c.app for c in cells}),
        "variants": sorted({c.variant for c in cells}),
        "counts": sorted({n for c in cells for n in c.points}),
        "networks": sorted({c.network for c in cells}),
    }
    return results.build("cross_era", ctx, cells, render(cells), config)
