"""Figure 6: breakdown of normalized execution time for the polling
variants.

"The breakdown is normalized with respect to total execution time for
Cashmere on 32 processors (16 for Barnes).  The components shown
represent time spent executing user code (User), the overhead of
profiling for polling (Polling) and write doubling (Write doubling),
time spent in protocol code (Protocol), and communication and wait time
(Comm & Wait)."

The paper had to extrapolate User/Polling/Write-doubling from
single-processor runs; the simulator charges every microsecond to a
category directly, so the breakdown here is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.harness.plots import breakdown_chart as chart
from repro.harness.runner import ExperimentContext
from repro.harness.table3 import PARAMS, polling_runs
from repro.stats import Category

HELP = "execution-time breakdown"
# PARAMS is Table 3's: the figure breaks down the same polling runs.

_BAR_ORDER = (
    Category.USER,
    Category.POLL,
    Category.WDOUBLE,
    Category.PROTOCOL,
    Category.COMM_WAIT,
)


@dataclass
class BreakdownBar:
    app: str
    system: str  # "CSM" or "TMK"
    nprocs: int
    # Each category as a fraction of the Cashmere run's total time.
    normalized: Dict[Category, float]

    @property
    def total(self) -> float:
        return sum(self.normalized.values())


def generate(
    ctx: ExperimentContext = None,
    apps: Optional[Sequence[str]] = None,
    nprocs: Optional[int] = None,
) -> List[BreakdownBar]:
    ctx = ctx or ExperimentContext()
    bars = []
    for app, n, csm, tmk in polling_runs(ctx, apps, nprocs):
        reference = csm.breakdown.total
        bars.append(
            BreakdownBar(
                app=app,
                system="CSM",
                nprocs=n,
                normalized=csm.breakdown.normalized(reference),
            )
        )
        bars.append(
            BreakdownBar(
                app=app,
                system="TMK",
                nprocs=n,
                normalized=tmk.breakdown.normalized(reference),
            )
        )
    return bars


def run(
    ctx: ExperimentContext = None,
    apps: Optional[Sequence[str]] = None,
    nprocs: Optional[int] = None,
):
    """Generate Figure 6 and wrap it in the common result envelope."""
    from repro.harness import results

    ctx = ctx or ExperimentContext()
    bars = generate(ctx, apps=apps, nprocs=nprocs)
    config = {
        "apps": sorted({b.app for b in bars}),
        "nprocs": nprocs,
    }
    return results.build("figure6", ctx, bars, render(bars), config)


def render(bars: List[BreakdownBar]) -> str:
    lines = [
        f"{'app':<8}{'sys':<5}{'P':>3}"
        + "".join(f"{c.value:>16}" for c in _BAR_ORDER)
        + f"{'total':>8}"
    ]
    for bar in bars:
        lines.append(
            f"{bar.app:<8}{bar.system:<5}{bar.nprocs:>3}"
            + "".join(f"{bar.normalized[c]:>16.3f}" for c in _BAR_ORDER)
            + f"{bar.total:>8.3f}"
        )
    return "\n".join(lines)
