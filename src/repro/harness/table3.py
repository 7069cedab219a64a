"""Table 3: detailed statistics for the polling protocol variants.

"Table 3 presents detailed statistics on the communication incurred by
each of the applications on the polling implementations of Cashmere and
TreadMarks at 32 processors, except for Barnes, where the statistics
presented are for 16 processors."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.config import CSM_POLL, TMK_MC_POLL
from repro.apps import registry
from repro.core import RunResult
from repro.harness.declaration import Param
from repro.harness.runner import BatchPoint, ExperimentContext

DEFAULT_PROCS = 32
BARNES_PROCS = 16  # "performance for Barnes drops significantly past 16"

HELP = "detailed statistics (polling)"

PARAMS = (
    Param("apps", "apps"),
    Param("nprocs", "procs", flag="--procs", help="override processor count"),
)


@dataclass
class Table3Cell:
    """One application's statistics under one system."""

    app: str
    system: str
    nprocs: int
    exec_seconds: float
    barriers: int
    locks: int
    read_faults: int
    write_faults: int
    page_transfers: Optional[int] = None  # Cashmere only
    messages: Optional[int] = None  # TreadMarks only
    data_kbytes: Optional[float] = None  # TreadMarks only


def procs_for(app: str, default: int = DEFAULT_PROCS) -> int:
    return BARNES_PROCS if app == "barnes" else default


def polling_runs(
    ctx: ExperimentContext,
    apps: Optional[Sequence[str]],
    nprocs: Optional[int],
) -> Iterator[Tuple[str, int, RunResult, RunResult]]:
    """``(app, nprocs, csm_poll result, tmk_mc_poll result)`` per app,
    all run in one batch; ``nprocs`` None is :func:`procs_for`."""
    apps = apps or registry.APP_NAMES
    runs = [(app, nprocs or procs_for(app)) for app in apps]
    results = iter(
        ctx.run_batch(
            BatchPoint(app, variant, n)
            for app, n in runs
            for variant in (CSM_POLL, TMK_MC_POLL)
        )
    )
    for app, n in runs:
        yield app, n, next(results), next(results)


def generate(
    ctx: ExperimentContext = None,
    apps: Optional[List[str]] = None,
    nprocs: Optional[int] = None,
) -> List[Table3Cell]:
    ctx = ctx or ExperimentContext()
    cells = []
    for app, n, *pair in polling_runs(ctx, apps, nprocs):
        for variant, result in zip((CSM_POLL, TMK_MC_POLL), pair):
            agg = result.stats.aggregate_counters()
            cell = Table3Cell(
                app=app,
                system="CSM" if variant is CSM_POLL else "TMK",
                nprocs=n,
                exec_seconds=result.exec_time / 1e6,
                barriers=agg["barriers"],
                locks=agg["locks"],
                read_faults=agg["read_faults"],
                write_faults=agg["write_faults"],
            )
            if variant is CSM_POLL:
                cell.page_transfers = agg["page_transfers"]
            else:
                cell.messages = agg["messages"]
                cell.data_kbytes = agg["data_bytes"] / 1024.0
            cells.append(cell)
    return cells


def run(
    ctx: ExperimentContext = None,
    apps: Optional[List[str]] = None,
    nprocs: Optional[int] = None,
):
    """Generate Table 3 and wrap it in the common result envelope."""
    from repro.harness import results

    ctx = ctx or ExperimentContext()
    cells = generate(ctx, apps=apps, nprocs=nprocs)
    config = {
        "apps": sorted({c.app for c in cells}),
        "nprocs": nprocs,
    }
    return results.build("table3", ctx, cells, render(cells), config)


def render(cells: List[Table3Cell]) -> str:
    apps = []
    for cell in cells:
        if cell.app not in apps:
            apps.append(cell.app)
    lines = [f"{'Statistic':<22}" + "".join(f"{a:>10}" for a in apps)]

    def row(label: str, system: str, getter, fmt: str = ",.0f") -> str:
        values = []
        for app in apps:
            cell = next(
                c for c in cells if c.app == app and c.system == system
            )
            value = getter(cell)
            values.append("-" if value is None else format(value, fmt))
        return f"{label:<22}" + "".join(f"{v:>10}" for v in values)

    lines.append("--- Cashmere (csm_poll) ---")
    lines.append(row("Exec. time (s)", "CSM", lambda c: c.exec_seconds, ".2f"))
    lines.append(row("Barriers", "CSM", lambda c: c.barriers))
    lines.append(row("Locks", "CSM", lambda c: c.locks))
    lines.append(row("Read faults", "CSM", lambda c: c.read_faults))
    lines.append(row("Write faults", "CSM", lambda c: c.write_faults))
    lines.append(row("Page transfers", "CSM", lambda c: c.page_transfers))
    lines.append("--- TreadMarks (tmk_mc_poll) ---")
    lines.append(row("Exec. time (s)", "TMK", lambda c: c.exec_seconds, ".2f"))
    lines.append(row("Barriers", "TMK", lambda c: c.barriers))
    lines.append(row("Locks", "TMK", lambda c: c.locks))
    lines.append(row("Read faults", "TMK", lambda c: c.read_faults))
    lines.append(row("Write faults", "TMK", lambda c: c.write_faults))
    lines.append(row("Messages", "TMK", lambda c: c.messages))
    lines.append(row("Data (KB)", "TMK", lambda c: c.data_kbytes))
    return "\n".join(lines)
