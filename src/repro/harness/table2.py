"""Table 2: data-set sizes and sequential execution times.

The paper reports the unlinked sequential time of each application; the
reproduction reports the scaled-down problem size, its shared-memory
footprint, and the simulated sequential time, side by side with the
paper's values for reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.apps import registry
from repro.harness.runner import BatchPoint, ExperimentContext
from repro.memory import AddressSpace

HELP = "data sets and sequential times"
PARAMS = ()


@dataclass
class Table2Row:
    app: str
    problem_size: str
    shared_mbytes: float
    sequential_seconds: float
    paper_problem_size: str
    paper_sequential_seconds: float


def _problem_description(params: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(params.items()))


def generate(ctx: ExperimentContext = None) -> List[Table2Row]:
    ctx = ctx or ExperimentContext()
    # One independent sequential simulation per app; batch them so
    # ``--jobs`` and the result cache apply here too.
    ctx.run_batch([BatchPoint(spec.name, None) for spec in registry.APPS])
    rows = []
    for spec in registry.APPS:
        module = ctx.app(spec.name)
        params = ctx.params(spec.name)
        space = AddressSpace()
        module.setup(space, dict(params))
        seq = ctx.sequential(spec.name)
        rows.append(
            Table2Row(
                app=spec.name,
                problem_size=_problem_description(params),
                shared_mbytes=space.total_bytes / (1024.0 * 1024.0),
                sequential_seconds=seq.exec_time / 1e6,
                paper_problem_size=spec.paper_problem_size,
                paper_sequential_seconds=spec.paper_sequential_seconds,
            )
        )
    return rows


def run(ctx: ExperimentContext = None):
    """Generate Table 2 and wrap it in the common result envelope."""
    from repro.harness import results

    ctx = ctx or ExperimentContext()
    rows = generate(ctx)
    config = {"apps": [row.app for row in rows]}
    return results.build("table2", ctx, rows, render(rows), config)


def render(rows: List[Table2Row]) -> str:
    lines = [
        f"{'Program':<8}{'Problem (scaled)':<40}{'Shared MB':>10}"
        f"{'Seq time (s)':>14}{'Paper size':>22}{'Paper time (s)':>15}"
    ]
    for row in rows:
        lines.append(
            f"{row.app:<8}{row.problem_size:<40}{row.shared_mbytes:>10.2f}"
            f"{row.sequential_seconds:>14.3f}"
            f"{row.paper_problem_size:>22}{row.paper_sequential_seconds:>15.2f}"
        )
    return "\n".join(lines)
