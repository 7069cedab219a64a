"""``python -m benchmarks.claims`` (from the repo root): the ledger run.

Measures every claim of ``ledger.CLAIMS`` at ``small``, writes the
quantities the predicates read to ``recorded.json``, re-renders
EXPERIMENTS.md's two lists and prints the verdict table.  Exits 1 when
any verdict differs from its expected one, in either direction: a
deviation that starts to reproduce is news too.

Each measure is computed once.  Every point goes through one
ExperimentContext with the CLI's default result cache
(``$REPRO_DSM_CACHE``, else ~/.cache/repro-dsm), so Table 3, Figure 6
and the ablations reuse Figure 5's points, and misses fan out over
``os.cpu_count()`` workers (results are bit-identical at any count).
"""

import os
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[2] / "src")]

# The imports below need the path above.
from repro import api  # noqa: E402
from repro.config import variant_by_name  # noqa: E402
from repro.harness import sweep  # noqa: E402
from repro.harness.cache import ResultCache  # noqa: E402
from repro.harness.runner import BatchPoint, ExperimentContext  # noqa: E402

from benchmarks.claims import (  # noqa: E402
    BEGIN, END, EXPERIMENTS, RECORDED, Driver,
    dump_recorded, evidence, load_recorded, render, verdict,
)
from benchmarks.claims.ledger import CLAIMS, MEASURES  # noqa: E402


def _by_system(rows, values):
    out = {}
    for row in rows:
        out.setdefault(row.system, {})[row.app] = values(row)
    return out


#: Driver rows -> the quantities its claims read (ledger.py lists them).
QUANTITIES = {
    "figure5": lambda curves: {
        v: {c.app: c.points for c in curves if c.variant == v}
        for v in dict.fromkeys(c.variant for c in curves)
    },
    "figure6": lambda bars: _by_system(
        bars, lambda bar: {c.value: share for c, share in bar.normalized.items()}
    ),
    "table1": lambda rows: {row.variant: row.as_dict() for row in rows},
    "table2": lambda rows: {
        "seq_s": {row.app: row.sequential_seconds for row in rows},
        "shared_mb": {row.app: row.shared_mbytes for row in rows},
    },
    "table3": lambda cells: _by_system(cells, vars),
    "sweep": lambda points: {"gain": sweep.gains(points)},
    "policies": lambda cells: {"rows": [
        {"variant": c.variant, "policy": f"{c.granularity}+{c.prefetch}",
         "homing": c.homing, "speedup": c.speedup, "values_ok": c.values_ok}
        for c in cells
    ]},
}


def _batch_point(point):
    overrides = dict(point.overrides)
    overrides.pop("warm_start", None)
    return BatchPoint(
        point.app, variant_by_name(point.variant), point.nprocs,
        costs=overrides.pop("costs", None),
        cluster=overrides.pop("cluster", None),
        overrides=tuple(sorted(overrides.items())),
    )


def _measure_points(ctx, measures):
    """Every named point: one batch on ``ctx`` and one on a cold-start
    sibling sharing its cache."""
    named = [(m, name, p) for m, points in measures.items() for name, p in points.items()]
    cold = ExperimentContext(scale=ctx.scale, warm_start=False, jobs=ctx.jobs, cache=ctx.cache)
    out = {measure: {} for measure in measures}
    for context in (ctx, cold):
        group = [e for e in named if dict(e[2].overrides).get("warm_start", True) == context.warm_start]
        results = context.run_batch(_batch_point(p) for _, _, p in group)
        for (measure, name, p), result in zip(group, results):
            counters = result.stats.aggregate_counters()
            out[measure][name] = {
                "time_s": result.exec_time / 1e6,
                "speedup": result.speedup_over(ctx.sequential(p.app).exec_time),
                "network_bytes": result.network_bytes,
                **{k: v for k, v in counters.items() if v},
            }
    return out


def measure_all(ctx):
    """Every measure's quantities; Figure 5 (first in MEASURES) fills
    the cache the later measures read."""
    recorded, points = {}, {}
    for name, measure in MEASURES.items():
        if isinstance(measure, Driver):
            rows = api.run_experiment(measure.name, ctx=ctx, **dict(measure.params)).rows
            recorded[name] = QUANTITIES[measure.name](rows)
        else:
            points[name] = measure
    return {**recorded, **_measure_points(ctx, points)}


def main() -> int:
    started = time.perf_counter()
    ctx = ExperimentContext(scale="small", jobs=os.cpu_count() or 1, cache=ResultCache())
    RECORDED.write_text(dump_recorded(measure_all(ctx)))
    recorded = load_recorded()
    text = EXPERIMENTS.read_text()
    start, end = text.index(BEGIN), text.index(END) + len(END)
    EXPERIMENTS.write_text(text[:start] + render(CLAIMS, recorded) + text[end:])

    width = max(len(claim.id) for claim in CLAIMS)
    print(f"{'claim':<{width}}  {'expected':<8}  {'measured':<8}  evidence")
    changed = 0
    for claim in CLAIMS:
        measured = verdict(claim, recorded[claim.measure])
        changed += measured != claim.expected
        print(
            f"{claim.id:<{width}}  {claim.expected:<8}  {measured:<8}  "
            f"{evidence(claim, recorded[claim.measure])}"
            + ("  <-- CHANGED" if measured != claim.expected else "")
        )
    print(
        f"\n[{len(CLAIMS)} claims, {changed} changed verdict(s); "
        f"{time.perf_counter() - started:.1f}s wall time, scale=small, "
        f"jobs={ctx.jobs}, cache: {ctx.cache.stats}]",
        file=sys.stderr,
    )
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
