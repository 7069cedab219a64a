"""Table 1: cost of basic operations.

"Table 1 provides a summary of the minimum cost of page transfers and of
user-level synchronization operations for the different implementations
of Cashmere and TreadMarks.  All times are for interactions between two
processors.  The barrier times in parentheses are for a 16 processor
barrier."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.config import ALL_VARIANTS, ClusterConfig, RunConfig, Variant
from repro.core import Program, SharedArray, run_program
from repro.harness.runner import ExperimentContext

HELP = "basic operation costs"
PARAMS = ()

REPEATS = 8
PROBE_LOCK = 7  # odd id so neither probe rank is the TreadMarks manager


@dataclass
class Table1Row:
    variant: str
    lock_acquire: float
    barrier_2: float
    barrier_16: float
    page_transfer: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "lock_acquire": self.lock_acquire,
            "barrier_2": self.barrier_2,
            "barrier_16": self.barrier_16,
            "page_transfer": self.page_transfer,
        }


def _lock_program() -> Program:
    """Two processors pass a lock back and forth; rank 1 times the
    acquires of a lock last held by rank 0."""

    def setup(space, params):
        counter = SharedArray.alloc(space, "lock_counter", np.float64, (8,))
        counter.initialize(np.zeros(8))
        return {"counter": counter}

    def worker(env, shared, params):
        counter = shared["counter"]
        samples = []
        for _ in range(REPEATS):
            yield from env.barrier(0)
            if env.rank == 0:
                yield from env.lock_acquire(PROBE_LOCK)
                value = yield from counter.get(env, 0)
                yield from counter.put(env, 0, value + 1)
                yield from env.lock_release(PROBE_LOCK)
            yield from env.barrier(0)
            if env.rank == 1:
                start = env.now
                yield from env.lock_acquire(PROBE_LOCK)
                samples.append(env.now - start)
                value = yield from counter.get(env, 0)
                yield from counter.put(env, 0, value + 1)
                yield from env.lock_release(PROBE_LOCK)
            yield from env.barrier(0)
        env.stop_timer()
        return min(samples) if samples else None

    return Program("bench_lock", setup, worker)


def _barrier_program() -> Program:
    """All processors time a run of back-to-back barriers."""

    def setup(space, params):
        return {}

    def worker(env, shared, params):
        samples = []
        yield from env.barrier(0)
        for _ in range(REPEATS):
            start = env.now
            yield from env.barrier(0)
            samples.append(env.now - start)
        env.stop_timer()
        return min(samples)

    return Program("bench_barrier", setup, worker)


def _page_program(page_size: int) -> Program:
    """Rank 0 dirties fresh pages; rank 1 times the faulting reads."""

    def setup(space, params):
        data = SharedArray.alloc(
            space, "pages", np.float64, (REPEATS, page_size // 8)
        )
        data.initialize(np.zeros((REPEATS, page_size // 8)))
        return {"data": data}

    def worker(env, shared, params):
        data = shared["data"]
        width = data.shape[1]
        samples = []
        for i in range(REPEATS):
            if env.rank == 0:
                yield from data.write_rows(env, i, np.full((1, width), i + 1.0))
            yield from env.barrier(0)
            if env.rank == 1:
                start = env.now
                row = yield from data.read_rows(env, i, i + 1)
                samples.append(env.now - start)
                assert row[0][0] == i + 1.0
            yield from env.barrier(0)
        env.stop_timer()
        return min(samples) if samples else None

    return Program("bench_page", setup, worker)


def _run_probe(
    program: Program, ctx: ExperimentContext, variant: Variant, nprocs: int
) -> List[float]:
    cfg = RunConfig(variant=variant, nprocs=nprocs, **ctx.overrides)
    result = run_program(program, cfg, {})
    ctx._accumulate(result)
    return [v for v in result.values if v is not None]


def generate(ctx: ExperimentContext = None) -> List[Table1Row]:
    """Measure Table 1 for all six protocol variants."""
    ctx = ctx or ExperimentContext()
    rows = []
    for variant in ALL_VARIANTS:
        lock_values = _run_probe(_lock_program(), ctx, variant, 2)
        barrier2 = _run_probe(_barrier_program(), ctx, variant, 2)
        barrier16 = _run_probe(_barrier_program(), ctx, variant, 16)
        page = _run_probe(
            _page_program(ClusterConfig().page_size), ctx, variant, 2
        )
        rows.append(
            Table1Row(
                variant=variant.name,
                lock_acquire=lock_values[0],
                barrier_2=max(barrier2),
                barrier_16=max(barrier16),
                page_transfer=page[0],
            )
        )
    return rows


def run(ctx: ExperimentContext = None):
    """Generate Table 1 and wrap it in the common result envelope."""
    from repro.harness import results

    ctx = ctx or ExperimentContext()
    rows = generate(ctx)
    config = {"variants": [row.variant for row in rows]}
    return results.build("table1", ctx, rows, render(rows), config)


def render(rows: List[Table1Row]) -> str:
    header = (
        f"{'Operation':<14}"
        + "".join(f"{row.variant:>13}" for row in rows)
    )
    lines = [header]
    lines.append(
        f"{'Lock Acquire':<14}"
        + "".join(f"{row.lock_acquire:>13.1f}" for row in rows)
    )
    lines.append(
        f"{'Barrier':<14}"
        + "".join(
            f"{row.barrier_2:>6.0f} ({row.barrier_16:.0f})".rjust(13)
            for row in rows
        )
    )
    lines.append(
        f"{'Page Transfer':<14}"
        + "".join(f"{row.page_transfer:>13.1f}" for row in rows)
    )
    return "\n".join(lines)
