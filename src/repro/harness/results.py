"""The common result object every experiment driver returns.

Before this module each driver handed back its own shape — lists of
``SpeedupCurve``, ``Table3Cell``, ``SweepPoint`` — and callers that
wanted counters, breakdowns, or provenance had to re-run points or poke
at driver internals.  :class:`DriverResult` is the one envelope:
typed driver rows stay available under ``rows``, and the envelope adds
the aggregate counters, the category breakdown, the rendered text, and
enough provenance to reproduce the run.

The trace/export layer is untouched: traced runs still land in
``ExperimentContext.trace_runs`` and flow through
``repro.stats.export`` exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class DriverResult:
    """Outcome of one driver invocation (``repro.api.run_experiment``).

    ``driver``
        Which driver produced this ("figure5", "table2", "sweep", ...).
    ``config``
        The driver-level request: apps, variants, processor counts,
        swept knob — whatever parametrized :func:`generate`.
    ``rows``
        The driver's native typed cells (``SpeedupCurve``,
        ``BreakdownBar``, ``Table2Row``, ``Table3Cell``,
        ``SweepPoint``), in render order.
    ``counters``
        Protocol counters summed over every simulation the context
        executed (cache hits included): faults, messages, bytes, ...
    ``breakdown``
        Simulated microseconds per time category, summed the same way.
    ``provenance``
        Package version, scale, run knobs, job/cache setup — what you
        need to know to rerun or trust the numbers.  ``overrides``
        holds the context-wide knobs (``network``, the policy triple,
        ``debug_checks``) at their effective values, plus any other
        context override.  When the context
        carried a result cache, ``provenance["cache_stats"]`` holds its
        hit/miss/coalesced counters (None otherwise), so load
        generators and CI assert on them instead of scraping stderr.
    ``text``
        The driver's rendered table/figure, byte-identical to what the
        CLI prints.
    """

    driver: str
    config: Dict[str, Any]
    rows: Tuple[Any, ...]
    counters: Dict[str, int]
    breakdown: Dict[str, float]
    provenance: Dict[str, Any]
    text: str

    def render(self) -> str:
        return self.text


def build(driver: str, ctx, rows, text: str, config: Dict[str, Any]) -> DriverResult:
    """Assemble a :class:`DriverResult` from a finished context.

    Counters and breakdown are the context's cumulative totals: for the
    usual one-driver-per-context lifetime (the CLI, ``run_experiment``)
    that is exactly this invocation's work.
    """
    import repro
    from repro.config import CONTEXT_KNOBS, RunConfig

    provenance = {
        "package_version": repro.__version__,
        "scale": ctx.scale,
        "warm_start": ctx.warm_start,
        "jobs": ctx.jobs,
        "cache": ctx.cache is not None,
        "cache_stats": (
            ctx.cache.stats.as_dict() if ctx.cache is not None else None
        ),
        "overrides": {
            **{
                knob.name: knob.default
                for knob in fields(RunConfig)
                if knob.name in CONTEXT_KNOBS
            },
            **ctx.overrides,
        },
        "simulations": ctx.runs_executed,
    }
    return DriverResult(
        driver=driver,
        config=dict(config),
        rows=tuple(rows),
        counters=dict(ctx.counters),
        breakdown=dict(ctx.breakdown_us),
        provenance=provenance,
        text=text,
    )
