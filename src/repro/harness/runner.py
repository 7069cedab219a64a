"""Shared machinery for the per-table/figure experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.config import (
    ClusterConfig,
    CostModel,
    RunConfig,
    Variant,
)
from repro.core import RunResult
from repro.apps import registry
from repro.harness.cache import ResultCache, key_for_spec
from repro.harness.parallel import PointSpec, point_spec, run_points
from repro.stats.export import TraceRun


@dataclass(frozen=True)
class BatchPoint:
    """One experiment point for :meth:`ExperimentContext.run_batch`.

    ``variant=None`` requests the app's sequential (unlinked) baseline.
    The rest default as in :func:`~repro.harness.parallel.point_spec`:
    ``costs=None`` is the paper cost model (sweeps pass swept models;
    the app's cost rule applies on top either way), ``params=None`` the
    context's scale tier (weak scaling re-sizes it per count) and
    ``cluster=None`` the cluster grown from ``nprocs``; only the
    ledger's clustering ablation passes a cluster.
    """

    app: str
    variant: Optional[Variant]
    nprocs: int = 1
    costs: Optional[CostModel] = None
    overrides: Tuple[Tuple[str, Any], ...] = ()
    params: Optional[Tuple[Tuple[str, Any], ...]] = None
    cluster: Optional[ClusterConfig] = None


@dataclass
class ExperimentContext:
    """Caches and configuration shared across one harness invocation."""

    scale: str = "small"
    # Warm start is the faithful default at simulation scale: the
    # paper's minutes-long runs amortise cold data distribution to ~1%
    # of execution time, while at scaled-down sizes it can dominate
    # (see DESIGN.md, "Scaling methodology").
    warm_start: bool = True
    # With ``trace=True`` every run records protocol events and lands in
    # ``trace_runs`` (with full provenance metadata), ready for the
    # exporters in repro.stats.export — this is what the CLI's global
    # ``--trace-out`` flag switches on.
    trace: bool = False
    trace_runs: List[TraceRun] = field(default_factory=list)
    # Fan independent points of one driver invocation across this many
    # worker processes (the CLI's ``--jobs``).  1 = fully serial; the
    # results are bit-identical either way.
    jobs: int = 1
    # Optional persistent result cache (the CLI's ``--cache-dir`` /
    # ``--no-cache``); None disables on-disk caching entirely.
    cache: Optional[ResultCache] = None
    # Optional long-lived worker pool (repro.harness.parallel
    # .persistent_pool): when set, every run_batch fans across it and
    # no per-batch pool is constructed or torn down.  The caller owns
    # the pool's lifetime; ``jobs`` is ignored while it is set.
    pool: Optional[Any] = None
    # RunConfig fields applied to every point (the CLI's --network,
    # --debug-checks and policy flags); a point's own overrides win.
    overrides: Dict[str, Any] = field(default_factory=dict)
    # Cumulative aggregates over every simulation this context has
    # executed, cached results included — the counters/breakdown fields
    # of the DriverResult envelope (see repro.harness.results).
    counters: Dict[str, int] = field(default_factory=dict)
    breakdown_us: Dict[str, float] = field(default_factory=dict)
    runs_executed: int = 0
    _sequential: Dict[Tuple, RunResult] = field(default_factory=dict)

    def app(self, name: str):
        return registry.load(name)

    def params(self, name: str) -> Dict:
        return self.app(name).default_params(self.scale)

    def sequential(self, name: str) -> RunResult:
        return self.run_batch([BatchPoint(name, None)])[0]

    def run(
        self,
        name: str,
        variant: Variant,
        nprocs: int,
        **overrides,
    ) -> RunResult:
        point = BatchPoint(
            name, variant, nprocs, overrides=tuple(sorted(overrides.items()))
        )
        return self.run_batch([point])[0]

    def run_batch(self, points: Iterable[BatchPoint]) -> List[RunResult]:
        """Run every point; results return in point order.

        The single entry point for all experiment execution: memoizes
        sequential baselines, consults the on-disk result cache, fans
        cache misses across ``self.jobs`` worker processes, stores fresh
        results back, and merges traces into ``trace_runs`` in point
        order.
        """
        points = list(points)
        specs = [self._spec_for(point) for point in points]
        keys = [self._key_for(spec) for spec in specs]

        results: List[Optional[RunResult]] = [None] * len(points)
        missing: List[int] = []
        for i, spec in enumerate(specs):
            cached = self._lookup(spec, keys[i])
            if cached is not None:
                results[i] = cached
            else:
                missing.append(i)

        fresh = run_points(
            [specs[i] for i in missing], jobs=self.jobs, pool=self.pool
        )
        for i, result in zip(missing, fresh):
            results[i] = result
            self._store(specs[i], keys[i], result)

        for spec, result in zip(specs, results):
            if spec.is_sequential:
                self._sequential.setdefault(self._seq_memo_key(spec), result)
            elif spec.config.trace:
                self.trace_runs.append(
                    TraceRun.from_result(result, scale=self.scale)
                )
            self._accumulate(result)
        return results

    def _accumulate(self, result: RunResult) -> None:
        self.runs_executed += 1
        for name, value in result.stats.aggregate_counters().items():
            if value:
                self.counters[name] = self.counters.get(name, 0) + value
        for category, us in result.breakdown.as_dict().items():
            if us:
                self.breakdown_us[category] = (
                    self.breakdown_us.get(category, 0.0) + us
                )

    # -- internals -----------------------------------------------------

    def _spec_for(self, point: BatchPoint) -> PointSpec:
        overrides = {**self.overrides, **dict(point.overrides)}
        trace = overrides.pop("trace", self.trace)
        return point_spec(
            point.app,
            point.variant,
            point.nprocs,
            scale=self.scale,
            params=point.params,
            cluster=point.cluster,
            costs=point.costs,
            warm_start=self.warm_start,
            trace=trace,
            **overrides,
        )

    def _key_for(self, spec: PointSpec) -> Optional[str]:
        if self.cache is None:
            return None
        return key_for_spec(spec)

    def _seq_memo_key(self, spec: PointSpec) -> Tuple:
        # Keyed by (app, exact params, checks): the baseline never
        # touches the network, so swept cost models share one baseline,
        # while scaling sweeps with per-point params get distinct
        # baselines.
        return (
            spec.app,
            tuple(sorted(spec.params.items())),
            spec.config.debug_checks,
        )

    def _lookup(self, spec: PointSpec, key: Optional[str]):
        if spec.is_sequential:
            memo = self._sequential.get(self._seq_memo_key(spec))
            if memo is not None:
                return memo
        if key is None:
            return None
        return self.cache.get(key)

    def _store(self, spec: PointSpec, key: Optional[str], result) -> None:
        if key is not None:
            self.cache.put(key, result)


def feasible_counts(counts: Iterable[int], variant: Variant) -> List[int]:
    """The ``counts`` ``variant`` can field on the paper's cluster
    (``csm_pp`` loses one CPU a node to its protocol processor)."""
    limit = RunConfig(variant=variant, nprocs=1).compute_cpus_available
    return [n for n in counts if n <= limit]
