"""Shared machinery for the per-table/figure experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from repro.harness.parallel import SEQUENTIAL, PointSpec, run_points
from repro.options import SimOptions
from repro.stats.export import TraceRun


@dataclass(frozen=True)
class BatchPoint:
    """One experiment point for :meth:`ExperimentContext.run_batch`.

    ``variant=None`` requests the app's sequential (unlinked) baseline;
    ``costs=None`` uses the context's (app-adjusted) cost model — sweeps
    pass explicit swept models.  ``params``/``cluster`` (both normally
    None = the context's scale tier and cluster) let the scaling sweeps
    grow the problem and the machine per point: weak scaling re-sizes
    the input with the processor count, and counts past the base
    cluster's capacity ride on clusters grown via
    :func:`repro.harness.configs.cluster_for`.
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
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    costs: CostModel = field(default_factory=CostModel)
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
    # Run options (debug checks, network, policies) shipped
    # to worker processes inside every PointSpec.  None inherits the
    # process-wide repro.options.current().
    options: Optional[SimOptions] = None
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

    def costs_for(
        self, name: str, costs: Optional[CostModel] = None
    ) -> CostModel:
        """The cost model for one app — ``costs``, else the context's —
        honouring the app's scaled-cache overrides (see e.g.
        ``repro.apps.gauss.cost_overrides``)."""
        costs = costs or self.costs
        overrides = getattr(self.app(name), "cost_overrides", None)
        if overrides is None:
            return costs
        return replace(costs, **overrides(self.params(name)))

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
            elif spec.trace:
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
        overrides = dict(point.overrides)
        trace = overrides.pop("trace", self.trace)
        if self.options is not None:
            # The network backend and the sharing-policy triple change
            # simulated results, so they ride in the RunConfig overrides
            # (and hence the cache key), not just in the shipped
            # SimOptions.
            overrides.setdefault("network", self.options.network)
            overrides.setdefault("granularity", self.options.granularity)
            overrides.setdefault("prefetch", self.options.prefetch)
            overrides.setdefault("homing", self.options.homing)
        return PointSpec(
            app=point.app,
            variant_name=(
                SEQUENTIAL if point.variant is None else point.variant.name
            ),
            nprocs=point.nprocs,
            params=(
                dict(point.params) if point.params is not None
                else self.params(point.app)
            ),
            cluster=point.cluster if point.cluster is not None else self.cluster,
            costs=(
                point.costs if point.costs is not None
                else self.costs_for(point.app)
            ),
            warm_start=self.warm_start,
            trace=trace,
            overrides=overrides,
            options=self.options,
        )

    def _key_for(self, spec: PointSpec) -> Optional[str]:
        if self.cache is None:
            return None
        return key_for_spec(spec)

    def _seq_memo_key(self, spec: PointSpec) -> Tuple:
        # Keyed by (app, exact params): the baseline never touches the
        # network, so swept cost models share one baseline (contexts
        # created by the sweep drivers share this dict), while scaling
        # sweeps with per-point params get distinct baselines.
        return (spec.app, tuple(sorted(spec.params.items())))

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


def feasible_counts(
    counts: Iterable[int], variant: Variant, cluster: ClusterConfig
) -> List[int]:
    """The ``counts`` ``variant`` can field on ``cluster`` (``csm_pp``
    loses one CPU a node to its protocol processor)."""
    limit = RunConfig(
        variant=variant, nprocs=1, cluster=cluster
    ).compute_cpus_available
    return [n for n in counts if n <= limit]
