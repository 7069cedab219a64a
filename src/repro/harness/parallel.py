"""Parallel fan-out of independent experiment points.

The paper's artifacts are embarrassingly parallel: Figure 5 alone is
8 applications x 6 variants x 6 processor counts, every point an
independent deterministic simulation.  This module runs such points
across a :class:`concurrent.futures.ProcessPoolExecutor` while keeping
the harness semantics exactly serial:

* **Deterministic ordering** — results come back in submission order,
  whatever order workers finish in.
* **Bit-identical outcomes** — the simulator is deterministic across
  processes (no wall-clock, no unseeded randomness, no hash-order
  iteration), so a worker's ``RunResult`` equals the in-process one;
  ``tests/test_parallel_harness.py`` locks this in.
* **Trace collection** — traced runs carry their ``Tracer`` back in the
  pickled result; the runner merges them into
  ``ExperimentContext.trace_runs`` in point order.

Everything a worker needs travels in a :class:`PointSpec` — plain
dataclasses of config values, never live protocol objects — so specs
pickle cheaply under both fork and spawn start methods.  Every run knob
is a field of the spec's ``RunConfig``: a worker holds no run state
between specs, and every point, the sequential baseline included, runs
through ``run_program``.  :func:`point_spec` is the one place specs are
built.  Values never cross a process boundary: a pool worker returns
its result with ``values_sha256`` but without ``values``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.apps import registry
from repro.config import (
    ClusterConfig,
    CostModel,
    RunConfig,
    SystemKind,
    Variant,
    sequential_config,
    variant_by_name,
)
from repro.harness.configs import cluster_for


@dataclass(frozen=True)
class PointSpec:
    """One self-contained experiment point, ready to run anywhere: an
    app, its params, and the :class:`~repro.config.RunConfig` of the
    run (the sequential baseline's is
    :func:`~repro.config.sequential_config`)."""

    app: str
    params: Dict[str, Any]
    config: RunConfig

    @property
    def is_sequential(self) -> bool:
        return self.config.variant.system is SystemKind.SEQUENTIAL


def point_spec(
    app: str,
    variant: Union[str, Variant, None] = None,
    nprocs: int = 1,
    *,
    scale: str = "small",
    params: Optional[Mapping[str, Any]] = None,
    cluster: Optional[ClusterConfig] = None,
    costs: Optional[CostModel] = None,
    warm_start: bool = True,
    trace: bool = False,
    **overrides: Any,
) -> PointSpec:
    """Build the :class:`PointSpec` of one point: the one builder.

    ``repro.api.run_point``, the serving decoder and
    ``ExperimentContext`` all build their specs here, which is what
    guarantees a served result is byte-for-byte the result of the
    equivalent direct call.  ``params`` defaults to the app's
    ``default_params(scale)``; ``cluster`` to the default cluster, grown
    by nodes past its 32 CPUs; ``costs`` to the paper cost model.  An
    app's cost rule (``cost_overrides(params)``: gauss scales its caches
    with its matrix) applies on top of ``costs``, for the point's own
    params.  Extra keywords are :class:`~repro.config.RunConfig` fields
    (``network="rdma"``, ``debug_checks=True``, ...).

    ``variant=None`` is the sequential baseline: its config keeps only
    the cluster's page size, ``costs`` and ``debug_checks``
    (:func:`~repro.config.sequential_config`); ``nprocs`` and every
    other knob are checked, then ignored.
    """
    module = registry.load(app)
    if isinstance(variant, str):
        variant = variant_by_name(variant)
    params = dict(module.default_params(scale) if params is None else params)
    costs = costs or CostModel()
    rule = getattr(module, "cost_overrides", None)
    if rule is not None:
        costs = replace(costs, **rule(params))
    if cluster is None:
        cluster = cluster_for(
            nprocs, mechanism=None if variant is None else variant.mechanism
        )
    if variant is None:
        config = sequential_config(
            cluster.page_size,
            costs,
            overrides.get("debug_checks", False),
        )
        # The baseline ignores the other knobs, but an unknown or
        # invalid one is still refused, as on a variant's point.
        replace(config, warm_start=warm_start, trace=trace, **overrides)
    else:
        config = RunConfig(
            variant=variant,
            nprocs=nprocs,
            cluster=cluster,
            costs=costs,
            warm_start=warm_start,
            trace=trace,
            **overrides,
        )
    return PointSpec(app=app, params=params, config=config)


def _runner(spec: PointSpec):
    """Load ``spec``'s app; returns the call that runs the point."""
    from repro.core import run_program

    module = registry.load(spec.app)
    return partial(run_program, module.program(), spec.config, spec.params)


def execute_point(spec: PointSpec):
    """Run one point to completion in this process, values included."""
    return _runner(spec)()


def execute_point_timed(spec: PointSpec):
    """Run one point and return ``(result, seconds)``, the result
    without its values: the one pool-worker entry.  ``values_sha256``
    stays intact, so the arrays are dropped here instead of being
    pickled through the pool pipe (a ``small`` sor 8p result is 4.2 MB
    with them, 3.8 KB without).

    The clock wraps only the simulation itself — app-module import is
    excluded — so pool workers report the same quantity a serial
    caller would measure around :func:`execute_point`.
    """
    run = _runner(spec)
    started = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - started
    return replace(result, values=None), seconds


def persistent_pool(jobs: int) -> ProcessPoolExecutor:
    """A long-lived worker pool for repeated :func:`run_points` calls.

    Constructing a :class:`ProcessPoolExecutor` costs a fork/spawn plus
    a full interpreter warm-up per worker; callers that run many small
    batches (the serving layer's cold-point batcher, benchmark reruns)
    amortise that by building one pool here and passing it as
    ``run_points(..., pool=...)``.  The caller owns the lifetime —
    ``pool.shutdown()`` when done.
    """
    return ProcessPoolExecutor(max_workers=max(1, jobs))


def run_points(
    specs: Sequence[PointSpec],
    jobs: int = 1,
    max_workers: Optional[int] = None,
    pool: Optional[ProcessPoolExecutor] = None,
) -> List:
    """Execute every spec; results return in submission order.

    ``pool`` (an executor from :func:`persistent_pool`) takes priority:
    the batch fans across the caller's long-lived workers and the pool
    survives the call — nothing is constructed or torn down here, so
    back-to-back batches pay no per-call spin-up.  Otherwise
    ``jobs <= 1`` (or a single spec) runs in-process — no pool, no
    pickling, values kept — and ``jobs > 1`` builds a throwaway pool of
    ``min(jobs, len(specs))`` workers for just this call.  Pool results
    come from :func:`execute_point_timed`, so they carry
    ``values_sha256`` but ``values=None``.  ``Executor.map`` preserves
    order either way.
    """
    specs = list(specs)
    if pool is not None:
        return [result for result, _ in pool.map(execute_point_timed, specs)]
    if jobs <= 1 or len(specs) <= 1:
        return [execute_point(spec) for spec in specs]
    workers = max_workers or min(jobs, len(specs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for result, _ in pool.map(execute_point_timed, specs)]
