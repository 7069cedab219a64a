"""The stable programmatic facade over the reproduction.

Four entry points cover everything callers used to reach by importing
driver and protocol internals:

``list_apps()``
    The application registry, by name.
``run_point(app, variant, nprocs, ...)``
    One simulation — an application under one protocol variant on one
    processor count (or its sequential baseline) — returning the core
    :class:`~repro.core.runtime.program.RunResult`.
``build_system(variant, nprocs, ...)``
    A fully wired simulated cluster (engine, network, messenger,
    protocol) with no application attached, for tests and
    microbenchmarks that drive the protocol directly.
``run_experiment(driver, ...)``
    One paper artifact — ``table1/2/3``, ``figure5/6``, ``sweep``, or
    the cross-era ``cross_era`` study — returning the common
    :class:`~repro.harness.results.DriverResult` envelope (typed rows +
    counters + breakdown + provenance + rendered text).

Every run knob is a :class:`~repro.config.RunConfig` field, passed as
a keyword (``network="rdma"``, ``debug_checks=True``, ...); there is no
process-wide option state.  There is one shared-access path and one
body per app (their retired twins are oracles in
``tests/access_oracle.py`` and ``tests/app_oracle.py``);
``debug_checks`` only adds checking, so results are bit-identical with
it on or off, though it enters the cache key.  ``network`` (CLI:
``--network {memch,rdma,ethernet}``) selects the simulated
interconnect backend and *changes simulated results* — see
``docs/NETWORKS.md``.  The full reference with a migration table from
the old entry points lives in ``docs/API.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.apps import registry
from repro.config import (
    ClusterConfig,
    CostModel,
    RunConfig,
    Variant,
    variant_by_name,
)
from repro.core.runtime.program import (
    RunResult,
    System,
    build_system as _build_system,
)
from repro.harness import cross_era, figure5, figure6, policies, scaling
from repro.harness import sweep, table1, table2, table3
from repro.harness.declaration import resolve
from repro.harness.parallel import execute_point, point_spec
from repro.harness.results import DriverResult

#: The experiment drivers, in the CLI's order.  Each module declares
#: its parameters (``PARAMS``) and may add ``chart(rows)`` and
#: ``points(ctx, ...)``; see :mod:`repro.harness.declaration`.
DRIVERS = {
    module.__name__.rsplit(".", 1)[1]: module
    for module in (table1, table2, table3, figure5, figure6, sweep)
    + (cross_era, scaling, policies)
}

#: Drivers ``run_experiment`` accepts, in the CLI's order.
EXPERIMENTS = tuple(DRIVERS)

VariantLike = Union[str, Variant, None]


def list_apps() -> List[str]:
    """Names of the registered benchmark applications (the paper's
    Table 2 eight plus extension workloads such as ``irreg``)."""
    return list(registry.ALL_APP_NAMES)


def run_point(
    app: str,
    variant: VariantLike = None,
    nprocs: int = 1,
    *,
    scale: str = "small",
    params: Optional[Dict[str, Any]] = None,
    cluster: Optional[ClusterConfig] = None,
    costs: Optional[CostModel] = None,
    warm_start: bool = True,
    trace: bool = False,
    cache=None,
    **overrides: Any,
) -> RunResult:
    """Run one simulation point and return its :class:`RunResult`.

    ``variant=None`` runs the app's sequential (unlinked) baseline.
    The point is :func:`point_spec`'s: ``params`` defaults to the app's
    ``default_params(scale)``, and ``costs`` to the paper cost model
    with the app's cost rule applied, as every driver runs it.  Extra
    keyword arguments become :class:`~repro.config.RunConfig` overrides
    (``homing="round-robin"``, ``debug_checks=True``, ...).

    ``cache`` (a :class:`~repro.harness.cache.ResultCache`) makes the
    call serving-aware: hits skip the simulation, misses store their
    result, and either way ``result.extras["cache"]`` records the
    fingerprint, whether it hit, and the cache's running
    :class:`~repro.harness.cache.CacheStats` — in-band metadata rather
    than the old stderr-only counters.  The simulated result is
    identical with or without a cache.
    """
    spec = point_spec(
        app,
        variant,
        nprocs,
        scale=scale,
        params=params,
        cluster=cluster,
        costs=costs,
        warm_start=warm_start,
        trace=trace,
        **overrides,
    )
    if cache is None:
        return execute_point(spec)
    from repro.harness.cache import key_for_spec

    key = key_for_spec(spec)
    result = cache.get(key)
    hit = result is not None
    if not hit:
        result = execute_point(spec)
        cache.put(key, result)
    result.extras["cache"] = {
        "key": key,
        "hit": hit,
        "stats": cache.stats.as_dict(),
    }
    return result


def cache_info(
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Programmatic view of the on-disk result cache.

    Returns ``{"stats": CacheStats.as_dict(), **ResultCache.summary()}``
    — the same shape ``repro-dsm cache stats`` prints and ``GET
    /v1/stats`` nests under ``"cache"``.  ``cache_dir`` defaults to the
    standard location (``REPRO_DSM_CACHE`` / ``~/.cache/repro-dsm``).
    The ``stats`` block counts only *this* handle's activity (a fresh
    handle reports zeros); the surrounding summary — entries, bytes,
    configured bounds — reflects the directory itself.
    """
    from pathlib import Path as _Path

    from repro.harness.cache import ResultCache

    cache = ResultCache(
        cache_dir=_Path(cache_dir) if cache_dir else None
    )
    return {"stats": cache.stats.as_dict(), **cache.summary()}


def cache_prune(
    max_bytes: Optional[int] = None,
    max_entries: Optional[int] = None,
    *,
    cache_dir: Optional[str] = None,
    clear: bool = False,
) -> Dict[str, Any]:
    """Evict cached results down to the given bounds (LRU-by-atime).

    ``max_bytes``/``max_entries`` bound the directory after pruning
    (``0`` or ``None`` leaves that axis unbounded); ``clear=True``
    removes everything.  Returns the :meth:`ResultCache.prune` report:
    ``{"evicted", "reclaimed_bytes", "entries", "bytes"}``.
    """
    from pathlib import Path as _Path

    from repro.harness.cache import ResultCache

    cache = ResultCache(
        cache_dir=_Path(cache_dir) if cache_dir else None
    )
    if clear:
        return cache.clear()
    return cache.prune(max_bytes=max_bytes, max_entries=max_entries)


def build_system(
    variant: VariantLike,
    nprocs: int,
    *,
    cluster: Optional[ClusterConfig] = None,
    costs: Optional[CostModel] = None,
    warm_start: bool = False,
    trace: bool = False,
    space=None,
    **overrides: Any,
) -> System:
    """Assemble a started simulated cluster with no application.

    Returns a :class:`~repro.core.runtime.program.System` whose engine,
    messenger, and protocol are live — drive them directly with
    ``system.engine.process(...)`` / ``system.engine.run()``.
    """
    if variant is None:
        raise ValueError("build_system needs a protocol variant")
    if isinstance(variant, str):
        variant = variant_by_name(variant)
    if warm_start and space is None:
        raise ValueError(
            "warm_start=True warms the regions of the address space "
            "passed as space=; without one there is nothing to warm"
        )
    if cluster is None:
        from repro.harness.configs import cluster_for

        cluster = cluster_for(nprocs, mechanism=variant.mechanism)
    cfg = RunConfig(
        variant=variant,
        nprocs=nprocs,
        cluster=cluster,
        costs=costs or CostModel(),
        warm_start=warm_start,
        trace=trace,
        **overrides,
    )
    return _build_system(cfg, space=space)


def run_experiment(
    driver: str,
    *,
    ctx=None,
    scale: str = "small",
    warm_start: bool = True,
    jobs: int = 1,
    cache=None,
    pool=None,
    overrides: Optional[Dict[str, Any]] = None,
    **driver_kwargs: Any,
) -> DriverResult:
    """Run one experiment driver and return its result envelope.

    ``driver`` is one of :data:`EXPERIMENTS`.  Pass an existing
    :class:`~repro.harness.runner.ExperimentContext` as ``ctx`` to
    share caches/baselines across invocations; otherwise one is built
    from ``scale``/``warm_start``/``jobs``/``cache``/``pool``/
    ``overrides`` (``pool`` — a
    :func:`repro.harness.parallel.persistent_pool` — fans every batch
    across long-lived workers with no per-batch pool spin-up; the
    caller owns its lifetime).  ``overrides`` maps
    :class:`~repro.config.RunConfig` fields to values applied to every
    point this call runs (``{"network": "rdma", "debug_checks":
    True}``); a point's own overrides win.  A passed ``ctx`` carries
    its own ``overrides``, so passing both is an error.
    Driver-specific parameters (``apps=``, ``variants=``, ``counts=``,
    ``nprocs=``, ``knob=``...) are checked against the driver's
    declaration (``PARAMS``), which also supplies their defaults;
    keywords it does not declare pass through to the driver.
    """
    if driver not in DRIVERS:
        raise ValueError(
            f"unknown experiment {driver!r}; known: {EXPERIMENTS}"
        )
    module = DRIVERS[driver]
    kwargs = resolve(module.PARAMS, driver_kwargs)
    if ctx is not None and overrides:
        raise ValueError(
            "overrides= applies only to a context this call builds; "
            "set them on the ExperimentContext instead"
        )
    if ctx is None:
        from repro.harness.runner import ExperimentContext

        ctx = ExperimentContext(
            scale=scale,
            warm_start=warm_start,
            jobs=jobs,
            cache=cache,
            pool=pool,
            overrides=dict(overrides or {}),
        )
    return module.run(ctx=ctx, **kwargs)


__all__ = [
    "DRIVERS",
    "EXPERIMENTS",
    "DriverResult",
    "RunResult",
    "System",
    "build_system",
    "cache_info",
    "cache_prune",
    "list_apps",
    "point_spec",
    "run_experiment",
    "run_point",
]
