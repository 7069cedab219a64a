"""SPMD program execution on the simulated cluster.

A :class:`Program` bundles an (untimed) setup function with a worker
generator.  :func:`run_program` builds the cluster, the network, and the
requested protocol, runs one worker per processor, and returns a
:class:`RunResult` with the simulated execution time, statistics, and the
workers' return values (used to verify results against the sequential
NumPy reference) with their :func:`values_digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.config import RunConfig, SystemKind
from repro.cluster.machine import Cluster
from repro.cluster.messaging import Messenger
from repro.cluster.network import NetworkModel, build_network
from repro.core import fastpath
from repro.core.runtime.env import Env
from repro.memory.address_space import AddressSpace
from repro.sim import Engine
from repro.stats import Breakdown, Category, StatsBoard
from repro.stats.trace import Tracer


@dataclass(frozen=True)
class Program:
    """An SPMD application.

    ``setup(space, params)`` allocates and initializes shared arrays (an
    untimed initialization phase, as in the paper) and returns the
    handles dict passed to every worker.  ``worker(env, shared, params)``
    is a generator; its return value is collected per rank.
    """

    name: str
    setup: Callable[[AddressSpace, Dict], Dict]
    worker: Callable[[Env, Dict, Dict], Any]


def values_digest(values: Any) -> str:
    """SHA-256 over a canonical byte form of a run's per-rank ``values``:
    per node a tag (``N`` None; ``L``/``T`` and the length of a list or
    tuple, then its items; ``A``, dtype and shape of anything NumPy
    holds by value, then its little-endian bytes).  Any flipped bit of
    any value changes it."""
    digest = hashlib.sha256()
    _feed(digest, values)
    return digest.hexdigest()


def _feed(digest, value: Any) -> None:
    if value is None:
        digest.update(b"N")
    elif isinstance(value, (list, tuple)):
        tag = b"L" if isinstance(value, list) else b"T"
        digest.update(tag + len(value).to_bytes(8, "little"))
        for item in value:
            _feed(digest, item)
    else:
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise TypeError(f"cannot digest a {type(value).__name__} value")
        little = array.dtype.newbyteorder("<")
        array = array.astype(little, order="C", copy=False)
        header = f"{array.dtype.str}{array.shape}".encode()
        digest.update(b"A" + len(header).to_bytes(8, "little") + header)
        digest.update(array.data)


@dataclass
class RunResult:
    """Outcome of one simulated execution.  A result read back from the
    result cache has ``values=None``; ``values_sha256`` still pins them."""

    program: str
    config: RunConfig
    exec_time: float  # simulated microseconds
    stats: StatsBoard
    values: Optional[List[Any]]
    values_sha256: str  # values_digest(values), taken when the run ends
    network_bytes: int = 0
    trace: Optional[Tracer] = None  # None exactly when not traced
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def breakdown(self) -> Breakdown:
        return Breakdown.from_stats(self.stats)

    def counter(self, name: str) -> int:
        return self.stats.total(name)

    def speedup_over(self, sequential_us: float) -> float:
        if self.exec_time <= 0:
            raise ValueError("run has no execution time")
        return sequential_us / self.exec_time


@dataclass
class System:
    """A fully wired simulated cluster: engine, network, messenger, and
    protocol, with servers attached and the protocol started.

    :func:`build_system` assembles one; :func:`run_program` runs workers
    on one.  Tests and microbenchmarks use it to drive the protocol
    directly without an application (``repro.api.build_system`` is the
    public entry point).
    """

    engine: Engine
    cluster: Cluster
    network: NetworkModel
    messenger: Messenger
    space: AddressSpace
    stats: StatsBoard
    protocol: Any
    tracer: Tracer
    config: RunConfig


def build_system(
    run_cfg: RunConfig,
    space: Optional[AddressSpace] = None,
    placement: Optional[List[tuple]] = None,
) -> System:
    """Assemble and start the simulated system for ``run_cfg``.

    ``space`` lets callers pass an address space whose regions are
    already allocated and initialized (the untimed setup phase);
    ``run_cfg.warm_start`` then pre-validates read-only copies.
    """
    from repro.harness.configs import placement as default_placement

    engine = Engine()
    stats = StatsBoard(run_cfg.nprocs)
    if placement is None:
        placement = default_placement(
            run_cfg.nprocs, run_cfg.cluster, run_cfg.variant.mechanism
        )
    cluster = Cluster(
        engine,
        run_cfg.cluster,
        run_cfg.costs,
        run_cfg.variant.mechanism,
        placement,
        stats,
    )
    network = build_network(
        run_cfg.network, engine, run_cfg.cluster, run_cfg.costs
    )
    messenger = Messenger(
        engine, cluster, network, run_cfg.costs, run_cfg.variant.transport
    )
    if space is None:
        space = AddressSpace(
            run_cfg.cluster.page_size, unit_size=run_cfg.unit_bytes
        )
    tracer = Tracer(enabled=run_cfg.trace)
    protocol = _build_protocol(
        run_cfg.variant.system,
        engine,
        cluster,
        network,
        messenger,
        space,
        stats,
        run_cfg,
    )
    protocol.tracer = tracer
    for proc in cluster.procs:
        proc.server = protocol.serve
    for node in cluster.nodes:
        if node.protocol_processor is not None:
            node.protocol_processor.server = protocol.serve
    cluster.start_protocol_processors()
    protocol.start()
    if run_cfg.warm_start:
        protocol.prewarm()
    return System(
        engine=engine,
        cluster=cluster,
        network=network,
        messenger=messenger,
        space=space,
        stats=stats,
        protocol=protocol,
        tracer=tracer,
        config=run_cfg,
    )


def _build_protocol(
    system: SystemKind,
    engine: Engine,
    cluster: Cluster,
    network: NetworkModel,
    messenger: Messenger,
    space: AddressSpace,
    stats: StatsBoard,
    run_cfg: RunConfig,
):
    if system is SystemKind.CASHMERE:
        from repro.core.cashmere.protocol import CashmereProtocol

        return CashmereProtocol(
            engine, cluster, network, messenger, space, stats, run_cfg
        )
    if system is SystemKind.TREADMARKS:
        from repro.core.treadmarks.protocol import TreadMarksProtocol

        return TreadMarksProtocol(
            engine, cluster, network, messenger, space, stats, run_cfg
        )
    if system is SystemKind.HLRC:
        from repro.core.hlrc.protocol import HlrcProtocol

        return HlrcProtocol(
            engine, cluster, network, messenger, space, stats, run_cfg
        )
    raise ValueError(f"unknown system {system!r}")


def run_program(
    program: Program,
    run_cfg: RunConfig,
    params: Optional[Dict] = None,
    placement: Optional[List[tuple]] = None,
) -> RunResult:
    """Execute ``program`` on ``run_cfg.nprocs`` simulated processors."""
    params = dict(params or {})
    # The space's "pages" are the run's sharing units (docs/POLICIES.md);
    # unit_bytes is None at the default granularity, reconstructing the
    # pre-policy space exactly.
    space = AddressSpace(
        run_cfg.cluster.page_size, unit_size=run_cfg.unit_bytes
    )
    shared = program.setup(space, params)
    backing = space.backing_digest() if fastpath.DEBUG else None
    system = build_system(run_cfg, space=space, placement=placement)
    engine = system.engine
    cluster = system.cluster
    stats = system.stats
    protocol = system.protocol

    values: List[Any] = [None] * run_cfg.nprocs

    def run_worker(rank: int):
        env = Env(rank, run_cfg.nprocs, cluster.proc(rank), protocol)
        result = yield from program.worker(env, shared, params)
        values[rank] = result
        if not stats[rank].frozen:
            stats[rank].freeze(engine.now)
        # The real process stays alive after its work is done and keeps
        # fielding remote requests (polls/interrupts) while idle.
        engine.process(
            cluster.proc(rank).serve_forever(),
            name=f"idle-p{rank}",
            daemon=True,
        )

    for rank in range(run_cfg.nprocs):
        engine.process(run_worker(rank), name=f"{program.name}-w{rank}")
    engine.run()
    protocol.check_invariants()
    if backing is not None and space.backing_digest() != backing:
        raise AssertionError("a parallel run wrote the backing store")
    return RunResult(
        program=program.name,
        config=run_cfg,
        exec_time=stats.finish_time,
        stats=stats,
        values=values,
        values_sha256=values_digest(values),
        network_bytes=system.network.aggregate_bytes,
        trace=system.tracer if run_cfg.trace else None,
    )


def run_sequential(
    program: Program,
    params: Optional[Dict] = None,
    page_size: int = 8192,
    costs=None,
) -> RunResult:
    """Run the program on one processor with *no* DSM system linked in.

    This is the paper's Table 2 sequential time: the worker executes with
    free memory access, no polling, no write doubling, and no protocol.
    Speedups in Figure 5 are computed against this time.  ``costs`` lets
    callers keep scaled cache parameters consistent with parallel runs.
    """
    from repro.config import ClusterConfig, Mechanism, Variant, Transport
    from repro.core.runtime.sequential import SequentialProtocol

    params = dict(params or {})
    engine = Engine()
    stats = StatsBoard(1)
    cluster_cfg = ClusterConfig(n_nodes=1, cpus_per_node=1, page_size=page_size)
    seq_variant = Variant(
        "sequential",
        SystemKind.CASHMERE,  # placeholder; no protocol is built
        Mechanism.INTERRUPT,
        Transport.MEMORY_CHANNEL,
    )
    run_cfg = RunConfig(variant=seq_variant, nprocs=1, cluster=cluster_cfg)
    cluster = Cluster(
        engine,
        cluster_cfg,
        run_cfg.costs,
        Mechanism.INTERRUPT,
        [(0, 0)],
        stats,
    )
    space = AddressSpace(page_size)
    shared = program.setup(space, params)
    protocol = SequentialProtocol(space, costs=costs)

    values: List[Any] = [None]

    def run_worker():
        env = Env(0, 1, cluster.proc(0), protocol)
        values[0] = yield from program.worker(env, shared, params)
        if not stats[0].frozen:
            stats[0].freeze(engine.now)

    engine.process(run_worker(), name=f"{program.name}-seq")
    engine.run()
    return RunResult(
        program=program.name,
        config=run_cfg,
        exec_time=stats.finish_time,
        stats=stats,
        values=values,
        values_sha256=values_digest(values),
    )
