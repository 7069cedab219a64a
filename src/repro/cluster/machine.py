"""Nodes and processors of the simulated AlphaServer cluster.

A :class:`Processor` executes application work as *interruptible compute
blocks* and services remote requests through one of the paper's three
mechanisms:

* ``POLL`` — the compute block reacts to an arriving request at the next
  poll point (a small constant reaction time);
* ``INTERRUPT`` — an ``imc_kill``-style inter-node signal disturbs the
  compute block after the ~1 ms kernel delivery latency;
* ``PROTOCOL_PROCESSOR`` — requests are routed to a dedicated CPU on the
  node, and compute blocks are never disturbed.

While a processor is *blocked* (waiting for a reply, a lock, or a
barrier) it always services incoming requests immediately, mirroring both
systems' re-entrant spin-wait handlers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, List, Optional, Sequence

from repro.config import ClusterConfig, CostModel, Mechanism
from repro.sim import Engine, Event, Until
from repro.stats import Category, StatsBoard


def _interrupt_fire(proc: "Processor") -> None:
    """Kernel signal delivery lands: disturb the running compute block."""
    proc._interrupt_pending = False
    disturb = proc._disturb
    if disturb is not None and not disturb.triggered:
        disturb.succeed()


class Processor:
    """One CPU: compute, wait, and remote-request service."""

    def __init__(
        self,
        engine: Engine,
        pid: int,
        node: "Node",
        cpu: int,
        mechanism: Mechanism,
        costs: CostModel,
        stats: StatsBoard,
    ):
        self.engine = engine
        self.pid = pid  # global rank (or -1 for a protocol processor)
        self.node = node
        self.cpu = cpu
        self.mechanism = mechanism
        self.costs = costs
        self.stats = stats
        # Cached ProcStats: one attribute load on every charge/bump
        # instead of a bounds check plus StatsBoard.__getitem__.
        self._stat = stats[pid] if pid >= 0 else None
        self.mailbox: Deque = deque()
        self.server: Optional[Callable] = None  # request -> generator
        self._arrival: Optional[Event] = None
        self._disturb: Optional[Event] = None
        self._interrupt_pending = False

    def __repr__(self) -> str:
        return f"<Processor {self.pid} node={self.node.nid} cpu={self.cpu}>"

    # -- accounting -----------------------------------------------------

    def charge(self, category: Category, dt: float) -> None:
        stat = self._stat
        if stat is not None:
            if dt < 0:
                raise ValueError(f"negative charge {dt} to {category}")
            stat.time[category] += dt

    def bump(self, counter: str, n: int = 1) -> None:
        stat = self._stat
        if stat is not None:
            stat.counters[counter] += n

    # -- request delivery -------------------------------------------------

    def deliver(self, request) -> None:
        """A remote request has landed in this processor's receive region."""
        self.mailbox.append(request)
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()
        if self.mechanism is Mechanism.INTERRUPT:
            self._post_interrupt()

    def _post_interrupt(self) -> None:
        """Schedule the kernel's (slow) signal delivery for a request."""
        if self._interrupt_pending:
            return  # one in-flight signal covers queued requests
        self._interrupt_pending = True
        self.engine.schedule(
            self.engine.now + self.costs.interrupt_latency,
            _interrupt_fire,
            self,
        )

    def _arrival_event(self) -> Event:
        if self._arrival is None or self._arrival.triggered:
            self._arrival = self.engine.event()
        return self._arrival

    def _disturb_event(self) -> Optional[Event]:
        """The event that may cut a compute block short, if any."""
        if self.mechanism is Mechanism.POLL:
            return self._arrival_event()
        if self.mechanism is Mechanism.INTERRUPT:
            if self._disturb is None or self._disturb.triggered:
                self._disturb = self.engine.event()
            if self.mailbox and not self._interrupt_pending:
                self._post_interrupt()
            return self._disturb
        return None  # PROTOCOL_PROCESSOR: compute is never disturbed

    # -- compute ----------------------------------------------------------

    def compute(
        self,
        us: float,
        polls: int = 0,
        shares: Optional[dict] = None,
        interruptible: bool = True,
    ) -> Generator:
        """Run for ``us`` simulated microseconds of CPU work.

        ``shares`` maps :class:`Category` to a fraction of the block
        (default: all USER).  ``polls`` is the number of poll points the
        instrumentation pass inserted into this block; under the polling
        mechanism their cost is added and charged to POLL.
        """
        if us < 0:
            raise ValueError("negative compute time")
        if polls and self.mechanism is Mechanism.POLL:
            shares = dict(shares) if shares else {Category.USER: 1.0}
            poll_us = polls * self.costs.poll_check
            total = us + poll_us
            if total > 0:
                scale = us / total
                shares = {c: f * scale for c, f in shares.items()}
                shares[Category.POLL] = (
                    shares.get(Category.POLL, 0.0) + poll_us / total
                )
            us = total
        elif shares:
            shares = dict(shares)
        else:
            shares = None  # the common all-USER block: no dict at all
        remaining = us
        while remaining > 1e-9:
            if self.mailbox and self.mechanism is not Mechanism.INTERRUPT:
                yield from self.drain()
            start = self.engine.now
            if (
                not interruptible
                or self.mechanism is Mechanism.PROTOCOL_PROCESSOR
            ):
                # Nothing can cut the block short: sleep it out as one
                # bare delay (no Timeout object, no AnyOf).
                yield remaining
                self._charge_shares(
                    shares, min(self.engine.now - start, remaining)
                )
                break
            timeout = self.engine.timeout(remaining)
            disturb = self._disturb_event()  # POLL/INTERRUPT: never None
            fired = yield self.engine.any_of([timeout, disturb])
            elapsed = self.engine.now - start
            self._charge_shares(shares, min(elapsed, remaining))
            remaining -= elapsed
            if fired is timeout or remaining <= 1e-9:
                break
            # A request arrived mid-block: finish reaching the reaction
            # point (next poll, or the interrupt trampoline), then serve.
            if self.mechanism is Mechanism.POLL:
                reaction = min(self.costs.poll_reaction, remaining)
                if reaction > 0:
                    yield reaction
                    self._charge_shares(shares, reaction)
                    remaining -= reaction
            elif self.mechanism is Mechanism.INTERRUPT:
                self.charge(Category.PROTOCOL, self.costs.signal_local)
                yield self.costs.signal_local
            yield from self.drain()

    def _charge_shares(self, shares: Optional[dict], dt: float) -> None:
        if dt <= 0:
            return
        if shares is None:
            self.charge(Category.USER, dt)
            return
        for category, fraction in shares.items():
            self.charge(category, dt * fraction)

    def busy(self, us: float, category: Category) -> Generator:
        """Uninterruptible occupancy (protocol handler work, memcpy...).

        Yields a bare delay — the engine's allocation-free wait channel —
        because this is the single most-executed wait in full runs (every
        message send, handler occupancy, and doubled write lands here).
        """
        if us > 0:
            yield us
            self.charge(category, us)
        elif us < 0:
            raise ValueError(f"negative busy time {us}")

    def busy_run(
        self, costs: Sequence[float], category: Category
    ) -> Generator:
        """A run of back-to-back :meth:`busy` occupancies as one wake.

        Bit-identical to ``for us in costs: yield from self.busy(us,
        category)`` — the deadline is the same left-to-right float fold
        the chain of delays would have produced, and the charges land
        in the same order — provided the caller touches nothing but
        this processor's private state between the occupancies: every
        other process sees the whole run as one sleep.
        """
        engine = self.engine
        when = engine.now
        occupied = False
        for us in costs:
            if us > 0:
                when += us
                occupied = True
            elif us < 0:
                raise ValueError(f"negative busy time {us}")
        if occupied:
            yield Until(when)
            stat = self._stat
            if stat is not None:
                time = stat.time
                for us in costs:
                    if us > 0:
                        time[category] += us

    # -- blocking wait with request service -------------------------------

    def wait(
        self, event: Event, category: Category = Category.COMM_WAIT
    ) -> Generator:
        """Block until ``event`` fires, servicing requests meanwhile."""
        while True:
            if self.mailbox:
                yield from self.drain()
            if event.triggered:
                return event.value
            start = self.engine.now
            yield self.engine.any_of([event, self._arrival_event()])
            self.charge(category, self.engine.now - start)
            if event.triggered and not self.mailbox:
                return event.value

    # -- request service ----------------------------------------------------

    def drain(self) -> Generator:
        """Service every queued request with the registered server."""
        while self.mailbox:
            request = self.mailbox.popleft()
            if self.server is None:
                raise RuntimeError(f"{self!r} has no request server")
            yield from self.server(self, request)

    def serve_forever(self) -> Generator:
        """Main loop of a dedicated protocol processor."""
        while True:
            if self.mailbox:
                yield from self.drain()
            else:
                yield self._arrival_event()


class Node:
    """An SMP node: up to four CPUs plus one network adapter.

    The node is interconnect-agnostic — the adapter's timing lives in
    the :class:`~repro.cluster.network.NetworkModel` backend (Memory
    Channel by default; see docs/NETWORKS.md).
    """

    def __init__(self, nid: int):
        self.nid = nid
        self.processors: List[Processor] = []
        self.protocol_processor: Optional[Processor] = None
        self._next_target = 0

    def request_target(self) -> Processor:
        """The CPU that should service a request addressed to this node.

        With a dedicated protocol processor it is always that CPU;
        otherwise requests rotate over the node's compute CPUs, spreading
        the service burden of popular home nodes.
        """
        if self.protocol_processor is not None:
            return self.protocol_processor
        target = self.processors[self._next_target % len(self.processors)]
        self._next_target += 1
        return target


class Cluster:
    """The whole machine: nodes, processors, and rank placement.

    ``placement`` maps global rank -> (node id, cpu id).  The paper's
    standard placements for n processors are produced by
    :func:`repro.harness.configs.placement`.
    """

    def __init__(
        self,
        engine: Engine,
        cluster_cfg: ClusterConfig,
        costs: CostModel,
        mechanism: Mechanism,
        placement: List[tuple],
        stats: StatsBoard,
    ):
        self.engine = engine
        self.config = cluster_cfg
        self.costs = costs
        self.mechanism = mechanism
        self.nodes = [Node(nid) for nid in range(cluster_cfg.n_nodes)]
        self.procs: List[Processor] = []
        used_nodes = set()
        for rank, (nid, cpu) in enumerate(placement):
            if not (0 <= nid < cluster_cfg.n_nodes):
                raise ValueError(f"rank {rank}: node {nid} out of range")
            if not (0 <= cpu < cluster_cfg.cpus_per_node):
                raise ValueError(f"rank {rank}: cpu {cpu} out of range")
            proc = Processor(
                engine, rank, self.nodes[nid], cpu, mechanism, costs, stats
            )
            self.nodes[nid].processors.append(proc)
            self.procs.append(proc)
            used_nodes.add(nid)
        if mechanism is Mechanism.PROTOCOL_PROCESSOR:
            pp_cpu = cluster_cfg.cpus_per_node - 1
            for nid in used_nodes:
                node = self.nodes[nid]
                if any(p.cpu == pp_cpu for p in node.processors):
                    raise ValueError(
                        f"node {nid}: cpu {pp_cpu} is reserved for the "
                        "protocol processor"
                    )
                pp = Processor(
                    engine, -1, node, pp_cpu, mechanism, costs, stats
                )
                node.protocol_processor = pp

    @property
    def nprocs(self) -> int:
        return len(self.procs)

    def proc(self, rank: int) -> Processor:
        return self.procs[rank]

    def start_protocol_processors(self) -> None:
        for node in self.nodes:
            if node.protocol_processor is not None:
                self.engine.process(
                    node.protocol_processor.serve_forever(),
                    name=f"pp-node{node.nid}",
                    daemon=True,
                )

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.procs[rank_a].node is self.procs[rank_b].node
