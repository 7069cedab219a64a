"""The protocol interface the DSM runtime drives.

Both Cashmere and TreadMarks implement this interface.  Every method that
consumes simulated time is a generator (it yields simulation events); the
runtime composes them with ``yield from``.
"""

from __future__ import annotations

import abc
from typing import Any, Generator, List, Optional, Tuple

import numpy as np

from repro.config import WorkingSet
from repro.cluster.machine import Processor
from repro.cluster.messaging import Request
from repro.core.fastpath import PermBitmaps
from repro.memory.page import Protection
from repro.stats import Category

Span = Tuple[int, int, int]  # (page, start_within_page, length)


class DsmProtocol(abc.ABC):
    """Coherence, synchronization, and data access for one DSM system."""

    #: whether poll instrumentation costs apply to this run
    counts_polling = True

    #: installed by the program runner; a disabled tracer is free
    tracer = None

    #: permission bitmaps mirroring per-page ``perm`` state; every DSM
    #: protocol creates one in ``__init__`` (only the sequential run,
    #: where every page is always mapped, has none)
    perms: Optional[PermBitmaps] = None

    def trace(
        self,
        proc,
        kind: str,
        *,
        dur: float = 0.0,
        at: Optional[float] = None,
        **details,
    ) -> None:
        """Record a protocol event when tracing is enabled.

        ``dur > 0`` records a *span* that started ``dur`` microseconds
        ago (callers emit spans when they end); the tracer files it
        under its start time.  ``at`` stamps the event with a simulated
        time other than now — a merge of write notices is evaluated
        ahead of the occupancies it is charged (``Processor.busy_run``),
        and stamps each ``invalidate`` with the time it takes effect.
        See ``docs/OBSERVABILITY.md`` for the catalog of kinds and
        their ``details`` fields.
        """
        if self.tracer is not None and self.tracer.enabled:
            if at is None:
                at = proc.engine.now
            self.tracer.emit(at - dur, proc.pid, kind, dur=dur, **details)

    @property
    def tracing(self) -> bool:
        """True while an enabled tracer is installed: the hottest trace
        sites test it before building a :meth:`trace` call at all."""
        return self.tracer is not None and self.tracer.enabled

    # -- page access ------------------------------------------------------

    @abc.abstractmethod
    def ensure_read(self, proc: Processor, page: int) -> Generator:
        """Make ``page`` readable at ``proc`` (take a read fault if not)."""

    @abc.abstractmethod
    def ensure_write(self, proc: Processor, page: int) -> Generator:
        """Make ``page`` writable at ``proc`` (take a write fault if not)."""

    @abc.abstractmethod
    def page_data(self, proc: Processor, page: int) -> np.ndarray:
        """``proc``'s current mapping of ``page`` as a uint8 array.

        Only valid after :meth:`ensure_read` / :meth:`ensure_write`.
        """

    @abc.abstractmethod
    def apply_write(
        self, proc: Processor, page: int, start: int, raw: np.ndarray
    ) -> Generator:
        """Apply a write of ``raw`` bytes at ``start`` within ``page``.

        Cashmere doubles the write through to the home copy and charges
        the doubling sequence; TreadMarks writes the local copy only.
        """

    # -- fast-path layer ---------------------------------------------------
    #
    # The already-mapped case costs nothing on the paper's hardware (the
    # Alpha MMU only traps on actual protection faults), so the
    # simulation makes it O(1): one vectorized bitmap slice decides
    # whether a whole span is hot, and hot spans move bytes without
    # entering a single protocol generator.  Cold spans fall into the
    # ``ensure_*_span`` batched fault loops below, which preserve the
    # per-page event order, counters, and trace emission of the original
    # per-page loop exactly.

    def _set_perm(self, pid: int, page: int, holder, perm: Protection) -> None:
        """The single funnel for permission transitions: update the
        authoritative per-page state and the mirrored bitmap together."""
        holder.perm = perm
        self.perms.set(pid, page, perm)

    @abc.abstractmethod
    def fast_read(
        self, proc: Processor, space, offset: int, nbytes: int
    ) -> Optional[np.ndarray]:
        """The zero-cost read hit path.

        If every page spanned by ``[offset, offset+nbytes)`` is readable
        at ``proc``, gather the bytes across the page copies and return
        them; otherwise return None (the caller takes the fault path).
        A hot read is free and event-less under every protocol, so the
        gather is bit-identical to the per-page generator loop.
        """

    def fast_write(
        self, proc: Processor, space, offset: int, raw: np.ndarray
    ) -> bool:
        """The zero-cost write hit path: if every spanned page is
        writable, copy the bytes into the page copies and return True;
        False (no side effects) sends the caller down the fault path.
        Only protocols whose hot writes cost no simulated time and emit
        no events (TreadMarks/HLRC write the local copy only) override
        this; Cashmere keeps the default, because every shared write
        runs the doubled-write sequence even when no fault is taken."""
        return False

    @abc.abstractmethod
    def region_gather(self, proc: Processor, space, region):
        """Zero-cost region read driven by the region's cached span
        geometry: one fancy-indexed bitmap probe over every spanned
        page, then one copy per span.  Returns None (no side effects)
        when any page is cold — the caller takes the per-segment fault
        path."""

    def region_scatter(self, proc: Processor, space, region, raw) -> bool:
        """Zero-cost region write via cached span geometry, the
        region-shaped :meth:`fast_write`: False (no side effects) unless
        writes are free and every spanned page is writable.  Protocols
        with free writes override this."""
        return False

    def ensure_read_span(self, proc: Processor, lo: int, hi: int) -> Generator:
        """Fault in the cold pages of ``[lo, hi)``, in page order.

        Hot pages are skipped via the bitmap — ``ensure_read`` on a
        mapped page is a pure no-op (no time, no counters, no events),
        so the skip is invisible to the simulation.  The bitmap is
        consulted at each page's turn (not precomputed), because a fault
        on an earlier page may block and service requests that change
        later pages' state.
        """
        perms = self.perms
        for page in range(lo, hi):
            if not perms.readable_at(proc.pid, page):
                yield from self.ensure_read(proc, page)

    def ensure_write_span(
        self, proc: Processor, spans: List[Span], raw: np.ndarray
    ) -> Generator:
        """Write ``raw`` across ``spans``, faulting cold pages.

        Per-page event order is exactly that of the per-page loop: each
        page's fault (if any) is immediately followed by its
        ``apply_write``.  Interleaving matters — a fault on a later page
        can block and close the current interval (e.g. servicing a lock
        grant), and the bytes written to earlier pages must already be
        in place when that happens.  Only the no-op ``ensure_write``
        calls on already-writable pages may be elided.
        """
        raise NotImplementedError

    # -- software prefetch (docs/POLICIES.md) ------------------------------

    #: the run's prefetcher (``None`` = demand fetch only, the paper's
    #: behavior); protocols construct one from the run config's
    #: ``prefetch`` knob in ``__init__``
    prefetcher = None

    #: re-entrance guard: fetches issued by a prefetch never prefetch
    _prefetching = False

    def _after_fault(self, proc: Processor, page: int) -> Generator:
        """Issue the sharing policy's software prefetches after a demand
        fault on ``page``.

        With no prefetcher this yields nothing, and a generator that
        yields no events is invisible to the simulation — the default
        ``prefetch="none"`` policy is bit-identical by construction.
        Prefetched units are validated to READ without the demand-fault
        kernel trap (see :meth:`_prefetch_page`).
        """
        pf = self.prefetcher
        if pf is None or self._prefetching:
            return
        predicted = pf.predict(proc.pid, page, self.space.n_pages)
        if not predicted:
            return
        self._prefetching = True
        try:
            for unit in predicted:
                yield from self._prefetch_page(proc, unit)
        finally:
            self._prefetching = False

    def _prefetch_page(self, proc: Processor, page: int) -> Generator:
        """Bring ``page`` to READ at ``proc`` without charging the
        demand-fault trap (every protocol with a prefetcher)."""
        raise NotImplementedError

    def check_perm_bitmaps(self) -> None:
        """Assert the bitmaps agree with per-page ``perm`` state
        (subclasses supply the authoritative pairs via
        ``_perm_entries``)."""
        for pid in range(self.perms.nprocs):
            self.perms.expect(pid, self._perm_entries(pid))

    def _perm_entries(self, pid: int):
        """Authoritative ``(page, Protection)`` pairs for one processor
        (override in protocols that maintain bitmaps)."""
        return ()

    # -- synchronization ------------------------------------------------------

    @abc.abstractmethod
    def lock_acquire(self, proc: Processor, lock_id: int) -> Generator:
        """Acquire an application lock, with acquire-side consistency."""

    @abc.abstractmethod
    def lock_release(self, proc: Processor, lock_id: int) -> Generator:
        """Release an application lock, with release-side consistency."""

    @abc.abstractmethod
    def barrier(self, proc: Processor, barrier_id: int) -> Generator:
        """Global barrier with release+acquire consistency semantics."""

    @abc.abstractmethod
    def flag_set(self, proc: Processor, flag_id: int) -> Generator:
        """Producer side of a one-shot synchronization flag."""

    @abc.abstractmethod
    def flag_wait(self, proc: Processor, flag_id: int) -> Generator:
        """Consumer side of a one-shot synchronization flag."""

    # -- remote request service ----------------------------------------------

    @abc.abstractmethod
    def serve(self, proc: Processor, request: Request) -> Generator:
        """Handle one incoming remote request on ``proc``."""

    # -- one-sided data movement ----------------------------------------------

    def rdma_read(
        self, proc: Processor, from_node: int, nbytes: int
    ) -> Generator:
        """Pull ``nbytes`` out of ``from_node``'s memory with a one-sided
        remote read: wire time only, no remote CPU, no request/reply.

        Only valid when ``self.network.remote_reads`` is True (the
        caller gates on it); protocols use this to replace page/diff
        fetch round-trips on RDMA-class backends (docs/NETWORKS.md).
        The issuing processor blocks — servicing incoming requests
        meanwhile, like any fetch — until the data lands.
        """
        start = self.engine.now
        done = self.network.read(proc.node.nid, from_node, nbytes)
        proc.bump("rdma_reads")
        proc.bump("data_bytes", nbytes)
        arrived = self.engine.event()
        self.engine.succeed_at(done, arrived)
        yield from proc.wait(arrived, Category.COMM_WAIT)
        self.trace(
            proc,
            "rdma_read",
            dur=self.engine.now - start,
            nbytes=nbytes,
            from_node=from_node,
        )

    # -- cost modelling hooks ---------------------------------------------

    def compute_factors(self, ws: WorkingSet) -> tuple:
        """Cache-model multipliers for a compute phase.

        Returns ``(user_factor, total_factor, overhead_category)``:
        ``user_factor`` is the inherent cache cost of the phase (what the
        application would pay with no DSM system linked in);
        ``total_factor`` adds the protocol's extra cache footprint (write
        doubling for Cashmere, twins/diffs for TreadMarks); the
        difference is charged to ``overhead_category``.
        """
        return 1.0, 1.0, Category.PROTOCOL

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Called once before worker processes begin."""

    def prewarm(self) -> None:
        """The ``warm_start`` option (:class:`repro.config.RunConfig`):
        a no-op unless overridden.  The LRC protocols map every page
        read-only at every processor; Cashmere deliberately ignores
        ``warm_start`` — first-touch homing already makes first touches
        local (EXPERIMENTS.md, "warm starts")."""

    def check_invariants(self) -> None:
        """Debug hook: raise if internal state is inconsistent."""
