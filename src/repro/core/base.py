"""The protocol interface the DSM runtime drives, and its one hit path.

Cashmere, TreadMarks, HLRC and the sequential run implement this
interface.  Every method that consumes simulated time is a generator (it
yields simulation events); the runtime composes them with ``yield
from``.  The zero-cost access to already-mapped pages is written here,
once, over the per-processor page tables every protocol keeps.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import WorkingSet
from repro.cluster.machine import Processor
from repro.cluster.messaging import Request
from repro.core.fastpath import PermBitmaps
from repro.memory.page import Protection
from repro.stats import Category
from repro.stats.counters import EVENT_COUNTERS

Span = Tuple[int, int, int]  # (page, start_within_page, length)


class DsmProtocol(abc.ABC):
    """Coherence, synchronization, and data access for one DSM system."""

    #: installed by the program runner; a disabled tracer is free
    tracer = None

    #: permission bitmaps mirroring per-page ``perm`` state; every
    #: protocol, the sequential run included, creates one in ``__init__``
    perms: PermBitmaps

    #: one page table per processor, indexed by pid: ``page -> mapping``,
    #: where a mapping has ``.perm`` (the authoritative protection the
    #: bitmaps mirror) and ``.copy`` (the frame the processor reads and
    #: writes; None only when it has none — never fetched, or evicted)
    tables: Sequence[Dict[int, Any]]

    def record(
        self,
        proc,
        kind: str,
        *,
        dur: float = 0.0,
        at: Optional[float] = None,
        **details,
    ) -> None:
        """Count one protocol event and, when tracing, trace it.

        Increments the counter ``EVENT_COUNTERS`` pairs with ``kind``,
        if any.  ``dur > 0`` records a *span* that started ``dur``
        microseconds ago (callers record spans when they end); the
        tracer files it under its start time.  ``at`` stamps the event
        with a simulated time other than now — a merge of write notices
        is evaluated ahead of the occupancies it is charged
        (``Processor.busy_run``), and stamps each ``invalidate`` with
        the time it takes effect.  See ``docs/OBSERVABILITY.md`` for the
        catalog of kinds and their ``details`` fields.
        """
        counter = EVENT_COUNTERS.get(kind)
        if counter is not None:
            proc.bump(counter)
        if self.tracer is not None and self.tracer.enabled:
            if at is None:
                at = proc.engine.now
            self.tracer.emit(at - dur, proc.pid, kind, dur=dur, **details)

    @property
    def tracing(self) -> bool:
        """True while an enabled tracer is installed: the hottest
        uncounted sites test it before building a :meth:`record` call
        at all."""
        return self.tracer is not None and self.tracer.enabled

    # -- page access ------------------------------------------------------

    @abc.abstractmethod
    def ensure_read(self, proc: Processor, page: int) -> Generator:
        """Make ``page`` readable at ``proc`` (take a read fault if not)."""

    @abc.abstractmethod
    def ensure_write(self, proc: Processor, page: int) -> Generator:
        """Make ``page`` writable at ``proc`` (take a write fault if not)."""

    def page_data(self, proc: Processor, page: int) -> np.ndarray:
        """``proc``'s current frame of ``page`` as a uint8 array.

        Only valid after :meth:`ensure_read` / :meth:`ensure_write`.
        """
        entry = self.tables[proc.pid].get(page)
        if entry is None or not entry.perm.allows_read() or entry.copy is None:
            raise RuntimeError(
                f"p{proc.pid} touched page {page} without a mapping"
            )
        return entry.copy

    @abc.abstractmethod
    def apply_write(
        self, proc: Processor, page: int, start: int, raw: np.ndarray
    ) -> Generator:
        """Apply a write of ``raw`` bytes at ``start`` within ``page``.

        Cashmere doubles the write through to the home copy and charges
        the doubling sequence; TreadMarks writes the local copy only.
        """

    # -- the hit path -----------------------------------------------------
    #
    # The already-mapped case costs nothing on the paper's hardware (the
    # Alpha MMU only traps on actual protection faults), so the
    # simulation makes it O(1): the bitmaps decide whether a whole span
    # is hot, and hot spans move bytes straight between the caller and
    # the frames in ``tables`` without entering a single protocol
    # generator.  It is written once, here: protocols differ in what
    # their fault handlers do, never in where a mapped page's bytes live.
    # Cold spans fall into the ``ensure_*_span`` batched fault loops,
    # which preserve the per-page event order, counters, and trace
    # emission of the original per-page loop exactly.

    def _set_perm(self, pid: int, page: int, holder, perm: Protection) -> None:
        """The single funnel for permission transitions: update the
        authoritative per-page state and the mirrored bitmap together."""
        holder.perm = perm
        self.perms.set(pid, page, perm)

    def fast_read(
        self, proc: Processor, space, offset: int, nbytes: int
    ) -> Optional[np.ndarray]:
        """The zero-cost read hit path.

        If every page spanned by ``[offset, offset+nbytes)`` is readable
        at ``proc``, gather the bytes across the page frames and return
        them; otherwise return None (the caller takes the fault path).
        A hot read is free and event-less under every protocol, so the
        gather is bit-identical to the per-page generator loop.
        """
        if nbytes == 0:
            return np.empty(0, np.uint8)
        pid = proc.pid
        ps = space.page_size
        lo = offset // ps
        start = offset - lo * ps
        perms = self.perms
        if start + nbytes <= ps:  # single page: the common case
            try:
                readable = perms.r_rows[pid][lo]
            except IndexError:  # page past the bitmap: grow (tests only)
                perms.ensure_cap(lo + 1)
                readable = perms.r_rows[pid][lo]
            if not readable:
                return None
            return self.tables[pid][lo].copy[start : start + nbytes].copy()
        hi = (offset + nbytes - 1) // ps + 1
        perms.ensure_cap(hi)
        row = perms.r_rows[pid]
        for page in range(lo, hi):
            if not row[page]:
                return None
        table = self.tables[pid]
        out = np.empty(nbytes, np.uint8)
        end = offset + nbytes
        pos = 0
        addr = offset
        for page in range(lo, hi):
            start = addr - page * ps
            length = min(ps - start, end - addr)
            out[pos : pos + length] = table[page].copy[start : start + length]
            pos += length
            addr += length
        return out

    def fast_write(
        self, proc: Processor, space, offset: int, raw: np.ndarray
    ) -> bool:
        """The zero-cost write hit path: if every spanned page is
        writable, copy the bytes into the page frames and return True;
        False (no side effects) sends the caller down the fault path.
        A hot write is a local byte copy with no events wherever the
        protocol moves data at release (TreadMarks, HLRC) or not at all
        (the sequential run); Cashmere, whose every shared write runs
        the doubled-write sequence, overrides this to return False."""
        nbytes = raw.nbytes
        if nbytes == 0:
            return True
        pid = proc.pid
        ps = space.page_size
        lo = offset // ps
        start = offset - lo * ps
        perms = self.perms
        if start + nbytes <= ps:  # single page: the common case
            try:
                writable = perms.w_rows[pid][lo]
            except IndexError:  # page past the bitmap: grow (tests only)
                perms.ensure_cap(lo + 1)
                writable = perms.w_rows[pid][lo]
            if not writable:
                return False
            self.tables[pid][lo].copy[start : start + nbytes] = raw
            return True
        hi = (offset + nbytes - 1) // ps + 1
        perms.ensure_cap(hi)
        row = perms.w_rows[pid]
        for page in range(lo, hi):
            if not row[page]:
                return False
        table = self.tables[pid]
        end = offset + nbytes
        pos = 0
        addr = offset
        for page in range(lo, hi):
            start = addr - page * ps
            length = min(ps - start, end - addr)
            table[page].copy[start : start + length] = raw[pos : pos + length]
            pos += length
            addr += length
        return True

    def region_gather(self, proc: Processor, space, region):
        """Zero-cost region read driven by the region's cached span
        geometry: one fancy-indexed bitmap probe over every spanned
        page, then one copy per span.  Returns None (no side effects)
        when any page is cold — the caller takes the per-segment fault
        path."""
        pid = proc.pid
        if not self.perms.read_ready_pages(pid, region.span_pages()):
            return None
        table = self.tables[pid]
        out = np.empty(region.nbytes, np.uint8)
        pos = 0
        for page, start, length in region.page_spans():
            out[pos : pos + length] = table[page].copy[start : start + length]
            pos += length
        return out

    def region_scatter(self, proc: Processor, space, region, raw) -> bool:
        """Zero-cost region write via cached span geometry, the
        region-shaped :meth:`fast_write`: False (no side effects) unless
        every spanned page is writable."""
        pid = proc.pid
        if not self.perms.write_ready_pages(pid, region.span_pages()):
            return False
        table = self.tables[pid]
        pos = 0
        for page, start, length in region.page_spans():
            table[page].copy[start : start + length] = raw[pos : pos + length]
            pos += length
        return True

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
        in place when that happens.  Hot pages skip the generator pair:
        where :meth:`fast_write` holds, a writable page's
        ``apply_write`` is a local byte copy with no events and no other
        side effects.  The bitmap is consulted at each page's turn
        because an earlier fault can block and change later pages'
        state.
        """
        pid = proc.pid
        table = self.tables[pid]
        perms = self.perms
        pos = 0
        for page, start, length in spans:
            try:
                writable = perms.w_rows[pid][page]
            except IndexError:  # page past the bitmap: grow (tests only)
                perms.ensure_cap(page + 1)
                writable = perms.w_rows[pid][page]
            if writable:
                table[page].copy[start : start + length] = raw[
                    pos : pos + length
                ]
            else:
                yield from self.ensure_write(proc, page)
                yield from self.apply_write(
                    proc, page, start, raw[pos : pos + length]
                )
            pos += length

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

    def check_page_tables(self) -> None:
        """Assert every processor's page table is coherent: the bitmaps
        agree with each mapping's ``perm``, every readable mapping has a
        frame, and every writable frame is private (a shared warm frame
        is read-only until :func:`~repro.memory.page.own_copy`)."""
        for pid, table in enumerate(self.tables):
            self.perms.expect(
                pid, ((page, entry.perm) for page, entry in table.items())
            )
            for page, entry in table.items():
                perm = entry.perm
                if perm.allows_read() and entry.copy is None:
                    raise AssertionError(
                        f"p{pid}: page {page} readable without a frame"
                    )
                if perm.allows_write() and not entry.copy.flags.writeable:
                    raise AssertionError(
                        f"p{pid}: page {page} writable through a shared frame"
                    )

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
        proc.bump("data_bytes", nbytes)
        arrived = self.engine.event()
        self.engine.succeed_at(done, arrived)
        yield from proc.wait(arrived, Category.COMM_WAIT)
        self.record(
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
