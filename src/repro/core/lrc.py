"""Shared machinery for lazy-release-consistency protocols.

TreadMarks (``repro.core.treadmarks``) and home-based LRC
(``repro.core.hlrc``) share everything about *when* consistency
information moves — vector timestamps, interval records, write notices,
distributed locks, a group-leader barrier, owner-resident flags,
and record garbage collection — and one page-fault path, with one twin
pool.  They differ in *how data* moves (lazy diffs vs. eager diffs to a
home), which subclasses provide through ``_validate_page``, their
release and serve paths, and the hooks at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.config import RunConfig, WorkingSet
from repro.cluster.machine import Cluster, Processor
from repro.cluster.messaging import Messenger, Request
from repro.cluster.network import MemoryChannel
from repro.cluster.cache import CacheModel
from repro.core.base import DsmProtocol
from repro.core.fastpath import PermBitmaps
from repro.core.intervals import (
    IntervalRecord,
    IntervalStore,
    vts_max,
)
from repro.memory.address_space import AddressSpace
from repro.memory.page import Protection, own_copy, shared_frame
from repro.sim import Engine, Event
from repro.stats import Category, StatsBoard

LOCK_ACQUIRE = "lrc_lock_acquire"
BARRIER_ARRIVE = "lrc_barrier_arrive"
BARRIER_GROUP = "lrc_barrier_group"  # leader -> root combined arrival
FLAG_WAIT = "lrc_flag_wait"

# Garbage collection of consistency records triggers at the next barrier
# once this many interval records have accumulated.
GC_RECORD_THRESHOLD = 4096
GC_BARRIER_ID = -0x6C  # reserved internal barrier for the flush round

_PAGES = attrgetter("pages")


@dataclass
class LockState:
    """Per-processor view of one distributed lock."""

    owns_token: bool = False
    holding: bool = False
    successor: Optional[Request] = None


@dataclass
class BarrierState:
    """Arrival collection at a group leader or the root."""

    arrivals: List[Request] = field(default_factory=list)
    complete: Optional[Event] = None


@dataclass
class FlagState:
    """A one-shot flag at its owning processor."""

    is_set: bool = False
    waiters: List[Request] = field(default_factory=list)
    local_event: Optional[Event] = None


@dataclass
class LrcProcState:
    """Consistency state every LRC processor carries."""

    vts: List[int]
    store: IntervalStore
    notices: set = field(default_factory=set)  # pages written this interval
    # The page table (``DsmProtocol.tables``): page -> a ``page_type``
    # record (the subclass's), which carries ``perm`` and ``copy``.
    pages: Dict[int, Any] = field(default_factory=dict)
    locks: Dict[int, LockState] = field(default_factory=dict)
    flags: Dict[int, FlagState] = field(default_factory=dict)
    manager_guess: Optional[Tuple[int, ...]] = None
    page_type = None

    def page(self, page_idx: int):
        found = self.pages.get(page_idx)
        if found is None:
            found = self.pages[page_idx] = self.page_type()
        return found

    def lock(self, lock_id: int) -> LockState:
        found = self.locks.get(lock_id)
        if found is None:
            found = LockState()
            self.locks[lock_id] = found
        return found

    def flag(self, flag_id: int) -> FlagState:
        found = self.flags.get(flag_id)
        if found is None:
            found = FlagState()
            self.flags[flag_id] = found
        return found


class LrcProtocolBase(DsmProtocol):
    """Interval/synchronization engine common to all LRC protocols."""

    #: per-run GC threshold (subclasses or tests may override)
    gc_record_threshold = GC_RECORD_THRESHOLD

    #: True when other processors read and write this processor's page
    #: state mid-occupancy — HLRC's home migration under
    #: ``homing="dynamic"`` — so neither a write-notice merge
    #: (:meth:`_note_record`) nor a twin may be evaluated ahead of its
    #: own occupancies.
    _dynamic_homing = False

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        network: MemoryChannel,
        messenger: Messenger,
        space: AddressSpace,
        stats: StatsBoard,
        run_cfg: RunConfig,
    ):
        self.engine = engine
        self.cluster = cluster
        self.network = network
        self.messenger = messenger
        self.space = space
        self.stats = stats
        self.cfg = run_cfg
        self.costs = run_cfg.costs
        self.cache = CacheModel(self.costs)
        self.nprocs = cluster.nprocs
        self.perms = PermBitmaps(cluster.nprocs, space.n_pages)
        self.procs = {
            p.pid: self._make_proc_state() for p in cluster.procs
        }
        self.tables = [self.procs[pid].pages for pid in range(self.nprocs)]
        self.prefetcher = run_cfg.make_prefetcher()
        self._twin_pool: List[np.ndarray] = []  # see ``_retire_twin``
        self.lock_last_owner: Dict[int, int] = {}
        # (barrier_id, kind, collecting pid) -> arrivals so far
        self.barriers: Dict[tuple, BarrierState] = {}
        # Group-leader barrier topology: ranks are partitioned
        # into contiguous groups of ``lrc_barrier_group``; members arrive
        # at their group leader, leaders forward one combined arrival to
        # the root (rank 0), and releases fan back out the same way.
        # One group (the default at <= 32 processors) is the paper's
        # centralized barrier manager.
        size = run_cfg.lrc_barrier_group
        self._bleader = [(pid // size) * size for pid in range(self.nprocs)]
        leaders = range(0, self.nprocs, size)
        # (kind, collecting pid) -> how many arrivals complete a stage
        self._bexpected = {(BARRIER_GROUP, 0): len(leaders) - 1}
        for leader in leaders:
            members = min(leader + size, self.nprocs) - leader - 1
            self._bexpected[BARRIER_ARRIVE, leader] = members

    # -- state construction (subclass hook) -----------------------------

    def _make_proc_state(self) -> LrcProcState:
        return LrcProcState(
            vts=[0] * self.cluster.nprocs,
            store=IntervalStore(self.cluster.nprocs),
        )

    # -- small helpers ---------------------------------------------------

    def _state(self, proc: Processor):
        return self.procs[proc.pid]

    # -- the fault path --------------------------------------------------
    #
    # One fault path for both LRC protocols.  What differs is how an
    # invalid page is brought up to date (``_validate_page``: TreadMarks
    # pulls diffs from the writers, HLRC fetches the page from its home)
    # and the hooks below it.

    def ensure_read(self, proc: Processor, page_idx: int) -> Generator:
        page = self._state(proc).page(page_idx)
        if page.perm.allows_read():
            return
        self.record(proc, "read_fault", page=page_idx)
        yield from proc.busy(self.costs.page_fault, Category.PROTOCOL)
        yield from self._on_fault(proc, page_idx)
        yield from self._validate_page(proc, page_idx, page)
        self._set_perm(proc.pid, page_idx, page, Protection.READ)
        yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)
        yield from self._after_fault(proc, page_idx)

    def ensure_write(self, proc: Processor, page_idx: int) -> Generator:
        state = self._state(proc)
        page = state.page(page_idx)
        if page.perm.allows_write():
            return
        self.record(proc, "write_fault", page=page_idx)
        yield from proc.busy(self.costs.page_fault, Category.PROTOCOL)
        yield from self._on_fault(proc, page_idx)
        if not page.perm.allows_read():
            yield from self._validate_page(proc, page_idx, page)
        # Twinning and re-protecting touch only this processor's own
        # state, so the two occupancies are one run (one wake).
        run = []
        if page.twin is None and self._needs_twin(proc.pid, page_idx):
            copy = own_copy(page)  # a warm frame is shared until now
            pool = self._twin_pool
            if pool:
                twin = pool.pop()
                np.copyto(twin, copy)
                page.twin = twin
            else:
                page.twin = copy.copy()
            self.record(proc, "twin", page=page_idx)
            run.append(self.costs.twin_cost(self.space.page_size))
            if self._dynamic_homing:
                # A migration check elsewhere reads ``perm``: it may
                # not turn writable before the twin's time has passed.
                yield from proc.busy_run(run, Category.PROTOCOL)
                run = []
        state.notices.add(page_idx)
        self._set_perm(proc.pid, page_idx, page, Protection.READ_WRITE)
        run.append(self.costs.mprotect)
        yield from proc.busy_run(run, Category.PROTOCOL)

    def _retire_twin(self, page) -> None:
        """Drop ``page``'s twin into the pool ``ensure_write`` draws from.

        Host-only recycling: a retired twin is always a full page, so
        buffers are interchangeable and simulated results never see it.
        """
        self._twin_pool.append(page.twin)
        page.twin = None

    def _prefetch_page(self, proc: Processor, page_idx: int) -> Generator:
        """Software prefetch: re-validate an invalidated unit to READ
        without the demand-fault kernel trap.  Re-validation only: a
        unit with no stale copy here (or one the protocol rules out, see
        :meth:`_prefetch_candidate`) is skipped, so cold first touches
        and placement stay with demand faults."""
        page = self._prefetch_candidate(proc, page_idx)
        if page is None or page.copy is None or page.perm.allows_read():
            return
        self.record(proc, "prefetch", page=page_idx)
        yield from self._validate_page(proc, page_idx, page)
        self._set_perm(proc.pid, page_idx, page, Protection.READ)
        yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)

    def apply_write(
        self, proc: Processor, page_idx: int, start: int, raw: np.ndarray
    ) -> Generator:
        page = self._state(proc).page(page_idx)
        if not page.perm.allows_write():
            raise RuntimeError(
                f"p{proc.pid} wrote page {page_idx} without permission"
            )
        page.copy[start : start + len(raw)] = raw
        return
        yield  # pragma: no cover - writes are local; diffs move at release

    def _lock_manager(self, lock_id: int) -> int:
        return lock_id % self.nprocs

    def _flag_owner(self, flag_id: int) -> int:
        return flag_id % self.nprocs

    def _records_size(self, records: List[IntervalRecord]) -> int:
        """Wire bytes of ``records`` plus the sender's timestamp: the sum
        of :meth:`IntervalRecord.encoded_size`, every record carrying a
        full ``nprocs``-entry timestamp."""
        per = self.costs
        vts_bytes = per.vts_entry_bytes * self.nprocs
        notices = sum(map(len, map(_PAGES, records)))
        return (
            (per.interval_record_bytes + vts_bytes) * len(records)
            + per.write_notice_bytes * notices
            + vts_bytes
        )

    # -- intervals ---------------------------------------------------------

    def _close_interval(self, proc: Processor) -> Generator:
        """End the current interval if it performed any writes."""
        state = self._state(proc)
        if not state.notices:
            return
        iid = state.vts[proc.pid] + 1
        state.vts[proc.pid] = iid
        record = IntervalRecord(
            proc=proc.pid,
            iid=iid,
            vts=tuple(state.vts),
            pages=tuple(sorted(state.notices)),
        )
        state.store.insert(record)
        self.record(proc, "interval_close", iid=iid, pages=len(record.pages))
        pages, _ = record.pages, state.notices.clear()
        yield from proc.busy(2.0, Category.PROTOCOL)  # bookkeeping
        yield from self._on_interval_closed(proc, pages)

    def _incorporate(
        self, proc: Processor, records: List[IntervalRecord]
    ) -> Generator:
        """Merge received interval records; invalidate noticed pages.

        The whole merge is one run of uninterruptible occupancies — a
        record's processing time, then an ``mprotect`` per page it
        invalidates — and between them only ``proc``'s private state
        changes, so the run is slept through with a single wake
        (:meth:`Processor.busy_run`).  The exception is a hook that
        reads state other processors write (:attr:`_dynamic_homing`):
        there the run so far is slept out before every single notice is
        evaluated, which is the one-wake-per-occupancy schedule.
        """
        state = self._state(proc)
        note = self._note_record
        vts = state.vts
        interval_process = self.costs.interval_process
        per_notice = self._dynamic_homing
        run: List[float] = []  # occupancies not yet slept through
        at = self.engine.now  # simulated time once ``run`` has elapsed
        # Only this processor reads its store, so the batch is admitted
        # up front; the notices are then examined record by record.
        for record in state.store.admit(records):
            run.append(interval_process)
            at += interval_process
            if record.iid > vts[record.proc]:
                vts[record.proc] = record.iid
            if not per_notice:
                at = note(proc, record, at, run)
                continue
            for page_idx in record.pages:
                yield from proc.busy_run(run, Category.PROTOCOL)
                run = []
                at = note(proc, replace(record, pages=(page_idx,)), at, run)
        yield from proc.busy_run(run, Category.PROTOCOL)

    # -- locks -------------------------------------------------------------

    def _ensure_lock_init(self, lock_id: int) -> None:
        """The manager starts out holding each lock's token."""
        if lock_id not in self.lock_last_owner:
            manager = self._lock_manager(lock_id)
            self.lock_last_owner[lock_id] = manager
            self.procs[manager].lock(lock_id).owns_token = True

    def lock_acquire(self, proc: Processor, lock_id: int) -> Generator:
        self._ensure_lock_init(lock_id)
        state = self._state(proc)
        lock = state.lock(lock_id)
        manager = self._lock_manager(lock_id)
        if lock.owns_token:
            # Re-acquiring our own cached lock: no messages, no new
            # consistency information.
            lock.holding = True
            return
        if manager == proc.pid:
            owner = self.lock_last_owner[lock_id]
            self.lock_last_owner[lock_id] = proc.pid
            target = self.cluster.proc(owner)
        else:
            target = self.cluster.proc(manager)
        reply = yield from self.messenger.request(
            proc,
            target,
            LOCK_ACQUIRE,
            payload=(lock_id, tuple(state.vts)),
            size=self.costs.vts_entry_bytes * self.nprocs,
        )
        records, owner_vts = reply
        yield from self._incorporate(proc, records)
        state.vts[:] = vts_max(state.vts, owner_vts)
        lock.owns_token = True
        lock.holding = True

    def lock_release(self, proc: Processor, lock_id: int) -> Generator:
        state = self._state(proc)
        lock = state.lock(lock_id)
        if not lock.holding:
            raise RuntimeError(f"p{proc.pid} releasing unheld lock {lock_id}")
        yield from self._on_lock_release(proc)
        lock.holding = False
        if lock.successor is not None:
            successor, lock.successor = lock.successor, None
            yield from self._grant_lock(proc, lock, successor)
        return

    def _grant_lock(
        self, proc: Processor, lock: LockState, request: Request
    ) -> Generator:
        """Pass the lock token (and unseen intervals) to a requester."""
        lock_id, requester_vts = request.payload
        state = self._state(proc)
        yield from self._close_interval(proc)
        records = state.store.records_after(requester_vts)
        self.record(
            proc,
            "lock_grant",
            lock=lock_id,
            to=request.requester.pid,
            records=len(records),
        )
        lock.owns_token = False
        yield from self.messenger.reply(
            proc,
            request,
            payload=(records, tuple(state.vts)),
            size=self._records_size(records),
        )

    def _serve_lock_acquire(
        self, proc: Processor, request: Request
    ) -> Generator:
        lock_id, _requester_vts = request.payload
        self._ensure_lock_init(lock_id)
        if (
            proc.pid == self._lock_manager(lock_id)
            and self.lock_last_owner[lock_id] != proc.pid
        ):
            owner = self.lock_last_owner[lock_id]
            self.lock_last_owner[lock_id] = request.requester.pid
            yield from self.messenger.forward(
                proc, self.cluster.proc(owner), request
            )
            return
        if proc.pid == self._lock_manager(lock_id):
            self.lock_last_owner[lock_id] = request.requester.pid
        state = self._state(proc)
        lock = state.lock(lock_id)
        if lock.successor is not None:
            raise RuntimeError(
                f"lock {lock_id}: two successors queued at p{proc.pid}"
            )
        if lock.owns_token and not lock.holding:
            yield from self._grant_lock(proc, lock, request)
        else:
            lock.successor = request

    # -- barriers ------------------------------------------------------------

    def _barrier_state(self, key: tuple) -> BarrierState:
        found = self.barriers.get(key)
        if found is None:
            found = BarrierState(complete=self.engine.event())
            self.barriers[key] = found
        return found

    def barrier(self, proc: Processor, barrier_id: int) -> Generator:
        """A member arrives at its group leader.  A leader collects its
        group; the root (rank 0) also collects the other leaders,
        decides the GC round and releases them, while any other leader
        forwards one :data:`BARRIER_GROUP` arrival to the root.  Every
        leader then releases its members.  One group is the paper's
        barrier manager; ~sqrt(P) groups keep any processor's reply
        count at ``group + leaders``."""
        yield from self._close_interval(proc)
        self.record(proc, "barrier_arrive", barrier=barrier_id)
        pid = proc.pid
        leader = self._bleader[pid]
        if pid != leader:
            gc_round = yield from self._barrier_arrive(
                proc, leader, BARRIER_ARRIVE, barrier_id
            )
        else:
            members = yield from self._barrier_collect(
                proc, BARRIER_ARRIVE, barrier_id
            )
            if pid == 0:
                leaders = yield from self._barrier_collect(
                    proc, BARRIER_GROUP, barrier_id
                )
                state = self._state(proc)
                state.manager_guess = tuple(state.vts)
                gc_round = (
                    barrier_id != GC_BARRIER_ID
                    and state.store.record_count() > self.gc_record_threshold
                )
                yield from self._barrier_release(proc, leaders, gc_round)
            else:
                gc_round = yield from self._barrier_arrive(
                    proc, 0, BARRIER_GROUP, barrier_id
                )
            yield from self._barrier_release(proc, members, gc_round)
        if gc_round:
            yield from self._gc_flush(proc)

    def _barrier_arrive(
        self, proc: Processor, to: int, kind: str, barrier_id: int
    ) -> Generator:
        """Send this processor's records past its last merged timestamp
        to ``to``; incorporate the release.  Returns the GC decision."""
        state = self._state(proc)
        guess = state.manager_guess or (0,) * self.nprocs
        records = state.store.records_after(guess)
        reply = yield from self.messenger.request(
            proc,
            self.cluster.proc(to),
            kind,
            payload=(barrier_id, tuple(state.vts), records),
            size=self._records_size(records),
        )
        new_records, merged, gc_round = reply
        yield from self._incorporate(proc, new_records)
        state.vts[:] = vts_max(state.vts, merged)
        state.manager_guess = merged
        return gc_round

    def _barrier_collect(
        self, proc: Processor, kind: str, barrier_id: int
    ) -> Generator:
        """Wait for every ``kind`` arrival due at this processor and
        incorporate their records.  Returns the arrivals."""
        if not self._bexpected[kind, proc.pid]:
            return []
        key = (barrier_id, kind, proc.pid)
        stage = self._barrier_state(key)
        yield from proc.wait(stage.complete, Category.COMM_WAIT)
        # Reset before replying: released processors may re-arrive.
        del self.barriers[key]
        for request in stage.arrivals:
            _bid, _vts, records = request.payload
            yield from self._incorporate(proc, records)
        return stage.arrivals

    def _barrier_release(
        self, proc: Processor, arrivals: List[Request], gc_round: bool
    ) -> Generator:
        """Reply to each arrival with the records it lacks."""
        state = self._state(proc)
        merged = state.manager_guess
        for request in arrivals:
            _bid, arriver_vts, _records = request.payload
            records = state.store.records_after(arriver_vts)
            yield from self.messenger.reply(
                proc,
                request,
                payload=(records, merged, gc_round),
                size=self._records_size(records),
            )

    def _serve_barrier_arrive(self, proc: Processor, request: Request) -> None:
        key = (request.payload[0], request.kind, proc.pid)
        stage = self._barrier_state(key)
        stage.arrivals.append(request)
        if len(stage.arrivals) == self._bexpected[key[1:]]:
            stage.complete.succeed()

    # -- flags ------------------------------------------------------------------

    def flag_set(self, proc: Processor, flag_id: int) -> Generator:
        state = self._state(proc)
        if self._flag_owner(flag_id) != proc.pid:
            raise RuntimeError(
                f"flag {flag_id} must be set by its owner "
                f"p{self._flag_owner(flag_id)}, not p{proc.pid}"
            )
        yield from self._close_interval(proc)
        flag = state.flag(flag_id)
        flag.is_set = True
        if flag.local_event is not None and not flag.local_event.triggered:
            flag.local_event.succeed()
        waiters, flag.waiters = flag.waiters, []
        for request in waiters:
            _fid, waiter_vts = request.payload
            records = state.store.records_after(waiter_vts)
            yield from self.messenger.reply(
                proc,
                request,
                payload=(records, tuple(state.vts)),
                size=self._records_size(records),
            )

    def flag_wait(self, proc: Processor, flag_id: int) -> Generator:
        state = self._state(proc)
        owner = self._flag_owner(flag_id)
        if owner == proc.pid:
            flag = state.flag(flag_id)
            if not flag.is_set:
                if flag.local_event is None:
                    flag.local_event = self.engine.event()
                yield from proc.wait(flag.local_event, Category.COMM_WAIT)
            return
        reply = yield from self.messenger.request(
            proc,
            self.cluster.proc(owner),
            FLAG_WAIT,
            payload=(flag_id, tuple(state.vts)),
            size=self.costs.vts_entry_bytes * self.nprocs,
        )
        records, owner_vts = reply
        yield from self._incorporate(proc, records)
        state.vts[:] = vts_max(state.vts, owner_vts)

    def _serve_flag_wait(self, proc: Processor, request: Request) -> Generator:
        flag_id, waiter_vts = request.payload
        state = self._state(proc)
        flag = state.flag(flag_id)
        if flag.is_set:
            records = state.store.records_after(waiter_vts)
            yield from self.messenger.reply(
                proc,
                request,
                payload=(records, tuple(state.vts)),
                size=self._records_size(records),
            )
        else:
            flag.waiters.append(request)

    # -- garbage collection ----------------------------------------------------

    def _gc_flush(self, proc: Processor) -> Generator:
        """Collect interval records once every processor has flushed
        whatever page state depends on them (subclass hook)."""
        state = self._state(proc)
        self.record(proc, "gc_flush")
        yield from self._gc_flush_pages(proc)
        if self.nprocs > 1:
            # A full synchronization round guarantees every outstanding
            # data request has been served before records are dropped.
            yield from self.barrier(proc, GC_BARRIER_ID)
        state.store.collect(state.vts)
        yield from self._gc_drop_caches(proc)

    # -- cost modelling ----------------------------------------------------------

    def compute_factors(self, ws: WorkingSet):
        """Twins add their footprint to every compute phase's cache cost."""
        user = self.cache.total_factor(ws)
        total = self.cache.total_factor(ws, ws.twin, ws.twin_l2)
        return user, total, Category.PROTOCOL

    # -- request dispatch --------------------------------------------------------

    def serve(self, proc: Processor, request: Request) -> Generator:
        if request.kind == LOCK_ACQUIRE:
            yield from self._serve_lock_acquire(proc, request)
        elif request.kind in (BARRIER_ARRIVE, BARRIER_GROUP):
            self._serve_barrier_arrive(proc, request)
        elif request.kind == FLAG_WAIT:
            yield from self._serve_flag_wait(proc, request)
        else:
            yield from self._serve_data(proc, request)

    # -- subclass hooks -----------------------------------------------------------

    def _on_fault(self, proc: Processor, page_idx: int):
        """Run after a fault's trap, before the page is validated.
        TreadMarks does nothing; HLRC places the page's home."""
        return ()

    def _needs_twin(self, pid: int, page_idx: int) -> bool:
        """Whether a first write of the interval twins the page.  Only
        HLRC's home says no: it writes the authoritative copy in place."""
        return True

    def _prefetch_candidate(self, proc: Processor, page_idx: int):
        """The page state a prefetch of ``page_idx`` would validate, or
        None to skip the unit.  Must create no page state the protocol
        would not otherwise create."""
        raise NotImplementedError

    def _validate_page(self, proc: Processor, page_idx: int, page) -> Generator:
        """Bring an invalid page's copy up to date."""
        raise NotImplementedError

    def _on_lock_release(self, proc: Processor) -> Generator:
        """Release-side processing for locks.  TreadMarks is fully lazy
        (the interval closes only when the token is granted); home-based
        LRC closes the interval here to push diffs home eagerly."""
        return
        yield  # pragma: no cover

    def _on_interval_closed(self, proc: Processor, pages) -> Generator:
        """Called after an interval closes, with its written pages."""
        return
        yield  # pragma: no cover

    def _note_record(
        self,
        proc: Processor,
        record: IntervalRecord,
        at: float,
        run: List[float],
    ) -> float:
        """``record``'s write notices entered ``proc``'s past.

        Synchronous (the hottest hook: once per new record per
        incorporating processor).  Invalidates what the notices make
        stale and appends the protocol occupancies it costs, in order,
        straight onto ``run`` — the merge's not-yet-slept run, which the
        caller sleeps through and charges as one wake — one
        ``costs.mprotect`` per page invalidated, nothing for the common
        nothing-to-do notice.  ``at`` is the simulated time at which the
        first notice is examined (the wake itself comes later); returns
        ``at`` advanced by each occupancy appended, the left-to-right
        float fold ``Processor.busy_run`` makes.  Trace events are
        stamped from it, and built only while a tracer is enabled.
        """
        raise NotImplementedError

    def _serve_data(self, proc: Processor, request: Request) -> Generator:
        """Handle the data-movement request kinds of the subclass."""
        raise NotImplementedError

    def _gc_flush_pages(self, proc: Processor) -> Generator:
        """Bring page state up to date so records can be dropped."""
        return
        yield  # pragma: no cover

    def _gc_drop_caches(self, proc: Processor) -> Generator:
        """Drop collected data (diff caches etc.)."""
        return
        yield  # pragma: no cover

    # -- warm start ------------------------------------------------------------------

    def prewarm(self) -> None:
        """Map every page ``READ`` at every processor, modelling a long
        run whose cold distribution is already amortized.  Copy-on-
        write: all processors map one read-only frame per page (a view
        of the backing store) until :func:`own_copy` gives a mutator its
        private copy.  HLRC homes stay unassigned, so the first
        post-warm *fault* (normally a write) places each home."""
        frames = [
            shared_frame(self.space.backing_page(page_idx))
            for page_idx in range(self.space.n_pages)
        ]
        for pid, state in self.procs.items():
            for page_idx, frame in enumerate(frames):
                page = state.page(page_idx)
                page.copy = frame
                self._set_perm(pid, page_idx, page, Protection.READ)

    # -- invariants -----------------------------------------------------------------

    def check_invariants(self) -> None:
        self.check_page_tables()
        for pid, state in self.procs.items():
            # The ownership rule: only a private copy is ever mutated (a
            # twinned page is diffed against, so its copy is mutable).
            for page_idx, page in state.pages.items():
                twin = page.twin
                if twin is not None and not (
                    page.copy.flags.writeable and twin.flags.writeable
                ):
                    raise AssertionError(
                        f"p{pid}: page {page_idx} is written through a "
                        "shared frame"
                    )
            for other in range(self.nprocs):
                latest = state.store.latest(other)
                if other == pid:
                    if latest != state.vts[pid]:
                        raise AssertionError(
                            f"p{pid}: own interval chain at {latest} but "
                            f"vts says {state.vts[pid]}"
                        )
                elif state.vts[other] != latest:
                    raise AssertionError(
                        f"p{pid}: vts[{other}]={state.vts[other]} but "
                        f"store knows {latest}"
                    )
