"""The Cashmere coherence protocol (Section 2.1 / 3.3 of the paper).

Key mechanics, all reproduced here:

* a replicated page directory updated by Memory Channel broadcast;
* home nodes assigned by first touch after initialization;
* every shared write *doubled* to the home node's copy (write-through),
  so the home copy is always current and concurrent writers merge at
  word granularity;
* per-processor write-notice and no-longer-exclusive (NLE) lists in MC
  space;
* *exclusive mode*: a page whose releaser finds no other sharers stops
  paying write faults and notices until someone else touches it;
* page data moves by asking a processor at the home node to write the
  page through the Memory Channel (no remote reads on MC1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

import numpy as np

from repro.config import RunConfig, WorkingSet
from repro.cluster.machine import Cluster, Processor
from repro.cluster.messaging import Messenger, Request
from repro.cluster.network import MemoryChannel
from repro.cluster.cache import CacheModel
from repro.core.base import DsmProtocol
from repro.core.cashmere.directory import Directory, DirectoryEntry
from repro.core.fastpath import PermBitmaps
from repro.core.cashmere.lists import NoticeList
from repro.core.cashmere.sync import SyncTable
from repro.memory import policy as sharing_policy
from repro.memory.address_space import AddressSpace
from repro.memory.page import Protection
from repro.sim import Engine
from repro.stats import Category, StatsBoard

PAGE_FETCH = "csm_page_fetch"


@dataclass
class PageEntry:
    """One processor's mapping of one page."""

    perm: Protection = Protection.NONE
    copy: Optional[np.ndarray] = None  # None while mapped to the home copy


@dataclass
class ProcState:
    """Cashmere per-processor protocol state."""

    write_notices: NoticeList = field(default_factory=NoticeList)
    nle: NoticeList = field(default_factory=NoticeList)
    dirty: list = field(default_factory=list)
    flush_due: float = 0.0  # write-through drain deadline
    # Last fault-time per page (memory-pressure eviction, PR 7): only
    # maintained when ``node_mem_pages`` is set — a "cold" copy is the
    # one whose last *fault* is oldest (hot hits are event-free and are
    # deliberately not instrumented).
    touch: Dict[int, float] = field(default_factory=dict)


class CashmereProtocol(DsmProtocol):
    """Directory-based multi-writer release consistency over MC."""

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
        n_shards = run_cfg.resolved_dir_shards
        self.directory = Directory(n_shards)
        # Shard-home map (PR 7): shard s is anchored at the s-th active
        # node (round-robin).  None = legacy replicated directory with
        # broadcast updates.
        if n_shards > 1:
            active = [n.nid for n in cluster.nodes if n.processors]
            self._shard_homes: Optional[list] = [
                active[s % len(active)] for s in range(n_shards)
            ]
        else:
            self._shard_homes = None
        # Per-node page-copy budget (PR 7): None = unlimited.
        self._mem_limit = run_cfg.node_mem_pages
        self.sync = SyncTable(
            engine,
            network,
            self.costs,
            cluster.nprocs,
            run_cfg.resolved_barrier_fanin,
        )
        self.procs: Dict[int, ProcState] = {
            p.pid: ProcState() for p in cluster.procs
        }
        self.entries: Dict[int, Dict[int, PageEntry]] = {
            p.pid: {} for p in cluster.procs
        }
        self.master: Dict[int, np.ndarray] = {}
        self.perms = PermBitmaps(cluster.nprocs, space.n_pages)
        self.prefetcher = run_cfg.make_prefetcher()
        # Placement and migration rules, keyed by node id; round-robin
        # homes rotate over the active nodes in assignment order.
        rotation = itertools.cycle(
            [n.nid for n in cluster.nodes if n.processors]
        )
        self.home_table = sharing_policy.HomeTable(
            run_cfg.homing, round_robin=lambda unit: next(rotation)
        )

    # ------------------------------------------------------------------
    # page table helpers
    # ------------------------------------------------------------------

    def _entry(self, pid: int, page: int) -> PageEntry:
        table = self.entries[pid]
        found = table.get(page)
        if found is None:
            found = PageEntry()
            table[page] = found
        return found

    def _master_page(self, page: int) -> np.ndarray:
        data = self.master.get(page)
        if data is None:
            data = self.space.backing_page(page).copy()
            self.master[page] = data
        return data

    def _is_home(self, proc: Processor, entry: DirectoryEntry) -> bool:
        return entry.home_node == proc.node.nid

    # -- hit path --------------------------------------------------------
    #
    # The bitmap has already vouched for read permission, so a hot read
    # goes straight to the page-table entry (home processors read the
    # master copy they alias).  There is no ``fast_write`` or
    # ``region_scatter``: every Cashmere shared write runs the
    # doubled-write sequence even when no fault is taken.

    def fast_read(self, proc, space, offset, nbytes):
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
            data = self.entries[pid][lo].copy
            if data is None:
                data = self._master_page(lo)
            return data[start : start + nbytes].copy()
        hi = (offset + nbytes - 1) // ps + 1
        perms.ensure_cap(hi)
        row = perms.r_rows[pid]
        for page in range(lo, hi):
            if not row[page]:
                return None
        table = self.entries[pid]
        out = np.empty(nbytes, np.uint8)
        end = offset + nbytes
        pos = 0
        addr = offset
        for page in range(lo, hi):
            start = addr - page * ps
            length = min(ps - start, end - addr)
            data = table[page].copy
            if data is None:
                data = self._master_page(page)
            out[pos : pos + length] = data[start : start + length]
            pos += length
            addr += length
        return out

    def region_gather(self, proc, space, region):
        pid = proc.pid
        if not self.perms.read_ready_pages(pid, region.span_pages()):
            return None
        table = self.entries[pid]
        out = np.empty(region.nbytes, np.uint8)
        pos = 0
        for page, start, length in region.page_spans():
            data = table[page].copy
            if data is None:
                data = self._master_page(page)
            out[pos : pos + length] = data[start : start + length]
            pos += length
        return out

    # ------------------------------------------------------------------
    # directory cost helpers
    # ------------------------------------------------------------------

    def _dir_update(
        self, proc: Processor, locked: bool = False, page: int = -1
    ) -> Generator:
        """Modify a directory word and propagate the update.

        Legacy (unsharded) directory: the word is replicated on every
        node, so the update is broadcast.  Sharded directory (PR 7):
        the authoritative word lives only at the page's shard-home
        node, so the update is one unicast there — the same single hub
        crossing on the Memory Channel, but one transfer instead of
        ``n_nodes - 1`` on point-to-point fabrics.
        """
        cost = self.costs.dir_modify_locked if locked else self.costs.dir_modify
        yield from proc.busy(cost, Category.PROTOCOL)
        homes = self._shard_homes
        if homes is None or page < 0:
            self.network.write(proc.node.nid, 8, broadcast=True)
        else:
            self.network.write(
                proc.node.nid,
                8,
                dst_node=homes[self.directory.shard(page)],
            )

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------

    def ensure_read(self, proc: Processor, page: int) -> Generator:
        entry = self._entry(proc.pid, page)
        if entry.perm.allows_read():
            return
        proc.bump("read_faults")
        self.trace(proc, "read_fault", page=page)
        yield from proc.busy(self.costs.page_fault, Category.PROTOCOL)
        yield from self._validate_page(proc, page, entry)
        self._set_perm(proc.pid, page, entry, Protection.READ)
        yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)
        yield from self._after_fault(proc, page)

    def ensure_write(self, proc: Processor, page: int) -> Generator:
        entry = self._entry(proc.pid, page)
        if entry.perm.allows_write():
            return
        proc.bump("write_faults")
        self.trace(proc, "write_fault", page=page)
        yield from proc.busy(self.costs.page_fault, Category.PROTOCOL)
        if not entry.perm.allows_read():
            yield from self._validate_page(proc, page, entry)
        state = self.procs[proc.pid]
        dir_entry = self.directory.entry(page)
        if self.cfg.weak_state:
            # Legacy protocol: the first write moves the page to the
            # weak state; no per-interval bookkeeping after that.
            if not dir_entry.weak:
                dir_entry.weak = True
                yield from self._dir_update(proc, page=page)
        elif dir_entry.exclusive_holder != proc.pid:
            state.dirty.append(page)
        self._set_perm(proc.pid, page, entry, Protection.READ_WRITE)
        yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)

    def _prefetch_page(self, proc: Processor, page: int) -> Generator:
        """Software prefetch: validate ``page`` to READ at ``proc``
        exactly like a read fault, minus the demand-fault kernel trap
        (the win the user-level-DSM prefetch literature reports).

        Re-validation only: units this processor never mapped are
        skipped (first touches stay demand faults, so prefetch never
        perturbs placement or joins sharing sets speculatively), and a
        unit held exclusively by another processor is never prefetched
        (breaking its exclusive mode would cost the *owner* faults and
        notices to save the prefetcher one trap)."""
        entry = self.entries[proc.pid].get(page)
        if entry is None or entry.perm.allows_read():
            return
        dir_entry = self.directory.entry(page)
        if not dir_entry.home_assigned:
            return
        holder = dir_entry.exclusive_holder
        if holder is not None and holder != proc.pid:
            return
        proc.bump("prefetches")
        self.trace(proc, "prefetch", page=page)
        yield from self._validate_page(proc, page, entry)
        self._set_perm(proc.pid, page, entry, Protection.READ)
        yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)

    def _validate_page(
        self, proc: Processor, page: int, entry: PageEntry
    ) -> Generator:
        """The common read/write fault path: join the sharing set, assign
        the home if needed, break exclusivity, and obtain the data."""
        dir_entry = self.directory.entry(page)
        dir_entry.sharers.add(proc.pid)
        if self._mem_limit is not None:
            self.procs[proc.pid].touch[page] = self.engine.now
        yield from self._dir_update(proc, page=page)
        if not dir_entry.home_assigned:
            yield from self._assign_home(proc, dir_entry)
        holder = dir_entry.exclusive_holder
        if holder is not None and holder != proc.pid:
            # Former exclusive sharer must learn the page is shared again:
            # append a descriptor to its NLE list (a cluster-wide-locked
            # list in MC space).
            dir_entry.exclusive_holder = None
            yield from proc.busy(self.costs.lock_mc, Category.PROTOCOL)
            if self.procs[holder].nle.append(page):
                self.network.write(
                    proc.node.nid, self.costs.write_notice_bytes
                )
            yield from self._dir_update(proc, page=page)
        yield from self._fetch_data(proc, page, entry, dir_entry)

    def _assign_home(
        self, proc: Processor, dir_entry: DirectoryEntry
    ) -> Generator:
        """Place the page's home per the run's ``homing`` policy (the
        paper's is first-touch) and record it in the directory."""
        home = self.home_table.place(dir_entry.page, proc.node.nid)
        dir_entry.home_node = home
        self.trace(proc, "home_assigned", page=dir_entry.page, home=home)
        # Asserting home ownership takes the directory entry lock.
        yield from self._dir_update(proc, locked=True, page=dir_entry.page)
        self._master_page(dir_entry.page)

    def _fetch_data(
        self,
        proc: Processor,
        page: int,
        entry: PageEntry,
        dir_entry: DirectoryEntry,
    ) -> Generator:
        master = self._master_page(page)
        if self._is_home(proc, dir_entry):
            entry.copy = None  # maps the home copy directly
            return
        if entry.copy is None:
            entry.copy = np.empty(self.space.page_size, np.uint8)
        if self.network.remote_reads:
            # The backend has real one-sided reads (RDMA): the page
            # streams straight out of the home node's memory, no remote
            # CPU, no request/reply (see docs/NETWORKS.md).
            yield from self.rdma_read(
                proc, dir_entry.home_node, self.space.page_size
            )
            entry.copy[:] = master
            proc.bump("page_transfers")
        elif self.cfg.remote_reads:
            # Hypothetical hardware remote reads (Section 3.2): the page
            # streams from the home node's memory with no remote CPU
            # involvement, crossing each bus exactly once.
            done = self.network.write(dir_entry.home_node, self.space.page_size)
            arrived = self.engine.event()
            self.engine.succeed_at(done, arrived)
            yield from proc.wait(arrived, Category.COMM_WAIT)
            entry.copy[:] = master
            proc.bump("page_transfers")
        else:
            # Ask a processor at the home node to write us the page (MC
            # has no remote reads).  The reply lands by DMA in the
            # receive-mapped local copy, so the requester pays no extra
            # memcpy (Section 3.3: only the *home* moves the data across
            # its bus twice).
            target = self.cluster.nodes[dir_entry.home_node].request_target()
            snapshot = yield from self.messenger.request(
                proc, target, PAGE_FETCH, payload=page, size=0
            )
            entry.copy[:] = snapshot
            proc.bump("page_transfers")
        self.trace(proc, "page_transfer", page=page, home=dir_entry.home_node)
        if self.home_table.dynamic:
            yield from self._maybe_migrate_home(proc, page, entry, dir_entry)

    def _maybe_migrate_home(
        self,
        proc: Processor,
        page: int,
        entry: PageEntry,
        dir_entry: DirectoryEntry,
    ) -> Generator:
        """Dynamic homing: count this remote fetch and re-home ``page``
        to the fetching node when the home table's rule says so.

        The move updates the directory under the entry lock (the same
        charge as asserting first touch) and materializes private copies
        for processors that were aliasing the old home mapping; the
        migrating processor's fresh copy becomes the new home alias.
        Yields nothing unless a migration happens.
        """
        nid = proc.node.nid
        if not self.home_table.count_fetch(page, nid):
            return
        self.home_table.moved(page)
        old_home = dir_entry.home_node
        master = self._master_page(page)
        for peer in self.cluster.nodes[old_home].processors:
            peer_entry = self.entries[peer.pid].get(page)
            if (
                peer_entry is not None
                and peer_entry.perm is not Protection.NONE
                and peer_entry.copy is None
            ):
                peer_entry.copy = master.copy()
        entry.copy = None
        dir_entry.home_node = nid
        proc.bump("home_migrations")
        self.trace(
            proc, "home_migrated", page=page, home=nid, old=old_home
        )
        yield from self._dir_update(proc, locked=True, page=page)

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------

    def page_data(self, proc: Processor, page: int) -> np.ndarray:
        entry = self._entry(proc.pid, page)
        if not entry.perm.allows_read():
            raise RuntimeError(
                f"p{proc.pid} touched page {page} without a mapping"
            )
        if entry.copy is None:
            return self._master_page(page)
        return entry.copy

    def apply_write(
        self, proc: Processor, page: int, start: int, raw: np.ndarray
    ) -> Generator:
        entry = self._entry(proc.pid, page)
        if not entry.perm.allows_write():
            raise RuntimeError(
                f"p{proc.pid} wrote page {page} without write permission"
            )
        local = self.page_data(proc, page)
        local[start : start + len(raw)] = raw
        master = self._master_page(page)
        remote_home = local is not master
        if remote_home:
            master[start : start + len(raw)] = raw
        # The doubled-write instruction sequence runs for every shared
        # write, local or remote (Section 3.3.1).
        n_words = max(1, len(raw) // 8)
        yield from proc.busy(
            n_words * self.costs.write_double, Category.WDOUBLE
        )
        if remote_home and not self.cfg.write_double_dummy:
            # Write-through traffic to the home node; releases must wait
            # for it to drain.
            done = self.network.write(proc.node.nid, len(raw))
            state = self.procs[proc.pid]
            state.flush_due = max(state.flush_due, done)
            proc.bump("write_through_bytes", len(raw))

    def ensure_write_span(
        self, proc: Processor, spans, raw: np.ndarray
    ) -> Generator:
        """Write ``raw`` across ``spans``, faulting cold pages.

        Cashmere runs the doubled-write sequence on *every* shared
        write, so this is the single hottest generator in full runs
        (every ``gauss``/``sor`` row update lands here).  The per-page
        ``apply_write`` body and its ``busy`` occupancy are inlined —
        same operations, same single bare-delay yield per page, two
        generator frames fewer on every resume.  Event order is
        identical to the per-page ``ensure_write`` + ``apply_write``
        loop.
        """
        perms = self.perms
        write_double = self.costs.write_double
        dummy = self.cfg.write_double_dummy
        pid = proc.pid
        table = self.entries[pid]
        masters = self.master
        state = self.procs[pid]
        network = self.network
        nid = proc.node.nid
        charge = proc.charge
        read_write = Protection.READ_WRITE
        pos = 0
        for page, start, length in spans:
            # The bitmap row is re-fetched each iteration: a fault (or
            # another processor's work during the occupancy delay) may
            # grow the bitmap and replace the row views.
            try:
                writable = perms.w_rows[pid][page]
            except IndexError:
                perms.ensure_cap(page + 1)
                writable = perms.w_rows[pid][page]
            if not writable:
                yield from self.ensure_write(proc, page)
            entry = table.get(page)
            if entry is None:
                entry = self._entry(pid, page)
            if entry.perm is not read_write:
                raise RuntimeError(
                    f"p{pid} wrote page {page} without write permission"
                )
            piece = raw[pos : pos + length]
            master = masters.get(page)
            if master is None:
                master = self._master_page(page)
            local = entry.copy
            if local is None:
                local = master
                remote_home = False
            else:
                remote_home = local is not master
            local[start : start + length] = piece
            if remote_home:
                master[start : start + length] = piece
            n_words = length >> 3
            us = (n_words if n_words else 1) * write_double
            if us > 0:
                yield us  # the doubled-write occupancy, sans frames
                charge(Category.WDOUBLE, us)
            if remote_home and not dummy:
                done = network.write(nid, length)
                if done > state.flush_due:
                    state.flush_due = done
                proc.bump("write_through_bytes", length)
            pos += length

    # ------------------------------------------------------------------
    # release / acquire processing
    # ------------------------------------------------------------------

    def _process_release(self, proc: Processor) -> Generator:
        state = self.procs[proc.pid]
        # A release cannot complete before its write-through has been
        # applied at the home nodes.
        if state.flush_due > self.engine.now:
            flush_start = self.engine.now
            done = self.engine.event()
            self.engine.succeed_at(state.flush_due, done)
            yield from proc.wait(done, Category.COMM_WAIT)
            self.trace(
                proc, "write_flush", dur=self.engine.now - flush_start
            )
        if self.cfg.weak_state:
            return  # the legacy protocol sends no write notices
        for page in state.dirty:
            yield from self._publish_page(proc, page, from_nle=False)
        state.dirty.clear()
        for page in list(state.nle.drain()):
            yield from self._publish_page(proc, page, from_nle=True)

    def _publish_page(
        self, proc: Processor, page: int, from_nle: bool
    ) -> Generator:
        dir_entry = self.directory.entry(page)
        entry = self._entry(proc.pid, page)
        if from_nle:
            dir_entry.never_exclusive = True
        others = dir_entry.others(proc.pid)
        may_go_exclusive = (
            self.cfg.exclusive_mode and not dir_entry.never_exclusive
        )
        if not others and may_go_exclusive:
            dir_entry.exclusive_holder = proc.pid
            self.trace(proc, "exclusive_enter", page=page)
            yield from self._dir_update(proc, page=page)
            return  # keeps read/write permission: no more faults/notices
        for other in sorted(others):
            yield from proc.busy(self.costs.lock_mc, Category.PROTOCOL)
            if self.procs[other].write_notices.append(page):
                self.network.write(
                    proc.node.nid, self.costs.write_notice_bytes
                )
                proc.bump("write_notices_sent")
                self.trace(proc, "write_notice", page=page, to=other)
        if entry.perm is Protection.READ_WRITE:
            self._set_perm(proc.pid, page, entry, Protection.READ)
            yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)

    def _process_acquire(self, proc: Processor) -> Generator:
        state = self.procs[proc.pid]
        if self.cfg.weak_state:
            # Legacy protocol: optimistically assume every weak page was
            # modified during the interval; invalidate them all.
            for page, entry in self.entries[proc.pid].items():
                if entry.perm is Protection.NONE:
                    continue
                yield from proc.busy(0.5, Category.PROTOCOL)  # dir check
                dir_entry = self.directory.entry(page)
                if not dir_entry.weak:
                    continue
                dir_entry.sharers.discard(proc.pid)
                yield from self._dir_update(proc, page=page)
                self._set_perm(proc.pid, page, entry, Protection.NONE)
                yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)
            return
        for page in list(state.write_notices.drain()):
            dir_entry = self.directory.entry(page)
            dir_entry.sharers.discard(proc.pid)
            yield from self._dir_update(proc, page=page)
            entry = self._entry(proc.pid, page)
            if entry.perm is not Protection.NONE:
                self._set_perm(proc.pid, page, entry, Protection.NONE)
                self.trace(proc, "invalidate", page=page)
                yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)

    # ------------------------------------------------------------------
    # synchronization API
    # ------------------------------------------------------------------

    def lock_acquire(self, proc: Processor, lock_id: int) -> Generator:
        yield from self.sync.lock(lock_id).acquire(proc)
        yield from self._process_acquire(proc)

    def lock_release(self, proc: Processor, lock_id: int) -> Generator:
        yield from self._process_release(proc)
        yield from self.sync.lock(lock_id).release(proc)

    def barrier(self, proc: Processor, barrier_id: int) -> Generator:
        yield from self._process_release(proc)
        self.trace(proc, "barrier_arrive", barrier=barrier_id)
        yield from self.sync.barrier(barrier_id).arrive_and_wait(proc)
        yield from self._process_acquire(proc)
        if self._mem_limit is not None:
            yield from self._evict_cold_copies(proc)

    # ------------------------------------------------------------------
    # memory pressure (PR 7)
    # ------------------------------------------------------------------

    def _node_copy_pages(self, nid: int):
        """(pid, page, last_touch) of every resident remote copy held
        by the node's processors (home-mapped pages occupy no frame)."""
        resident = []
        for peer in self.cluster.nodes[nid].processors:
            touch = self.procs[peer.pid].touch
            for page, entry in self.entries[peer.pid].items():
                if entry.perm is Protection.NONE or entry.copy is None:
                    continue
                resident.append((peer.pid, page, touch.get(page, 0.0)))
        return resident

    def _evict_cold_copies(self, proc: Processor) -> Generator:
        """Enforce the per-node page-copy budget at a barrier.

        The paper's machines never paged, so the legacy simulator keeps
        every copy forever; at 256+ processors with full-size inputs
        the aggregate copy footprint would exceed any real node.  With
        ``node_mem_pages`` set, each processor leaving a barrier checks
        its node's residency and drops its own **coldest** read-only
        copies (oldest last fault first; exclusive and writable pages
        are pinned — they are the working set) until the node fits.
        Each eviction is a normal unmap: leave the sharing set, post
        the directory update, mprotect to NONE — so later re-reads
        fault and re-fetch, exactly like a first touch.
        """
        resident = self._node_copy_pages(proc.node.nid)
        excess = len(resident) - self._mem_limit
        if excess <= 0:
            return
        pid = proc.pid
        table = self.entries[pid]
        mine = sorted(
            (
                (when, page)
                for owner, page, when in resident
                if owner == pid
                and table[page].perm is Protection.READ
            ),
        )
        state = self.procs[pid]
        for when, page in mine[:excess]:
            entry = table[page]
            dir_entry = self.directory.entry(page)
            dir_entry.sharers.discard(pid)
            yield from self._dir_update(proc, page=page)
            self._set_perm(pid, page, entry, Protection.NONE)
            entry.copy = None  # release the frame
            state.touch.pop(page, None)
            proc.bump("copy_evictions")
            self.trace(proc, "evict", page=page)
            yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)

    def flag_set(self, proc: Processor, flag_id: int) -> Generator:
        yield from self._process_release(proc)
        yield from self.sync.flag(flag_id).post(proc)

    def flag_wait(self, proc: Processor, flag_id: int) -> Generator:
        yield from self.sync.flag(flag_id).wait(proc)
        yield from self._process_acquire(proc)

    # ------------------------------------------------------------------
    # remote request service
    # ------------------------------------------------------------------

    def serve(self, proc: Processor, request: Request) -> Generator:
        if request.kind != PAGE_FETCH:
            raise RuntimeError(f"cashmere cannot serve {request.kind!r}")
        page = request.payload
        # Reading the cold page from memory is the first of the two bus
        # passes; the messenger charges the transmit-region write.
        yield from proc.busy(
            0.5 * self.costs.memcpy_cost(self.space.page_size),
            Category.PROTOCOL,
        )
        snapshot = self._master_page(page).copy()
        yield from self.messenger.reply(
            proc, request, payload=snapshot, size=self.space.page_size
        )

    # ------------------------------------------------------------------
    # cost modelling
    # ------------------------------------------------------------------

    def compute_factors(self, ws: WorkingSet):
        if self.cfg.write_double_dummy:
            # The paper's diagnostic: double every write to one local
            # dummy address, removing the cache-footprint effect while
            # keeping the doubled-instruction overhead.
            extra_l1 = extra_l2 = 0
        else:
            extra_l1, extra_l2 = ws.doubled, ws.doubled_l2
        user = self.cache.total_factor(ws)
        total = self.cache.total_factor(ws, extra_l1, extra_l2)
        return user, total, Category.WDOUBLE

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _perm_entries(self, pid: int):
        return (
            (page, entry.perm) for page, entry in self.entries[pid].items()
        )

    def check_invariants(self) -> None:
        self.directory.check()
        self.check_perm_bitmaps()
        for pid, table in self.entries.items():
            for page, entry in table.items():
                dir_entry = self.directory.entry(page)
                if entry.perm is not Protection.NONE:
                    if pid not in dir_entry.sharers:
                        raise AssertionError(
                            f"p{pid} maps page {page} but is not a sharer"
                        )
                if entry.perm is Protection.READ_WRITE:
                    holder = dir_entry.exclusive_holder
                    if holder is not None and holder != pid:
                        raise AssertionError(
                            f"page {page}: p{pid} writable while exclusive "
                            f"to p{holder}"
                        )
