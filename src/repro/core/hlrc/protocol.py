"""Home-based lazy release consistency (HLRC).

The protocol the field converged on shortly after the paper, and the
natural midpoint between its two systems:

* Consistency is TreadMarks' lazy release consistency: vector
  timestamps, interval records, and write notices travel with lock
  grants and barrier exchanges; noticed pages are invalidated at
  acquires (all inherited from :class:`repro.core.lrc.LrcProtocolBase`).
* Data movement is Cashmere-like: every page has a *home*.  Writers
  twin the page, and at each release eagerly diff it and send the diff
  to the home, which applies it at once (the release completes only
  after the home acknowledges).  Twins and diffs are then discarded —
  no diff accumulation, no garbage-collection pressure.
* Readers validate an invalid page with a single whole-page fetch from
  the home, which is guaranteed current for everything in the reader's
  causal past.

Compared over the paper's axes: HLRC keeps TreadMarks' "communicate
only at synchronization" laziness but gains Cashmere's one-message page
validation and multi-writer merging at a home — at the cost of
whole-page reads and eager diff traffic on every release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

import numpy as np

from repro.cluster.machine import Processor
from repro.cluster.messaging import Request
from repro.core.lrc import LrcProcState, LrcProtocolBase
from repro.core.intervals import IntervalStore
from repro.memory import policy as sharing_policy
from repro.memory.diff import apply_diff, make_diff
from repro.memory.page import Protection, own_copy
from repro.stats import Category

PAGE_FETCH = "hlrc_page_fetch"
DIFF_TO_HOME = "hlrc_diff_to_home"


@dataclass
class HlrcPage:
    """One processor's view of one page (far simpler than TreadMarks':
    no pending lists, no diff bookkeeping — the home holds the truth)."""

    perm: Protection = Protection.NONE
    copy: Optional[np.ndarray] = None
    twin: Optional[np.ndarray] = None


@dataclass
class ProcState(LrcProcState):
    """HLRC per-processor protocol state."""

    page_type = HlrcPage


class HlrcProtocol(LrcProtocolBase):
    """LRC invalidation with eager diffs to per-page homes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The authoritative home copies (the home processor's ``copy``
        # aliases these).
        self.home_pages: Dict[int, np.ndarray] = {}
        # Home assignments; with ``first-touch`` homing (the default) a
        # page's first faulting processor becomes its home, exactly the
        # placement lesson Cashmere taught (Section 2.1) and the HLRC
        # systems adopted.
        self.homes: Dict[int, int] = {}
        # Placement and migration rules, keyed by pid; round-robin homes
        # interleave by unit index.
        self.home_table = sharing_policy.HomeTable(
            self.cfg.homing, round_robin=lambda unit: unit % self.nprocs
        )
        self._dynamic_homing = self.home_table.dynamic

    def _make_proc_state(self) -> ProcState:
        return ProcState(
            vts=[0] * self.cluster.nprocs,
            store=IntervalStore(self.cluster.nprocs),
        )

    def _home_of(self, page_idx: int):
        """The page's home processor, or None if not yet assigned."""
        return self.homes.get(page_idx)

    def _on_fault(self, proc: Processor, page_idx: int):
        if page_idx in self.homes:
            return ()
        return self._assign_home(proc, page_idx)

    def _assign_home(self, proc: Processor, page_idx: int) -> Generator:
        """Place the page's home per the run's ``homing`` policy,
        broadcast like a Cashmere directory update."""
        home = self.home_table.place(page_idx, proc.pid)
        self.homes[page_idx] = home
        self.record(proc, "home_assigned", page=page_idx, home=home)
        yield from proc.busy(self.costs.dir_modify_locked, Category.PROTOCOL)
        self.network.write(proc.node.nid, 8, broadcast=True)
        home_state = self.procs[home]
        home_page = home_state.page(page_idx)
        if home_page.copy is not None:
            # Adopt the home's existing copy as the authoritative one —
            # privately, since remote diffs land there.
            self.home_pages[page_idx] = own_copy(home_page)
        else:
            self.home_pages[page_idx] = self.space.backing_page(
                page_idx
            ).copy()
            home_page.copy = self.home_pages[page_idx]

    def _home_page(self, page_idx: int) -> np.ndarray:
        data = self.home_pages.get(page_idx)
        if data is None:
            data = self.space.backing_page(page_idx).copy()
            self.home_pages[page_idx] = data
        return data

    # ------------------------------------------------------------------
    # fault-path decisions
    # ------------------------------------------------------------------

    def _needs_twin(self, pid: int, page_idx: int) -> bool:
        # The home writes its copy in place (the authoritative one,
        # private since ``_assign_home``); everyone else twins it so the
        # release can diff.
        return self.homes.get(page_idx) != pid

    def _prefetch_candidate(self, proc: Processor, page_idx: int):
        if page_idx not in self.homes:
            return None  # placement stays with demand faults
        return self._state(proc).pages.get(page_idx)

    def _validate_page(
        self, proc: Processor, page_idx: int, page: HlrcPage
    ) -> Generator:
        """One whole-page fetch from the home (or a local bind)."""
        home = self._home_of(page_idx)
        if home == proc.pid:
            page.copy = self._home_page(page_idx)  # alias, like Cashmere
            return
        # If we hold unflushed writes (a twin from the open interval),
        # they must survive the refetch: extract them first and merge
        # them over the fresh snapshot.
        own_diff = None
        if page.twin is not None:
            own_diff = make_diff(page.twin, page.copy)
            yield from proc.busy(
                self.costs.diff_cost(
                    self.space.page_size,
                    own_diff.dirty_bytes / self.space.page_size,
                ),
                Category.PROTOCOL,
            )
        if self.network.remote_reads:
            # One-sided read of the home copy (the home's master page is
            # always current under HLRC): wire time only, no home CPU.
            yield from self.rdma_read(
                proc,
                self.cluster.proc(home).node.nid,
                self.space.page_size,
            )
            snapshot = self._home_page(page_idx)
        else:
            snapshot = yield from self.messenger.request(
                proc,
                self.cluster.proc(home),
                PAGE_FETCH,
                payload=page_idx,
                size=8,
            )
        yield from proc.busy(
            self.costs.memcpy_cost(self.space.page_size), Category.PROTOCOL
        )
        if page.copy is not None and page.copy.flags.writeable:
            page.copy[:] = snapshot
        else:  # first copy, or a shared warm frame: take a private one
            page.copy = snapshot.copy()
        if own_diff is not None:
            # The twin becomes the fresh base, so the next release still
            # diffs out exactly our own words.
            np.copyto(page.twin, snapshot)
            apply_diff(page.copy, own_diff)
        self.record(proc, "page_fetch", page=page_idx, home=home)
        if self._dynamic_homing and own_diff is None:
            yield from self._maybe_migrate_home(proc, page_idx, page, home)

    def _maybe_migrate_home(
        self, proc: Processor, page_idx: int, page: HlrcPage, old_home: int
    ) -> Generator:
        """Dynamic homing: count this remote fetch and re-home
        ``page_idx`` here when the home table's rule says so.

        The fetcher's fresh copy — identical to the authoritative
        content it just pulled — becomes the new home copy.  A move is
        vetoed while the old home is mid-interval on the page (the home
        writes in place, so unseating it would strand unflushed writes);
        the caller never asks for a fetcher holding its own twin.
        Yields nothing unless a migration happens.
        """
        pid = proc.pid
        if not self.home_table.count_fetch(page_idx, pid):
            return
        old_page = self.procs[old_home].pages.get(page_idx)
        if old_page is not None and old_page.perm is Protection.READ_WRITE:
            return
        self.home_table.moved(page_idx)
        self.homes[page_idx] = pid
        self.home_pages[page_idx] = page.copy
        self.record(
            proc, "home_migrated", page=page_idx, home=pid, old=old_home
        )
        # Announcing the new home is a locked directory update, like the
        # original assignment.
        yield from proc.busy(self.costs.dir_modify_locked, Category.PROTOCOL)
        self.network.write(proc.node.nid, 8, broadcast=True)

    # ------------------------------------------------------------------
    # eager diff propagation (release side)
    # ------------------------------------------------------------------

    def _on_lock_release(self, proc: Processor) -> Generator:
        yield from self._close_interval(proc)

    def _on_interval_closed(self, proc: Processor, pages) -> Generator:
        """Diff every written page and push the diffs to their homes;
        the release completes once every home has acknowledged."""
        state = self._state(proc)
        outstanding = []
        for page_idx in pages:
            home = self._home_of(page_idx)
            page = state.page(page_idx)
            if home == proc.pid:
                # The home wrote its copy in place — nothing to flush —
                # but it must still re-protect, so that next interval's
                # writes fault and raise fresh notices.
                if page.perm is Protection.READ_WRITE:
                    self._set_perm(proc.pid, page_idx, page, Protection.READ)
                    yield from proc.busy(
                        self.costs.mprotect, Category.PROTOCOL
                    )
                continue
            if page.twin is None:
                continue  # already flushed (multiple releases, no writes)
            diff = make_diff(page.twin, page.copy)
            dirty_fraction = diff.dirty_bytes / self.space.page_size
            yield from proc.busy(
                self.costs.diff_cost(self.space.page_size, dirty_fraction),
                Category.PROTOCOL,
            )
            self._retire_twin(page)
            self.record(
                proc, "diff_to_home", page=page_idx, bytes=diff.dirty_bytes
            )
            # Re-protect so the next interval's writes re-twin and raise
            # fresh notices.
            if page.perm is Protection.READ_WRITE:
                self._set_perm(proc.pid, page_idx, page, Protection.READ)
                yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)
            request = yield from self.messenger.post_request(
                proc,
                self.cluster.proc(home),
                DIFF_TO_HOME,
                payload=(page_idx, diff),
                size=diff.encoded_size + 16,
            )
            outstanding.append(request)
        if outstanding:
            t0 = self.engine.now
            for request in outstanding:
                yield from proc.wait(request.reply_event)
            self.record(
                proc,
                "diff_flush_wait",
                dur=self.engine.now - t0,
                diffs=len(outstanding),
            )

    # ------------------------------------------------------------------
    # base-class hooks
    # ------------------------------------------------------------------

    def _note_record(self, proc: Processor, record, at: float, run):
        pid = proc.pid
        pages = self.procs[pid].pages
        homes = self.homes
        mprotect = self.costs.mprotect
        for page_idx in record.pages:
            page = pages.get(page_idx)
            if page is None or page.perm is Protection.NONE:
                continue  # most notices: nothing mapped to invalidate
            if homes.get(page_idx) == pid:
                continue  # the home copy is always current
            self._set_perm(pid, page_idx, page, Protection.NONE)
            if self.tracing:
                self.record(proc, "invalidate", page=page_idx, at=at)
            run.append(mprotect)
            at += mprotect
        return at

    def _serve_data(self, proc: Processor, request: Request) -> Generator:
        if request.kind == PAGE_FETCH:
            yield from self._serve_page_fetch(proc, request)
        elif request.kind == DIFF_TO_HOME:
            yield from self._serve_diff_to_home(proc, request)
        else:
            raise RuntimeError(f"hlrc cannot serve {request.kind!r}")

    def _serve_page_fetch(self, proc: Processor, request: Request) -> Generator:
        page_idx = request.payload
        # Reading the cold page is the first bus pass (the messenger
        # charges the transmit write).
        yield from proc.busy(
            0.5 * self.costs.memcpy_cost(self.space.page_size),
            Category.PROTOCOL,
        )
        snapshot = self._home_page(page_idx)
        yield from self.messenger.reply(
            proc, request, payload=snapshot, size=self.space.page_size
        )

    def _serve_diff_to_home(
        self, proc: Processor, request: Request
    ) -> Generator:
        page_idx, diff = request.payload
        if self._home_of(page_idx) != proc.pid and not self._dynamic_homing:
            # Under dynamic homing the home may have moved while this
            # diff was in flight; ``_home_page`` below resolves to the
            # *current* authoritative copy, so the diff still lands.
            raise RuntimeError(
                f"diff for page {page_idx} sent to non-home p{proc.pid}"
            )
        apply_cost = self.costs.diff_apply_base + (
            self.costs.diff_apply_per_kb * diff.dirty_bytes / 1024.0
        )
        yield from proc.busy(apply_cost, Category.PROTOCOL)
        apply_diff(self._home_page(page_idx), diff)
        self.record(proc, "diff_apply", page=page_idx)
        # The home's own mapping (and twin, if it is mid-interval) must
        # absorb the update too.
        state = self._state(proc)
        page = state.pages.get(page_idx)
        if page is not None and page.twin is not None:
            apply_diff(page.twin, diff)
        yield from self.messenger.reply(proc, request, payload=True, size=8)

    # ------------------------------------------------------------------
    # garbage collection hooks
    # ------------------------------------------------------------------

    def _gc_flush_pages(self, proc: Processor) -> Generator:
        # Homes are always current and readers refetch whole pages, so
        # no page state depends on old interval records.
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        for page_idx, data in self.home_pages.items():
            if not data.flags.writeable or np.shares_memory(
                data, self.space.backing_page(page_idx)
            ):
                raise AssertionError(
                    f"home copy of page {page_idx} is a shared frame"
                )
        for pid, state in self.procs.items():
            for page_idx, page in state.pages.items():
                if (
                    page.perm is Protection.READ_WRITE
                    and page.twin is None
                    and self._home_of(page_idx) != pid
                ):
                    raise AssertionError(
                        f"p{pid}: non-home page {page_idx} writable "
                        "without a twin"
                    )
