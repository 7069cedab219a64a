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

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

import numpy as np

from repro.config import WorkingSet
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

    pages: Dict[int, HlrcPage] = field(default_factory=dict)

    def page(self, page_idx: int) -> HlrcPage:
        found = self.pages.get(page_idx)
        if found is None:
            found = HlrcPage()
            self.pages[page_idx] = found
        return found


class HlrcProtocol(LrcProtocolBase):
    """LRC invalidation with eager diffs to per-page homes."""

    # Writes touch the local copy only (diffs move eagerly at release,
    # not per write), so hot write spans qualify for the zero-cost
    # scatter path.
    free_writes = True

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
        # Dynamic re-homing state (docs/POLICIES.md): per-unit remote
        # fetch counts by processor since the unit's last (re-)homing,
        # and per-unit migration counts bounding ping-pong.
        self._dynamic_homing = self.cfg.homing == "dynamic"
        self._fetch_counts: Dict[int, Dict[int, int]] = {}
        self._migrations: Dict[int, int] = {}

    def _make_proc_state(self) -> ProcState:
        return ProcState(
            vts=[0] * self.cluster.nprocs,
            store=IntervalStore(self.cluster.nprocs),
        )

    def _home_of(self, page_idx: int):
        """The page's home processor, or None if not yet assigned."""
        return self.homes.get(page_idx)

    def _assign_home(self, proc: Processor, page_idx: int) -> Generator:
        """Home assignment per the run's ``homing`` policy (first-touch,
        round-robin by unit index, or dynamic = first-touch now plus
        re-homing later), broadcast like a Cashmere directory update."""
        if page_idx in self.homes:
            return
        if self.cfg.homing == "round-robin":
            home = page_idx % self.nprocs
        else:  # first-touch and dynamic both start at the toucher
            home = proc.pid
        self.homes[page_idx] = home
        self.trace(proc, "home_assigned", page=page_idx, home=home)
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
    # faults and data access
    # ------------------------------------------------------------------

    def ensure_read(self, proc: Processor, page_idx: int) -> Generator:
        state = self._state(proc)
        page = state.page(page_idx)
        if page.perm.allows_read():
            return
        proc.bump("read_faults")
        self.trace(proc, "read_fault", page=page_idx)
        yield from proc.busy(self.costs.page_fault, Category.PROTOCOL)
        yield from self._assign_home(proc, page_idx)
        yield from self._validate_page(proc, page_idx, page)
        self._set_perm(proc.pid, page_idx, page, Protection.READ)
        yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)
        yield from self._after_fault(proc, page_idx)

    def ensure_write(self, proc: Processor, page_idx: int) -> Generator:
        state = self._state(proc)
        page = state.page(page_idx)
        if page.perm.allows_write():
            return
        proc.bump("write_faults")
        self.trace(proc, "write_fault", page=page_idx)
        yield from proc.busy(self.costs.page_fault, Category.PROTOCOL)
        yield from self._assign_home(proc, page_idx)
        if not page.perm.allows_read():
            yield from self._validate_page(proc, page_idx, page)
        is_home = self._home_of(page_idx) == proc.pid
        run = []  # twinning and re-protecting: one run, one wake
        if not is_home and page.twin is None:
            # The home writes its copy in place (the authoritative one,
            # private since ``_assign_home``); everyone else takes a
            # private copy and twins it so the release can diff.
            page.twin = own_copy(page).copy()
            proc.bump("twins_created")
            self.trace(proc, "twin", page=page_idx)
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

    def _prefetch_page(self, proc: Processor, page_idx: int) -> Generator:
        """Software prefetch: re-validate an invalidated unit to READ
        without the demand-fault kernel trap.  Re-validation only: units
        whose home is unassigned or that this processor holds no stale
        copy of are skipped — placement and first touches stay with
        demand faults."""
        if page_idx not in self.homes:
            return
        page = self._state(proc).pages.get(page_idx)
        if page is None or page.copy is None or page.perm.allows_read():
            return
        proc.bump("prefetches")
        self.trace(proc, "prefetch", page=page_idx)
        yield from self._validate_page(proc, page_idx, page)
        self._set_perm(proc.pid, page_idx, page, Protection.READ)
        yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)

    def page_data(self, proc: Processor, page_idx: int) -> np.ndarray:
        page = self._state(proc).page(page_idx)
        if not page.perm.allows_read() or page.copy is None:
            raise RuntimeError(
                f"p{proc.pid} touched page {page_idx} without a mapping"
            )
        return page.copy

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
            page.twin = snapshot.copy()
            apply_diff(page.copy, own_diff)
        proc.bump("page_fetches")
        self.trace(proc, "page_fetch", page=page_idx, home=home)
        if self._dynamic_homing and own_diff is None:
            yield from self._maybe_migrate_home(proc, page_idx, page, home)

    def _maybe_migrate_home(
        self, proc: Processor, page_idx: int, page: HlrcPage, old_home: int
    ) -> Generator:
        """Dynamic homing: re-home ``page_idx`` to a processor that
        establishes a remote-fetch majority.

        Mirrors Cashmere's policy, keyed by processor (HLRC homes are
        pids): ``MIGRATE_AFTER`` fetches since the last (re-)homing,
        strictly more than any other fetcher, moves the home; the
        fetcher's fresh copy — identical to the authoritative content it
        just pulled — becomes the new home copy.  Never fires while the
        old home is mid-interval on the page (the home writes in place,
        so unseating it would strand unflushed writes), nor for a
        fetcher holding its own twin.  ``MIGRATE_LIMIT`` bounds
        ping-pong.  Yields nothing unless a migration happens.
        """
        counts = self._fetch_counts.setdefault(page_idx, {})
        pid = proc.pid
        counts[pid] = counts.get(pid, 0) + 1
        if self._migrations.get(page_idx, 0) >= sharing_policy.MIGRATE_LIMIT:
            return
        mine = counts[pid]
        if mine < sharing_policy.MIGRATE_AFTER:
            return
        if any(c >= mine for p, c in counts.items() if p != pid):
            return
        old_page = self.procs[old_home].pages.get(page_idx)
        if old_page is not None and old_page.perm is Protection.READ_WRITE:
            return
        self.homes[page_idx] = pid
        self.home_pages[page_idx] = page.copy
        self._migrations[page_idx] = self._migrations.get(page_idx, 0) + 1
        self._fetch_counts[page_idx] = {}
        proc.bump("home_migrations")
        self.trace(
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
            page.twin = None
            proc.bump("diffs_created")
            self.trace(
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
            self.trace(
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
                self.trace(proc, "invalidate", page=page_idx, at=at)
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
        proc.bump("diffs_applied")
        self.trace(proc, "diff_apply", page=page_idx)
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
    # cost modelling
    # ------------------------------------------------------------------

    def compute_factors(self, ws: WorkingSet):
        user = self.cache.total_factor(ws)
        total = self.cache.total_factor(ws, ws.twin, ws.twin_l2)
        return user, total, Category.PROTOCOL

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
