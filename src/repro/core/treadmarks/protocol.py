"""The TreadMarks protocol: lazy release consistency with multi-writer
twins and diffs, over request/response messaging only.

All consistency information is local; communication happens only at
synchronization points and at page faults (Section 2.2):

* lock acquires travel manager -> last owner -> requester, carrying the
  interval records (with write notices) the requester has not seen;
* barriers centralize interval exchange at a barrier manager;
* invalidated pages are re-validated by fetching diffs from the writers
  named in the pending write notices, applied in causal order;
* writers twin a page on the first write of an interval and create
  run-length diffs lazily when asked.

The synchronization/interval engine lives in
:class:`repro.core.lrc.LrcProtocolBase`; this module provides the lazy
diff data movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.cluster.machine import Processor
from repro.cluster.messaging import Request
from repro.core.lrc import LrcProcState, LrcProtocolBase
from repro.core.intervals import IntervalStore
from repro.memory.diff import WORD, Diff, apply_diff_versioned, make_diff
from repro.memory.page import Protection, own_copy
from repro.stats import Category

PAGE_FETCH = "tmk_page_fetch"
DIFF_FETCH = "tmk_diff_fetch"

# Garbage collection of consistency information (intervals, write
# notices, diffs) triggers at the next barrier once this many interval
# records have accumulated, as in the real system.
GC_RECORD_THRESHOLD = 4096


@dataclass
class TmkPage:
    """One processor's view of one page.

    ``pending`` maps each writer with write notices not yet known to be
    reflected in the local copy to its highest such interval — the only
    one validation asks for, since a writer's diffs are cumulative.
    ``covered_iid[writer]`` is the writer's highest interval whose
    writes have certainly been applied; ``have_seq[writer]`` is the
    highest diff sequence number received from that writer (writers
    number their diffs per page).
    """

    perm: Protection = Protection.NONE
    copy: Optional[np.ndarray] = None
    twin: Optional[np.ndarray] = None
    pending: Dict[int, int] = field(default_factory=dict)
    covered_iid: Dict[int, int] = field(default_factory=dict)
    have_seq: Dict[int, int] = field(default_factory=dict)
    # Per-page causal version (a Lamport tag): stands in for the interval
    # vector-timestamp order TreadMarks applies diffs in.  A writer's new
    # diff is tagged above every diff it applied before writing, and the
    # invalidate-on-notice path guarantees a causally later writer always
    # applied its predecessors first, so tag order linearizes
    # happens-before for race-free programs.  ``word_tags`` records the
    # version applied per word, so an older diff arriving late cannot
    # regress a word a newer diff already wrote.
    lamport: int = 0
    word_tags: Optional[np.ndarray] = None

    def tags_for(self, page_size: int) -> np.ndarray:
        if self.word_tags is None:
            self.word_tags = np.zeros(page_size // 8, np.int64)
        return self.word_tags


@dataclass
class WriterDiffs:
    """A writer's diff history for one page it has modified.

    ``covered`` is the highest interval index whose writes are fully
    represented by the cached diffs.  Diffs are cumulative against the
    twin at creation time and are identified by a per-page sequence
    number, which keeps bookkeeping sound even when a page is diffed in
    the middle of an open interval and then written again.
    """

    seq: int = 0
    covered: int = 0
    cache: List[Tuple[int, int, Diff]] = field(default_factory=list)
    # cache entries are (seq, causal tag, diff)


@dataclass
class ProcState(LrcProcState):
    """TreadMarks per-processor protocol state."""

    diff_cache: Dict[int, WriterDiffs] = field(default_factory=dict)
    page_type = TmkPage


class TreadMarksProtocol(LrcProtocolBase):
    """Lazy release consistency over fast user-level messages."""

    # Reusable changed-word mask for diff creation (wall-clock only):
    # ``make_diff`` needs one bool per page word, and ``_serve_diff_fetch``
    # is the hottest diff site, so the buffer is recycled across calls —
    # created lazily per instance; the class attribute is only the
    # "never used yet" sentinel.
    _diff_scratch = None

    @property
    def gc_record_threshold(self) -> int:
        return GC_RECORD_THRESHOLD

    def _make_proc_state(self) -> ProcState:
        return ProcState(
            vts=[0] * self.cluster.nprocs,
            store=IntervalStore(self.cluster.nprocs),
        )

    def _page_manager(self, page: int) -> int:
        return page % self.nprocs

    def _prefetch_candidate(self, proc: Processor, page_idx: int):
        return self._state(proc).page(page_idx)

    # ------------------------------------------------------------------
    # page validation (diff collection)
    # ------------------------------------------------------------------

    def _validate_page(
        self, proc: Processor, page_idx: int, page: TmkPage
    ) -> Generator:
        """Obtain a base copy if needed, then fetch and apply the diffs
        named by the pending write notices."""
        if page.copy is None:
            yield from self._fetch_base_copy(proc, page_idx, page)
        needed: Dict[int, int] = {}  # writer -> highest interval needed
        for writer, iid in page.pending.items():
            if writer == proc.pid:
                continue
            if iid <= page.covered_iid.get(writer, 0):
                continue
            needed[writer] = iid
        page.pending.clear()
        if not needed:
            return
        self.record(proc, "diff_fetch", page=page_idx, writers=len(needed))
        one_sided = self.network.remote_reads
        # Request all writers' diffs concurrently, then collect replies.
        requests = []
        pulls = []
        for writer in sorted(needed):
            if one_sided:
                # On RDMA-class backends a writer publishes its cached
                # diffs in registered memory (GeNIMA-style descriptor
                # ring): when they already cover the asked interval,
                # pull them with a one-sided read — no writer CPU, no
                # round trip.  An interval still open in the writer's
                # twin needs the writer to *create* the diff, so that
                # writer falls back to the request/reply path.
                wd = self.procs[writer].diff_cache.get(page_idx)
                if wd is not None and wd.covered >= needed[writer]:
                    have = page.have_seq.get(writer, 0)
                    diffs = [
                        (seq, tag, diff)
                        for seq, tag, diff in wd.cache
                        if seq > have
                    ]
                    pulls.append((writer, diffs, wd.covered))
                    continue
            request = yield from self.messenger.post_request(
                proc,
                self.cluster.proc(writer),
                DIFF_FETCH,
                payload=(
                    page_idx,
                    page.have_seq.get(writer, 0),
                    needed[writer],
                ),
                size=16,
            )
            requests.append((writer, request))
        incoming = []
        for writer, diffs, covered in pulls:
            size = sum(d.encoded_size for _, _, d in diffs) + 16
            yield from self.rdma_read(
                proc, self.cluster.proc(writer).node.nid, size
            )
            page.covered_iid[writer] = max(
                page.covered_iid.get(writer, 0), covered
            )
            for seq, tag, diff in diffs:
                if seq <= page.have_seq.get(writer, 0):
                    continue
                incoming.append((tag, writer, seq, diff))
        for writer, request in requests:
            diffs, covered = yield from proc.wait(request.reply_event)
            page.covered_iid[writer] = max(
                page.covered_iid.get(writer, 0), covered
            )
            for seq, tag, diff in diffs:
                if seq <= page.have_seq.get(writer, 0):
                    continue
                incoming.append((tag, writer, seq, diff))
        # Apply in causal order with word-level versioning (see
        # TmkPage.lamport / word_tags).  The applies are one run of
        # occupancies (one wake) while the copy is private; on a
        # backend with one-sided reads a peer may pull it at any time,
        # so there each apply is slept out before the copy changes.
        exposed = self.network.remote_reads
        run = []
        at = self.engine.now  # simulated time once ``run`` has elapsed
        for tag, writer, seq, diff in sorted(incoming):
            page.have_seq[writer] = max(page.have_seq.get(writer, 0), seq)
            page.lamport = max(page.lamport, tag)
            if diff.is_empty:
                continue
            apply_cost = self.costs.diff_apply_base + (
                self.costs.diff_apply_per_kb * diff.dirty_bytes / 1024.0
            )
            run.append(apply_cost)
            at += apply_cost
            if exposed:
                yield from proc.busy_run(run, Category.PROTOCOL)
                run = []
            targets = [own_copy(page)]
            if page.twin is not None:
                targets.append(page.twin)
            apply_diff_versioned(
                targets, diff, page.tags_for(self.space.page_size), tag
            )
            self.record(
                proc,
                "diff_apply",
                page=page_idx,
                writer=writer,
                tag=tag,
                at=at,
            )
        yield from proc.busy_run(run, Category.PROTOCOL)

    def _fetch_base_copy(
        self, proc: Processor, page_idx: int, page: TmkPage
    ) -> Generator:
        """First touch: fetch the page's base contents from its manager.

        The requester then brings the copy up to date by applying every
        diff named in its (complete, since it spans the current GC
        epoch) pending-notice list.
        """
        manager = self._page_manager(page_idx)
        if manager == proc.pid:
            page.copy = self._serve_page_fetch_source(
                self._state(proc), page_idx
            ).copy()
            return
        if self.network.remote_reads:
            # One-sided read of the manager's copy: wire time only, no
            # manager CPU.  The requester still pays one bus pass to
            # move the landed bytes into the working page.
            yield from self.rdma_read(
                proc,
                self.cluster.proc(manager).node.nid,
                self.space.page_size,
            )
            snapshot = self._serve_page_fetch_source(
                self.procs[manager], page_idx
            )
            yield from proc.busy(
                self.costs.memcpy_cost(self.space.page_size),
                Category.PROTOCOL,
            )
            page.copy = snapshot.copy()
            self.record(proc, "page_fetch", page=page_idx, manager=manager)
            return
        snapshot = yield from self.messenger.request(
            proc,
            self.cluster.proc(manager),
            PAGE_FETCH,
            payload=page_idx,
            size=8,
        )
        # Copy from the message buffer into the working page.
        yield from proc.busy(
            self.costs.memcpy_cost(self.space.page_size), Category.PROTOCOL
        )
        page.copy = snapshot.copy()
        self.record(proc, "page_fetch", page=page_idx, manager=manager)

    # ------------------------------------------------------------------
    # base-class hooks
    # ------------------------------------------------------------------

    def _note_record(self, proc: Processor, record, at: float, run):
        pid = proc.pid
        state = self.procs[pid]
        pages = state.pages
        writer, iid = record.proc, record.iid
        mprotect = self.costs.mprotect
        for page_idx in record.pages:
            page = pages.get(page_idx)
            if page is None:
                page = state.page(page_idx)
            # A writer's records are admitted only in interval order
            # (``IntervalStore.admit``), so this keeps its highest.
            page.pending[writer] = iid
            if page.perm is not Protection.NONE:
                self._set_perm(pid, page_idx, page, Protection.NONE)
                if self.tracing:
                    self.record(proc, "invalidate", page=page_idx, at=at)
                run.append(mprotect)
                at += mprotect
        return at

    def _serve_data(self, proc: Processor, request: Request) -> Generator:
        if request.kind == PAGE_FETCH:
            yield from self._serve_page_fetch(proc, request)
        elif request.kind == DIFF_FETCH:
            yield from self._serve_diff_fetch(proc, request)
        else:
            raise RuntimeError(f"treadmarks cannot serve {request.kind!r}")

    # ------------------------------------------------------------------
    # request service
    # ------------------------------------------------------------------

    def _serve_page_fetch(self, proc: Processor, request: Request) -> Generator:
        page_idx = request.payload
        # Reading the cold page is the first bus pass (the messenger
        # charges the transmit write).
        yield from proc.busy(
            0.5 * self.costs.memcpy_cost(self.space.page_size),
            Category.PROTOCOL,
        )
        snapshot = self._serve_page_fetch_source(
            self._state(proc), page_idx
        )
        yield from self.messenger.reply(
            proc, request, payload=snapshot, size=self.space.page_size
        )

    def _serve_page_fetch_source(self, state: ProcState, page_idx: int):
        """Post-GC base fetches must come from the manager's flushed
        copy; the original backing only covers the first epoch."""
        page = state.pages.get(page_idx)
        if page is not None and page.copy is not None:
            return page.copy
        return self.space.backing_page(page_idx)

    def _flush_twin(
        self,
        proc: Processor,
        page_idx: int,
        page: TmkPage,
        writer_diffs: WriterDiffs,
    ) -> Generator:
        """Diff the open twin into the cached diff list and retire it.

        Shared by the on-demand serve path (a DIFF_FETCH arrived) and
        the eager interval-close path used on one-sided backends.
        """
        scratch = self._diff_scratch
        if scratch is None:
            scratch = self._diff_scratch = np.empty(
                self.space.page_size // WORD, bool
            )
        diff = make_diff(page.twin, page.copy, scratch)
        dirty_fraction = diff.dirty_bytes / self.space.page_size
        yield from proc.busy(
            self.costs.diff_cost(self.space.page_size, dirty_fraction),
            Category.PROTOCOL,
        )
        writer_diffs.seq += 1
        page.lamport += 1
        writer_diffs.cache.append((writer_diffs.seq, page.lamport, diff))
        self._retire_twin(page)
        self.record(proc, "diff_create", page=page_idx, bytes=diff.dirty_bytes)
        if page.perm is Protection.READ_WRITE:
            self._set_perm(proc.pid, page_idx, page, Protection.READ)
            yield from proc.busy(self.costs.mprotect, Category.PROTOCOL)

    def _on_interval_closed(self, proc: Processor, pages) -> Generator:
        if not self.network.remote_reads:
            return
        # One-sided backends: eagerly diff written pages at interval
        # close, publishing the diffs in the (registered) cache so
        # peers pull them with one-sided reads instead of request/reply
        # — the GeNIMA-style restructuring that lets TreadMarks
        # actually exploit remote reads.  Adaptively: only pages some
        # peer has *already requested diffs for* (a WriterDiffs record
        # exists) are flushed — the first fetch of a page pays one
        # round trip, every later interval is pulled one-sided, and
        # unshared pages (or whole single-processor runs) never pay
        # for diffs nobody will read.
        state = self._state(proc)
        iid = state.vts[proc.pid]
        for page_idx in pages:
            writer_diffs = state.diff_cache.get(page_idx)
            if writer_diffs is None:
                continue
            page = state.page(page_idx)
            if page.twin is not None:
                yield from self._flush_twin(
                    proc, page_idx, page, writer_diffs
                )
            writer_diffs.covered = max(writer_diffs.covered, iid)

    def _serve_diff_fetch(self, proc: Processor, request: Request) -> Generator:
        page_idx, have_seq, need_iid = request.payload
        state = self._state(proc)
        writer_diffs = state.diff_cache.setdefault(page_idx, WriterDiffs())
        page = state.page(page_idx)
        if need_iid > writer_diffs.covered:
            if page.twin is not None:
                yield from self._flush_twin(
                    proc, page_idx, page, writer_diffs
                )
            # With no twin left, every write up to (at least) the asked
            # interval is represented in the cached diffs.
            writer_diffs.covered = max(writer_diffs.covered, need_iid)
        diffs = [
            (seq, tag, diff)
            for seq, tag, diff in writer_diffs.cache
            if seq > have_seq
        ]
        size = sum(d.encoded_size for _, _, d in diffs) + 16
        yield from self.messenger.reply(
            proc, request, payload=(diffs, writer_diffs.covered), size=size
        )

    # ------------------------------------------------------------------
    # garbage collection hooks
    # ------------------------------------------------------------------

    def _gc_flush_pages(self, proc: Processor) -> Generator:
        """Every processor (a) brings each page it caches fully up to
        date — fetching any outstanding diffs — and (b) validates every
        page it *manages* so future base fetches are complete without
        pre-GC diffs."""
        state = self._state(proc)
        for page_idx in range(self.space.n_pages):
            page = state.pages.get(page_idx)
            has_pending = page is not None and bool(page.pending)
            manages = self._page_manager(page_idx) == proc.pid
            if manages or (has_pending and page.copy is not None):
                yield from self.ensure_read(proc, page_idx)
            elif has_pending:
                # No local copy: the manager's flushed copy covers these
                # notices, so a future first touch needs no old diffs.
                page.pending.clear()

    def _gc_drop_caches(self, proc: Processor) -> Generator:
        # Drop diff payloads but keep per-page sequence counters and
        # coverage watermarks: readers hold ``have_seq`` values that must
        # stay monotonic across epochs.
        state = self._state(proc)
        for writer_diffs in state.diff_cache.values():
            writer_diffs.cache.clear()
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        for pid, state in self.procs.items():
            for page_idx, page in state.pages.items():
                if page.perm is Protection.READ_WRITE and page.twin is None:
                    raise AssertionError(
                        f"p{pid}: page {page_idx} writable without a twin"
                    )
