"""Test-only oracle for the one-wake write-notice merge.

Production merges a batch of interval records as *one* engine wake
(``LrcProtocolBase._incorporate`` on ``Processor.busy_run``), evaluating
every write notice before the occupancies it is charged.  The oracle
here is the schedule that replaced: one ``proc.busy`` — a full queue
round trip — per record and per invalidated page, each notice examined
only after the occupancies before it have elapsed.  It is the reference
the production path must match bit for bit, and the only place the
per-page hook and the per-occupancy loop survive.

Registered as ``tests.oracles.ORACLES`` (which also lists its CI points).
"""

from __future__ import annotations

import contextlib

from repro.cluster.machine import Processor
from repro.core.hlrc import protocol as hlrc_mod
from repro.core.treadmarks import protocol as tmk_mod
from repro.memory.page import Protection
from repro.stats import Category


class _PerOccupancyMerge:
    """One ``busy`` per record and per invalidated page."""

    def _incorporate(self, proc, records):
        state = self._state(proc)
        for record in records:
            if not state.store.insert(record):
                continue
            yield from proc.busy(
                self.costs.interval_process, Category.PROTOCOL
            )
            state.vts[record.proc] = max(state.vts[record.proc], record.iid)
            for page_idx in record.pages:
                us = self._note_remote_write(
                    proc, record.proc, record.iid, page_idx
                )
                if us:
                    yield from proc.busy(us, Category.PROTOCOL)


class OracleTreadMarks(_PerOccupancyMerge, tmk_mod.TreadMarksProtocol):
    def _note_remote_write(self, proc, writer, iid, page_idx):
        page = self._state(proc).page(page_idx)
        page.pending[writer] = iid
        if page.perm is not Protection.NONE:
            self._set_perm(proc.pid, page_idx, page, Protection.NONE)
            self.record(proc, "invalidate", page=page_idx)
            return self.costs.mprotect
        return 0.0


class OracleHlrc(_PerOccupancyMerge, hlrc_mod.HlrcProtocol):
    def _note_remote_write(self, proc, writer, iid, page_idx):
        if self._home_of(page_idx) == proc.pid:
            return 0.0  # the home copy is always current
        page = self._state(proc).pages.get(page_idx)
        if page is None or page.perm is Protection.NONE:
            return 0.0
        self._set_perm(proc.pid, page_idx, page, Protection.NONE)
        self.record(proc, "invalidate", page=page_idx)
        return self.costs.mprotect


def _busy_run_per_cost(self, costs, category):
    for us in costs:
        yield from self.busy(us, category)


@contextlib.contextmanager
def per_occupancy():
    """Systems built inside the block run the oracle schedule:
    ``build_system`` resolves the LRC protocol classes from their
    modules at call time, and every ``busy_run`` is a ``busy`` loop."""
    saved = (
        tmk_mod.TreadMarksProtocol,
        hlrc_mod.HlrcProtocol,
        Processor.busy_run,
    )
    tmk_mod.TreadMarksProtocol = OracleTreadMarks
    hlrc_mod.HlrcProtocol = OracleHlrc
    Processor.busy_run = _busy_run_per_cost
    try:
        yield
    finally:
        (
            tmk_mod.TreadMarksProtocol,
            hlrc_mod.HlrcProtocol,
            Processor.busy_run,
        ) = saved

