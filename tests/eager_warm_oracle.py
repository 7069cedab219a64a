"""Test-only oracle for copy-on-write warm frames.

Production warms a system by mapping one read-only frame per page at
every processor (``LrcProtocolBase.prewarm``); a processor gets a
private copy only where it mutates one.  The oracle here is the warm
start that replaced: after ``prewarm``, every processor holds its own
writable copy of every page, so no ``own_copy`` site ever has anything
to do.  Nothing simulated may tell the two apart — result digests and
per-processor trace timelines must match bit for bit
(``tests/test_cow_frames.py``) — and this is the only place the eager
O(processors x pages) copy loop survives.
"""

from __future__ import annotations

import contextlib

from repro.core.lrc import LrcProtocolBase


@contextlib.contextmanager
def eager_warm():
    """Systems warmed inside the block get private page copies."""
    shared = LrcProtocolBase.prewarm

    def prewarm(self):
        shared(self)
        for state in self.procs.values():
            for page in state.pages.values():
                page.copy = page.copy.copy()

    LrcProtocolBase.prewarm = prewarm
    try:
        yield
    finally:
        LrcProtocolBase.prewarm = shared
