"""Vectorized permission bitmaps: the zero-cost hit path for shared access.

On the paper's hardware a shared access to an already-mapped page costs
nothing — the Alpha MMU only traps on actual protection faults.  The
simulation used to pay a Python generator trampoline per page on every
access anyway.  This module provides the data structure that removes
that overhead: per-processor boolean bitmaps mirroring each protocol's
per-page :class:`~repro.memory.page.Protection` state, so the
already-mapped case is one vectorized slice check instead of a chain of
generators.

The bitmaps are indexed by coherence *unit* — the VM page by default,
sub-page blocks or multi-page regions under a non-default granularity
policy (docs/POLICIES.md); the whole layer re-keys automatically off
``AddressSpace.page_size``.

The bitmaps are *redundant* state: the per-page ``perm`` fields remain
authoritative, and every protocol updates the bitmaps at every
transition (fault upgrades, invalidations, release/barrier downgrades).
``check_invariants`` on each protocol asserts the two never disagree;
``tests/test_fastpath_invariants.py`` drives that assertion through
fault/invalidate/downgrade sequences for all three protocols.

This is the one access path.  The per-page generator loop it replaced
survives only as a test oracle, ``tests/access_oracle.py``
(``per_page_access()``); simulated times, counters, and traces are
bit-identical to it (locked in by ``tests/test_engine_equivalence.py``).

With ``SimOptions(debug_checks=True)`` (``--debug-checks``), the
runtime additionally re-checks bitmap/perm coherence at every barrier
(see ``Env.barrier``), so a drifting transition is caught at the first
synchronization point after it happens instead of at the end of the
run.
"""

from __future__ import annotations

import numpy as np

from repro import options as _options
from repro.memory.page import Protection

#: Module-level switch, mirrored from :mod:`repro.options` — the
#: barrier hook probes a plain global instead of calling into the
#: options object.  ``SimOptions.apply`` keeps it in sync; tests flip it
#: directly.
DEBUG = _options.current().debug_checks


#: perm -> (readable, writable), resolved once instead of two enum
#: comparisons per permission transition.
_PERM_BITS = {
    perm: (perm >= Protection.READ, perm >= Protection.READ_WRITE)
    for perm in Protection
}


class PermBitmaps:
    """Per-processor readable/writable page bitmaps.

    ``readable[pid, page]`` / ``writable[pid, page]`` mirror
    ``Protection.allows_read()`` / ``allows_write()`` of that
    processor's mapping.  Rows grow on demand (unit tests allocate
    regions after protocol construction); in a normal run the address
    space is fully allocated before the protocol exists, so the arrays
    are sized once.
    """

    def __init__(self, nprocs: int, n_pages: int = 0):
        self.nprocs = nprocs
        self._cap = max(1, int(n_pages))
        self.readable = np.zeros((nprocs, self._cap), bool)
        self.writable = np.zeros((nprocs, self._cap), bool)
        self._make_row_views()

    def _make_row_views(self) -> None:
        # Per-processor row views, indexable by a plain list lookup: the
        # hit path probes these directly, skipping 2-D indexing.  They
        # alias the 2-D arrays, so ``set`` updates are visible in both.
        self.r_rows = list(self.readable)
        self.w_rows = list(self.writable)

    def _grow(self, needed: int) -> None:
        cap = max(needed, 2 * self._cap)
        readable = np.zeros((self.nprocs, cap), bool)
        writable = np.zeros((self.nprocs, cap), bool)
        readable[:, : self._cap] = self.readable
        writable[:, : self._cap] = self.writable
        self.readable, self.writable, self._cap = readable, writable, cap
        self._make_row_views()

    def ensure_cap(self, needed: int) -> None:
        """Public grow hook for hit paths that probe the row views."""
        if needed > self._cap:
            self._grow(needed)

    # -- updates (called at every permission transition) ---------------

    def set(self, pid: int, page: int, perm: Protection) -> None:
        if page >= self._cap:
            self._grow(page + 1)
        readable, writable = _PERM_BITS[perm]
        self.r_rows[pid][page] = readable
        self.w_rows[pid][page] = writable

    # -- queries (the vectorized hit-path check) ------------------------

    # Short spans are checked with scalar indexing: numpy's ufunc
    # dispatch for ``.all()`` costs ~1us regardless of length, while a
    # scalar probe is ~40ns, so the crossover sits well above the page
    # counts typical of a row access.

    def read_ready(self, pid: int, lo: int, hi: int) -> bool:
        """True iff every page in ``[lo, hi)`` is readable at ``pid``."""
        if hi > self._cap:
            self._grow(hi)
        row = self.readable[pid]
        if hi - lo <= 16:
            for page in range(lo, hi):
                if not row[page]:
                    return False
            return True
        return bool(row[lo:hi].all())

    def read_ready_pages(self, pid: int, pages: np.ndarray) -> bool:
        """True iff every page in the index array is readable at ``pid``.

        One fancy-indexed probe for an arbitrary (non-contiguous) page
        set — the region hit-path check.  Out-of-capacity pages grow
        the bitmap (as unmapped, so the probe then correctly fails).
        """
        try:
            return bool(self.readable[pid][pages].all())
        except IndexError:
            self._grow(int(pages.max()) + 1)
            return bool(self.readable[pid][pages].all())

    def write_ready_pages(self, pid: int, pages: np.ndarray) -> bool:
        """True iff every page in the index array is writable at ``pid``."""
        try:
            return bool(self.writable[pid][pages].all())
        except IndexError:
            self._grow(int(pages.max()) + 1)
            return bool(self.writable[pid][pages].all())

    def readable_at(self, pid: int, page: int) -> bool:
        if page >= self._cap:
            self._grow(page + 1)
        return bool(self.readable[pid, page])

    # -- coherence checking ---------------------------------------------

    def expect(self, pid: int, pairs) -> None:
        """Assert this row matches an authoritative ``(page, perm)``
        iterable (everything not listed must be ``Protection.NONE``)."""
        expect_r = np.zeros(self._cap, bool)
        expect_w = np.zeros(self._cap, bool)
        for page, perm in pairs:
            if page < self._cap:
                expect_r[page] = perm >= Protection.READ
                expect_w[page] = perm >= Protection.READ_WRITE
            elif perm is not Protection.NONE:
                raise AssertionError(
                    f"p{pid}: page {page} has {perm.name} beyond bitmap "
                    f"capacity {self._cap}"
                )
        for name, bitmap, expect in (
            ("readable", self.readable[pid], expect_r),
            ("writable", self.writable[pid], expect_w),
        ):
            bad = np.flatnonzero(bitmap != expect)
            if bad.size:
                page = int(bad[0])
                raise AssertionError(
                    f"p{pid}: {name} bitmap disagrees with perm state at "
                    f"page {page} (bitmap={bool(bitmap[page])}, "
                    f"perm says {bool(expect[page])})"
                )
