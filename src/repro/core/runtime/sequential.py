"""A no-op protocol for sequential (unlinked) reference runs.

The paper measures sequential times "by running each application
sequentially without linking it to either TreadMarks or Cashmere"; this
protocol provides exactly that: direct access to the backing store with
no faults, no synchronization cost, and no instrumentation overhead.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.base import DsmProtocol
from repro.memory.address_space import AddressSpace


def _noop() -> Generator:
    return
    yield  # pragma: no cover - makes this a generator function


class SequentialProtocol(DsmProtocol):
    """Free memory access for a single processor."""

    counts_polling = False

    def __init__(self, space: AddressSpace, costs=None):
        from repro.cluster.cache import CacheModel
        from repro.config import CostModel

        self.space = space
        self.cache = CacheModel(costs or CostModel())

    def compute_factors(self, ws):
        # The unlinked sequential run still pays the inherent cache cost
        # of its working sets (a whole-matrix Gauss does not fit in L2).
        from repro.stats import Category

        factor = self.cache.total_factor(ws)
        return factor, factor, Category.USER

    def ensure_read(self, proc, page: int) -> Generator:
        return _noop()

    def ensure_write(self, proc, page: int) -> Generator:
        return _noop()

    # Every page is always mapped read/write: the hit paths go straight
    # to the backing store, with no bitmaps and no faults.

    def fast_read(self, proc, space, offset: int, nbytes: int) -> np.ndarray:
        return space.read_backing(offset, nbytes)

    def fast_write(self, proc, space, offset: int, raw) -> bool:
        space.write_backing(offset, raw)
        return True

    def region_gather(self, proc, space, region) -> np.ndarray:
        out = np.empty(region.nbytes, np.uint8)
        pos = 0
        for offset, nbytes in region.segs:
            out[pos : pos + nbytes] = space.read_backing(offset, nbytes)
            pos += nbytes
        return out

    def region_scatter(self, proc, space, region, raw) -> bool:
        pos = 0
        for offset, nbytes in region.segs:
            space.write_backing(offset, raw[pos : pos + nbytes])
            pos += nbytes
        return True

    def check_perm_bitmaps(self) -> None:
        """No bitmaps to check: ``--debug-checks`` barriers pass."""

    def page_data(self, proc, page: int) -> np.ndarray:
        return self.space.backing_page(page)

    def apply_write(self, proc, page: int, start: int, raw) -> Generator:
        self.space.backing_page(page)[start : start + len(raw)] = raw
        return _noop()

    def lock_acquire(self, proc, lock_id: int) -> Generator:
        return _noop()

    def lock_release(self, proc, lock_id: int) -> Generator:
        return _noop()

    def barrier(self, proc, barrier_id: int) -> Generator:
        return _noop()

    def flag_set(self, proc, flag_id: int) -> Generator:
        return _noop()

    def flag_wait(self, proc, flag_id: int) -> Generator:
        return _noop()

    def serve(self, proc, request) -> Generator:
        raise RuntimeError("sequential runs receive no remote requests")
