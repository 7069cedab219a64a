"""A no-op protocol for sequential (unlinked) reference runs.

The paper measures sequential times "by running each application
sequentially without linking it to either TreadMarks or Cashmere"; this
protocol provides exactly that: direct access to the backing store with
no faults, no synchronization cost, and no instrumentation overhead.
"""

from __future__ import annotations

from typing import Generator

from repro.core.base import DsmProtocol
from repro.core.fastpath import PermBitmaps
from repro.memory.address_space import AddressSpace
from repro.memory.page import Mapping, Protection


def _noop() -> Generator:
    return
    yield  # pragma: no cover - makes this a generator function


class SequentialProtocol(DsmProtocol):
    """Free memory access for a single processor.  Poll points cost
    nothing: the baseline runs under ``Mechanism.INTERRUPT``, and only
    ``Mechanism.POLL`` charges them (``Processor.compute``)."""

    def __init__(self, space: AddressSpace, costs=None):
        from repro.cluster.cache import CacheModel
        from repro.config import CostModel

        self.space = space
        self.cache = CacheModel(costs or CostModel())
        self.perms = PermBitmaps(1, space.n_pages)
        self.tables = [{}]

    def compute_factors(self, ws):
        # The unlinked sequential run still pays the inherent cache cost
        # of its working sets (a whole-matrix Gauss does not fit in L2).
        from repro.stats import Category

        factor = self.cache.total_factor(ws)
        return factor, factor, Category.USER

    # A page is mapped read/write, to its backing page, at its first
    # touch — no event, no time — so the shared hit path serves every
    # later access, pages allocated after construction included.

    def ensure_read(self, proc, page: int) -> Generator:
        if page not in self.tables[0]:
            mapping = Mapping(Protection.NONE, self.space.backing_page(page))
            self.tables[0][page] = mapping
            self._set_perm(0, page, mapping, Protection.READ_WRITE)
        return _noop()

    ensure_write = ensure_read

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
