"""Test-only oracle for the event order: the retired binary heap.

Production schedules on a calendar queue with a same-timestamp ring and
two drain shortcuts (``repro.sim.engine``).  The engine began as a
binary heap of ``(when, seq, func, arg)`` tuples, which fires entries in
``(when, push order)`` by construction — the ordering contract itself,
with no ring, no buckets and no shortcut to reason about.  It is the
reference production must match entry for entry, and the only place the
heap survives.  One event is counted per pop, which is the definition
production's ``Engine.events_fired`` reproduces.

``HeapEngine`` is the engine with its queue swapped: event pooling, the
wait forms and the past-time checks are production's own.  Inside
``heap_engine()`` every system ``repro.core.runtime.program`` builds runs
on it, so ``api.run_point`` replays a point on the heap.

Registered as ``tests.oracles.ORACLES`` (which also lists its CI points).
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Any, Callable, List, Optional

from repro.core.runtime import program as program_mod
from repro.sim import Engine


class HeapEngine(Engine):
    """The engine on the binary heap: one tuple per push, one event
    per pop."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: List = []
        self._seq = 0

    def _push(self, when: float, func: Callable[[Any], None], arg: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, func, arg))

    def _drain(self, until: Optional[float]) -> bool:
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return False
            _when, _seq, func, arg = pop(heap)
            if when < self.now:
                raise RuntimeError("event scheduled in the past")
            self.now = when
            self.events_fired += 1
            func(arg)
        return True


@contextlib.contextmanager
def heap_engine():
    """Systems built inside the block run on :class:`HeapEngine`:
    ``build_system`` and ``run_sequential`` construct their engine from
    ``repro.core.runtime.program.Engine`` at call time."""
    saved = program_mod.Engine
    program_mod.Engine = HeapEngine
    try:
        yield
    finally:
        program_mod.Engine = saved

