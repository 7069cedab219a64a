"""Cold-point batching over one long-lived worker pool.

Points that miss both the cache and the singleflight are *cold*: a
simulation has to run.  Spawning execution machinery per request is
what the naive path does (and what makes it slow); the batcher instead
groups cold arrivals inside a small window — one timer, not one pool,
per batch — and fans the whole group across a worker pool that lives
as long as the server (:func:`repro.harness.parallel.persistent_pool`).

Each point's completion resolves independently: the batch groups
*submission*, never *completion*, so a quick point never waits for a
slow batchmate and the server streams results back as they land.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional, Tuple


class ColdPointBatcher:
    """Window-batched admission to a persistent executor.

    ``submit``
        ``spec -> concurrent.futures.Future`` — typically
        ``pool.submit(execute_point_timed, spec)`` bound to the
        server's long-lived pool.
    ``on_done``
        ``(key, outcome, error) -> None`` — called on the event loop as
        each point completes; the service uses it to store the result
        and resolve the singleflight.
    ``window_s``
        Arrival window: the first admission after a flush arms one
        timer; everything admitted before it fires joins the batch.
        ``0`` still batches arrivals from the same event-loop
        iteration (the timer fires on the next).
    ``max_batch``
        Flush early once this many points are pending, so a burst
        never waits out the window behind a full batch.
    """

    def __init__(
        self,
        submit: Callable,
        on_done: Callable,
        window_s: float = 0.005,
        max_batch: int = 32,
    ) -> None:
        self._submit = submit
        self._on_done = on_done
        self.window_s = window_s
        self.max_batch = max(1, max_batch)
        self._pending: List[Tuple[str, Any]] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._loop = asyncio.get_running_loop()
        self._inflight: set = set()
        #: Batches flushed / points flushed / largest single flush.
        self.batches = 0
        self.points = 0
        self.largest_batch = 0

    def admit(self, key: str, spec) -> None:
        """Queue one cold point; it flushes within the window."""
        self._pending.append((key, spec))
        if len(self._pending) >= self.max_batch:
            self.flush()
        elif self._timer is None:
            self._timer = self._loop.call_later(self.window_s, self.flush)

    def flush(self) -> None:
        """Close the current window and submit its batch to the pool."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.batches += 1
        self.points += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        for key, spec in batch:
            try:
                pool_future = self._submit(spec)
            except Exception as exc:  # pool already shut down
                self._on_done(key, None, exc)
                continue
            task = self._loop.create_task(
                self._finish(key, asyncio.wrap_future(pool_future))
            )
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _finish(self, key: str, future: asyncio.Future) -> None:
        try:
            outcome = await future
        except Exception as exc:
            self._on_done(key, None, exc)
        else:
            self._on_done(key, outcome, None)

    async def drain(self) -> None:
        """Flush now and wait for every submitted point to complete."""
        self.flush()
        while self._inflight:
            await asyncio.gather(*list(self._inflight))
