"""The per-worker environment: what an application thread sees.

An :class:`Env` is passed to every SPMD worker.  It exposes compute,
synchronization, and (through :class:`SharedArray`) shared-memory access,
all as generators driven by the simulation engine.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.config import WorkingSet
from repro.cluster.machine import Processor
from repro.core.base import DsmProtocol
from repro.stats import Category


class Env:
    """Execution environment of one worker (one processor)."""

    def __init__(
        self,
        rank: int,
        nprocs: int,
        proc: Processor,
        protocol: DsmProtocol,
        debug_checks: bool = False,
    ):
        self.rank = rank
        self.nprocs = nprocs
        self.proc = proc
        self.protocol = protocol
        self.debug_checks = debug_checks

    @property
    def now(self) -> float:
        return self.proc.engine.now

    def stop_timer(self) -> None:
        """End the timed section: freeze this worker's statistics.

        Call after the final barrier, before any verification gather, so
        reported times and counters match what the paper measures.
        """
        self.proc.stats[self.rank].freeze(self.now)

    # -- compute ----------------------------------------------------------

    def compute(
        self,
        us: float,
        polls: int = 0,
        ws: Optional[WorkingSet] = None,
    ) -> Generator:
        """Run ``us`` microseconds of application work.

        ``polls`` is the number of loop back-edges the instrumentation
        pass would cover in this block; ``ws`` declares the cache working
        set so protocol-added footprint (write doubling, twins) can
        inflate the time as it does on the real 21064A.

        The common case — no working set, tracing off — returns the
        processor's own compute generator, so every resume of the block
        crosses one frame fewer (``env.compute`` contributes no frame of
        its own to the ``yield from`` chain).
        """
        tracer = self.protocol.tracer
        if ws is None and (tracer is None or not tracer.enabled):
            return self.proc.compute(us, polls=polls)
        return self._compute_full(us, polls, ws)

    def _compute_full(
        self, us: float, polls: int, ws: Optional[WorkingSet]
    ) -> Generator:
        """Working-set inflation and/or trace-span emission."""
        shares = None
        total = us
        if ws is not None:
            user_f, total_f, overhead_cat = self.protocol.compute_factors(ws)
            total = us * total_f
            if total > 0 and total_f > user_f:
                shares = {
                    Category.USER: user_f / total_f,
                    overhead_cat: (total_f - user_f) / total_f,
                }
        t0 = self.now
        yield from self.proc.compute(total, polls=polls, shares=shares)
        self.protocol.record(
            self.proc, "compute", dur=self.now - t0, polls=polls
        )

    # -- synchronization -----------------------------------------------------
    #
    # The span events emitted here ("barrier", "lock_acquire",
    # "flag_wait") are protocol-independent: the same program emits the
    # same sequence under every protocol, which is what lets
    # repro.stats.trace.diff_traces align two traces of one app run.

    def barrier(self, barrier_id: int = 0) -> Generator:
        t0 = self.now
        yield from self.protocol.barrier(self.proc, barrier_id)
        self.protocol.record(
            self.proc, "barrier", dur=self.now - t0, barrier=barrier_id
        )
        if self.debug_checks:
            # --debug-checks: re-verify the page tables (bitmaps against
            # perms, frames against mappings) at every synchronization
            # point, so a drifting transition is caught right after it
            # happens.
            self.protocol.check_page_tables()

    def lock_acquire(self, lock_id: int) -> Generator:
        t0 = self.now
        yield from self.protocol.lock_acquire(self.proc, lock_id)
        self.protocol.record(
            self.proc, "lock_acquire", dur=self.now - t0, lock=lock_id
        )

    def lock_release(self, lock_id: int) -> Generator:
        yield from self.protocol.lock_release(self.proc, lock_id)
        self.protocol.record(self.proc, "lock_release", lock=lock_id)

    def flag_set(self, flag_id: int) -> Generator:
        yield from self.protocol.flag_set(self.proc, flag_id)
        self.protocol.record(self.proc, "flag_set", flag=flag_id)

    def flag_wait(self, flag_id: int) -> Generator:
        t0 = self.now
        yield from self.protocol.flag_wait(self.proc, flag_id)
        self.protocol.record(
            self.proc, "flag_wait", dur=self.now - t0, flag=flag_id
        )
