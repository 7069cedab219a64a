"""Time categories and counters for one simulated execution.

The five time categories mirror the paper's Figure 6 breakdown: User,
Polling, Write doubling, Protocol, and Communication & Wait.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable


class Category(enum.Enum):
    """Where a microsecond of a processor's time went."""

    USER = "user"
    POLL = "polling"
    WDOUBLE = "write_doubling"
    PROTOCOL = "protocol"
    COMM_WAIT = "comm_wait"

    # Members are singletons, so identity hashing is equivalent to
    # Enum's default (name-based) hashing — but it is a C-level slot
    # instead of a Python call.  Charging time is dict-keyed by
    # Category on the hottest path in the simulator; profiles showed
    # ~190k Enum.__hash__ frames per 8p run before this.
    __hash__ = object.__hash__


#: The counter each countable event kind increments: the one pairing
#: ``DsmProtocol.record`` applies, so a counter is the count of its
#: events.  Other kinds are traced only (docs/OBSERVABILITY.md).
EVENT_COUNTERS: Dict[str, str] = {
    "read_fault": "read_faults", "write_fault": "write_faults",
    "twin": "twins_created", "prefetch": "prefetches",
    "gc_flush": "gc_rounds", "page_fetch": "page_fetches",
    "diff_apply": "diffs_applied", "diff_create": "diffs_created",
    "diff_to_home": "diffs_created", "page_transfer": "page_transfers",
    "home_migrated": "home_migrations",
    "write_notice": "write_notices_sent",
    "evict": "copy_evictions", "rdma_read": "rdma_reads",
    "barrier": "barriers", "lock_acquire": "locks",
}


@dataclass
class ProcStats:
    """Time and event accounting for a single processor.

    A worker may *freeze* its statistics when its timed section ends
    (before any untimed verification epilogue); reported values then come
    from the frozen snapshot.
    """

    pid: int
    time: Dict[Category, float] = field(
        default_factory=lambda: {c: 0.0 for c in Category}
    )
    counters: Counter = field(default_factory=Counter)
    finish_time: float = 0.0
    _frozen_time: Dict[Category, float] = field(default=None, repr=False)
    _frozen_counters: Counter = field(default=None, repr=False)

    def charge(self, category: Category, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative charge {dt} to {category}")
        self.time[category] += dt

    def bump(self, counter: str, n: int = 1) -> None:
        self.counters[counter] += n

    def freeze(self, now: float) -> None:
        """Snapshot time and counters at the end of the timed section."""
        self.finish_time = now
        self._frozen_time = dict(self.time)
        self._frozen_counters = Counter(self.counters)

    @property
    def frozen(self) -> bool:
        return self._frozen_time is not None

    @property
    def reported_time(self) -> Dict[Category, float]:
        return self._frozen_time if self.frozen else self.time

    @property
    def reported_counters(self) -> Counter:
        return self._frozen_counters if self.frozen else self.counters

    @property
    def total_time(self) -> float:
        return sum(self.reported_time.values())

    def as_dict(self) -> Dict:
        """JSON-ready snapshot of the reported (frozen if frozen) view;
        used by the trace exporters' run metadata."""
        return {
            "pid": self.pid,
            "finish_time": self.finish_time,
            "time_us": {c.value: t for c, t in self.reported_time.items()},
            "counters": dict(self.reported_counters),
        }


class StatsBoard:
    """All processors' statistics for one run, plus aggregation."""

    def __init__(self, nprocs: int):
        self.procs = [ProcStats(pid) for pid in range(nprocs)]

    def __getitem__(self, pid: int) -> ProcStats:
        return self.procs[pid]

    def __iter__(self) -> Iterable[ProcStats]:
        return iter(self.procs)

    def total(self, counter: str) -> int:
        return sum(p.reported_counters[counter] for p in self.procs)

    def total_time(self, category: Category) -> float:
        return sum(p.reported_time[category] for p in self.procs)

    def aggregate_counters(self) -> Counter:
        out: Counter = Counter()
        for proc in self.procs:
            out.update(proc.reported_counters)
        return out

    @property
    def finish_time(self) -> float:
        return max((p.finish_time for p in self.procs), default=0.0)

    def as_dict(self) -> Dict:
        """JSON-ready per-processor snapshot (see ProcStats.as_dict)."""
        return {
            "finish_time": self.finish_time,
            "procs": [p.as_dict() for p in self.procs],
        }
