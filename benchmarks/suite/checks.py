"""Correctness checks and exact counts shared by all four workloads."""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

import numpy as np

#: Parallel runs must reproduce their sequential run's answer to this
#: relative tolerance (the tier-1 suite's own figure).
RTOL = 1e-7


def values_match(a: Any, b: Any, rtol: float = RTOL) -> bool:
    """Compare worker return values (scalars, arrays, or tuples)."""
    if isinstance(a, (tuple, list)):
        return (
            isinstance(b, (tuple, list))
            and len(a) == len(b)
            and all(values_match(x, y, rtol) for x, y in zip(a, b))
        )
    return bool(np.allclose(a, b, rtol=rtol, atol=1e-9))


class ExactCounts:
    """Sums the deterministic counters of every result it is shown.

    The sums depend only on the simulated model and the inputs, never on
    the host, so two runs of one seed must agree on every one of them.
    """

    def __init__(self) -> None:
        self.exec_time_us = 0.0
        self.network_bytes = 0
        self.counters: Dict[str, int] = {}
        self._digests: List[str] = []

    def add(self, result) -> None:
        from repro.serving.codec import result_digest

        self.exec_time_us += result.exec_time
        self.network_bytes += result.network_bytes
        for name, value in result.stats.aggregate_counters().items():
            self.counters[name] = self.counters.get(name, 0) + int(value)
        self._digests.append(result_digest(result))

    def metrics(self, events: int) -> Dict[str, float]:
        """The ``EXACT_COUNTS`` metrics; ``events`` comes from the
        ``Engine.run`` wrapper, which only a traced run installs."""
        count = self.counters.get
        crc = hashlib.sha256("".join(self._digests).encode()).digest()[:4]
        return {
            "sim.engine.events": events,
            "sim.exec_time_us": self.exec_time_us,
            "sim.stats_crc": int.from_bytes(crc, "big"),
            "cluster.messaging.msgs": count("messages", 0),
            "cluster.network.bytes": self.network_bytes,
            "core.read_faults": count("read_faults", 0),
            "core.write_faults": count("write_faults", 0),
            "core.page_transfers": count("page_transfers", 0),
            "core.sync_ops": count("locks", 0) + count("barriers", 0),
            "memory.diff.created": count("diffs_created", 0),
            "memory.diff.applied": count("diffs_applied", 0),
            "memory.twins": count("twins_created", 0),
        }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]
