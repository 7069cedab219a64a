"""Cashmere's distributed page directory.

A directory entry is a set of eight 4-byte words, one per SMP node, each
holding presence bits for the node's four CPUs, the page's home node, a
first-touch bit, and exclusive-mode bits.  The directory is replicated on
every node: reads are local, updates are broadcast over the Memory
Channel.  The simulator keeps one authoritative copy and charges the
replication costs explicitly.

Past the paper's 8 nodes the all-node broadcast per update stops
scaling (on fabrics without hardware replication it costs one unicast
per node), so the directory can be **sharded** (PR 7): pages are
interleaved over ``n_shards`` segments, each anchored at a shard-home
node that keeps the authoritative words, and an update becomes a single
unicast to that node.  The shard map is deterministic (``page mod
n_shards``) so results are reproducible and cacheable; the resolved
shard count enters the result-cache key.  ``n_shards=1`` is the
paper's replicated-broadcast directory, bit-identical to the legacy
code.  Note that on the Memory Channel itself a unicast and a
broadcast cost the same (every write crosses the one reflective hub),
so sharding changes simulated results only on the point-to-point
fabrics (rdma) — exactly the scalability wall it addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


@dataclass
class DirectoryEntry:
    """Authoritative sharing state of one page."""

    page: int
    sharers: Set[int] = field(default_factory=set)  # processor ids
    home_node: Optional[int] = None
    exclusive_holder: Optional[int] = None
    never_exclusive: bool = False
    # Only used by the legacy weak-state protocol variant: a page with
    # any writer is "weak" and invalidated by every sharer at acquires.
    weak: bool = False

    @property
    def home_assigned(self) -> bool:
        return self.home_node is not None

    def others(self, pid: int) -> Set[int]:
        return self.sharers - {pid}


class Directory:
    """Lazy map page -> :class:`DirectoryEntry`, optionally sharded.

    With ``n_shards > 1`` the entries live in per-shard dicts under the
    deterministic interleave ``shard(page) = page % n_shards``; the
    protocol anchors each shard at a home node and unicasts updates
    there instead of broadcasting.  ``n_shards=1`` keeps the single
    legacy dict.
    """

    def __init__(self, n_shards: int = 1) -> None:
        if n_shards < 1:
            raise ValueError("directory needs at least one shard")
        self.n_shards = n_shards
        self._shards: List[Dict[int, DirectoryEntry]] = [
            {} for _ in range(n_shards)
        ]
        # The single-shard hot path keeps the legacy attribute alive:
        # one dict lookup, no modulo.
        self._entries: Dict[int, DirectoryEntry] = self._shards[0]

    def shard(self, page: int) -> int:
        """Deterministic shard index of ``page``."""
        return page % self.n_shards

    def entry(self, page: int) -> DirectoryEntry:
        table = (
            self._entries
            if self.n_shards == 1
            else self._shards[page % self.n_shards]
        )
        found = table.get(page)
        if found is None:
            found = DirectoryEntry(page)
            table[page] = found
        return found

    def known_entries(self) -> Dict[int, DirectoryEntry]:
        merged: Dict[int, DirectoryEntry] = {}
        for table in self._shards:
            merged.update(table)
        return merged

    def check(self) -> None:
        """Invariant check: exclusive holder must be the only sharer's
        candidate writer and must itself be a sharer."""
        for page, entry in self.known_entries().items():
            holder = entry.exclusive_holder
            if holder is not None and holder not in entry.sharers:
                raise AssertionError(
                    f"page {page}: exclusive holder {holder} is not a sharer"
                )
            if holder is not None and entry.never_exclusive:
                raise AssertionError(
                    f"page {page}: exclusive but flagged never-exclusive"
                )
