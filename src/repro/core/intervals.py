"""Vector timestamps, intervals, and write notices.

Lazy release consistency divides each processor's execution into
*intervals* delineated by remote synchronization operations.  An
:class:`IntervalRecord` is the unit of consistency information exchanged
at acquires: it names the writing processor, its interval index, the
vector timestamp of the interval, and the pages written (the *write
notices*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


def vts_max(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """Pairwise maximum of two vector timestamps."""
    if len(a) != len(b):
        raise ValueError("vector timestamps of different arity")
    return tuple(map(max, a, b))


def vts_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff ``a`` happens-before-or-equals ``b`` (pointwise <=)."""
    if len(a) != len(b):
        raise ValueError("vector timestamps of different arity")
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class IntervalRecord:
    """One closed interval of one processor, with its write notices."""

    proc: int
    iid: int  # interval index on ``proc`` (1-based)
    vts: Tuple[int, ...]
    pages: Tuple[int, ...]

    def encoded_size(self, header: int, vts_entry: int, notice: int) -> int:
        return header + vts_entry * len(self.vts) + notice * len(self.pages)

    def sort_key(self) -> Tuple[int, int]:
        """A total order consistent with happens-before: if interval a
        precedes interval b then sum(a.vts) < sum(b.vts)."""
        return (sum(self.vts), self.proc)


class IntervalStore:
    """One processor's knowledge of everyone's closed intervals.

    Garbage collection (see ``TreadMarksProtocol``) discards records at
    a globally synchronized point; the store then keeps only a per-proc
    *base* — the last interval index covered by the collected epoch.
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self._records: Dict[int, List[IntervalRecord]] = {
            p: [] for p in range(nprocs)
        }
        self._base: List[int] = [0] * nprocs

    def insert(self, record: IntervalRecord) -> bool:
        """Add a record; returns False if it was already known.

        Records for one processor always arrive in increasing interval
        order (they travel together along happens-before edges), so the
        per-processor list stays sorted.
        """
        chain = self._records[record.proc]
        last = chain[-1].iid if chain else self._base[record.proc]
        if record.iid <= last:
            return False
        if record.iid != last + 1:
            raise AssertionError(
                f"interval gap for p{record.proc}: got {record.iid} "
                f"after {last}"
            )
        chain.append(record)
        return True

    def latest(self, proc: int) -> int:
        chain = self._records[proc]
        return chain[-1].iid if chain else self._base[proc]

    def record_count(self) -> int:
        return sum(len(chain) for chain in self._records.values())

    def collect(self, vts: Sequence[int]) -> None:
        """Discard every record (all are covered by ``vts`` after a
        global flush) and remember the epoch base."""
        for proc in range(self.nprocs):
            if self.latest(proc) > vts[proc]:
                raise AssertionError(
                    f"cannot collect: p{proc} has records past the epoch"
                )
            self._records[proc] = []
            self._base[proc] = vts[proc]

    def records_after(self, vts: Sequence[int]) -> List[IntervalRecord]:
        """All known records not yet seen by a processor at ``vts``,
        in a happens-before-consistent order.

        Each chain holds the consecutive intervals ``base + 1 ..
        latest`` (:meth:`insert` refuses gaps), so the unseen records
        of a processor are a suffix found by index, not by scanning:
        the cost is O(returned records), whatever the store holds.
        """
        out: List[IntervalRecord] = []
        base = self._base
        for proc, chain in self._records.items():
            start = vts[proc] - base[proc]
            if start < len(chain):
                out += chain[start:] if start > 0 else chain
        out.sort(key=IntervalRecord.sort_key)
        return out

    def all_records(self) -> Iterable[IntervalRecord]:
        for chain in self._records.values():
            yield from chain
