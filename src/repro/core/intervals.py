"""Vector timestamps, intervals, and write notices.

Lazy release consistency divides each processor's execution into
*intervals* delineated by remote synchronization operations.  An
:class:`IntervalRecord` is the unit of consistency information exchanged
at acquires: it names the writing processor, its interval index, the
vector timestamp of the interval, and the pages written (the *write
notices*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain as _chain, compress
from operator import attrgetter, gt
from typing import Iterable, List, Sequence, Tuple


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
    """One closed interval of one processor, with its write notices.

    ``rank`` is ``sum(vts)``, computed once at construction: if interval
    a happens before interval b then ``a.rank < b.rank``, so ordering by
    ``(rank, proc)`` — one int, ``order`` — linearizes happens-before.
    Both are derived, so :func:`dataclasses.replace` recomputes them.
    """

    proc: int
    iid: int  # interval index on ``proc`` (1-based)
    vts: Tuple[int, ...]
    pages: Tuple[int, ...]
    rank: int = field(init=False, repr=False, compare=False)
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rank = sum(self.vts)
        object.__setattr__(self, "rank", rank)
        # ``0 <= proc < len(vts)``, so this int sorts as ``(rank, proc)``.
        object.__setattr__(self, "order", rank * len(self.vts) + self.proc)

    def encoded_size(self, header: int, vts_entry: int, notice: int) -> int:
        return header + vts_entry * len(self.vts) + notice * len(self.pages)


_ORDER = attrgetter("order")


class IntervalStore:
    """One processor's knowledge of everyone's closed intervals.

    Garbage collection (see ``TreadMarksProtocol``) discards records at
    a globally synchronized point; the store then keeps only a per-proc
    *base* — the last interval index covered by the collected epoch.
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self._procs = range(nprocs)
        self._records: List[List[IntervalRecord]] = [
            [] for _ in self._procs
        ]
        self._base: List[int] = [0] * nprocs
        self._latest: List[int] = [0] * nprocs  # base + len(chain)

    def insert(self, record: IntervalRecord) -> bool:
        """Add a record; returns False if it was already known."""
        return bool(self.admit((record,)))

    def admit(
        self, records: Iterable[IntervalRecord]
    ) -> List[IntervalRecord]:
        """Add each of ``records`` in turn; returns the ones that were
        new, in order (a merge's whole batch in one call).

        Records for one processor always arrive in increasing interval
        order (they travel together along happens-before edges), so the
        per-processor list stays sorted; a gap raises.
        """
        latest = self._latest
        chains = self._records
        fresh: List[IntervalRecord] = []
        for record in records:
            proc = record.proc
            iid = record.iid
            last = latest[proc]
            if iid <= last:
                continue
            if iid != last + 1:
                raise AssertionError(
                    f"interval gap for p{proc}: got {iid} after {last}"
                )
            chains[proc].append(record)
            latest[proc] = iid
            fresh.append(record)
        return fresh

    def latest(self, proc: int) -> int:
        return self._latest[proc]

    def record_count(self) -> int:
        return sum(self._latest) - sum(self._base)

    def collect(self, vts: Sequence[int]) -> None:
        """Discard every record (all are covered by ``vts`` after a
        global flush) and remember the epoch base."""
        for proc in self._procs:
            if self._latest[proc] > vts[proc]:
                raise AssertionError(
                    f"cannot collect: p{proc} has records past the epoch"
                )
        self._records = [[] for _ in self._procs]
        self._base = list(vts)
        self._latest = list(vts)

    def records_after(self, vts: Sequence[int]) -> List[IntervalRecord]:
        """All known records not yet seen by a processor at ``vts``,
        in a happens-before-consistent order (ascending ``order``).

        Each chain holds the consecutive intervals ``base + 1 ..
        latest`` (:meth:`admit` refuses gaps), so the unseen records
        of a processor are a suffix found by index, not by scanning.
        Which processors have any is one C-level comparison of the
        ``latest`` vector against ``vts``; only those chains are
        visited, so the Python-level cost is O(returned records),
        whatever the store holds.
        """
        chains = self._records
        base = self._base
        out: List[IntervalRecord] = []
        for proc in compress(self._procs, map(gt, self._latest, vts)):
            start = vts[proc] - base[proc]
            out += chains[proc][start:] if start > 0 else chains[proc]
        if len(out) > 1:
            out.sort(key=_ORDER)
        return out

    def all_records(self) -> Iterable[IntervalRecord]:
        return _chain.from_iterable(self._records)
