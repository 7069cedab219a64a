"""The shared virtual address space, divided into sharing units.

The address space is a flat byte range carved into aligned regions.
It owns the *backing store*: the initial contents of every unit, set up
by the application's (untimed) initialization phase, exactly as the
paper's applications initialize shared data before the timed parallel
section begins.

Since PR 10 the "page" the coherence stack indexes by is really the
*sharing unit* of the run's :mod:`~repro.memory.policy` — a sub-page
block, the VM page (the default, and then everything below is exactly
the paper's page machinery), or a multi-page region.  ``page_size``
deliberately keeps its name and means "unit size": every consumer of
the space's page math (permission bitmaps, span faulting, twins,
diffs, directory entries, fetch sizes) re-keys on units with no
further changes.  The true VM page is ``vm_page_size`` — the value
layout decisions (app padding, region alignment) must use, so data
layout never varies with the sharing policy.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np


@dataclass(frozen=True)
class SharedRegion:
    """A named, page-aligned slice of the shared address space."""

    name: str
    offset: int
    nbytes: int
    space: "AddressSpace"

    @property
    def first_page(self) -> int:
        return self.offset // self.space.page_size

    @property
    def n_pages(self) -> int:
        ps = self.space.page_size
        return (self.nbytes + ps - 1) // ps

    @property
    def pages(self) -> range:
        return range(self.first_page, self.first_page + self.n_pages)

    def initialize(self, data: np.ndarray) -> None:
        """Set the region's initial contents (untimed init phase)."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        if raw.nbytes > self.nbytes:
            raise ValueError(
                f"{raw.nbytes} bytes do not fit region {self.name!r} "
                f"of {self.nbytes} bytes"
            )
        self.space.write_backing(self.offset, raw)

    def read_backing(self, dtype, count: int) -> np.ndarray:
        """Read the region's backing contents as ``count`` items."""
        itemsize = np.dtype(dtype).itemsize
        raw = self.space.read_backing(self.offset, count * itemsize)
        return raw.view(dtype)


class AddressSpace:
    """Flat shared byte space: allocation, unit math, backing store.

    ``page_size`` is the *sharing unit* size (see the module
    docstring); ``vm_page_size`` is the hardware VM page.  They are
    equal unless a non-default granularity passes ``unit_size``.
    """

    def __init__(self, page_size: int = 8192, unit_size: int = None):
        if page_size < 64 or page_size % 8:
            raise ValueError("page size must be a multiple of 8 and >= 64")
        self.vm_page_size = page_size
        if unit_size is not None:
            if unit_size < 64 or unit_size % 8:
                raise ValueError(
                    "unit size must be a multiple of 8 and >= 64"
                )
            if page_size % unit_size and unit_size % page_size:
                raise ValueError(
                    f"unit size {unit_size} neither divides nor is a "
                    f"multiple of the {page_size}-byte VM page"
                )
        self.page_size = unit_size if unit_size is not None else page_size
        # Regions align to the coarser of VM page and unit: sub-page
        # units keep the exact pre-policy layout (page alignment), and
        # multi-page units keep ``_brk`` a whole number of units so the
        # unit count below is exact.
        self._align = max(self.page_size, self.vm_page_size)
        self._brk = 0
        self.regions: Dict[str, SharedRegion] = {}
        self._backing: Dict[int, np.ndarray] = {}

    # -- allocation -------------------------------------------------------

    def alloc(self, name: str, nbytes: int) -> SharedRegion:
        """Allocate an aligned region of at least ``nbytes``."""
        if nbytes <= 0:
            raise ValueError("region must have positive size")
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        ps = self._align
        size = ((nbytes + ps - 1) // ps) * ps
        region = SharedRegion(name, self._brk, size, self)
        self._brk += size
        self.regions[name] = region
        return region

    @property
    def n_pages(self) -> int:
        return self._brk // self.page_size

    @property
    def total_bytes(self) -> int:
        return self._brk

    # -- page math ----------------------------------------------------------

    def page_spans(
        self, offset: int, nbytes: int
    ) -> Iterator[Tuple[int, int, int]]:
        """Split ``[offset, offset+nbytes)`` into per-page pieces.

        Yields ``(page_index, start_within_page, length)``.
        """
        if offset < 0 or nbytes < 0 or offset + nbytes > self._brk:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside address space"
            )
        ps = self.page_size
        pos = offset
        end = offset + nbytes
        while pos < end:
            page = pos // ps
            start = pos - page * ps
            length = min(ps - start, end - pos)
            yield page, start, length
            pos += length

    def pages_in(self, offset: int, nbytes: int) -> List[int]:
        return [page for page, _, _ in self.page_spans(offset, nbytes)]

    def span_bounds(self, offset: int, nbytes: int) -> Tuple[int, int]:
        """Page-index bounds ``[lo, hi)`` of ``[offset, offset+nbytes)``.

        The O(1) counterpart of :meth:`page_spans` for the fast path:
        two divisions instead of a generator.  ``nbytes == 0`` yields an
        empty range (``lo == hi``), matching ``page_spans`` yielding
        nothing.
        """
        if offset < 0 or nbytes < 0 or offset + nbytes > self._brk:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside address space"
            )
        ps = self.page_size
        lo = offset // ps
        if nbytes == 0:
            return lo, lo
        return lo, (offset + nbytes - 1) // ps + 1

    def page_spans_list(
        self, offset: int, nbytes: int
    ) -> List[Tuple[int, int, int]]:
        """:meth:`page_spans` materialized as a list, computed without a
        generator (the slow path walks it twice: faults, then bytes)."""
        lo, hi = self.span_bounds(offset, nbytes)
        ps = self.page_size
        if hi - lo == 1:  # one page: the overwhelmingly common case
            return [(lo, offset - lo * ps, nbytes)]
        end = offset + nbytes
        spans = []
        pos = offset
        for page in range(lo, hi):
            start = pos - page * ps
            length = min(ps - start, end - pos)
            spans.append((page, start, length))
            pos += length
        return spans

    # -- backing store ----------------------------------------------------

    def backing_page(self, page: int) -> np.ndarray:
        """The initial contents of ``page`` (zeros until written)."""
        if not (0 <= page < self.n_pages):
            raise ValueError(f"page {page} out of range")
        data = self._backing.get(page)
        if data is None:
            data = np.zeros(self.page_size, np.uint8)
            self._backing[page] = data
        return data

    def write_backing(self, offset: int, raw: np.ndarray) -> None:
        pos = 0
        for page, start, length in self.page_spans(offset, raw.nbytes):
            self.backing_page(page)[start : start + length] = raw[
                pos : pos + length
            ]
            pos += length

    def read_backing(self, offset: int, nbytes: int) -> np.ndarray:
        out = np.empty(nbytes, np.uint8)
        pos = 0
        for page, start, length in self.page_spans(offset, nbytes):
            out[pos : pos + length] = self.backing_page(page)[
                start : start + length
            ]
            pos += length
        return out

    def backing_digest(self) -> int:
        """CRC-32 of the backing store (debug checks: warm frames are
        views of it, so a parallel run must never change it)."""
        return zlib.crc32(self.read_backing(0, self._brk))
