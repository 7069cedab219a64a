"""Typed views over the shared address space.

A :class:`SharedArray` is how application code touches shared memory.
Block reads and writes take exactly the read/write faults a hardware
MMU would deliver, then move real bytes through the protocol's page
copies.

Accesses whose pages are all already mapped — the overwhelmingly common
case, and one that costs *nothing* on the paper's hardware — are
resolved by one vectorized permission-bitmap check and a direct
gather/scatter, entering no protocol generator at all.  Cold spans fall
into the protocol's ``ensure_read_span`` / ``ensure_write_span`` batch
fault loops, which preserve per-page event order, counters, and traces
exactly.  This is the one access path; the per-page generator loop it
replaced is a test oracle in ``tests/access_oracle.py``
(``per_page_access()``), and simulated results are bit-identical to it.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Generator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.memory.address_space import SharedRegion

Index = Union[int, Tuple[int, ...]]


class Region:
    """A bulk access shape over one :class:`SharedArray`.

    A region is an ordered list of disjoint element segments plus the
    shape of the gathered result — rows, a row-block with a column
    slice, a flat slice, or an arbitrary gather of rows.  Build one
    with :meth:`SharedArray.region_rows` / :meth:`~SharedArray.region_block`
    / :meth:`~SharedArray.region_slice` / :meth:`~SharedArray.region_row_gather`,
    then move bytes with :meth:`~SharedArray.read_region` /
    :meth:`~SharedArray.write_region` / :meth:`~SharedArray.region_view`.

    Segment order is access order: the fault path replays segments
    front to back, so a region built from the rows an app used to loop
    over takes exactly the per-page fault/charge sequence the loop
    took.  Byte segments are precomputed at construction; regions whose
    shape does not depend on loop state can be built once and reused.
    """

    __slots__ = (
        "array", "segs", "total", "nbytes", "shape", "_spans", "_pages"
    )

    def __init__(self, array: "SharedArray", elem_segs, shape):
        self.array = array
        item = array._item
        base = array._base
        size = array.size
        segs = []
        total = 0
        for start_elem, count in elem_segs:
            if start_elem < 0 or count < 0 or start_elem + count > size:
                raise IndexError(
                    f"element range [{start_elem}, {start_elem + count}) "
                    f"outside array of {size}"
                )
            segs.append((base + start_elem * item, count * item))
            total += count
        self.segs = segs
        self.total = total
        self.nbytes = total * item
        self.shape = tuple(shape)
        if reduce(operator.mul, self.shape, 1) != total:
            raise ValueError(
                f"region shape {self.shape} does not hold {total} elements"
            )
        self._spans = None
        self._pages = None

    @classmethod
    def _trusted(cls, array, segs, total, shape):
        """Construct from pre-validated **byte** segments.

        The hot-path constructor behind :meth:`SharedArray.region_row_gather`:
        bounds are checked once by the caller (min/max over the whole
        row list), skipping the per-segment validation loop.
        """
        self = object.__new__(cls)
        self.array = array
        self.segs = segs
        self.total = total
        self.nbytes = total * array._item
        self.shape = shape
        self._spans = None
        self._pages = None
        return self

    def page_spans(self):
        """All ``(page, start, length)`` spans, segments in order.

        Pure geometry — computed once and cached, so a region reused
        across iterations (or written right after being read) pays for
        the page arithmetic only once.  Segment boundaries are
        preserved: two adjacent segments on one page stay two spans, so
        per-span protocol charges (Cashmere's doubled write) replay
        exactly as the equivalent per-call loop.
        """
        if self._spans is None:
            space = self.array._space
            spans = []
            for offset, nbytes in self.segs:
                spans.extend(space.page_spans_list(offset, nbytes))
            self._spans = spans
        return self._spans

    def span_pages(self) -> np.ndarray:
        """Page index of every span, as one array — the region hit
        path's single fancy-indexed bitmap probe."""
        if self._pages is None:
            self._pages = np.fromiter(
                (s[0] for s in self.page_spans()), np.intp
            )
        return self._pages


class RowGather:
    """Precomputed row-gather geometry for one ordered row list.

    Gauss builds a fresh :meth:`SharedArray.region_row_gather` every
    pivot step over a shrinking suffix of its cyclic rows with a
    sliding column window — O(rows) bounds checks and byte arithmetic
    per step.  A ``RowGather`` validates the row list and precomputes
    each row's byte base **once**; :meth:`region` then assembles the
    per-step region from the cached bases (the lu ``block_regions``
    idiom, generalized to suffix/column-window reuse).
    """

    __slots__ = ("array", "rows", "_bases", "_item", "_stride")

    def __init__(self, array: "SharedArray", rows: Sequence[int]):
        if rows and not 0 <= min(rows) <= max(rows) < array.shape[0]:
            raise IndexError(
                f"row list {min(rows)}..{max(rows)} out of range"
            )
        self.array = array
        self.rows = list(rows)
        item = array._item
        stride = array._stride
        base = array._base
        sbytes = stride * item
        self._bases = [base + r * sbytes for r in self.rows]
        self._item = item
        self._stride = stride

    def region(
        self, start_idx: int, col0: int = 0, col1: Optional[int] = None
    ) -> Region:
        """Region over ``rows[start_idx:]`` restricted to columns
        ``[col0, col1)`` — built from the cached byte bases."""
        stride = self._stride
        if col1 is None:
            col1 = stride
        if not 0 <= col0 <= col1 <= stride:
            raise IndexError(
                f"columns [{col0}, {col1}) outside row of {stride}"
            )
        item = self._item
        off = col0 * item
        width = col1 - col0
        wbytes = width * item
        bases = self._bases
        count = len(bases) - start_idx
        return Region._trusted(
            self.array,
            [(b + off, wbytes) for b in bases[start_idx:]],
            count * width,
            (count, width),
        )


class SharedArray:
    """An n-dimensional typed array living in DSM shared memory.

    All access methods are generators: they must be driven with
    ``yield from`` inside a worker so that faults and transfers consume
    simulated time.  Multi-dimensional arrays are row-major, so a "row
    block" is contiguous and spans a predictable set of pages — the
    layout the paper's applications rely on for their banding.
    """

    def __init__(self, region: SharedRegion, dtype, shape: Sequence[int]):
        self.region = region
        self.dtype = np.dtype(dtype)
        self.shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise ValueError(f"bad shape {self.shape}")
        self.size = reduce(operator.mul, self.shape, 1)
        if self.size * self.dtype.itemsize > region.nbytes:
            raise ValueError(
                f"array {self.shape}x{self.dtype} does not fit region "
                f"{region.name!r}"
            )
        # Hot-path constants: the access methods run tens of thousands
        # of times per simulation, so spare them the attribute chains.
        self._item = self.dtype.itemsize
        self._stride = self.size // self.shape[0]
        self._space = region.space
        self._base = region.offset
        self._tail = self.shape[1:]

    # -- construction ---------------------------------------------------

    @staticmethod
    def alloc(space, name: str, dtype, shape: Sequence[int]) -> "SharedArray":
        dtype = np.dtype(dtype)
        size = reduce(operator.mul, [int(s) for s in shape], 1)
        region = space.alloc(name, size * dtype.itemsize)
        return SharedArray(region, dtype, shape)

    def initialize(self, values) -> None:
        """Set initial contents (untimed initialization phase)."""
        arr = np.asarray(values, self.dtype)
        if arr.shape != self.shape:
            arr = np.broadcast_to(arr, self.shape).copy()
        self.region.initialize(arr)

    # -- index math ----------------------------------------------------------

    def _flatten(self, index: Index) -> int:
        shape = self.shape
        if type(index) is tuple and len(index) == 2 and len(shape) == 2:
            i, j = index
            d0, d1 = shape
            if 0 <= i < d0 and 0 <= j < d1:
                return i * d1 + j
            raise IndexError(f"index {index} out of bounds {shape}")
        if isinstance(index, int):
            index = (index,)
        if len(index) != len(shape):
            raise IndexError(f"index {index} does not match {shape}")
        flat = 0
        for i, (idx, dim) in enumerate(zip(index, shape)):
            if not (0 <= idx < dim):
                raise IndexError(f"index {index} out of bounds {shape}")
            flat = flat * dim + idx
        return flat

    def _byte_range(self, start_elem: int, count: int) -> Tuple[int, int]:
        if start_elem < 0 or count < 0 or start_elem + count > self.size:
            raise IndexError(
                f"element range [{start_elem}, {start_elem + count}) "
                f"outside array of {self.size}"
            )
        item = self.dtype.itemsize
        return self.region.offset + start_elem * item, count * item

    def row_elems(self, row: int) -> Tuple[int, int]:
        """(first flat element, count) of one leading-dimension row."""
        stride = self.size // self.shape[0]
        if not (0 <= row < self.shape[0]):
            raise IndexError(f"row {row} out of range")
        return row * stride, stride

    def pages_for_rows(self, row0: int, row1: int) -> list:
        """Page indices touched by rows ``[row0, row1)``."""
        start, _ = self.row_elems(row0)
        stride = self.size // self.shape[0]
        offset, nbytes = self._byte_range(start, (row1 - row0) * stride)
        return self.region.space.pages_in(offset, nbytes)

    # -- element range access ------------------------------------------------
    #
    # ``try_read`` is the plain-function read hit path: when every
    # spanned page is already mapped it returns the bytes without a
    # single generator frame being created.  ``read_range`` /
    # ``write_range`` are the complete interface — they attempt the hit
    # path first, then fault the cold pages through the protocol's span
    # entry points.

    def try_read(self, env, start_elem: int, count: int):
        """Hit-path read: the elements if every page is hot, else None."""
        if start_elem < 0 or count < 0 or start_elem + count > self.size:
            self._byte_range(start_elem, count)  # raises IndexError
        item = self._item
        data = env.protocol.fast_read(
            env.proc,
            self._space,
            self._base + start_elem * item,
            count * item,
        )
        if data is None:
            return None
        return data.view(self.dtype)

    def _raw_bytes(self, values) -> np.ndarray:
        if (
            type(values) is np.ndarray
            and values.dtype == self.dtype
            and values.flags.c_contiguous
        ):
            return values.view(np.uint8).reshape(-1)
        return np.ascontiguousarray(values, self.dtype).view(
            np.uint8
        ).reshape(-1)

    def read_range(self, env, start_elem: int, count: int) -> Generator:
        """Read ``count`` elements starting at flat ``start_elem``."""
        data = self.try_read(env, start_elem, count)
        if data is not None:  # every page hot: zero-cost gather
            return data
        offset, nbytes = self._byte_range(start_elem, count)
        space = self.region.space
        protocol = env.protocol
        lo, hi = space.span_bounds(offset, nbytes)
        yield from protocol.ensure_read_span(env.proc, lo, hi)
        data = protocol.fast_read(env.proc, space, offset, nbytes)
        if data is None:
            data = yield from self._read_pages(env, offset, nbytes)
        return data.view(self.dtype)

    def _read_pages(self, env, offset: int, nbytes: int) -> Generator:
        """The cold fallback of both readers: a page went cold again
        while its span faulted (a later page's fault blocked and served
        an invalidation), so re-fault page by page, reading each page
        right after its ``ensure_read``."""
        protocol = env.protocol
        out = np.empty(nbytes, np.uint8)
        pos = 0
        for page, start, length in self._space.page_spans(offset, nbytes):
            yield from protocol.ensure_read(env.proc, page)
            data = protocol.page_data(env.proc, page)
            out[pos : pos + length] = data[start : start + length]
            pos += length
        return out

    def write_range(self, env, start_elem: int, values):
        """Write ``values`` starting at flat ``start_elem``.

        A plain dispatcher, not a generator: the hit path returns an
        empty iterable (``yield from`` it for free) and the span path
        hands back the protocol's own generator — so a hot or
        span-batched write adds **zero** frames of its own to the
        caller's resume chain.
        """
        raw = self._raw_bytes(values)
        item = self._item
        count = raw.nbytes // item
        if start_elem < 0 or start_elem + count > self.size:
            self._byte_range(start_elem, count)  # raises IndexError
        offset = self._base + start_elem * item
        nbytes = count * item
        space = self._space
        protocol = env.protocol
        if protocol.fast_write(env.proc, space, offset, raw):
            return ()  # every page hot and writes are free: done
        return protocol.ensure_write_span(
            env.proc, space.page_spans_list(offset, nbytes), raw
        )

    # -- convenience views ------------------------------------------------------

    def get(self, env, index: Index) -> Generator:
        """Read a single element."""
        flat = self._flatten(index)
        values = self.try_read(env, flat, 1)
        if values is None:
            values = yield from self.read_range(env, flat, 1)
        return values[0]

    def put(self, env, index: Index, value):
        """Write a single element (dispatcher; see ``write_range``)."""
        flat = self._flatten(index)
        return self.write_range(env, flat, [value])

    def rows(self, env, row0: int, row1: int):
        """Hit-path read of rows ``[row0, row1)``: the data if every
        spanned page is hot, else ``None``.

        A plain function — no generator frame at all.  Callers pair it
        with :meth:`read_rows` as the cold fallback::

            block = matrix.rows(env, r0, r1)
            if block is None:
                block = yield from matrix.read_rows(env, r0, r1)
        """
        if not 0 <= row0 < self.shape[0]:
            raise IndexError(f"row {row0} out of range")
        stride = self._stride
        start = row0 * stride
        count = (row1 - row0) * stride
        if count < 0 or start + count > self.size:
            self._byte_range(start, count)  # raises IndexError
        item = self._item
        data = env.protocol.fast_read(
            env.proc,
            self._space,
            self._base + start * item,
            count * item,
        )
        if data is None:
            return None
        return data.view(self.dtype).reshape((row1 - row0,) + self._tail)

    def rows_hot(self, env, row0: int, row1: int) -> bool:
        """Event-free probe: True exactly when every page holding rows
        ``[row0, row1)`` is already mapped readable at this processor.
        The probe itself never touches protocol state."""
        stride = self._stride
        start = row0 * stride
        count = (row1 - row0) * stride
        if count <= 0:
            return True
        item = self._item
        lo, hi = self._space.span_bounds(
            self._base + start * item, count * item
        )
        return env.protocol.perms.read_ready(env.proc.pid, lo, hi)

    def read_rows(self, env, row0: int, row1: int) -> Generator:
        """Read rows ``[row0, row1)`` of the leading dimension."""
        start, stride = self.row_elems(row0)
        count = (row1 - row0) * stride
        flat = self.try_read(env, start, count)
        if flat is None:
            flat = yield from self.read_range(env, start, count)
        return flat.reshape((row1 - row0,) + self.shape[1:])

    def write_rows(self, env, row0: int, values):
        """Write consecutive leading-dimension rows starting at row0
        (dispatcher; see ``write_range``)."""
        arr = np.asarray(values, self.dtype)
        tail = self.shape[1:]
        if arr.shape[1:] != tail:
            raise ValueError(
                f"row block shape {arr.shape} does not match {self.shape}"
            )
        start, _ = self.row_elems(row0)
        return self.write_range(env, start, arr)

    def read_all(self, env) -> Generator:
        flat = self.try_read(env, 0, self.size)
        if flat is None:
            flat = yield from self.read_range(env, 0, self.size)
        return flat.reshape(self.shape)

    # -- bulk region access --------------------------------------------------
    #
    # Regions batch what the apps used to do one row (or one element) at
    # a time: one permission probe and one gather/scatter for the whole
    # shape when everything is hot, and the *exact* per-segment
    # fault/charge replay when anything is cold.  ``read_region`` /
    # ``write_region`` are bit-identical to the equivalent per-row loop
    # under every protocol, and to the per-page oracle — hot reads are
    # event-free everywhere, hot writes are event-free wherever
    # ``region_scatter`` accepts them (every protocol but Cashmere), and
    # cold segments run ``ensure_read_span`` / ``ensure_write_span`` in
    # segment order, preserving Cashmere's per-page doubled-write
    # charging and fault interleaving.

    def region_slice(self, start_elem: int, count: int) -> Region:
        """Region over ``count`` flat elements from ``start_elem``."""
        return Region(self, ((start_elem, count),), (count,))

    def region_rows(self, row0: int, row1: int) -> Region:
        """Region over leading-dimension rows ``[row0, row1)``
        (contiguous: a single segment)."""
        if not 0 <= row0 <= row1 <= self.shape[0]:
            raise IndexError(f"rows [{row0}, {row1}) out of range")
        stride = self._stride
        return Region(
            self,
            ((row0 * stride, (row1 - row0) * stride),),
            (row1 - row0,) + self._tail,
        )

    def region_block(
        self, row0: int, row1: int, col0: int, col1: int
    ) -> Region:
        """Region over the 2-D block ``[row0:row1, col0:col1]`` — one
        segment per row (non-contiguous columns)."""
        if len(self.shape) != 2:
            raise IndexError(f"block region needs a 2-D array, not {self.shape}")
        d0, d1 = self.shape
        if not (0 <= row0 <= row1 <= d0 and 0 <= col0 <= col1 <= d1):
            raise IndexError(
                f"block [{row0}:{row1}, {col0}:{col1}] out of bounds {self.shape}"
            )
        width = col1 - col0
        return Region(
            self,
            [(r * d1 + col0, width) for r in range(row0, row1)],
            (row1 - row0, width),
        )

    def region_row_gather(
        self, rows: Sequence[int], col0: int = 0, col1: Optional[int] = None
    ) -> Region:
        """Region over an arbitrary (ordered) list of rows, optionally
        restricted to columns ``[col0, col1)`` — e.g. one processor's
        cyclically-assigned rows.  Segment order follows ``rows``."""
        stride = self._stride
        if col1 is None:
            col1 = stride
        if not 0 <= col0 <= col1 <= stride:
            raise IndexError(f"columns [{col0}, {col1}) outside row of {stride}")
        width = col1 - col0
        if rows and not 0 <= min(rows) <= max(rows) < self.shape[0]:
            raise IndexError(f"row list {min(rows)}..{max(rows)} out of range")
        item = self._item
        base = self._base
        row0 = base + col0 * item
        wbytes = width * item
        sbytes = stride * item
        return Region._trusted(
            self,
            [(row0 + r * sbytes, wbytes) for r in rows],
            len(rows) * width,
            (len(rows), width),
        )

    def row_gather(self, rows: Sequence[int]) -> RowGather:
        """Precompute gather geometry for ``rows``; see :class:`RowGather`."""
        return RowGather(self, rows)

    def region_view(self, env, region: Region):
        """Hit-path read of a region: the data if every spanned page is
        hot, else ``None`` — a plain function, no generator frame, no
        events.  Callers pair it with :meth:`read_region` as the cold
        fallback.

        A single-segment region inside one page returns a **read-only
        zero-copy view** of this processor's frame of the page (under
        Cashmere, at the home node, the master copy itself); anything
        larger is gathered into a fresh buffer.  A view is only valid
        until the caller's next ``yield`` — a served remote request or
        write-through may mutate the frame it aliases — so consume it
        immediately or take a copy.
        """
        protocol = env.protocol
        segs = region.segs
        if len(segs) == 1:
            offset, nbytes = segs[0]
            space = self._space
            ps = space.page_size
            lo = offset // ps
            start = offset - lo * ps
            if start + nbytes <= ps:  # one page: alias the frame
                if not protocol.perms.read_ready(env.proc.pid, lo, lo + 1):
                    return None
                view = protocol.page_data(env.proc, lo)[
                    start : start + nbytes
                ].view(self.dtype).reshape(region.shape)
                view.flags.writeable = False
                return view
        data = protocol.region_gather(env.proc, self._space, region)
        if data is None:
            return None
        return data.view(self.dtype).reshape(region.shape)

    def read_region(self, env, region: Region) -> Generator:
        """Read a region, faulting cold pages in segment order.

        Hot segments gather without events; each cold segment runs the
        protocol's ``ensure_read_span`` (fault order per page, hot pages
        skipped) exactly as the equivalent per-row loop would, and the
        same per-page fallback as :meth:`read_range` if a page went cold
        again meanwhile.
        """
        protocol = env.protocol
        space = self._space
        data = protocol.region_gather(env.proc, space, region)
        if data is None:
            out = np.empty(region.nbytes, np.uint8)
            pos = 0
            for offset, nbytes in region.segs:
                data = protocol.fast_read(env.proc, space, offset, nbytes)
                if data is None:
                    lo, hi = space.span_bounds(offset, nbytes)
                    yield from protocol.ensure_read_span(env.proc, lo, hi)
                    data = protocol.fast_read(env.proc, space, offset, nbytes)
                if data is None:
                    data = yield from self._read_pages(env, offset, nbytes)
                out[pos : pos + nbytes] = data
                pos += nbytes
            data = out
        return data.view(self.dtype).reshape(region.shape)

    def write_region(self, env, region: Region, values):
        """Write ``values`` (region-shaped) across a region.

        A dispatcher like :meth:`write_range`: all pages hot under a
        protocol whose ``region_scatter`` accepts the write (every
        protocol but Cashmere) scatters with zero events and zero
        generator frames; otherwise each segment replays the protocol's
        ``ensure_write_span`` — per-page fault-then-apply order, and
        Cashmere's doubled-write charge per page, exactly as the
        per-row loop."""
        raw = self._raw_bytes(values)
        if raw.nbytes != region.nbytes:
            raise ValueError(
                f"value bytes {raw.nbytes} do not match region "
                f"({region.shape})"
            )
        protocol = env.protocol
        if protocol.region_scatter(env.proc, self._space, region, raw):
            return ()  # every page hot and writes are free: done
        # One batched ensure_write_span over the whole region: the
        # flattened span list keeps segments in order and ``raw`` is
        # consumed sequentially, so fault/apply interleaving (and
        # Cashmere's per-span doubled-write charge) replays exactly as
        # the per-segment loop — minus one generator frame per segment.
        return protocol.ensure_write_span(env.proc, region.page_spans(), raw)
