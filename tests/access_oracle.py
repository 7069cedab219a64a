"""Test-only oracle for the shared-access path: the per-page loop.

Production resolves an access to already-mapped pages with one
permission-bitmap probe and a direct gather/scatter, and faults cold
spans through the protocol's ``ensure_read_span`` /
``ensure_write_span`` batch loops (``repro.core.runtime.shared``).  The
access path began as a generator loop over pages: ``ensure_read`` or
``ensure_write`` plus ``apply_write`` per page, every access, hot or
cold.  It is the reference production must match event for event, and
the only place the loop survives.

``per_page_access()`` swaps the eight ``SharedArray`` entry points that
used to consult the fast-path switch back to their switched-off bodies:
the hit paths (``try_read``, ``rows``, ``region_view``) always miss,
``rows_hot`` knows nothing, and the five reads and writes walk pages
one at a time.

Registered as ``tests.oracles.ORACLES`` (which also lists its CI points).
"""

from __future__ import annotations

import contextlib
from typing import Generator

import numpy as np

from repro.core.runtime.shared import Region, SharedArray


def _try_read(self, env, start_elem: int, count: int):
    return None


def _rows(self, env, row0: int, row1: int):
    return None


def _rows_hot(self, env, row0: int, row1: int) -> bool:
    return False


def _region_view(self, env, region: Region):
    return None


def _read_range(self, env, start_elem: int, count: int) -> Generator:
    offset, nbytes = self._byte_range(start_elem, count)
    space = self.region.space
    protocol = env.protocol
    out = np.empty(nbytes, np.uint8)
    pos = 0
    for page, start, length in space.page_spans(offset, nbytes):
        yield from protocol.ensure_read(env.proc, page)
        data = protocol.page_data(env.proc, page)
        out[pos : pos + length] = data[start : start + length]
        pos += length
    return out.view(self.dtype)


def _write_range(self, env, start_elem: int, values):
    raw = self._raw_bytes(values)
    item = self._item
    count = raw.nbytes // item
    if start_elem < 0 or start_elem + count > self.size:
        self._byte_range(start_elem, count)  # raises IndexError
    offset = self._base + start_elem * item
    return _write_pages(self, env, self._space, offset, count * item, raw)


def _write_pages(
    self, env, space, offset: int, nbytes: int, raw
) -> Generator:
    protocol = env.protocol
    pos = 0
    for page, start, length in space.page_spans(offset, nbytes):
        yield from protocol.ensure_write(env.proc, page)
        yield from protocol.apply_write(
            env.proc, page, start, raw[pos : pos + length]
        )
        pos += length


def _read_region(self, env, region: Region) -> Generator:
    protocol = env.protocol
    space = self._space
    out = np.empty(region.nbytes, np.uint8)
    pos = 0
    for offset, nbytes in region.segs:
        for page, start, length in space.page_spans(offset, nbytes):
            yield from protocol.ensure_read(env.proc, page)
            data = protocol.page_data(env.proc, page)
            out[pos : pos + length] = data[start : start + length]
            pos += length
    return out.view(self.dtype).reshape(region.shape)


def _write_region(self, env, region: Region, values):
    raw = self._raw_bytes(values)
    if raw.nbytes != region.nbytes:
        raise ValueError(
            f"value bytes {raw.nbytes} do not match region "
            f"({region.shape})"
        )
    return _write_region_pages(self, env, region, raw)


def _write_region_pages(self, env, region: Region, raw) -> Generator:
    space = self._space
    pos = 0
    for offset, nbytes in region.segs:
        yield from _write_pages(
            self, env, space, offset, nbytes, raw[pos : pos + nbytes]
        )
        pos += nbytes


_PER_PAGE = {
    "try_read": _try_read,
    "read_range": _read_range,
    "write_range": _write_range,
    "rows": _rows,
    "rows_hot": _rows_hot,
    "region_view": _region_view,
    "read_region": _read_region,
    "write_region": _write_region,
}


@contextlib.contextmanager
def per_page_access():
    """Every ``SharedArray`` access inside the block takes the per-page
    loop: no hit path, no span batching."""
    saved = {name: SharedArray.__dict__[name] for name in _PER_PAGE}
    for name, func in _PER_PAGE.items():
        setattr(SharedArray, name, func)
    try:
        yield
    finally:
        for name, func in saved.items():
            setattr(SharedArray, name, func)

