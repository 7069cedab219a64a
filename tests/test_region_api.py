"""Unit tests for the bulk region API (``SharedArray.region_*``).

Shape construction, page-straddling and non-contiguous gathers and
scatters, bounds checking, and the hit-path ``region_view`` semantics.
Protocol-level bit-identity of region access is covered by
``test_engine_equivalence.py`` (golden runs on production and the
per-page oracle); these are the plumbing tests, run on both access
paths where they move bytes.
"""

import numpy as np
import pytest

from repro.core.runtime.shared import Region, SharedArray

from tests.oracles import oracle
from tests.test_shared_array import drive, make_env


def _matrix(page_size=1024, shape=(16, 16)):
    engine, space, env = make_env(page_size=page_size)
    arr = SharedArray.alloc(space, "m", np.float64, shape)
    init = np.arange(arr.size, dtype=np.float64).reshape(shape)
    arr.initialize(init)
    return engine, env, arr, init


def _hot_matrix(page_size=1024):
    """``_matrix`` with every page touched once: the sequential run
    maps a page at its first touch."""
    engine, env, arr, init = _matrix(page_size=page_size)
    drive(engine, arr.read_all(env))
    return engine, env, arr, init


# --- construction and geometry ---------------------------------------------


def test_region_rows_is_single_segment():
    _, _, arr, _ = _matrix()
    region = arr.region_rows(2, 5)
    assert len(region.segs) == 1
    assert region.shape == (3, 16)
    assert region.total == 48
    assert region.nbytes == 48 * 8


def test_region_block_one_segment_per_row():
    _, _, arr, _ = _matrix()
    region = arr.region_block(1, 4, 2, 7)
    assert len(region.segs) == 3
    assert region.shape == (3, 5)
    assert all(nbytes == 5 * 8 for _, nbytes in region.segs)


def test_region_row_gather_follows_row_order():
    _, _, arr, _ = _matrix()
    region = arr.region_row_gather([7, 2, 11], 3, 9)
    assert region.shape == (3, 6)
    offsets = [offset for offset, _ in region.segs]
    assert offsets == sorted(offsets, key=lambda o: [7, 2, 11].index(
        (o - arr._base - 3 * 8) // (16 * 8)
    ))


def test_page_spans_preserve_segment_boundaries():
    _, _, arr, _ = _matrix()
    # Two adjacent segments on the same page stay two spans: per-span
    # protocol charges (Cashmere's doubled write) must replay exactly.
    region = Region(arr, [(0, 3), (3, 3)], (6,))
    spans = region.page_spans()
    assert len(spans) == 2
    assert spans[0][0] == spans[1][0]  # same page
    assert region.page_spans() is spans  # cached


def test_span_pages_matches_page_spans():
    _, _, arr, _ = _matrix(page_size=256)
    region = arr.region_rows(0, 16)
    assert list(region.span_pages()) == [
        page for page, _, _ in region.page_spans()
    ]


def test_region_shape_must_hold_elements():
    _, _, arr, _ = _matrix()
    with pytest.raises(ValueError, match="does not hold"):
        Region(arr, [(0, 8)], (3, 3))


# --- bounds checking --------------------------------------------------------


def test_region_rows_out_of_range():
    _, _, arr, _ = _matrix()
    with pytest.raises(IndexError):
        arr.region_rows(10, 20)
    with pytest.raises(IndexError):
        arr.region_rows(-1, 4)


def test_region_block_out_of_bounds():
    _, _, arr, _ = _matrix()
    with pytest.raises(IndexError):
        arr.region_block(0, 4, 10, 20)
    vec = SharedArray.alloc(arr._space, "v", np.float64, (32,))
    with pytest.raises(IndexError, match="2-D"):
        vec.region_block(0, 1, 0, 1)


def test_region_row_gather_out_of_range():
    _, _, arr, _ = _matrix()
    with pytest.raises(IndexError):
        arr.region_row_gather([3, 16])
    with pytest.raises(IndexError):
        arr.region_row_gather([-1, 3])
    with pytest.raises(IndexError):
        arr.region_row_gather([3], 5, 40)


def test_region_slice_out_of_range():
    _, _, arr, _ = _matrix()
    with pytest.raises(IndexError):
        arr.region_slice(250, 20)


def test_write_region_size_mismatch():
    engine, env, arr, _ = _matrix()
    region = arr.region_rows(0, 2)
    with pytest.raises(ValueError, match="do not match"):
        arr.write_region(env, region, np.zeros((3, 16)))


# --- roundtrips -------------------------------------------------------------


def test_region_rows_roundtrip_across_pages(access_path):
    engine, env, arr, init = _matrix(page_size=256)  # 2 rows per page
    region = arr.region_rows(3, 9)
    payload = np.arange(96, dtype=np.float64).reshape(6, 16) * -1.0

    def work():
        before = yield from arr.read_region(env, region)
        yield from arr.write_region(env, region, payload)
        after = yield from arr.read_region(env, region)
        return before, after

    before, after = drive(engine, work())
    assert np.array_equal(before, init[3:9])
    assert np.array_equal(after, payload)


def test_region_block_roundtrip_noncontiguous(access_path):
    engine, env, arr, init = _matrix(page_size=256)
    region = arr.region_block(2, 10, 4, 12)
    payload = np.full((8, 8), 0.5)

    def work():
        before = yield from arr.read_region(env, region)
        yield from arr.write_region(env, region, payload)
        after = yield from arr.read_region(env, region)
        whole = yield from arr.read_all(env)
        return before, after, whole

    before, after, whole = drive(engine, work())
    assert np.array_equal(before, init[2:10, 4:12])
    assert np.array_equal(after, payload)
    # Elements outside the block are untouched.
    expect = init.copy()
    expect[2:10, 4:12] = payload
    assert np.array_equal(whole, expect)


def test_region_row_gather_roundtrip(access_path):
    engine, env, arr, init = _matrix(page_size=256)
    rows = [1, 4, 13, 6]
    region = arr.region_row_gather(rows, 2, 14)
    payload = np.arange(48, dtype=np.float64).reshape(4, 12) + 1000.0

    def work():
        before = yield from arr.read_region(env, region)
        yield from arr.write_region(env, region, payload)
        after = yield from arr.read_region(env, region)
        whole = yield from arr.read_all(env)
        return before, after, whole

    before, after, whole = drive(engine, work())
    assert np.array_equal(before, init[rows, 2:14])
    assert np.array_equal(after, payload)
    expect = init.copy()
    expect[rows, 2:14] = payload
    assert np.array_equal(whole, expect)


def test_single_element_segments_scatter(access_path):
    engine, env, arr, init = _matrix(page_size=256)
    flat = [3, 40, 41, 200]
    region = Region(arr, [(i, 1) for i in flat], (4,))
    payload = np.array([-1.0, -2.0, -3.0, -4.0])

    def work():
        yield from arr.write_region(env, region, payload)
        back = yield from arr.read_region(env, region)
        whole = yield from arr.read_all(env)
        return back, whole

    back, whole = drive(engine, work())
    assert np.array_equal(back, payload)
    expect = init.copy()
    expect.ravel()[flat] = payload
    assert np.array_equal(whole, expect)


def test_empty_region_roundtrip(access_path):
    engine, env, arr, _ = _matrix()
    region = arr.region_row_gather([], 0, 16)

    def work():
        yield from arr.write_region(env, region, np.zeros((0, 16)))
        out = yield from arr.read_region(env, region)
        return out

    assert drive(engine, work()).shape == (0, 16)


# --- region_view (the hit path) ---------------------------------------------


def test_region_view_returns_data_when_hot():
    engine, env, arr, init = _hot_matrix(page_size=256)
    view = arr.region_view(env, arr.region_rows(3, 7))
    assert view is not None
    assert np.array_equal(view, init[3:7])


def test_region_view_none_without_fastpath():
    """The per-page oracle really bypasses the hit path (so the
    ``legacy`` cases are not production twice), and only inside the
    block."""
    engine, env, arr, _ = _hot_matrix()
    with oracle("access"):
        assert arr.region_view(env, arr.region_rows(0, 2)) is None
    assert arr.region_view(env, arr.region_rows(0, 2)) is not None


def test_region_view_single_page_is_readonly_alias():
    engine, env, arr, init = _hot_matrix()
    view = arr.region_view(env, arr.region_rows(0, 2))
    assert view is not None
    assert not view.flags.writeable
    assert np.array_equal(view, init[0:2])
    # It aliases the page copy: a later write shows through.
    page = env.protocol.page_data(env.proc, arr._base // 1024)
    page[:8] = np.frombuffer(np.float64(123.0).tobytes(), np.uint8)
    assert view[0, 0] == 123.0


def test_sequential_page_is_mapped_at_first_touch_for_free():
    """The unlinked run maps a page read/write at its first touch, with
    no time and no event: before it the hit path misses, after it every
    access hits, and ``rows_hot`` says exactly which."""
    engine, env, arr, init = _matrix()
    assert arr.region_view(env, arr.region_rows(0, 2)) is None
    assert not arr.rows_hot(env, 0, 2)
    assert np.array_equal(drive(engine, arr.read_rows(env, 0, 2)), init[0:2])
    assert engine.now == 0
    assert arr.rows_hot(env, 0, 2)
    assert not arr.rows_hot(env, 0, 16)
    assert arr.rows(env, 0, 2) is not None
    assert arr.region_view(env, arr.region_rows(0, 2)) is not None


def test_region_view_multi_segment_is_a_copy():
    engine, env, arr, init = _hot_matrix()
    region = arr.region_block(0, 3, 0, 4)
    view = arr.region_view(env, region)
    assert view is not None
    assert view.flags.writeable  # gathered buffer, not an alias
    assert np.array_equal(view, init[0:3, 0:4])
