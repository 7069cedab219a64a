"""Unit tests for SharedArray using the (free) sequential protocol."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.runtime.env import Env
from repro.core.runtime.sequential import SequentialProtocol
from repro.core.runtime.shared import SharedArray
from repro.cluster.machine import Cluster
from repro.config import ClusterConfig, CostModel, Mechanism
from repro.memory import AddressSpace
from repro.sim import Engine
from repro.stats import StatsBoard


def make_env(page_size=1024):
    engine = Engine()
    space = AddressSpace(page_size)
    stats = StatsBoard(1)
    cluster = Cluster(
        engine,
        ClusterConfig(n_nodes=1, cpus_per_node=1, page_size=page_size),
        CostModel(),
        Mechanism.INTERRUPT,
        [(0, 0)],
        stats,
    )
    env = Env(0, 1, cluster.proc(0), SequentialProtocol(space))
    return engine, space, env


def drive(engine, gen):
    """Run one generator to completion inside the engine."""
    out = {}

    def runner():
        out["value"] = yield from gen
        return None

    engine.process(runner())
    engine.run()
    return out.get("value")


def test_alloc_and_shape():
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "m", np.float64, (4, 8))
    assert arr.size == 32
    assert arr.shape == (4, 8)


def test_bad_shape_rejected():
    engine, space, env = make_env()
    with pytest.raises(ValueError):
        SharedArray.alloc(space, "bad", np.float64, (0, 8))


def test_array_too_big_for_region_rejected():
    engine, space, env = make_env()
    region = space.alloc("tiny", 64)  # page-aligned to 1024 bytes
    with pytest.raises(ValueError, match="does not fit"):
        SharedArray(region, np.float64, (200,))


def test_roundtrip_range():
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "v", np.float64, (100,))
    arr.initialize(np.zeros(100))
    payload = np.arange(50, dtype=np.float64)

    def work():
        yield from arr.write_range(env, 25, payload)
        out = yield from arr.read_range(env, 25, 50)
        return out

    out = drive(engine, work())
    assert np.array_equal(out, payload)


def test_rows_roundtrip_across_pages():
    engine, space, env = make_env(page_size=256)
    arr = SharedArray.alloc(space, "m", np.float64, (16, 16))  # 2 KB
    arr.initialize(np.zeros((16, 16)))
    block = np.arange(48, dtype=np.float64).reshape(3, 16)

    def work():
        yield from arr.write_rows(env, 5, block)
        out = yield from arr.read_rows(env, 5, 8)
        return out

    out = drive(engine, work())
    assert np.array_equal(out, block)


def test_get_put_element():
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "m", np.float64, (4, 4))
    arr.initialize(np.zeros((4, 4)))

    def work():
        yield from arr.put(env, (2, 3), 7.5)
        value = yield from arr.get(env, (2, 3))
        return value

    assert drive(engine, work()) == 7.5


def test_index_bounds_checked():
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "m", np.float64, (4, 4))

    def work():
        yield from arr.get(env, (4, 0))

    with pytest.raises(IndexError):
        drive(engine, work())


def test_range_bounds_checked():
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "v", np.float64, (10,))

    def work():
        yield from arr.read_range(env, 5, 10)

    with pytest.raises(IndexError):
        drive(engine, work())


def test_row_block_shape_checked():
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "m", np.float64, (4, 4))

    def work():
        yield from arr.write_rows(env, 0, np.zeros((2, 5)))

    with pytest.raises(ValueError, match="does not match"):
        drive(engine, work())


def test_read_all_matches_initialize():
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "m", np.int64, (6, 7))
    data = np.arange(42).reshape(6, 7)
    arr.initialize(data)

    def work():
        return (yield from arr.read_all(env))

    assert np.array_equal(drive(engine, work()), data)


def test_initialize_broadcast_scalar():
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "m", np.float64, (3, 3))
    arr.initialize(5.0)

    def work():
        return (yield from arr.read_all(env))

    assert np.array_equal(drive(engine, work()), np.full((3, 3), 5.0))


def test_pages_for_rows():
    engine, space, env = make_env(page_size=256)
    arr = SharedArray.alloc(space, "m", np.float64, (16, 16))
    # One row = 128 bytes; a 256-byte page holds two rows.
    assert arr.pages_for_rows(0, 2) == [0]
    assert arr.pages_for_rows(0, 3) == [0, 1]


@given(
    start=st.integers(0, 63),
    count=st.integers(1, 64),
)
def test_range_roundtrip_property(start, count):
    if start + count > 64:
        count = 64 - start
        if count == 0:
            return
    engine, space, env = make_env(page_size=128)
    arr = SharedArray.alloc(space, "v", np.float64, (64,))
    arr.initialize(np.zeros(64))
    payload = np.arange(count, dtype=np.float64) + start

    def work():
        yield from arr.write_range(env, start, payload)
        return (yield from arr.read_range(env, start, count))

    assert np.array_equal(drive(engine, work()), payload)


# -- edge cases, on production's access path and the per-page oracle -------


def test_get_put_at_page_boundary(access_path):
    """Single elements straddling a page edge: the last element of one
    page and the first of the next."""
    engine, space, env = make_env(page_size=1024)  # 128 f64 per page
    arr = SharedArray.alloc(space, "v", np.float64, (300,))
    arr.initialize(np.zeros(300))

    def work():
        for elem in (127, 128, 255, 256, 0, 299):
            yield from arr.put(env, elem, float(elem) + 0.5)
        got = []
        for elem in (127, 128, 255, 256, 0, 299):
            got.append((yield from arr.get(env, elem)))
        return got

    assert drive(engine, work()) == [
        127.5, 128.5, 255.5, 256.5, 0.5, 299.5
    ]


def test_write_range_multipage_noncontiguous_input(access_path):
    """A strided (non-contiguous) values array written across several
    pages must land exactly as its contiguous copy would."""
    engine, space, env = make_env(page_size=256)  # 32 f64 per page
    arr = SharedArray.alloc(space, "v", np.float64, (200,))
    arr.initialize(np.zeros(200))
    backing = np.arange(180, dtype=np.float64)
    strided = backing[::2]  # 90 elements, stride 16 bytes
    assert not strided.flags["C_CONTIGUOUS"]

    def work():
        yield from arr.write_range(env, 7, strided)  # spans ~4 pages
        return (yield from arr.read_range(env, 0, 200))

    out = drive(engine, work())
    expected = np.zeros(200)
    expected[7:97] = backing[::2]
    assert np.array_equal(out, expected)


def test_write_rows_2d_noncontiguous_input(access_path):
    engine, space, env = make_env(page_size=256)
    arr = SharedArray.alloc(space, "m", np.float64, (16, 16))
    arr.initialize(np.zeros((16, 16)))
    big = np.arange(16 * 32, dtype=np.float64).reshape(16, 32)
    block = big[2:5, ::2]  # non-contiguous 3x16 view

    def work():
        yield from arr.write_rows(env, 5, block)
        return (yield from arr.read_rows(env, 5, 8))

    assert np.array_equal(drive(engine, work()), np.ascontiguousarray(block))


@pytest.mark.parametrize(
    "index",
    [(-1, 0), (0, -1), (4, 0), (0, 4), (3, 99)],
    ids=["neg-row", "neg-col", "row-over", "col-over", "col-way-over"],
)
def test_get_put_out_of_bounds(access_path, index):
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "m", np.float64, (4, 4))
    arr.initialize(np.zeros((4, 4)))

    def get():
        yield from arr.get(env, index)

    def put():
        yield from arr.put(env, index, 1.0)

    with pytest.raises(IndexError):
        drive(engine, get())
    with pytest.raises(IndexError):
        drive(engine, put())


@pytest.mark.parametrize(
    "start,count",
    [(-1, 2), (8, 3), (10, 1), (0, 11)],
    ids=["neg-start", "tail-over", "at-end", "count-over"],
)
def test_range_out_of_bounds(access_path, start, count):
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "v", np.float64, (10,))
    arr.initialize(np.zeros(10))

    def read():
        yield from arr.read_range(env, start, count)

    with pytest.raises(IndexError):
        drive(engine, read())

    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "v", np.float64, (10,))
    arr.initialize(np.zeros(10))

    def write():
        yield from arr.write_range(env, start, np.zeros(count))

    with pytest.raises(IndexError):
        drive(engine, write())


def test_zero_length_range_at_end(access_path):
    """A zero-length range at the end is legal, not out of bounds."""
    engine, space, env = make_env()
    arr = SharedArray.alloc(space, "v", np.float64, (10,))
    arr.initialize(np.zeros(10))

    def empty():
        return (yield from arr.read_range(env, 10, 0))

    assert drive(engine, empty()).size == 0
