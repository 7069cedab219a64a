"""Unit and property tests for vector timestamps and interval records."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.core.intervals import (
    IntervalRecord,
    IntervalStore,
    vts_leq,
    vts_max,
)


def rec(proc, iid, vts, pages=()):
    return IntervalRecord(proc=proc, iid=iid, vts=tuple(vts), pages=tuple(pages))


def test_vts_max():
    assert vts_max((1, 5, 2), (3, 1, 2)) == (3, 5, 2)


def test_vts_leq():
    assert vts_leq((1, 2), (1, 3))
    assert not vts_leq((2, 2), (1, 3))


def test_vts_arity_mismatch():
    with pytest.raises(ValueError):
        vts_max((1,), (1, 2))
    with pytest.raises(ValueError):
        vts_leq((1,), (1, 2))


def test_store_insert_and_latest():
    store = IntervalStore(3)
    assert store.latest(0) == 0
    assert store.insert(rec(0, 1, (1, 0, 0)))
    assert store.latest(0) == 1
    assert not store.insert(rec(0, 1, (1, 0, 0)))  # duplicate


def test_store_rejects_gap():
    store = IntervalStore(2)
    store.insert(rec(0, 1, (1, 0)))
    with pytest.raises(AssertionError, match="gap"):
        store.insert(rec(0, 3, (3, 0)))


def test_store_rejects_nonfirst_start():
    store = IntervalStore(2)
    with pytest.raises(AssertionError, match="gap"):
        store.insert(rec(1, 2, (0, 2)))


def test_store_collect_resets_epoch():
    store = IntervalStore(2)
    store.insert(rec(0, 1, (1, 0), pages=(5,)))
    store.insert(rec(1, 1, (1, 1), pages=(6,)))
    store.collect((1, 1))
    assert store.record_count() == 0
    assert store.latest(0) == 1  # the epoch base survives
    # Post-GC inserts continue from the base.
    assert store.insert(rec(0, 2, (2, 1)))
    with pytest.raises(AssertionError, match="gap"):
        store.insert(rec(1, 3, (1, 3)))
    # records_after never resurrects collected epochs.
    assert [(r.proc, r.iid) for r in store.records_after((1, 1))] == [(0, 2)]


def test_store_collect_rejects_uncovered_records():
    store = IntervalStore(2)
    store.insert(rec(0, 1, (1, 0)))
    with pytest.raises(AssertionError, match="past the epoch"):
        store.collect((0, 0))


def test_records_after_filters_by_vts():
    store = IntervalStore(2)
    store.insert(rec(0, 1, (1, 0), pages=(5,)))
    store.insert(rec(0, 2, (2, 0), pages=(6,)))
    store.insert(rec(1, 1, (0, 1), pages=(7,)))
    missing = store.records_after((1, 0))
    assert {(r.proc, r.iid) for r in missing} == {(0, 2), (1, 1)}
    assert store.records_after((2, 1)) == []


def test_records_after_order_consistent_with_happens_before():
    store = IntervalStore(2)
    store.insert(rec(0, 1, (1, 0)))
    store.insert(rec(1, 1, (1, 1)))  # saw p0's interval first
    out = store.records_after((0, 0))
    assert [(r.proc, r.iid) for r in out] == [(0, 1), (1, 1)]


def test_encoded_size():
    record = rec(0, 1, (1, 0, 0), pages=(1, 2, 3))
    assert record.encoded_size(header=16, vts_entry=2, notice=8) == (
        16 + 3 * 2 + 3 * 8
    )


def test_sort_key_linearizes_comparable_vts():
    earlier = rec(0, 1, (1, 0))
    later = rec(1, 1, (1, 1))
    assert earlier.order < later.order
    assert (earlier.rank, earlier.proc) < (later.rank, later.proc)


@given(
    st.integers(0, 5),
    st.lists(st.integers(0, 1000), min_size=6, max_size=6),
    st.lists(st.integers(0, 99), max_size=4),
)
def test_rank_is_sum_vts_and_survives_replace_property(proc, vts, pages):
    """``rank``/``order`` are computed at construction, and the one copy
    site — HLRC's per-notice ``dataclasses.replace(record, pages=(p,))``
    — recomputes rather than forgets them."""
    record = rec(proc, vts[proc] + 1, vts, pages)
    for unit in [record] + [replace(record, pages=(p,)) for p in pages]:
        assert unit.rank == sum(unit.vts)
        assert unit.order == unit.rank * len(unit.vts) + unit.proc
        assert unit == rec(proc, record.iid, vts, unit.pages)


def test_order_is_rank_then_proc():
    """One int that sorts exactly as ``(sum(vts), proc)``."""
    records = [
        rec(p, 1, vts)
        for p, vts in ((2, (0, 0, 3)), (0, (3, 0, 0)), (1, (1, 1, 0)),
                       (0, (1, 0, 2)), (1, (0, 4, 0)))
    ]
    assert sorted(records, key=lambda r: r.order) == sorted(
        records, key=lambda r: (sum(r.vts), r.proc)
    )


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 5)),
        min_size=1,
        max_size=30,
    )
)
def test_store_latest_equals_chain_length_property(events):
    """Inserting contiguous intervals per proc keeps latest() == count."""
    store = IntervalStore(4)
    counters = [0, 0, 0, 0]
    for proc, _ in events:
        counters[proc] += 1
        vts = [0, 0, 0, 0]
        vts[proc] = counters[proc]
        store.insert(rec(proc, counters[proc], vts))
    for proc in range(4):
        assert store.latest(proc) == counters[proc]


@given(
    st.lists(st.integers(0, 100), min_size=3, max_size=3),
    st.lists(st.integers(0, 100), min_size=3, max_size=3),
)
def test_vts_max_is_lub_property(a, b):
    m = vts_max(a, b)
    assert vts_leq(a, m) and vts_leq(b, m)
    # And it is the least upper bound.
    for i in range(3):
        smaller = list(m)
        if smaller[i] > 0:
            smaller[i] -= 1
            assert not (vts_leq(a, smaller) and vts_leq(b, smaller))
