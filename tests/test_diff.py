"""Unit and property tests for twin/diff machinery."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.memory.diff import (
    Diff,
    RUN_HEADER_BYTES,
    WORD,
    apply_diff,
    apply_diff_versioned,
    make_diff,
)
from tests import diff_oracle as oracle


def page(values) -> np.ndarray:
    return np.asarray(values, np.float64).view(np.uint8).copy()


def runs_diff(*runs) -> Diff:
    """A hand-made diff of ``(start_word, n_words)`` runs of 'x' bytes."""
    starts = np.array([start for start, _ in runs], np.intp)
    lengths = np.array([n for _, n in runs], np.intp)
    n_bytes = int(lengths.sum()) * WORD
    words = np.full(n_bytes, 0x78, np.uint8).view(np.uint64)
    return Diff(starts, lengths, words)


def test_identical_pages_empty_diff():
    twin = page([1.0, 2.0, 3.0, 4.0])
    diff = make_diff(twin, twin.copy())
    assert diff.is_empty
    assert diff.encoded_size == 0
    assert diff.dirty_bytes == 0


def test_single_word_change():
    twin = page([1.0, 2.0, 3.0, 4.0])
    current = page([1.0, 9.0, 3.0, 4.0])
    diff = make_diff(twin, current)
    assert len(diff.starts) == 1
    assert diff.starts.tolist() == [1]
    assert diff.lengths.tolist() == [1]
    assert diff.words.view(np.float64).tolist() == [9.0]
    assert diff.encoded_size == RUN_HEADER_BYTES + WORD


def test_adjacent_changes_merge_into_one_run():
    twin = page([0.0] * 8)
    current = page([0.0, 5.0, 6.0, 7.0, 0.0, 0.0, 8.0, 0.0])
    diff = make_diff(twin, current)
    assert len(diff.starts) == 2
    assert diff.starts.tolist() == [1, 6]
    assert diff.lengths.tolist() == [3, 1]
    assert diff.words.view(np.float64).tolist() == [5.0, 6.0, 7.0, 8.0]
    assert diff.word_index().tolist() == [1, 2, 3, 6]
    assert diff.encoded_size == 2 * RUN_HEADER_BYTES + 4 * WORD


def test_apply_restores_current():
    twin = page([1.0, 2.0, 3.0, 4.0])
    current = page([1.0, 9.0, 3.0, 8.0])
    diff = make_diff(twin, current)
    target = twin.copy()
    apply_diff(target, diff)
    assert np.array_equal(target, current)


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        make_diff(np.zeros(16, np.uint8), np.zeros(24, np.uint8))


def test_non_word_multiple_rejected():
    with pytest.raises(ValueError):
        make_diff(np.zeros(12, np.uint8), np.zeros(12, np.uint8))


def test_apply_out_of_bounds_rejected():
    diff = runs_diff((1, 2))  # bytes 8..24 of a 16-byte page
    with pytest.raises(ValueError):
        apply_diff(np.zeros(16, np.uint8), diff)
    with pytest.raises(ValueError):  # the multi-run path checks too
        apply_diff(np.zeros(16, np.uint8), runs_diff((0, 1), (2, 1)))


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=64,
    ),
    st.data(),
)
def test_diff_roundtrip_property(base, data):
    """diff(twin, current) applied to twin always reproduces current."""
    twin = page(base)
    current = twin.copy()
    words = current.view(np.float64)
    n_changes = data.draw(st.integers(0, len(words)))
    for _ in range(n_changes):
        idx = data.draw(st.integers(0, len(words) - 1))
        words[idx] = data.draw(
            st.floats(allow_nan=False, allow_infinity=False)
        )
    diff = make_diff(twin, current)
    target = twin.copy()
    apply_diff(target, diff)
    assert np.array_equal(target, current)
    assert diff.dirty_bytes <= len(twin)


@given(st.integers(1, 64))
def test_fully_dirty_page_one_run(n_words):
    twin = page([0.0] * n_words)
    current = page([1.0] * n_words)
    diff = make_diff(twin, current)
    assert len(diff.starts) == 1
    assert diff.dirty_bytes == n_words * WORD


# --- versioned application ------------------------------------------------


def test_versioned_apply_basic():
    target = page([0.0, 0.0])
    tags = np.zeros(2, np.int64)
    diff = make_diff(page([0.0, 0.0]), page([5.0, 0.0]))
    apply_diff_versioned([target], diff, tags, tag=3)
    assert target.view(np.float64)[0] == 5.0
    assert tags[0] == 3
    assert tags[1] == 0  # untouched word keeps its version


def test_versioned_apply_rejects_stale_word():
    """An older diff must not regress a word a newer diff wrote."""
    target = page([0.0])
    tags = np.zeros(1, np.int64)
    newer = make_diff(page([0.0]), page([2.0]))
    older = make_diff(page([0.0]), page([1.0]))
    apply_diff_versioned([target], newer, tags, tag=5)
    apply_diff_versioned([target], older, tags, tag=2)
    assert target.view(np.float64)[0] == 2.0
    assert tags[0] == 5


def test_versioned_apply_mixed_run():
    """Within one run, stale words are skipped and fresh words land."""
    base = page([0.0, 0.0, 0.0])
    tags = np.array([10, 0, 10], np.int64)
    diff = make_diff(page([0.0, 0.0, 0.0]), page([1.0, 2.0, 3.0]))
    target = base.copy()
    apply_diff_versioned([target], diff, tags, tag=5)
    assert list(target.view(np.float64)) == [0.0, 2.0, 0.0]
    assert list(tags) == [10, 5, 10]


def test_versioned_apply_updates_twin_too():
    copy = page([0.0])
    twin = page([0.0])
    tags = np.zeros(1, np.int64)
    diff = make_diff(page([0.0]), page([7.0]))
    apply_diff_versioned([copy, twin], diff, tags, tag=1)
    assert copy.view(np.float64)[0] == 7.0
    assert twin.view(np.float64)[0] == 7.0


# --- run arrays vs. the retired run-tuple implementation -------------------
#
# ``tests/diff_oracle.py`` keeps the run-tuple diff these arrays replaced
# (one ``(byte_offset, bytes)`` per run, one ``np.arange`` per run on
# apply).  Every property requires exact agreement with it.


def _random_page(data, n_words):
    raw = data.draw(
        st.binary(min_size=n_words * WORD, max_size=n_words * WORD)
    )
    return np.frombuffer(raw, np.uint8).copy()


@given(st.data())
def test_make_diff_matches_reference_property(data):
    n_words = data.draw(st.integers(1, 64))
    twin = _random_page(data, n_words)
    current = twin.copy()
    # Flip a random subset of words so runs of every shape appear.
    for idx in data.draw(
        st.lists(st.integers(0, n_words - 1), max_size=n_words)
    ):
        current[idx * WORD : (idx + 1) * WORD] ^= data.draw(
            st.integers(1, 255)
        )
    fast = make_diff(twin, current)
    slow = oracle.make_diff(twin, current)
    assert oracle.runs_of(fast) == slow.runs
    assert fast.encoded_size == slow.encoded_size


@given(st.data())
def test_versioned_apply_matches_reference_property(data):
    n_words = data.draw(st.integers(1, 32))
    base = _random_page(data, n_words)
    n_diffs = data.draw(st.integers(1, 4))
    diffs = []
    for _ in range(n_diffs):
        current = base.copy()
        for idx in data.draw(
            st.lists(st.integers(0, n_words - 1), max_size=n_words)
        ):
            current[idx * WORD : (idx + 1) * WORD] ^= data.draw(
                st.integers(1, 255)
            )
        diffs.append((data.draw(st.integers(0, 6)), current))

    fast_copy, fast_twin = base.copy(), base.copy()
    fast_tags = np.zeros(n_words, np.int64)
    slow_copy, slow_twin = base.copy(), base.copy()
    slow_tags = np.zeros(n_words, np.int64)
    for tag, current in diffs:
        apply_diff_versioned(
            [fast_copy, fast_twin], make_diff(base, current), fast_tags, tag
        )
        oracle.apply_diff_versioned(
            [slow_copy, slow_twin],
            oracle.make_diff(base, current),
            slow_tags,
            tag,
        )
    assert np.array_equal(fast_copy, slow_copy)
    assert np.array_equal(fast_twin, slow_twin)
    assert np.array_equal(fast_tags, slow_tags)


def test_versioned_apply_out_of_bounds_rejected():
    for diff in (runs_diff((1, 2)), runs_diff((0, 1), (2, 1))):
        with pytest.raises(ValueError):
            apply_diff_versioned(
                [np.zeros(16, np.uint8)], diff, np.zeros(2, np.int64), tag=1
            )


def _check_against_oracle(base, writes, target):
    """Diff each ``(tag, current)`` in ``writes`` against ``base`` both
    ways and apply them in order, versioned into (copy, twin) pairs and
    plainly into a single page: every size, count, byte and word tag
    must be ``==``.  ``target`` builds each destination page from
    ``base`` (a strided or odd-sized one takes the byte-scatter path)."""
    n_words = len(base) // WORD
    fast = [target(base), target(base)]
    slow = [target(base), target(base)]
    fast_tags = np.zeros(n_words, np.int64)
    slow_tags = np.zeros(n_words, np.int64)
    fast_plain, slow_plain = target(base), target(base)
    for tag, current in writes:
        new = make_diff(base, current)
        old = oracle.make_diff(base, current)
        assert new.encoded_size == old.encoded_size
        assert new.dirty_bytes == old.dirty_bytes
        assert len(new.starts) == len(old.runs)
        assert new.is_empty == old.is_empty
        assert oracle.runs_of(new) == old.runs
        apply_diff_versioned(fast, new, fast_tags, tag)
        oracle.apply_diff_versioned(slow, old, slow_tags, tag)
        assert np.array_equal(fast_tags, slow_tags)
        for got, want in zip(fast, slow):
            assert got.tobytes() == want.tobytes()
        apply_diff(fast_plain, new)
        oracle.apply_diff(slow_plain, old)
        assert fast_plain.tobytes() == slow_plain.tobytes()


def _contiguous(base):
    return base.copy()


def _strided(base):
    backing = np.zeros(2 * len(base), np.uint8)
    view = backing[::2]
    view[:] = base
    return view


def _odd_sized(base):
    return np.concatenate([base, np.zeros(3, np.uint8)])


def _changed(base, words):
    current = base.copy()
    current.view(np.uint64)[list(words)] ^= 0xA5
    return current


_EDGE_BASE = np.arange(16 * WORD, dtype=np.uint8)


def _edge(*writes):
    """``(tag, changed words)`` pairs as ``(tag, current page)``."""
    return [(tag, _changed(_EDGE_BASE, words)) for tag, words in writes]


_EDGE_CASES = {
    "empty-diff": (_edge((1, ())), _contiguous),
    "every-word": (_edge((1, range(16))), _contiguous),
    "single-run-ends-on-last-word": (_edge((1, range(11, 16))), _contiguous),
    "alternating-words": (
        _edge((1, range(0, 16, 2)), (2, range(1, 16, 2))),
        _contiguous,
    ),
    "older-tag-after-newer": (
        _edge((5, (1, 2, 3, 9)), (2, (0, 2, 3, 4, 9, 12))),
        _contiguous,
    ),
    "older-single-run-partly-stale": (
        _edge((3, (2,)), (1, (1, 2, 3))),
        _contiguous,
    ),
    "strided-target": (
        _edge((1, (0, 5, 6, 15)), (1, (5,)), (2, range(3, 9))),
        _strided,
    ),
    "odd-sized-target": (
        _edge((1, (0, 5, 6, 15)), (2, (4, 5, 7))),
        _odd_sized,
    ),
}


@pytest.mark.parametrize(
    "writes, target", list(_EDGE_CASES.values()), ids=list(_EDGE_CASES)
)
def test_run_arrays_match_oracle_on_edge_cases(writes, target):
    _check_against_oracle(_EDGE_BASE, writes, target)


@given(st.data())
def test_run_arrays_match_run_tuple_oracle_property(data):
    """Random pages, random change sets and tags (older after newer
    included), contiguous, strided and odd-sized targets."""
    n_words = data.draw(st.integers(1, 48))
    base = _random_page(data, n_words)
    writes = []
    for _ in range(data.draw(st.integers(1, 4))):
        changed = data.draw(st.sets(st.integers(0, n_words - 1)))
        writes.append((data.draw(st.integers(0, 6)), _changed(base, changed)))
    target = data.draw(st.sampled_from([_contiguous, _strided, _odd_sized]))
    _check_against_oracle(base, writes, target)


@given(st.data())
def test_versioned_apply_order_independence_property(data):
    """Applying a set of single-writer-per-word diffs in any order gives
    the word values of the highest tag per word."""
    n_words = data.draw(st.integers(1, 16))
    base = page([0.0] * n_words)
    diffs = []
    for tag in range(1, data.draw(st.integers(2, 6))):
        current = base.copy()
        words = current.view(np.float64)
        for idx in data.draw(
            st.lists(st.integers(0, n_words - 1), max_size=n_words)
        ):
            words[idx] = tag * 100 + idx
        diffs.append((tag, make_diff(base, current)))
    order = data.draw(st.permutations(diffs))

    target = base.copy()
    tags = np.zeros(n_words, np.int64)
    for tag, diff in order:
        apply_diff_versioned([target], diff, tags, tag)

    expected = base.copy()
    etags = np.zeros(n_words, np.int64)
    for tag, diff in sorted(diffs):
        apply_diff_versioned([expected], diff, etags, tag)
    assert np.array_equal(target, expected)
