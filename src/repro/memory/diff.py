"""Word-granularity run-length diffs, exactly as TreadMarks makes them.

A diff is the run-length encoding of the words that differ between a
page's *twin* (the pristine copy saved at the first write) and its
current contents.  Diffs are created lazily when another processor asks
for a page's changes, and applied in causal order at the requester.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD = 8  # Alpha quadword, the diffing granularity

# Each encoded run carries one descriptor word (offset + length) plus the
# changed data itself.
RUN_HEADER_BYTES = 8


@dataclass(frozen=True, eq=False)
class Diff:
    """The changed words of one page as three arrays.

    Run ``i`` covers words ``starts[i] .. starts[i] + lengths[i] - 1``;
    ``words`` holds every run's new contents back to back, 8 B a word
    (so ``words`` is exactly the page's changed words, in address
    order).  Runs are ascending, non-adjacent and never overlap — the
    run-length-encoding invariant :func:`make_diff` establishes and the
    appliers rely on.  On the wire a run costs one
    :data:`RUN_HEADER_BYTES` descriptor plus its data.
    """

    starts: np.ndarray  # first word of each run
    lengths: np.ndarray  # words in each run
    words: np.ndarray  # uint64: the runs' data, back to back

    @property
    def encoded_size(self) -> int:
        """Bytes on the wire: run descriptors plus changed data."""
        return RUN_HEADER_BYTES * len(self.starts) + self.words.nbytes

    @property
    def dirty_bytes(self) -> int:
        return self.words.nbytes

    @property
    def is_empty(self) -> bool:
        return not len(self.starts)

    def word_index(self) -> np.ndarray:
        """The page word each entry of ``words`` lands on."""
        starts, lengths = self.starts, self.lengths
        if len(starts) == 1:
            first = int(starts[0])
            return np.arange(first, first + int(lengths[0]))
        # One index build for all runs: each word's position in
        # ``words`` plus its run's (start - position of its first word).
        firsts = np.cumsum(lengths) - lengths
        return np.arange(len(self.words)) + np.repeat(
            starts - firsts, lengths
        )


_NO_RUNS = np.empty(0, np.intp)
_EMPTY = Diff(_NO_RUNS, _NO_RUNS, np.empty(0, np.uint64))


def make_diff(
    twin: np.ndarray, current: np.ndarray, scratch: np.ndarray = None
) -> Diff:
    """Encode the words of ``current`` that differ from ``twin``.

    Both arguments are uint8 arrays of the same page-sized, word-aligned
    length.  Everything happens in NumPy, with no per-run Python work
    and no per-run ``bytes`` object: a run starts wherever the gap
    between consecutive changed-word indices exceeds one, and the data
    is one gather of the changed words (one slice copy for the common
    single-run diff).  The result owns its arrays — it stays valid
    however ``current`` changes afterwards.

    ``scratch`` — an optional reusable bool array of one element per
    word — receives the changed-word mask, avoiding the per-call
    allocation on the diff-serving hot path (wall-clock only; callers
    own the buffer and must not hold the mask across calls).
    """
    if twin.shape != current.shape:
        raise ValueError("twin and current page must be the same size")
    if len(twin) % WORD:
        raise ValueError(f"page size must be a multiple of {WORD}")
    words = current.view(np.uint64)
    changed = np.not_equal(twin.view(np.uint64), words, out=scratch)
    idx = np.flatnonzero(changed)
    n_words = idx.size
    if n_words == 0:
        return _EMPTY
    first = int(idx[0])
    if int(idx[-1]) - first + 1 == n_words:  # one run: a slice, no gather
        return Diff(
            np.array((first,), np.intp),
            np.array((n_words,), np.intp),
            words[first : first + n_words].copy(),
        )
    # Positions in ``idx`` where a new run begins.
    heads = np.flatnonzero(np.diff(idx) != 1)
    heads += 1
    bounds = np.empty(heads.size + 2, idx.dtype)
    bounds[0] = 0
    bounds[1:-1] = heads
    bounds[-1] = idx.size
    return Diff(idx[bounds[:-1]], np.diff(bounds), words[idx])


def _scatter(target: np.ndarray, word_idx: np.ndarray, words: np.ndarray):
    """``target``'s words at ``word_idx`` become ``words``."""
    if len(target) % WORD == 0 and target.flags.c_contiguous:
        target.view(np.uint64)[word_idx] = words
    else:  # odd-sized or strided target: scatter byte-by-byte
        byte_idx = (word_idx[:, None] * WORD + np.arange(WORD)).ravel()
        target[byte_idx] = words.view(np.uint8)


def _check_bounds(diff: Diff, page_len: int) -> None:
    # Runs ascend, so the last one ends furthest into the page.
    if (int(diff.starts[-1]) + int(diff.lengths[-1])) * WORD > page_len:
        raise ValueError("diff run exceeds page bounds")


def apply_diff(target: np.ndarray, diff: Diff) -> None:
    """Merge ``diff`` into ``target`` (a page-sized uint8 array)."""
    if diff.is_empty:
        return
    _check_bounds(diff, len(target))
    if len(diff.starts) == 1:
        offset = int(diff.starts[0]) * WORD
        target[offset : offset + diff.words.nbytes] = diff.words.view(
            np.uint8
        )
        return
    _scatter(target, diff.word_index(), diff.words)


def apply_diff_versioned(
    targets,
    diff: Diff,
    word_tags: np.ndarray,
    tag: int,
) -> None:
    """Merge ``diff`` into each array in ``targets``, word-versioned.

    A word is overwritten only if ``tag`` exceeds its recorded version;
    winning words take the new version.  Cumulative diffs can leak a
    write from an interval later than the one a requester asked for, so
    an *older* concurrent diff arriving afterwards must not regress such
    words — for race-free programs, writes to one word are totally
    ordered by synchronization, and the causal tags preserve that order
    (see ``TmkPage.lamport``).

    The runs of one diff never overlap (run-length-encoding invariant),
    so all runs are merged in a single vectorized pass: one gather of
    the word versions, one scatter of the winning words per target.
    """
    if diff.is_empty:
        return
    _check_bounds(diff, len(targets[0]))
    words = diff.words
    if len(diff.starts) == 1:
        first = int(diff.starts[0])
        tag_seg = word_tags[first : first + len(words)]
        if tag_seg.max() < tag:
            # Every word wins (the overwhelmingly common case for
            # race-free programs): contiguous slice stores, no index
            # vectors, no boolean gathers.
            tag_seg[:] = tag
            flat = words.view(np.uint8)
            offset = first * WORD
            end = offset + len(flat)
            for target in targets:
                target[offset:end] = flat
            return
    word_idx = diff.word_index()
    winners = word_tags[word_idx] < tag
    if winners.all():
        win_idx, win_words = word_idx, words
    elif not winners.any():
        return
    else:
        win_idx, win_words = word_idx[winners], words[winners]
    word_tags[win_idx] = tag
    for target in targets:
        _scatter(target, win_idx, win_words)
