"""Test-only oracle for run-array diffs.

Production ``repro.memory.diff`` keeps a diff as three arrays (run start
words, run lengths, the changed words back to back) and applies a
multi-run diff through one ``np.repeat``-built word index.  The
implementation it replaced kept one ``(byte_offset, bytes)`` tuple per
run and built one ``np.arange`` per run to apply them; it lives on here,
unchanged but for its names, as the reference the production path must
match bit for bit (``tests/test_diff.py``): equal wire size, dirty
bytes and run count, equal applied page bytes and word tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.memory.diff import RUN_HEADER_BYTES, WORD


@dataclass(frozen=True)
class RunTupleDiff:
    """Changed byte runs of one page: ``[(byte_offset, data), ...]``."""

    runs: Tuple[Tuple[int, bytes], ...]

    @property
    def encoded_size(self) -> int:
        return sum(RUN_HEADER_BYTES + len(data) for _, data in self.runs)

    @property
    def dirty_bytes(self) -> int:
        return sum(len(data) for _, data in self.runs)

    @property
    def is_empty(self) -> bool:
        return not self.runs


def runs_of(diff) -> Tuple[Tuple[int, bytes], ...]:
    """A production (run-array) diff as the oracle's run tuples."""
    data = diff.words.view(np.uint8)
    runs = []
    pos = 0
    for start, length in zip(diff.starts.tolist(), diff.lengths.tolist()):
        nbytes = length * WORD
        runs.append((start * WORD, data[pos : pos + nbytes].tobytes()))
        pos += nbytes
    return tuple(runs)


def make_diff(twin: np.ndarray, current: np.ndarray) -> RunTupleDiff:
    if twin.shape != current.shape:
        raise ValueError("twin and current page must be the same size")
    if len(twin) % WORD:
        raise ValueError(f"page size must be a multiple of {WORD}")
    changed = np.not_equal(twin.view(np.uint64), current.view(np.uint64))
    idx = np.flatnonzero(changed)
    if idx.size == 0:
        return RunTupleDiff(())
    breaks = np.flatnonzero(np.diff(idx) != 1)
    starts = np.empty(breaks.size + 1, idx.dtype)
    stops = np.empty(breaks.size + 1, idx.dtype)
    starts[0] = idx[0]
    starts[1:] = idx[breaks + 1]
    stops[:-1] = idx[breaks]
    stops[-1] = idx[-1]
    starts *= WORD
    stops = (stops + 1) * WORD
    runs: List[Tuple[int, bytes]] = [
        (start, current[start:stop].tobytes())
        for start, stop in zip(starts.tolist(), stops.tolist())
    ]
    return RunTupleDiff(tuple(runs))


def apply_diff_versioned(
    targets, diff: RunTupleDiff, word_tags: np.ndarray, tag: int
) -> None:
    runs = diff.runs
    if not runs:
        return
    page_len = len(targets[0])
    for offset, data in runs:
        if offset + len(data) > page_len:
            raise ValueError("diff run exceeds page bounds")
    if len(runs) == 1:
        offset, data = runs[0]
        first = offset // WORD
        n_words = len(data) // WORD
        tag_seg = word_tags[first : first + n_words]
        if n_words and tag_seg.max() < tag:
            tag_seg[:] = tag
            flat = np.frombuffer(data, np.uint8)
            end = offset + len(data)
            for target in targets:
                target[offset:end] = flat
            return
        word_idx = np.arange(first, first + n_words)
        raw = np.frombuffer(data, np.uint8).reshape(n_words, WORD)
    else:
        word_idx = np.concatenate([
            np.arange(offset // WORD, (offset + len(data)) // WORD)
            for offset, data in runs
        ])
        raw = np.frombuffer(
            b"".join(data for _, data in runs), np.uint8
        ).reshape(-1, WORD)
    winners = word_tags[word_idx] < tag
    if winners.all():
        win_idx, win_raw = word_idx, raw
        word_tags[win_idx] = tag
    elif not winners.any():
        return
    else:
        win_idx = word_idx[winners]
        word_tags[win_idx] = tag
        win_raw = raw[winners]
    for target in targets:
        if len(target) % WORD == 0 and target.flags.c_contiguous:
            view = target.view()
            view.shape = (-1, WORD)
            view[win_idx] = win_raw
        else:  # odd-sized or strided target: scatter byte-by-byte
            byte_idx = (
                win_idx[:, None] * WORD + np.arange(WORD)
            ).ravel()
            target[byte_idx] = win_raw.ravel()


def apply_diff(target: np.ndarray, diff: RunTupleDiff) -> None:
    for offset, data in diff.runs:
        if offset + len(data) > len(target):
            raise ValueError("diff run exceeds page bounds")
        target[offset : offset + len(data)] = np.frombuffer(data, np.uint8)
