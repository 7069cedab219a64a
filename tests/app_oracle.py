"""Test-only oracles for the application kernels: the scalar helpers.

Every app runs one body over the vectorized kernels in
``repro.apps.kernels``.  Each kernel replaced a scalar helper that did
the same IEEE operations one row (or one pair) at a time; those helpers
are the references ``tests/test_app_kernels.py`` pins the kernels
against with ``==``, and this is the only place they survive.

Barnes has no helper to swap: its scalar side is the production
fallback walk ``repro.apps.barnes._force_on`` itself.  Inside
``all_scalar_walks()`` the batched traversal speculates nothing, so
every body takes that walk.
"""

from __future__ import annotations

import contextlib
from typing import List

import numpy as np

from repro.apps import kernels

# -- lu --------------------------------------------------------------------


def factor_diag(a: np.ndarray) -> np.ndarray:
    """Unpivoted LU of one block, L and U packed together."""
    lu = a.copy()
    n = len(lu)
    for i in range(n):
        lu[i + 1 :, i] /= lu[i, i]
        lu[i + 1 :, i + 1 :] -= np.outer(lu[i + 1 :, i], lu[i, i + 1 :])
    return lu


def solve_col(a: np.ndarray, diag_lu: np.ndarray) -> np.ndarray:
    """A := A @ U^-1 (column-perimeter triangular solve)."""
    n = len(a)
    out = a.copy()
    for j in range(n):
        out[:, j] /= diag_lu[j, j]
        out[:, j + 1 :] -= np.outer(out[:, j], diag_lu[j, j + 1 :])
    return out


def solve_row(a: np.ndarray, diag_lu: np.ndarray) -> np.ndarray:
    """A := L^-1 @ A (row-perimeter triangular solve)."""
    n = len(a)
    out = a.copy()
    for i in range(n):
        out[i + 1 :, :] -= np.outer(diag_lu[i + 1 :, i], out[i, :])
    return out


def interior_update(
    mine: np.ndarray, col: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """A[i][j] -= L[i][k] @ U[k][j] (the dgemm phase)."""
    return mine - col @ row


# -- sor -------------------------------------------------------------------


def phase_update(other_halo: np.ndarray) -> np.ndarray:
    """One red/black half-sweep for a band."""
    up = other_halo[:-2]
    mid = other_halo[1:-1]
    down = other_halo[2:]
    right = np.roll(mid, -1, axis=1)
    return 0.25 * (up + down + mid + right)


# -- water -----------------------------------------------------------------


def pair_forces(my_pos: np.ndarray, lo: int, all_pos: np.ndarray):
    """Forces from pairs (i, j) with i in my chunk and j > i."""
    n = len(all_pos)
    contrib = np.zeros_like(all_pos)
    for local_i, i in enumerate(range(lo, lo + len(my_pos))):
        if i + 1 >= n:
            continue
        delta = all_pos[i + 1 :] - my_pos[local_i]
        r2 = np.maximum((delta * delta).sum(axis=1), 0.25)
        inv6 = 1.0 / (r2 * r2 * r2)
        magnitude = (24.0 * inv6 * (2.0 * inv6 - 1.0) / r2)[:, np.newaxis]
        pair = magnitude * delta
        contrib[i + 1 :] += pair
        contrib[i] -= pair.sum(axis=0)
    return contrib


# -- tsp -------------------------------------------------------------------


def lower_bound(d: np.ndarray, path: List[int], length: float) -> float:
    """Partial length plus the cheapest continuation edge per open city."""
    c = len(d)
    remaining = [i for i in range(c) if i not in path]
    bound = length
    for city in remaining + [path[-1]]:
        choices = [d[city][j] for j in remaining + [path[0]] if j != city]
        if choices:
            bound += min(choices)
    return bound


# -- barnes ----------------------------------------------------------------


def no_speculation(ids, pos, table, size2, have, page_rows, theta2):
    """A ``kernels.barnes_forces`` that finishes no walk: ``done`` is
    all False, so the worker runs ``_force_on`` for every body."""
    n = len(ids)
    return np.zeros((n, 3)), np.zeros(n, dtype=np.int64), np.zeros(n, bool)


@contextlib.contextmanager
def all_scalar_walks():
    """Barnes runs inside the block walk every body with the scalar
    ``_force_on`` — the schedule before batched traversals."""
    saved = kernels.barnes_forces
    kernels.barnes_forces = no_speculation
    try:
        yield
    finally:
        kernels.barnes_forces = saved
