"""Vectorized application kernels over the bulk region API.

Post-PR4 profiles put the flat-profile lead inside the *application
workers*: lu/gauss drive :class:`~repro.core.runtime.shared.SharedArray`
one row (or one element) at a time even though the paper's kernels —
SPLASH-2 blocked LU, banded red/black SOR, cyclically-distributed Gauss
elimination — are dense block/row operations under a single per-flop
cost model.  This module is the compute half of the fix: one vectorized
numpy implementation of each app's inner loop, paired with the region
half (``SharedArray.read_region`` / ``write_region`` / ``region_view``)
that moves the same bytes with one gather/scatter.

**Bitwise contract.**  Every kernel produces *bit-identical* output to
the scalar reference loop it replaced, kept as a test oracle in
``tests/app_oracle.py``: the same IEEE operations in the same
per-element order, only batched across rows instead of dispatched per
row.  This is load-bearing, not cosmetic — kernel output is written
back into DSM shared memory, where TreadMarks diffs it byte-by-byte
against twins; a single differing low bit would change diff sizes,
message bytes, and therefore simulated times.  The equivalence tests in
``tests/test_app_kernels.py`` pin kernel-vs-scalar equality with ``==``,
never ``allclose``.  Four rules the batched barnes
traversal had to learn (mismatches against the scalar expression,
measured on one host over uniform random inputs; EXPERIMENTS.md):

1. *Order.*  Float adds do not reassociate: accumulate in the scalar
   loop's order, one ``+=`` per term — never ``sum``/``reduceat``.
2. *Dot products.*  ``v @ v`` is BLAS ``ddot``, which contracts to FMA:
   ``(d0*d0 + d1*d1) + d2*d2`` differs in the last bit on 22 % of
   3-vectors and ``einsum`` on 30 %.  The stacked
   ``np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]`` calls the same
   routine per row (0 differ).
3. *Powers.*  An array ``** 1.5`` dispatches to a SIMD ``pow`` and
   differs from the scalar one on 5 % of values: take non-integer
   powers over ``.tolist()`` in Python floats.
4. *Squares.*  ``x ** 2`` on a NumPy scalar is ``pow``, on an array a
   multiply (0.07 % differ): evaluate it the way the scalar loop does.

Barnes ``values`` go through BLAS ``ddot``, so their last bits (and
``result_digest``) are a function of the BLAS build: the batched path
calls the same routine as the scalar walk, so the two agree on every
host, but two hosts need not.

**Flop charging.**  Simulated compute time is charged through one hook,
:func:`flop_cost`: a kernel invocation costs ``flops * us_per_flop``
microseconds, with the flop count given by the ``*_flops`` helpers
below — the exact expressions the scalar loops charged, so charge
totals (and hence simulated results) are those of the scalar loops.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# flop accounting — the single charging hook
# ---------------------------------------------------------------------------


def flop_cost(flops: float, us_per_flop: float) -> float:
    """Simulated microseconds charged for one kernel invocation.

    Every kernel call charges ``flops * us_per_flop``; the ``*_flops``
    helpers below reproduce the scalar loops' expressions exactly, so
    the charge stream is unchanged by the kernel layer.
    """
    return flops * us_per_flop


def lu_diag_flops(block: int) -> float:
    """Unpivoted LU of one ``block x block`` block."""
    return float(block) ** 3 / 3


def lu_perimeter_flops(block: int) -> float:
    """One triangular solve of a perimeter block."""
    return float(block) ** 3 / 2


def lu_interior_flops(block: int) -> float:
    """One interior rank-``block`` update (dgemm)."""
    return 2 * float(block) ** 3


def gauss_elim_elems(rank_rows: int, n: int, k: int) -> int:
    """Dependent multiply-subtracts in one elimination round."""
    return rank_rows * (n - k)


def sor_cells(rows: int, half: int) -> int:
    """Stencil cells updated in one red/black half-sweep."""
    return rows * half


# ---------------------------------------------------------------------------
# LU — blocked dense factorization (dgemm/trsm-shaped block kernels)
# ---------------------------------------------------------------------------
#
# The per-column recurrences are inherently sequential, so these stay
# column loops — but with the broadcasted product written out directly
# (``col[:, None] * row``) instead of ``np.outer``'s
# asarray/ravel/reshape detour, and the copy taken once up front.  The
# multiplies, divides, and subtracts are the same IEEE ops on the same
# operands in the same order as the scalar references in
# ``tests/app_oracle.py``.


def lu_factor_diag(a: np.ndarray) -> np.ndarray:
    """Unpivoted LU of one block, L and U packed together.

    Bit-identical to the scalar ``factor_diag`` in ``tests/app_oracle.py``.
    """
    lu = np.array(a)  # fresh writable copy (a may be a read-only view)
    n = lu.shape[0]
    for i in range(n):
        col = lu[i + 1 :, i]
        col /= lu[i, i]
        lu[i + 1 :, i + 1 :] -= col[:, None] * lu[i, i + 1 :]
    return lu


def lu_solve_col(a: np.ndarray, diag_lu: np.ndarray) -> np.ndarray:
    """A := A @ U^-1 — bit-identical to the scalar ``solve_col``."""
    out = np.array(a)
    n = out.shape[0]
    for j in range(n):
        col = out[:, j]
        col /= diag_lu[j, j]
        out[:, j + 1 :] -= col[:, None] * diag_lu[j, j + 1 :]
    return out


def lu_solve_row(a: np.ndarray, diag_lu: np.ndarray) -> np.ndarray:
    """A := L^-1 @ A — bit-identical to the scalar ``solve_row``."""
    out = np.array(a)
    n = out.shape[0]
    for i in range(n):
        out[i + 1 :, :] -= diag_lu[i + 1 :, i][:, None] * out[i, :]
    return out


def lu_interior_update(
    mine: np.ndarray, col: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """A[i][j] -= L[i][k] @ U[k][j] (the dgemm phase)."""
    return mine - col @ row


# ---------------------------------------------------------------------------
# Gauss — one elimination round over all of a processor's rows at once
# ---------------------------------------------------------------------------


def gauss_eliminate(
    block: np.ndarray, pivot: np.ndarray, k: int, n: int
) -> np.ndarray:
    """Eliminate column ``k`` from every row of ``block``.

    ``block`` holds the **live columns** ``[k, n]`` of a processor's
    remaining rows (in flag order); ``pivot`` is row ``k`` (full
    width).  Returns the updated live columns for every row —
    elementwise the same divide/multiply/subtract the scalar per-row
    loop performs, batched over rows.
    """
    live = pivot[k : n + 1]
    factors = block[:, 0] / pivot[k]
    updated = block - factors[:, None] * live
    updated[:, 0] = 0.0  # the eliminated column is exactly zero
    return updated


def gauss_back_substitute(aug: np.ndarray) -> np.ndarray:
    """Back-substitution over the upper-triangular augmented system."""
    n = len(aug)
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (aug[i, n] - aug[i, i + 1 : n] @ x[i + 1 :]) / aug[i, i]
    return x


# ---------------------------------------------------------------------------
# SOR — 5-point red/black stencil over one band
# ---------------------------------------------------------------------------


def sor_phase_update(other_halo: np.ndarray) -> np.ndarray:
    """One red/black half-sweep for a band.

    ``other_halo`` holds the other color's rows for the band plus one
    halo row above and below.  The first and last grid rows are boundary
    rows and stay fixed, so every updated row has in-range halos.
    """
    up = other_halo[:-2]
    mid = other_halo[1:-1]
    down = other_halo[2:]
    right = np.roll(mid, -1, axis=1)
    return 0.25 * (up + down + mid + right)


# ---------------------------------------------------------------------------
# Water — pairwise Lennard-Jones forces and integration
# ---------------------------------------------------------------------------
#
# The force accumulation order is semantically load-bearing (float adds
# do not reassociate), so the kernel keeps the per-molecule accumulation
# loop of the scalar reference and batches only the per-pair vector
# math, which was already vectorized per row.


def water_pair_forces(
    my_pos: np.ndarray, lo: int, all_pos: np.ndarray
) -> np.ndarray:
    """Forces from pairs (i, j) with i in my chunk and j > i.

    Bit-identical to the scalar ``pair_forces`` in ``tests/app_oracle.py``.
    """
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


def water_integrate(
    pos: np.ndarray, vel: np.ndarray, force: np.ndarray, dt: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Velocity/position update for a chunk: ``(new_vel, new_pos)``."""
    new_vel = vel + force * dt
    new_pos = pos + new_vel * dt
    return new_vel, new_pos


# ---------------------------------------------------------------------------
# Barnes — leapfrog integration over a processor's interleaved chunks
# ---------------------------------------------------------------------------


def barnes_integrate(
    bodies: np.ndarray, mine: Sequence[int], dt: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Position/velocity update for the bodies in ``mine``.

    ``bodies`` is the full (n, 9) body array; returns ``(pos, vel)``
    blocks in ``mine`` order — elementwise the per-body update of the
    scalar loop, batched with one fancy-index gather.
    """
    sel = bodies[np.asarray(mine, dtype=np.intp)]
    vel = sel[:, 3:6] + sel[:, 6:9] * dt
    pos = sel[:, 0:3] + vel * dt
    return pos, vel


# ---------------------------------------------------------------------------
# Barnes — batched Barnes-Hut traversals over already-fetched cell blocks
# ---------------------------------------------------------------------------

BARNES_BATCH = 128  # bodies per frontier: bounds one call's working memory
_KEY_BITS = 60  # path key: 3 bits a level, left-aligned => 20 levels


def barnes_forces(ids, pos, table, size2, have, page_rows, theta2):
    """Forces on bodies ``ids`` (at ``pos``) from the private cell
    ``table``: ``(force, inter, done)``.

    ``have[block]`` says which ``page_rows``-row blocks of ``table`` (and
    of ``size2``, each row's ``(2 * half) ** 2``) have been fetched.
    ``done[b]`` is True iff every cell the walk of body ``b`` visits lies
    in a fetched block — then ``force[b]`` and ``inter[b]`` are
    bit-identical to ``apps.barnes._force_on`` (same interactions, added
    in the same depth-first order); otherwise they are meaningless and
    the caller runs the scalar walk, which also fetches the block.
    """
    n = len(ids)
    force = np.zeros((n, 3))
    inter = np.zeros(n, dtype=np.int64)
    done = np.ones(n, dtype=bool)
    for lo in range(0, n, BARNES_BATCH):
        part = slice(lo, lo + BARNES_BATCH)
        _barnes_batch(
            ids[part], pos[part], table, size2, have, page_rows, theta2,
            force[part], inter[part], done[part],
        )
    return force, inter, done


def _barnes_batch(
    ids, pos, table, size2, have, page_rows, theta2, force, inter, done
):
    """One level-synchronous frontier of (body, cell) pairs; fills the
    ``force``/``inter``/``done`` views in place."""
    body = np.arange(len(ids))
    cell = np.zeros(len(ids), dtype=np.int64)
    key = np.zeros(len(ids), dtype=np.int64)
    hits = []  # per level: (body, path key, force term)
    shift = _KEY_BITS
    while len(body):
        done[body[~have[cell // page_rows]]] = False
        keep = done[body]  # a faulting body's other pairs are wasted work
        body, cell, key = body[keep], cell[keep], key[keep]
        rows = table[cell]
        mass = rows[:, 0]
        delta = rows[:, 1:4] - pos[body]
        # Per-row ddot, the routine ``delta @ delta`` calls (rule 2).
        dist2 = np.matmul(delta[:, None, :], delta[:, :, None])[:, 0, 0]
        leaf = rows[:, 13].astype(np.int64)
        is_leaf = leaf >= 0
        far = ~is_leaf & (dist2 > 0) & (size2[cell] < theta2 * dist2)
        live = mass > 0.0
        hit = live & (far | (is_leaf & (leaf != ids[body])))
        # Scalar ``pow`` over Python floats (rule 3).
        denom = np.array([(d + 1e-4) ** 1.5 for d in dist2[hit].tolist()])
        hits.append(
            (body[hit], key[hit], mass[hit, None] * delta[hit] / denom[:, None])
        )
        grow = live & ~is_leaf & ~far
        shift -= 3
        if shift < 0:  # deeper than the key can order
            done[body[grow]] = False
            break
        kids = rows[grow, 5:13]
        slot = kids >= 0
        count = slot.sum(axis=1)
        # The scalar walk pops children 7 -> 0: digit ``7 - slot`` (rule 1).
        key = np.repeat(key[grow], count) | ((7 - np.nonzero(slot)[1]) << shift)
        body = np.repeat(body[grow], count)
        cell = kids[slot].astype(np.int64)
    hit_body = np.concatenate([h[0] for h in hits])
    order = np.lexsort((np.concatenate([h[1] for h in hits]), hit_body))
    term = np.concatenate([h[2] for h in hits])[order]
    inter[:] = np.bincount(hit_body, minlength=len(ids))
    start = np.cumsum(inter) - inter
    # ``force += term`` left to right, batched across bodies by rank.
    active, rank = np.flatnonzero(inter), 0
    while len(active):
        force[active] += term[start[active] + rank]
        rank += 1
        active = active[inter[active] > rank]


# ---------------------------------------------------------------------------
# Em3d — weighted dependency gather/update for one node band
# ---------------------------------------------------------------------------


def em3d_gather(
    window: np.ndarray,
    full,
    my_targets: np.ndarray,
    inside_mask: np.ndarray,
    rlo: int,
    rhi: int,
) -> np.ndarray:
    """Dependency values for a band, drawn from the halo ``window`` (or
    the ``full`` array for the few ring-wrapped dependencies)."""
    gathered = np.where(
        inside_mask,
        window[np.clip(my_targets - rlo, 0, rhi - rlo - 1)],
        0.0,
    )
    if full is not None:
        gathered = np.where(inside_mask, gathered, full[my_targets])
    return gathered


def em3d_update(
    current: np.ndarray, my_weights: np.ndarray, gathered: np.ndarray
) -> np.ndarray:
    """One band update: subtract the weighted dependency sum."""
    return current - (my_weights * gathered).sum(axis=1)


# ---------------------------------------------------------------------------
# Ilink — sparse genotype recurrence and the master's pool reduction
# ---------------------------------------------------------------------------


def ilink_update(values: np.ndarray, it: int) -> np.ndarray:
    """The genotype-probability recurrence over one row's sparse slots."""
    return 0.25 * values + 0.5 * values * values + 0.01 * (it + 1)


def ilink_reduce(pool_rows: np.ndarray) -> np.ndarray:
    """Per-array sums of the whole pool (the master's serial phase)."""
    return np.stack([row.sum() for row in pool_rows])


# ---------------------------------------------------------------------------
# TSP — branch-and-bound search (inherently scalar: data-dependent
# control flow).  The kernel layer hosts the search so all compute
# implementations live in one place; ``apps/tsp.py`` keeps the DFS its
# exact ``reference`` uses, and ``tests/app_oracle.py`` the scalar bound.
# ---------------------------------------------------------------------------


def tsp_lower_bound(d: np.ndarray, path: List[int], length: float) -> float:
    """Partial length plus the cheapest continuation edge per open city.

    Bit-identical to the scalar ``lower_bound`` in ``tests/app_oracle.py``:
    ``min`` is exact, and the accumulation order over cities is
    preserved.
    """
    c = len(d)
    remaining = [i for i in range(c) if i not in path]
    bound = length
    for city in remaining + [path[-1]]:
        choices = [d[city][j] for j in remaining + [path[0]] if j != city]
        if choices:
            bound += min(choices)
    return bound


def tsp_dfs_solve(d, path, length, best_len):
    """Branch-and-bound DFS under a node: ``(best, path, nodes)``.

    Bit-identical to ``apps.tsp._dfs_solve`` — same visit order, same
    pruning comparisons, so the node count (which is charged simulated
    time) is unchanged.
    """
    c = len(d)
    min_edge = [min(d[i][j] for j in range(c) if j != i) for i in range(c)]
    remaining = frozenset(range(c)) - frozenset(path)
    state = {"best": best_len, "path": None, "nodes": 0}
    stack = list(path)

    def descend(last, rem, total):
        state["nodes"] += 1
        if not rem:
            final = total + d[last][path[0]]
            if final < state["best"]:
                state["best"] = final
                state["path"] = list(stack)
            return
        optimistic = total + sum(min_edge[city] for city in rem)
        if optimistic >= state["best"]:
            return
        for city in sorted(rem, key=lambda j: d[last][j]):
            extended = total + d[last][city]
            if extended >= state["best"]:
                continue
            stack.append(city)
            descend(city, rem - {city}, extended)
            stack.pop()

    descend(path[-1], remaining, length)
    return state["best"], state["path"], state["nodes"]
