"""Unit tests for the applications' numeric kernels (independent of the
DSM machinery)."""

import numpy as np
import pytest

from repro.apps import barnes, gauss, tsp, water, em3d, ilink
from repro.apps.common import band, cyclic_rows, deterministic_rng
from tests import app_oracle


# --- common helpers -----------------------------------------------------


def test_band_partitions_exactly():
    for nprocs in (1, 3, 7, 32):
        for n in (1, 10, 100, 257):
            covered = []
            for rank in range(nprocs):
                lo, hi = band(rank, nprocs, n)
                covered.extend(range(lo, hi))
            assert covered == list(range(n))


def test_band_balance():
    sizes = [band(r, 7, 100)[1] - band(r, 7, 100)[0] for r in range(7)]
    assert max(sizes) - min(sizes) <= 1


def test_band_bad_rank():
    with pytest.raises(ValueError):
        band(5, 4, 100)


def test_cyclic_rows():
    assert list(cyclic_rows(1, 4, 10)) == [1, 5, 9]


def test_deterministic_rng_reproducible():
    a = deterministic_rng(7).random(5)
    b = deterministic_rng(7).random(5)
    assert np.array_equal(a, b)


# --- LU kernels ------------------------------------------------------------


def test_lu_factor_diag_reconstructs():
    rng = deterministic_rng(3)
    a = rng.random((16, 16)) + np.eye(16) * 16
    packed = app_oracle.factor_diag(a)
    lower = np.tril(packed, -1) + np.eye(16)
    upper = np.triu(packed)
    assert np.allclose(lower @ upper, a)


def test_lu_solve_col_row_inverses():
    rng = deterministic_rng(4)
    diag = app_oracle.factor_diag(rng.random((8, 8)) + np.eye(8) * 8)
    lower = np.tril(diag, -1) + np.eye(8)
    upper = np.triu(diag)
    a = rng.random((8, 8))
    assert np.allclose(app_oracle.solve_col(a, diag) @ upper, a)
    assert np.allclose(lower @ app_oracle.solve_row(a, diag), a)


# --- Gauss ----------------------------------------------------------------


def test_gauss_back_substitution():
    rng = deterministic_rng(5)
    n = 12
    upper = np.triu(rng.random((n, n)) + np.eye(n) * n)
    x_true = rng.random(n)
    aug = np.zeros((n, n + 1))
    aug[:, :n] = upper
    aug[:, n] = upper @ x_true
    assert np.allclose(gauss._back_substitute(aug), x_true)


def test_gauss_cost_overrides_scale_down():
    overrides = gauss.cost_overrides(dict(n=320))
    from repro.config import CostModel

    base = CostModel()
    assert overrides["l1_bytes"] < base.l1_bytes
    assert overrides["l2_bytes"] < base.l2_bytes
    # The ratios track the problem scaling.
    assert overrides["l1_bytes"] == pytest.approx(
        base.l1_bytes * 320 / gauss.PAPER_N, rel=0.01
    )


# --- TSP -----------------------------------------------------------------


def test_tsp_greedy_tour_valid():
    d = tsp.distances(dict(cities=9, seed=1))
    length, path = tsp._greedy_tour(d)
    assert sorted(path) == list(range(9))
    assert path[0] == 0
    rebuilt = sum(d[path[i]][path[i + 1]] for i in range(8)) + d[path[-1]][0]
    assert length == pytest.approx(rebuilt)


def test_tsp_dfs_matches_brute_force():
    import itertools

    d = tsp.distances(dict(cities=7, seed=2))
    best, path, nodes = tsp._dfs_solve(d, [0], 0.0, np.inf)
    brute = min(
        sum(d[p][q] for p, q in zip((0,) + perm, perm + (0,)))
        for perm in itertools.permutations(range(1, 7))
    )
    assert best == pytest.approx(brute)
    assert nodes > 0 and sorted(path) == list(range(7))


def test_tsp_lower_bound_is_admissible():
    d = tsp.distances(dict(cities=7, seed=2))
    optimum, _, _ = tsp._dfs_solve(d, [0], 0.0, np.inf)
    assert app_oracle.lower_bound(d, [0], 0.0) <= optimum + 1e-9


def test_tsp_dfs_respects_incumbent():
    d = tsp.distances(dict(cities=7, seed=2))
    optimum, _, _ = tsp._dfs_solve(d, [0], 0.0, np.inf)
    best, path, nodes = tsp._dfs_solve(d, [0], 0.0, optimum - 1e-6)
    assert path is None  # nothing better than the incumbent
    assert best == pytest.approx(optimum - 1e-6)


# --- Water ----------------------------------------------------------------


def test_water_pair_forces_newton_third_law():
    rng = deterministic_rng(6)
    pos = rng.random((12, 3)) * 3.0
    total = np.zeros(3)
    for rank in range(4):
        lo, hi = band(rank, 4, 12)
        total += app_oracle.pair_forces(pos[lo:hi], lo, pos).sum(axis=0)
    assert np.allclose(total, 0.0, atol=1e-9)


def test_water_pair_forces_partition_invariant():
    rng = deterministic_rng(7)
    pos = rng.random((10, 3)) * 3.0
    whole = app_oracle.pair_forces(pos, 0, pos)
    split = np.zeros_like(whole)
    for rank in range(5):
        lo, hi = band(rank, 5, 10)
        split += app_oracle.pair_forces(pos[lo:hi], lo, pos)
    assert np.allclose(whole, split)


# --- Barnes ---------------------------------------------------------------


def test_barnes_tree_mass_conserved():
    rng = deterministic_rng(8)
    positions = rng.random((50, 3))
    masses = np.ones(50) / 50
    cells = barnes._build_tree(positions, masses)
    assert cells[0].mass == pytest.approx(1.0)


def test_barnes_tree_com_matches():
    rng = deterministic_rng(9)
    positions = rng.random((40, 3))
    masses = rng.random(40)
    cells = barnes._build_tree(positions, masses)
    expected = (positions * masses[:, None]).sum(axis=0) / masses.sum()
    assert np.allclose(cells[0].com, expected)


def test_barnes_encode_roundtrip_children():
    rng = deterministic_rng(10)
    positions = rng.random((30, 3))
    masses = np.ones(30)
    cells = barnes._build_tree(positions, masses)
    encoded = barnes._encode_cells(cells, 4 * 30)
    # Every child index recorded in the encoding points inside the tree.
    for i in range(len(cells)):
        for child in encoded[i, 5:13]:
            assert child == -1 or 0 <= child < len(cells)


def test_barnes_chunks_cover_all_bodies():
    covered = []
    for rank in range(16):
        covered.extend(barnes._my_chunks(rank, 16, 1000))
    assert sorted(covered) == list(range(1000))


# --- SOR / Em3d / Ilink ----------------------------------------------------


def test_sor_phase_update_shape():
    halo = np.arange(50, dtype=np.float64).reshape(5, 10)
    out = app_oracle.phase_update(halo)
    assert out.shape == (3, 10)
    assert np.all(np.isfinite(out))


def test_em3d_dependencies_within_window():
    params = dict(n_nodes=1024, degree=4, seed=1)
    deps = em3d._dependencies(params)
    offsets = (deps["targets"] - np.arange(1024)[:, None]) % 1024
    # Every dependency is within the window on the ring.
    in_window = (offsets <= em3d.WINDOW) | (offsets >= 1024 - em3d.WINDOW)
    assert in_window.all()


def test_ilink_sparse_slots_sorted_unique():
    params = dict(arrays=4, elems=512, density=0.1, seed=3)
    slots = ilink._sparse_slots(params)
    assert slots.shape[0] == 4
    for row in slots:
        assert len(set(row.tolist())) == len(row)
        assert np.all(np.diff(row) > 0)
        assert row.max() < 512


# --- kernel-vs-scalar bitwise equality -------------------------------------
#
# The kernel layer's contract is *bit* identity with the scalar
# reference loops it replaced (tests/app_oracle.py): kernel output is
# written back into DSM shared memory, where TreadMarks diffs it
# byte-by-byte against twins, so these pin exact equality (never
# ``allclose``).

from repro.apps import kernels


def test_kernel_lu_factor_diag_bitwise():
    rng = deterministic_rng(20)
    a = rng.random((16, 16)) + np.eye(16) * 16
    assert np.array_equal(
        kernels.lu_factor_diag(a), app_oracle.factor_diag(a)
    )


def test_kernel_lu_solves_bitwise():
    rng = deterministic_rng(21)
    diag = app_oracle.factor_diag(rng.random((8, 8)) + np.eye(8) * 8)
    a = rng.random((8, 8))
    assert np.array_equal(
        kernels.lu_solve_col(a, diag), app_oracle.solve_col(a, diag)
    )
    assert np.array_equal(
        kernels.lu_solve_row(a, diag), app_oracle.solve_row(a, diag)
    )


def test_kernel_lu_solves_accept_readonly_views():
    rng = deterministic_rng(22)
    diag = app_oracle.factor_diag(rng.random((8, 8)) + np.eye(8) * 8)
    a = rng.random((8, 8))
    a.flags.writeable = False
    assert np.array_equal(
        kernels.lu_factor_diag(a), app_oracle.factor_diag(a)
    )
    assert np.array_equal(
        kernels.lu_solve_col(a, diag), app_oracle.solve_col(a, diag)
    )


def test_kernel_lu_interior_update_bitwise():
    rng = deterministic_rng(23)
    mine = rng.random((8, 8))
    col, row = rng.random((8, 8)), rng.random((8, 8))
    assert np.array_equal(
        kernels.lu_interior_update(mine, col, row),
        app_oracle.interior_update(mine, col, row),
    )


def test_kernel_gauss_eliminate_bitwise():
    rng = deterministic_rng(24)
    n = 24
    matrix = rng.random((n, n + 2)) + np.hstack(
        [np.eye(n) * n, np.zeros((n, 2))]
    )
    for k in (0, 5, n - 2):
        pivot = matrix[k]
        rows = [r for r in range(n) if r > k][:7]
        block = matrix[rows][:, k : n + 1]
        batched = kernels.gauss_eliminate(block, pivot, k, n)
        for i, r in enumerate(rows):
            current = matrix[r]
            factor = current[k] / pivot[k]
            updated = current[k : n + 1] - factor * pivot[k : n + 1]
            updated[0] = 0.0
            assert np.array_equal(batched[i], updated)


def test_kernel_gauss_back_substitute_bitwise():
    rng = deterministic_rng(25)
    n = 12
    aug = np.zeros((n, n + 1))
    aug[:, :n] = np.triu(rng.random((n, n)) + np.eye(n) * n)
    aug[:, n] = rng.random(n)
    assert np.array_equal(
        kernels.gauss_back_substitute(aug), gauss._back_substitute(aug)
    )


def test_kernel_sor_phase_update_bitwise():
    rng = deterministic_rng(26)
    halo = rng.random((9, 32))
    assert np.array_equal(
        kernels.sor_phase_update(halo), app_oracle.phase_update(halo)
    )


def test_kernel_water_pair_forces_bitwise():
    rng = deterministic_rng(27)
    pos = rng.random((20, 3)) * 3.0
    for rank in range(4):
        lo, hi = band(rank, 4, 20)
        assert np.array_equal(
            kernels.water_pair_forces(pos[lo:hi], lo, pos),
            app_oracle.pair_forces(pos[lo:hi], lo, pos),
        )


def test_kernel_water_integrate_bitwise():
    rng = deterministic_rng(28)
    pos, vel, force = rng.random((3, 10, 3))
    new_vel, new_pos = kernels.water_integrate(pos, vel, force, water.DT)
    ref_vel = vel + force * water.DT
    ref_pos = pos + ref_vel * water.DT
    assert np.array_equal(new_vel, ref_vel)
    assert np.array_equal(new_pos, ref_pos)


def test_kernel_barnes_integrate_bitwise():
    rng = deterministic_rng(29)
    bodies = rng.random((30, barnes.BODY_FIELDS))
    mine = barnes._my_chunks(1, 3, 30)
    pos_block, vel_block = kernels.barnes_integrate(bodies, mine, barnes.DT)
    for i, body in enumerate(mine):
        vel = bodies[body, 3:6] + bodies[body, 6:9] * barnes.DT
        pos = bodies[body, 0:3] + vel * barnes.DT
        assert np.array_equal(vel_block[i], vel)
        assert np.array_equal(pos_block[i], pos)


def test_kernel_em3d_gather_update_bitwise():
    params = dict(n_nodes=256, degree=4, seed=11)
    deps = em3d._dependencies(params)
    rng = deterministic_rng(30)
    n = 256
    values = rng.random(n)
    lo, hi = band(1, 4, n)
    rlo, rhi = max(lo - em3d.WINDOW, 0), min(hi + em3d.WINDOW, n)
    my_targets = deps["targets"][lo:hi]
    my_weights = deps["weights"][lo:hi]
    inside = (my_targets >= rlo) & (my_targets < rhi)
    window, full = values[rlo:rhi], values
    gathered = kernels.em3d_gather(window, full, my_targets, inside, rlo, rhi)
    ref = np.where(
        inside, window[np.clip(my_targets - rlo, 0, rhi - rlo - 1)], 0.0
    )
    ref = np.where(inside, ref, full[my_targets])
    assert np.array_equal(gathered, ref)
    current = rng.random(hi - lo)
    assert np.array_equal(
        kernels.em3d_update(current, my_weights, gathered),
        current - (my_weights * gathered).sum(axis=1),
    )


def test_kernel_ilink_update_reduce_bitwise():
    rng = deterministic_rng(31)
    values = rng.random(40)
    for it in (0, 3):
        assert np.array_equal(
            kernels.ilink_update(values, it),
            0.25 * values + 0.5 * values * values + 0.01 * (it + 1),
        )
    pool_rows = [rng.random(64) for _ in range(5)]
    reduced = kernels.ilink_reduce(pool_rows)
    assert np.array_equal(reduced, np.array([row.sum() for row in pool_rows]))


def test_kernel_tsp_matches_scalar():
    d = tsp.distances(dict(cities=8, seed=5))
    assert kernels.tsp_lower_bound(d, [0, 3], d[0][3]) == app_oracle.lower_bound(
        d, [0, 3], d[0][3]
    )
    got = kernels.tsp_dfs_solve(d, [0], 0.0, np.inf)
    ref = tsp._dfs_solve(d, [0], 0.0, np.inf)
    assert got == ref  # (best, path, nodes) — including the node count


# --- batched Barnes-Hut traversals vs the scalar walk -----------------------
#
# ``kernels.barnes_forces`` speculates the walks that stay inside the
# cell blocks a processor has already fetched.  The scalar side is the
# production fallback ``barnes._force_on`` itself, driven by a
# dict-backed ``fetch_cell`` that records every cell it is asked for.

from hypothesis import given
from hypothesis import strategies as st

THETA2 = barnes.THETA * barnes.THETA


def _encoded_tree(positions):
    n = len(positions)
    masses = np.ones(n) / n
    max_cells = max((5 * n) // 2, 8)
    tree = barnes._build_tree(positions, masses)
    return barnes._encode_cells(tree, max_cells)


def _scalar_walk(body, pos, records):
    """``(force, inter, cells visited)`` of the scalar traversal."""
    visited = []

    def fetch_cell(idx):
        visited.append(idx)
        return records[idx]
        yield  # a generator, like the worker's

    walk = barnes._force_on(body, pos, fetch_cell, None)
    try:
        next(walk)
    except StopIteration as stop:
        force, inter = stop.value
        return force, inter, visited
    raise AssertionError("a dict-backed fetch never suspends")


def _cell_depths(encoded):
    depth = {0: 0}
    frontier = [0]
    while frontier:
        idx = frontier.pop()
        for child in encoded[idx, 5:13]:
            if child >= 0:
                depth[int(child)] = depth[idx] + 1
                frontier.append(int(child))
    return depth


def _assert_batched_equals_scalar(positions, have, page_rows, ids=None):
    """Run both sides; returns ``done``.  Unfetched blocks of the table
    hold NaN, so a kernel that read one could not come out equal."""
    encoded = _encoded_tree(positions)
    records = dict(enumerate(encoded))
    depth = _cell_depths(encoded)
    have = np.asarray(have, dtype=bool)
    fetched = np.repeat(have, page_rows)[: len(encoded)]
    table = np.where(fetched[:, None], encoded, np.nan)
    size2 = np.array([(2 * half) ** 2 for half in table[:, 4]])
    table.flags.writeable = size2.flags.writeable = False
    before = table.copy()
    if ids is None:
        ids = range(len(positions))
    ids = np.asarray(ids, dtype=np.intp)
    force, inter, done = kernels.barnes_forces(
        ids, positions[ids], table, size2, have, page_rows, THETA2
    )
    assert np.array_equal(table, before, equal_nan=True)
    for i, body in enumerate(ids.tolist()):
        ref_force, ref_inter, visited = _scalar_walk(
            body, positions[body], records
        )
        stays_inside = all(have[idx // page_rows] for idx in visited)
        orderable = max(depth[idx] for idx in visited) <= 20
        assert done[i] == (stays_inside and orderable), body
        if done[i]:
            assert inter[i] == ref_inter
            assert np.array_equal(force[i], ref_force), body
    return done


def _all_blocks(n, page_rows):
    return np.ones(-(-max((5 * n) // 2, 8) // page_rows), dtype=bool)


@pytest.mark.parametrize("page_rows", [16, 64])
@pytest.mark.parametrize("n", [1, 2, 64, 300])
def test_kernel_barnes_forces_bitwise(n, page_rows):
    positions = deterministic_rng(40 + n).random((n, 3)) * 2.0 - 1.0
    done = _assert_batched_equals_scalar(
        positions, _all_blocks(n, page_rows), page_rows
    )
    assert done.all()  # the whole tree is fetched: nothing faults


@given(st.data())
def test_kernel_barnes_forces_done_exactly_when_walk_stays_fetched(data):
    n = data.draw(st.integers(1, 300), label="n")
    page_rows = data.draw(st.sampled_from([16, 64]), label="page_rows")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    n_blocks = len(_all_blocks(n, page_rows))
    have = data.draw(
        st.lists(st.booleans(), min_size=n_blocks, max_size=n_blocks),
        label="have",
    )
    ids = data.draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(sorted),
        label="ids",
    )
    positions = deterministic_rng(seed).random((n, 3)) * 2.0 - 1.0
    _assert_batched_equals_scalar(positions, have, page_rows, ids)


def test_kernel_barnes_forces_gives_up_below_twenty_levels():
    """Two bodies 1e-7 apart sit ~24 levels down: their walks outrun the
    path key, so they are left to the scalar walk; the far bodies accept
    the enclosing cell much higher and stay batched."""
    positions = deterministic_rng(41).random((40, 3)) * 2.0 - 1.0
    positions[7] = positions[3] + 1e-7
    done = _assert_batched_equals_scalar(positions, _all_blocks(40, 64), 64)
    assert not done[3] and not done[7]
    assert done.sum() >= 30


def test_ddot_per_row_matmul_equals_the_scalar_dot():
    """Rule 2 of the bitwise contract, pinned on its own: the stacked
    ``matmul`` reaches the same BLAS ``ddot`` as ``v @ v``, so a NumPy
    dispatch change fails here instead of drifting result digests."""
    d = deterministic_rng(42).random((10_000, 3)) * 2.0 - 1.0
    batched = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]
    assert batched.tolist() == [float(v @ v) for v in d]
