"""Scaling past the paper (PR 7): barriers, directories, big clusters.

The scaling work promises three kinds of safety:

* **Equivalence anchors** — configurations where the new machinery must
  be *bit-identical* to the legacy path: a degenerate one-group barrier
  hierarchy (``barrier_fanin == nprocs`` under LRC), the Cashmere
  hierarchy at the legacy fan-in, and directory sharding on the
  reflective memory-channel backend (where broadcast and unicast meet
  the same hub).
* **Values equivalence** — knobs that legitimately re-time the run
  (fan-in choices at 64p, directory sharding on rdma) must still
  compute the same answer.
* **One event order at scale** — the production scheduler must
  deliver exactly the binary-heap oracle's order (which moves time
  forward by construction): a full 256-processor application run
  digests and traces identically on both, and so do randomized
  raw-engine schedules (hypothesis).

Plus unit coverage of the supporting cast: ``cluster_for`` growth, the
resolved ``RunConfig`` knobs, and the weak/strong scaling driver.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given

from repro import api
from repro.apps import barnes, kernels
from repro.apps.common import deterministic_rng
from repro.config import (
    CSM_POLL,
    CSM_PP,
    HLRC_POLL,
    TMK_MC_POLL,
    ClusterConfig,
    Mechanism,
    RunConfig,
)
from repro.core import run_program
from repro.core.intervals import IntervalRecord, IntervalStore
from repro.core.lrc import LrcProtocolBase
from repro.harness import scaling
from repro.harness.configs import cluster_for
from repro.harness.runner import ExperimentContext
from repro.memory.address_space import AddressSpace
from repro.serving.codec import result_digest
from repro.sim import Engine
from tests.heap_oracle import HeapEngine
from tests.helpers import values_match
from tests.oracles import oracle
from tests.test_engine_queue import _delay_trace, _schedules

TINY_SOR = dict(rows=24, cols=32, iters=4)


# -- equivalence anchors (bit-identical) -------------------------------


@pytest.mark.parametrize(
    "variant", [TMK_MC_POLL, HLRC_POLL], ids=lambda v: v.name
)
def test_degenerate_lrc_hierarchy_is_bit_identical(variant):
    """At <= 32p the default puts every processor in one LRC barrier
    group; asking for that group size explicitly must change nothing."""
    flat = api.run_point("sor", variant, 8, scale="tiny")
    one_group = api.run_point("sor", variant, 8, scale="tiny", barrier_fanin=8)
    assert result_digest(flat) == result_digest(one_group)


def test_cashmere_legacy_fanin_is_bit_identical():
    """At <= 32p the Cashmere tree defaults to the legacy fan-in of 2;
    asking for it explicitly must change nothing."""
    default = api.run_point("sor", CSM_POLL, 8, scale="tiny")
    explicit = api.run_point("sor", CSM_POLL, 8, scale="tiny", barrier_fanin=2)
    assert result_digest(default) == result_digest(explicit)


def test_dir_sharding_on_memch_is_bit_identical():
    """On the reflective memory channel every directory message meets
    the same hub, so sharding the directory re-homes metadata without
    changing a single simulated microsecond."""
    single = api.run_point("sor", CSM_POLL, 8, scale="tiny")
    sharded = api.run_point("sor", CSM_POLL, 8, scale="tiny", dir_shards=4)
    assert result_digest(single) == result_digest(sharded)


# -- values equivalence (timing may legitimately differ) ----------------


@pytest.mark.parametrize("fanin", [2, 8])
def test_64p_fanin_choices_compute_identical_values(fanin):
    params = scaling.weak_params("sor", TINY_SOR, 8, 64)
    default = api.run_point("sor", CSM_POLL, 64, params=params)
    tuned = api.run_point(
        "sor", CSM_POLL, 64, params=params, barrier_fanin=fanin
    )
    assert values_match(default.values, tuned.values)


def test_dir_sharding_on_rdma_computes_identical_values():
    """rdma routes directory traffic point-to-point, so sharding
    changes message homes (and hence timing) — never the answer."""
    single = api.run_point("sor", CSM_POLL, 8, scale="tiny", network="rdma")
    sharded = api.run_point(
        "sor", CSM_POLL, 8, scale="tiny", network="rdma", dir_shards=4
    )
    assert values_match(single.values, sharded.values)
    assert single.exec_time > 0 and sharded.exec_time > 0


@pytest.mark.parametrize(
    "variant", [TMK_MC_POLL, HLRC_POLL], ids=lambda v: v.name
)
@pytest.mark.parametrize("nprocs, fanin", [(5, 2), (7, 3)])
def test_uneven_lrc_barrier_groups_compute_identical_values(
    variant, nprocs, fanin
):
    """Groups whose last leader has no members (5 = 2 + 2 + 1,
    7 = 3 + 3 + 1) re-time the barriers but compute the one-group
    run's answer."""
    one_group = api.run_point("sor", variant, nprocs, scale="tiny")
    groups = api.run_point(
        "sor", variant, nprocs, scale="tiny", barrier_fanin=fanin
    )
    assert groups.values_sha256 == one_group.values_sha256
    assert groups.exec_time != one_group.exec_time


# -- one event order at scale -------------------------------------------


def test_256p_run_never_moves_time_backwards():
    """A full 256-processor weak-scaled sor run — where the same-time
    ring and the whole-batch resume do the most work — equals the
    binary-heap oracle result for result and, per processor, event for
    event (both engines raise if a drain meets the past)."""
    from repro.apps import sor

    params = scaling.weak_params("sor", TINY_SOR, 8, 256)
    cfg = RunConfig(
        variant=CSM_POLL, nprocs=256, cluster=cluster_for(256), trace=True
    )
    production = run_program(sor.program(), cfg, params)
    with oracle("engine"):
        heap = run_program(sor.program(), cfg, params)
    assert production.exec_time > 0
    assert result_digest(production) == result_digest(heap)
    # The whole timeline, which implies every per-pid one.
    assert production.trace.timeline() == heap.trace.timeline()


@given(_schedules())
def test_random_sharded_schedules_are_monotonic_and_heap_identical(
    schedules,
):
    log, fired = _delay_trace(Engine(), schedules)
    times = [t for t, _pid, _i in log]
    assert times == sorted(times)
    assert (log, fired) == _delay_trace(HeapEngine(), schedules)


# -- pinned complexity of the LRC barrier exchange ----------------------


@pytest.mark.parametrize("nprocs", [8, 64])
@pytest.mark.parametrize(
    "variant", [TMK_MC_POLL, HLRC_POLL], ids=lambda v: v.name
)
def test_write_notice_merge_is_one_engine_wake(monkeypatch, variant, nprocs):
    """Host events per ``_incorporate`` call: exactly one when it merges
    at least one new record, none otherwise — however many records and
    invalidations the merge holds."""
    calls = []  # (new records, wakes)
    real = LrcProtocolBase._incorporate

    def counted(self, proc, records):
        store = self.procs[proc.pid].store
        known = store.record_count()
        wakes = 0
        for target in real(self, proc, records):
            wakes += 1
            yield target
        calls.append((store.record_count() - known, wakes))

    monkeypatch.setattr(LrcProtocolBase, "_incorporate", counted)
    params = scaling.weak_params("sor", TINY_SOR, 8, nprocs)
    api.run_point("sor", variant, nprocs, params=params)

    assert all(wakes == (1 if new else 0) for new, wakes in calls)
    assert max(new for new, _wakes in calls) == nprocs - 1  # full merges


class _CountingChain(list):
    """A record chain that counts every element a caller touches."""

    touched = 0

    def __iter__(self):
        _CountingChain.touched += len(self)
        return super().__iter__()

    def __getitem__(self, index):
        found = super().__getitem__(index)
        _CountingChain.touched += (
            len(found) if isinstance(index, slice) else 1
        )
        return found


class _CountingChains(list):
    """The per-processor chain list, counting the chains visited."""

    visited = 0

    def __getitem__(self, index):
        _CountingChains.visited += 1
        return super().__getitem__(index)


def test_records_after_costs_the_records_it_returns():
    """No chain scan and no walk over all P chains: on a 4,096-record
    store, asking for the last few intervals of some processors touches
    exactly the records returned, in exactly the chains that hold them.
    The order is the happens-before rank by its definition,
    ``(sum(vts), proc)``, so the pin checks the stored rank too."""
    nprocs, depth = 64, 64
    store = IntervalStore(nprocs)
    for iid in range(1, depth + 1):
        for proc in range(nprocs):
            vts = [iid - 1] * nprocs
            vts[proc] = iid
            store.insert(IntervalRecord(proc, iid, tuple(vts), (proc,)))
    assert store.record_count() == 4096
    # Every processor ``behind`` intervals back, or only every fourth.
    queries = {
        (behind, stride): [
            depth - behind if proc % stride == 0 else depth
            for proc in range(nprocs)
        ]
        for behind in (0, 1, 3, depth, depth + 5)
        for stride in (1, 4)
    }
    scan = {
        key: sorted(
            (r for r in store.all_records() if r.iid > vts[r.proc]),
            key=lambda r: (sum(r.vts), r.proc),
        )
        for key, vts in queries.items()
    }
    store._records = _CountingChains(
        _CountingChain(chain) for chain in store._records
    )
    for (behind, stride), vts in queries.items():
        _CountingChain.touched = _CountingChains.visited = 0
        found = store.records_after(vts)
        assert found == scan[behind, stride]
        lagging = len(range(0, nprocs, stride)) if behind else 0
        assert len(found) == lagging * min(behind, depth)
        assert _CountingChain.touched == len(found)
        assert _CountingChains.visited == lagging


# -- pinned complexity of warm page memory -------------------------------


def _page_buffers(system):
    """Address of every page copy mapped by any processor."""
    return [
        page.copy.__array_interface__["data"][0]
        for state in system.protocol.procs.values()
        for page in state.pages.values()
    ]


def _owned_copies(system):
    return sum(
        page.copy.flags.writeable
        for state in system.protocol.procs.values()
        for page in state.pages.values()
    )


@pytest.mark.parametrize("nprocs", [8, 64])
@pytest.mark.parametrize(
    "variant", [TMK_MC_POLL, HLRC_POLL], ids=lambda v: v.name
)
def test_warm_build_maps_one_frame_per_page(variant, nprocs):
    """A warm start costs O(pages), not O(processors x pages)."""
    space = AddressSpace()
    space.alloc("data", 24 * space.page_size)
    system = api.build_system(variant, nprocs, warm_start=True, space=space)
    buffers = _page_buffers(system)
    assert len(buffers) == nprocs * 24  # every processor maps every page
    assert len(set(buffers)) == space.n_pages == 24
    assert _owned_copies(system) == 0


@pytest.mark.parametrize("nprocs", [8, 64])
@pytest.mark.parametrize(
    "variant", [TMK_MC_POLL, HLRC_POLL], ids=lambda v: v.name
)
def test_copies_are_owned_only_by_faulting_or_patching(
    built_systems, variant, nprocs
):
    params = scaling.weak_params("sor", TINY_SOR, 8, nprocs)
    result = api.run_point("sor", variant, nprocs, params=params)
    (system,) = built_systems
    assert 0 < _owned_copies(system) <= sum(
        result.counter(name)
        for name in ("write_faults", "diffs_applied", "page_fetches")
    )


def test_small_sor_at_64p_owns_a_fraction_of_its_mappings(built_systems):
    """Tiny sor is two pages that every processor writes; at ``small``
    scale the ratio means something (1,260 of 32,768 when pinned)."""
    api.run_point("sor", TMK_MC_POLL, 64)
    (system,) = built_systems
    assert _owned_copies(system) < 64 * system.space.n_pages / 8


# -- pinned complexity of the batched Barnes-Hut traversals ---------------


def test_barnes_scalar_walks_are_bounded_by_the_blocks_fetched(monkeypatch):
    """Every scalar walk the batched worker runs fetches at least one
    new cell block, so a processor walks at most ``ceil(max_cells /
    page_rows)`` bodies a step the slow way; the rest are speculated
    (31 scalar of 2,048 body-steps, 1.69 speculated each, when pinned)."""
    scalar = Counter()  # per fetch_cell closure = per processor per step
    speculated = []
    real_walk, real_batch = barnes._force_on, kernels.barnes_forces

    def counted_walk(body, pos, fetch_cell, masses):
        scalar[fetch_cell] += 1
        return real_walk(body, pos, fetch_cell, masses)

    def counted_batch(ids, *rest):
        speculated.append(len(ids))
        return real_batch(ids, *rest)

    monkeypatch.setattr(barnes, "_force_on", counted_walk)
    monkeypatch.setattr(kernels, "barnes_forces", counted_batch)
    api.run_point("barnes", TMK_MC_POLL, 8)

    params = barnes.default_params("small")
    body_steps = params["n_bodies"] * params["steps"]
    max_cells = (5 * params["n_bodies"]) // 2
    page_rows = ClusterConfig().page_size // (barnes.CELL_FIELDS * 8)
    assert len(scalar) == 8 * params["steps"]
    assert max(scalar.values()) <= -(-max_cells // page_rows)
    assert sum(scalar.values()) <= 0.05 * body_steps
    assert sum(speculated) <= 2.5 * body_steps


def test_barnes_forces_working_memory_is_bounded_by_the_batch():
    """One call over 2,048 bodies peaks at a few MB because the frontier
    holds at most ``BARNES_BATCH`` bodies' pairs (4.0 MB when pinned; 59
    MB with all 2,048 bodies in one frontier)."""
    n, page_rows = 2048, 64
    positions = deterministic_rng(1997).random((n, 3)) * 2.0 - 1.0
    tree = barnes._build_tree(positions, np.ones(n) / n)
    table = barnes._encode_cells(tree, (5 * n) // 2)
    size2 = (2 * table[:, 4]) ** 2  # memory, not bits, is under test
    have = np.ones(-(-len(table) // page_rows), dtype=bool)
    tracemalloc.start()
    try:
        _force, inter, done = kernels.barnes_forces(
            np.arange(n), positions, table, size2, have, page_rows,
            barnes.THETA * barnes.THETA,
        )
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert done.all() and inter.min() > 0
    assert peak <= 12 * 2**20


# -- supporting cast: cluster growth, knob resolution, the driver -------


def test_cluster_for_keeps_base_when_it_fits():
    base = ClusterConfig()
    assert cluster_for(8) is not cluster_for(8, base)
    assert cluster_for(32, base) is base
    assert cluster_for(8, base, Mechanism.POLL) is base


def test_cluster_for_grows_nodes_never_cpus():
    base = ClusterConfig()
    grown = cluster_for(256, base)
    assert grown.cpus_per_node == base.cpus_per_node
    assert grown.n_nodes == 64
    # Protocol-processor variants lose one CPU per node to the protocol.
    pp = cluster_for(256, base, Mechanism.PROTOCOL_PROCESSOR)
    assert pp.n_nodes == -(-256 // (base.cpus_per_node - 1))


def test_run_point_auto_grows_cluster_past_32():
    result = api.run_point(
        "sor", CSM_PP, 64, params=scaling.weak_params("sor", TINY_SOR, 8, 64)
    )
    cluster = result.config.cluster
    assert cluster.cpus_per_node == ClusterConfig().cpus_per_node
    assert cluster.n_nodes * (cluster.cpus_per_node - 1) >= 64


def test_resolved_knobs_default_to_legacy_below_32p():
    cfg = RunConfig(variant=CSM_POLL, nprocs=8)
    assert cfg.resolved_barrier_fanin == 2
    assert cfg.lrc_barrier_group == cfg.nprocs  # one group: the manager
    assert cfg.resolved_dir_shards == 1


def test_resolved_knobs_scale_past_32p():
    cfg = RunConfig(
        variant=CSM_POLL, nprocs=64, cluster=cluster_for(64)
    )
    assert cfg.lrc_barrier_group < cfg.nprocs
    assert cfg.resolved_barrier_fanin == 4
    assert cfg.resolved_dir_shards == cfg.cluster.n_nodes


def test_knob_validation():
    with pytest.raises(ValueError):
        RunConfig(variant=CSM_POLL, nprocs=8, barrier_fanin=1)
    with pytest.raises(ValueError):
        RunConfig(variant=CSM_POLL, nprocs=8, dir_shards=0)
    with pytest.raises(ValueError):
        RunConfig(variant=CSM_POLL, nprocs=8, node_mem_pages=0)


@pytest.mark.parametrize(
    "knobs",
    [{"barrier_fanin": 1}, {"dir_shards": 0}, {"node_mem_pages": True}],
    ids=["fanin", "dir_shards", "node_mem_pages"],
)
def test_scaling_knobs_are_refused_before_any_point(knobs, monkeypatch):
    """scaling's knob parameters are checked by the knobs' own
    declarations, so a value RunConfig refuses never reaches a point."""
    def no_points(*args, **kwargs):
        raise AssertionError("a point was built")

    monkeypatch.setattr(scaling, "points", no_points)
    with pytest.raises(ValueError, match="known: None or an int"):
        api.run_experiment("scaling", scale="tiny", **knobs)


def test_weak_params_scales_the_linear_knob():
    scaled = scaling.weak_params("sor", TINY_SOR, 8, 64)
    assert scaled["rows"] == TINY_SOR["rows"] * 8
    assert scaled["cols"] == TINY_SOR["cols"]
    with pytest.raises(ValueError, match="no linear work dimension"):
        scaling.weak_params("gauss", dict(n=64), 8, 64)


def test_scaling_driver_weak_sweep():
    ctx = ExperimentContext(scale="tiny")
    result = scaling.run(
        ctx, app="sor", mode="weak", counts=(4, 8), variants=(CSM_POLL,)
    )
    assert result.driver == "scaling"
    points = result.rows
    assert [p.nprocs for p in points] == [4, 8]
    assert points[0].metric == 1.0  # the reference point
    assert all(p.exec_time > 0 for p in points)
    assert "efficiency" in result.text
    assert result.config["mode"] == "weak"


def test_scaling_driver_strong_sweep_via_api():
    result = api.run_experiment(
        "scaling",
        scale="tiny",
        app="sor",
        mode="strong",
        counts=(4, 8),
        variants=(CSM_POLL,),
    )
    points = result.rows
    assert points[0].metric == 1.0
    assert "rel-speedup" in result.text


def test_scaling_driver_rejects_unknown_mode():
    ctx = ExperimentContext(scale="tiny")
    with pytest.raises(ValueError, match="unknown scaling mode"):
        scaling.sweep(ctx, mode="diagonal")
