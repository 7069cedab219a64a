"""Direct tests of the shared LRC engine through a minimal stub
protocol (no data movement at all — consistency metadata only)."""

import numpy as np
import pytest

from repro.config import (
    ClusterConfig,
    CostModel,
    Mechanism,
    RunConfig,
    Transport,
    Variant,
    SystemKind,
)
from repro.cluster.machine import Cluster
from repro.cluster.messaging import Messenger
from repro.cluster.network import MemoryChannel
from repro.core.lrc import LrcProtocolBase
from repro.core.runtime.env import Env
from repro.memory import AddressSpace
from repro.sim import Engine
from repro.stats import StatsBoard


class MetadataOnlyProtocol(LrcProtocolBase):
    """LRC synchronization with no pages: reads/writes are free."""

    def ensure_read(self, proc, page):
        return
        yield

    def ensure_write(self, proc, page):
        self._state(proc).notices.add(page)
        return
        yield

    def page_data(self, proc, page):
        return self.space.backing_page(page)

    def apply_write(self, proc, page, start, raw):
        self.space.backing_page(page)[start : start + len(raw)] = raw
        return
        yield

    def _note_record(self, proc, record, at, run):
        self.noted.setdefault(proc.pid, []).extend(
            (record.proc, record.iid, page_idx) for page_idx in record.pages
        )
        return at

    def _serve_data(self, proc, request):
        raise RuntimeError(f"no data requests expected: {request.kind}")
        yield

    noted: dict = {}


def build(nprocs=4):
    engine = Engine()
    stats = StatsBoard(nprocs)
    cfg = ClusterConfig()
    costs = CostModel()
    cluster = Cluster(
        engine,
        cfg,
        costs,
        Mechanism.POLL,
        [(i % 8, i // 8) for i in range(nprocs)],
        stats,
    )
    network = MemoryChannel(engine, cfg, costs)
    messenger = Messenger(
        engine, cluster, network, costs, Transport.MEMORY_CHANNEL
    )
    space = AddressSpace(1024)
    space.alloc("blob", 16 * 1024)
    run_cfg = RunConfig(
        variant=Variant("stub", SystemKind.TREADMARKS, Mechanism.POLL),
        nprocs=nprocs,
        cluster=cfg,
    )
    protocol = MetadataOnlyProtocol(
        engine, cluster, network, messenger, space, stats, run_cfg
    )
    protocol.noted = {}
    for proc in cluster.procs:
        proc.server = protocol.serve
    return engine, cluster, protocol


def run_workers(engine, cluster, protocol, worker_fn, nprocs):
    done = []

    def wrap(rank):
        env = Env(rank, nprocs, cluster.proc(rank), protocol)
        yield from worker_fn(env)
        done.append(rank)
        engine.process(
            cluster.proc(rank).serve_forever(),
            name=f"idle-{rank}",
            daemon=True,
        )

    for rank in range(nprocs):
        engine.process(wrap(rank), name=f"w{rank}")
    engine.run()
    assert sorted(done) == list(range(nprocs))


def test_interval_records_travel_with_lock_grants():
    engine, cluster, protocol = build(2)

    def worker(env):
        if env.rank == 0:
            yield from env.lock_acquire(0)
            yield from env.protocol.ensure_write(env.proc, 3)
            yield from env.lock_release(0)
            yield from env.barrier(0)
        else:
            yield from env.barrier(0)
            yield from env.lock_acquire(0)
            yield from env.lock_release(0)

    run_workers(engine, cluster, protocol, worker, 2)
    assert (0, 1, 3) in protocol.noted.get(1, [])
    # Vector timestamps converged.
    assert protocol.procs[1].vts[0] == 1


def test_barrier_merges_everyones_intervals():
    engine, cluster, protocol = build(4)

    def worker(env):
        yield from env.protocol.ensure_write(env.proc, 10 + env.rank)
        yield from env.barrier(0)

    run_workers(engine, cluster, protocol, worker, 4)
    for pid in range(4):
        assert protocol.procs[pid].vts == [1, 1, 1, 1]
        noted_pages = {p for (_, _, p) in protocol.noted.get(pid, [])}
        expected = {10 + r for r in range(4)} - {10 + pid}
        assert noted_pages == expected


def test_lock_chain_through_manager_forwarding():
    engine, cluster, protocol = build(4)
    order = []

    def worker(env):
        # Lock 1's manager is rank 1; stagger so the grant chain forms.
        for _ in range(2):
            yield from env.compute(10.0 * (env.rank + 1))
            yield from env.lock_acquire(1)
            order.append(env.rank)
            yield from env.compute(5.0)
            yield from env.lock_release(1)
        yield from env.barrier(0)

    run_workers(engine, cluster, protocol, worker, 4)
    assert len(order) == 8
    assert sorted(order) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_flag_records_flow_to_waiters():
    engine, cluster, protocol = build(2)

    def worker(env):
        if env.rank == 0:
            yield from env.protocol.ensure_write(env.proc, 7)
            yield from env.flag_set(0)
        else:
            yield from env.flag_wait(0)
        yield from env.barrier(0)

    run_workers(engine, cluster, protocol, worker, 2)
    assert (0, 1, 7) in protocol.noted.get(1, [])


def test_gc_collects_records_in_stub():
    engine, cluster, protocol = build(2)
    protocol.gc_record_threshold = 4

    def worker(env):
        for it in range(6):
            yield from env.protocol.ensure_write(env.proc, env.rank)
            yield from env.barrier(0)

    run_workers(engine, cluster, protocol, worker, 2)
    for pid in range(2):
        assert protocol.procs[pid].store.record_count() <= 4 + 2
    protocol.check_invariants()


def test_merging_known_records_costs_no_wake_and_no_time():
    """A merge is one wake when it holds a new record, none otherwise."""
    engine, cluster, protocol = build(2)

    def worker(env):
        yield from env.protocol.ensure_write(env.proc, env.rank)
        yield from env.barrier(0)

    run_workers(engine, cluster, protocol, worker, 2)
    proc = cluster.proc(1)
    known = list(protocol.procs[1].store.all_records())
    assert len(known) == 2
    noted = list(protocol.noted[1])
    assert list(protocol._incorporate(proc, known)) == []
    assert list(protocol._incorporate(proc, [])) == []
    assert protocol.noted[1] == noted  # no notice examined twice


def test_records_size_is_the_sum_of_the_records_encoded_sizes():
    from repro.core.intervals import IntervalRecord

    _engine, _cluster, protocol = build(4)
    per = protocol.costs
    records = [
        IntervalRecord(p, 1, (1, 0, 2, 0), tuple(range(p * 3)))
        for p in range(4)
    ]
    for batch in ([], records[:1], records):
        assert protocol._records_size(batch) == per.vts_entry_bytes * 4 + sum(
            r.encoded_size(
                per.interval_record_bytes,
                per.vts_entry_bytes,
                per.write_notice_bytes,
            )
            for r in batch
        )


def test_the_lrc_fault_path_exists_once():
    """TreadMarks and HLRC differ only in ``_validate_page`` and the
    base class's hooks; neither may grow its own copy of the fault
    path back.  (``page_data`` is the hit path's, written once in
    ``DsmProtocol``: see ``test_the_hit_path_exists_once``.)"""
    from repro.core.hlrc.protocol import HlrcProtocol
    from repro.core.treadmarks.protocol import TreadMarksProtocol

    fault_path = {
        "ensure_read",
        "ensure_write",
        "_prefetch_page",
        "apply_write",
    }
    for cls in (TreadMarksProtocol, HlrcProtocol):
        assert not fault_path & set(cls.__dict__), cls.__name__
        assert fault_path <= set(LrcProtocolBase.__dict__)
