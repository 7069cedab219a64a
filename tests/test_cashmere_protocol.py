"""Behavioural tests for the Cashmere protocol via small programs."""

import numpy as np
import pytest

from repro.config import CSM_INT, CSM_POLL, CSM_PP, RunConfig
from repro.core import Program, SharedArray, run_program
from repro.memory.page import Protection


def simple_program(worker, pages=4):
    """One shared float64 array of ``pages`` 8 KB pages (1024 a page)."""

    def setup(space, params):
        arr = SharedArray.alloc(space, "data", np.float64, (pages * 1024,))
        arr.initialize(np.zeros(pages * 1024))
        return {"arr": arr}

    return Program("probe", setup, worker)


def run(worker, nprocs=2, variant=CSM_POLL, pages=4, **overrides):
    return run_program(
        simple_program(worker, pages),
        RunConfig(variant=variant, nprocs=nprocs, **overrides),
        {},
    )


def test_first_touch_assigns_home_to_toucher():
    captured = {}

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 1:
            yield from arr.put(env, 0, 1.0)  # rank 1 touches page 0 first
        yield from env.barrier(0)
        if env.rank == 0:
            value = yield from arr.get(env, 0)
            captured["value"] = value
            captured["protocol"] = env.protocol
            captured["home"] = env.protocol.directory.entry(0).home_node
            captured["rank1_node"] = env.protocol.cluster.proc(1).node.nid
        env.stop_timer()
        return None

    run(worker)
    assert captured["value"] == 1.0
    assert captured["home"] == captured["rank1_node"]


def test_round_robin_homes_when_first_touch_disabled():
    captured = {}

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            # Touch pages 0..3 (element stride = one 8 KB page).
            for page in range(4):
                yield from arr.put(env, page * 1024, 1.0)
            captured["homes"] = [
                env.protocol.directory.entry(p).home_node for p in range(4)
            ]
        yield from env.barrier(0)
        env.stop_timer()
        return None

    run(worker, homing="round-robin")
    assert len(set(captured["homes"])) > 1  # spread, not all-local


def test_read_fault_counts_and_page_transfer():
    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from arr.put(env, 0, 3.0)
        yield from env.barrier(0)
        if env.rank == 1:
            value = yield from arr.get(env, 0)
            assert value == 3.0
        yield from env.barrier(0)
        env.stop_timer()
        return None

    result = run(worker)
    # Rank 1 is on another node, so its read faulted and moved the page.
    assert result.stats[1].reported_counters["read_faults"] >= 1
    assert result.stats[1].reported_counters["page_transfers"] >= 1


def test_home_node_access_needs_no_transfer():
    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from arr.put(env, 0, 3.0)
            yield from env.barrier(0)
            _ = yield from arr.get(env, 0)
        else:
            yield from env.barrier(0)
        env.stop_timer()
        return None

    result = run(worker)
    assert result.stats[0].reported_counters["page_transfers"] == 0


def test_exclusive_mode_stops_write_faults():
    """A page with a single writer moves to exclusive mode at the first
    release and stops faulting (Section 2.1)."""

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            for it in range(5):
                yield from arr.put(env, 0, float(it))
                yield from env.barrier(0)
        else:
            for _ in range(5):
                yield from env.barrier(0)
        env.stop_timer()
        return None

    result = run(worker)
    # One initial read+write fault; exclusive mode avoids the rest.
    assert result.stats[0].reported_counters["write_faults"] == 1

    result_off = run(worker, exclusive_mode=False)
    assert result_off.stats[0].reported_counters["write_faults"] == 5


def test_nle_breaks_exclusivity_and_notifies_reader():
    """When a reader touches an exclusive page, the holder's next release
    must publish a write notice so the reader sees later writes."""
    seen = []

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from arr.put(env, 0, 1.0)
            yield from env.barrier(0)  # page goes exclusive here
            yield from env.barrier(1)  # reader faults in between
            yield from arr.put(env, 0, 2.0)
            yield from env.barrier(2)
        else:
            yield from env.barrier(0)
            value = yield from arr.get(env, 0)
            assert value == 1.0
            yield from env.barrier(1)
            yield from env.barrier(2)
            value = yield from arr.get(env, 0)
            seen.append(value)
        env.stop_timer()
        return None

    run(worker)
    assert seen == [2.0]


def test_multi_writer_false_sharing_merges_at_home():
    """Two writers of disjoint words in one page merge via write-through."""

    def worker(env, shared, params):
        arr = shared["arr"]
        yield from arr.put(env, env.rank, float(env.rank + 10))
        yield from env.barrier(0)
        out = yield from arr.read_range(env, 0, 4)
        env.stop_timer()
        return list(out)

    result = run(worker, nprocs=4)
    for rank, values in enumerate(result.values):
        assert values[:4] == [10.0, 11.0, 12.0, 13.0]


def test_write_through_traffic_counted():
    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 1:
            # Rank 0 first-touches the page; rank 1 writes remotely.
            yield from env.barrier(0)
            yield from arr.write_range(env, 0, np.ones(512))
        else:
            yield from arr.put(env, 600, 1.0)
            yield from env.barrier(0)
        yield from env.barrier(1)
        env.stop_timer()
        return None

    result = run(worker)
    assert result.stats[1].reported_counters["write_through_bytes"] >= 4096


def test_dummy_write_doubling_removes_traffic():
    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 1:
            yield from env.barrier(0)
            yield from arr.write_range(env, 0, np.ones(512))
        else:
            yield from arr.put(env, 600, 1.0)
            yield from env.barrier(0)
        yield from env.barrier(1)
        env.stop_timer()
        return None

    result = run(worker, write_double_dummy=True)
    assert result.stats[1].reported_counters["write_through_bytes"] == 0


@pytest.mark.parametrize("variant", [CSM_POLL, CSM_INT, CSM_PP])
def test_producer_consumer_flags(variant):
    produced = []

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from arr.put(env, 100, 42.0)
            yield from env.flag_set(0)
        else:
            yield from env.flag_wait(0)
            value = yield from arr.get(env, 100)
            produced.append(value)
        yield from env.barrier(0)
        env.stop_timer()
        return None

    run(worker, variant=variant)
    assert produced == [42.0]


def test_invariants_hold_after_run():
    def worker(env, shared, params):
        arr = shared["arr"]
        for it in range(3):
            yield from arr.put(env, env.rank * 1024, float(it))
            yield from env.barrier(0)
            _ = yield from arr.get(env, ((env.rank + 1) % env.nprocs) * 1024)
            yield from env.barrier(1)
        env.stop_timer()
        return None

    # run_program calls protocol.check_invariants() at completion.
    run(worker, nprocs=4)


def test_memory_pressure_evicts_the_oldest_read_only_copies():
    """Over its node's ``node_mem_pages`` budget, a processor leaving a
    barrier drops its coldest read-only copies, oldest fault first."""
    order = [5, 2, 7, 0, 3, 6, 1, 4]  # rank 1's touch order, not page order

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:  # first touch homes every page on rank 0's node
            for page in range(len(order)):
                yield from arr.put(env, page * 1024, 1.0)
        yield from env.barrier(0)
        if env.rank == 1:
            for page in order:
                yield from arr.get(env, page * 1024)
        yield from env.barrier(1)
        env.stop_timer()

    result = run(worker, pages=len(order), node_mem_pages=3, trace=True)
    faults = result.trace.of_kind("read_fault")
    assert [(e.pid, e.get("page")) for e in faults] == [(1, p) for p in order]
    evicted = result.trace.of_kind("evict")
    assert {e.pid for e in evicted} == {1}
    # Eight copies on rank 1's node, room for three: the five oldest go.
    assert sorted(e.get("page") for e in evicted) == sorted(order[:5])
