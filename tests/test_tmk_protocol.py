"""Behavioural tests for the TreadMarks protocol via small programs."""

import numpy as np
import pytest

from repro.config import (
    TMK_MC_INT,
    TMK_MC_POLL,
    TMK_UDP_INT,
    RunConfig,
)
from repro.core import Program, SharedArray, run_program


def simple_program(worker):
    def setup(space, params):
        arr = SharedArray.alloc(space, "data", np.float64, (4096,))
        arr.initialize(np.zeros(4096))
        return {"arr": arr}

    return Program("probe", setup, worker)


def run(worker, nprocs=2, variant=TMK_MC_POLL, **overrides):
    return run_program(
        simple_program(worker),
        RunConfig(variant=variant, nprocs=nprocs, **overrides),
        {},
    )


def test_twin_created_on_first_write():
    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from arr.put(env, 0, 1.0)
            yield from arr.put(env, 1, 2.0)  # same interval: no new twin
        yield from env.barrier(0)
        env.stop_timer()
        return None

    result = run(worker)
    assert result.stats[0].reported_counters["twins_created"] == 1


def test_diff_moves_only_changed_words():
    """TreadMarks' key advantage on sparse data (Ilink): diffs carry the
    changed words, not whole pages."""

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from arr.put(env, 0, 5.0)  # one word of an 8 KB page
        yield from env.barrier(0)
        if env.rank == 1:
            value = yield from arr.get(env, 0)
            assert value == 5.0
        yield from env.barrier(1)
        env.stop_timer()
        return None

    # Warm start isolates the steady state from the cold page fetch.
    result = run(worker, warm_start=True)
    agg = result.stats.aggregate_counters()
    assert agg["diffs_created"] == 1
    # All protocol messages together are far less than one page.
    assert agg["data_bytes"] < 2048


def test_barrier_propagates_write_notices():
    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from arr.put(env, 10, 1.5)
        yield from env.barrier(0)
        value = yield from arr.get(env, 10)
        yield from env.barrier(1)
        env.stop_timer()
        return value

    result = run(worker, nprocs=4)
    assert all(v == 1.5 for v in result.values)


def test_lock_transfer_carries_intervals():
    order = []

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from env.lock_acquire(0)
            yield from arr.put(env, 0, 7.0)
            yield from env.lock_release(0)
            yield from env.barrier(0)
        else:
            yield from env.barrier(0)
            yield from env.lock_acquire(0)
            value = yield from arr.get(env, 0)
            order.append(value)
            yield from env.lock_release(0)
        env.stop_timer()
        return None

    run(worker)
    assert order == [7.0]


def test_lock_reacquire_by_owner_is_free():
    def worker(env, shared, params):
        if env.rank == 0:
            for _ in range(10):
                yield from env.lock_acquire(0)
                yield from env.lock_release(0)
        env.stop_timer()
        return None
        yield  # pragma: no cover - keeps this a generator for rank 1

    result = run(worker)
    # Re-acquiring a cached lock sends no messages (manager is rank 0).
    assert result.stats[0].reported_counters["messages"] == 0


def test_lock_chain_serializes_rmw():
    """The canonical migratory pattern: no lost updates."""

    def worker(env, shared, params):
        arr = shared["arr"]
        for _ in range(4):
            yield from env.lock_acquire(3)
            value = yield from arr.get(env, 0)
            yield from arr.put(env, 0, value + 1.0)
            yield from env.lock_release(3)
        yield from env.barrier(0)
        env.stop_timer()
        if env.rank == 0:
            return (yield from arr.get(env, 0))
        return None

    result = run(worker, nprocs=8)
    assert result.values[0] == 32.0


def test_concurrent_false_sharing_merges():
    def worker(env, shared, params):
        arr = shared["arr"]
        yield from arr.put(env, env.rank, float(env.rank + 1))
        yield from env.barrier(0)
        out = yield from arr.read_range(env, 0, env.nprocs)
        env.stop_timer()
        return list(out)

    result = run(worker, nprocs=8)
    expected = [float(r + 1) for r in range(8)]
    for values in result.values:
        assert values == expected


def test_flags_transfer_consistency():
    seen = []

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from arr.put(env, 50, 9.0)
            yield from env.flag_set(0)  # owner is rank 0 (= 0 % nprocs)
        else:
            yield from env.flag_wait(0)
            seen.append((yield from arr.get(env, 50)))
        yield from env.barrier(0)
        env.stop_timer()
        return None

    run(worker, nprocs=4)
    assert seen == [9.0, 9.0, 9.0]


def test_flag_set_by_wrong_owner_rejected():
    def worker(env, shared, params):
        if env.rank == 1:
            yield from env.flag_set(0)  # flag 0 belongs to rank 0
        yield from env.barrier(0)
        env.stop_timer()
        return None

    with pytest.raises(RuntimeError, match="must be set by its owner"):
        run(worker)


def test_cumulative_diff_regression_guard():
    """Regression test for the lost-update bug: an old concurrent diff
    arriving after a newer one must not regress the word (found via the
    Water accumulation pattern)."""

    def worker(env, shared, params):
        arr = shared["arr"]
        P = env.nprocs
        for _ in range(2):
            for victim in range(P):
                target = (env.rank + victim) % P
                yield from env.lock_acquire(target)
                value = yield from arr.get(env, target)
                yield from arr.put(env, target, value + 1.0)
                yield from env.lock_release(target)
            yield from env.barrier(0)
        env.stop_timer()
        if env.rank == 0:
            return (yield from arr.read_range(env, 0, P))
        return None

    result = run(worker, nprocs=16)
    assert list(result.values[0]) == [32.0] * 16


@pytest.mark.parametrize("variant", [TMK_MC_POLL, TMK_MC_INT, TMK_UDP_INT])
def test_udp_and_interrupt_variants_correct(variant):
    def worker(env, shared, params):
        arr = shared["arr"]
        yield from arr.put(env, env.rank * 100, float(env.rank))
        yield from env.barrier(0)
        total = 0.0
        for r in range(env.nprocs):
            total += (yield from arr.get(env, r * 100))
        yield from env.barrier(1)
        env.stop_timer()
        return total

    result = run(worker, nprocs=4, variant=variant)
    assert all(v == 6.0 for v in result.values)


def test_vts_invariants_checked_after_run():
    def worker(env, shared, params):
        arr = shared["arr"]
        for it in range(3):
            yield from arr.put(env, env.rank, float(it))
            yield from env.barrier(0)
        env.stop_timer()
        return None

    # run_program calls protocol.check_invariants() at completion.
    run(worker, nprocs=4)


def test_warm_start_skips_cold_fetches():
    def worker(env, shared, params):
        arr = shared["arr"]
        _ = yield from arr.read_range(env, 0, 4096)
        yield from env.barrier(0)
        env.stop_timer()
        return None

    cold = run(worker, nprocs=4)
    warm = run(worker, nprocs=4, warm_start=True)
    assert warm.stats.total("page_fetches") == 0
    assert cold.stats.total("page_fetches") > 0
    assert warm.exec_time < cold.exec_time


# -- pending write notices: one writer -> its highest interval ------------


def _spy_validations_and_fetches(monkeypatch):
    """Record (pid, page, pending-before) per validation and (writer,
    requester, payload) per served DIFF_FETCH."""
    from repro.core.treadmarks.protocol import TreadMarksProtocol

    validations, fetches = [], []
    validate = TreadMarksProtocol._validate_page
    serve = TreadMarksProtocol._serve_diff_fetch

    def spy_validate(self, proc, page_idx, page):
        validations.append((proc.pid, page_idx, page.pending.copy()))
        return validate(self, proc, page_idx, page)

    def spy_serve(self, proc, request):
        fetches.append((proc.pid, request.requester.pid, request.payload))
        return serve(self, proc, request)

    monkeypatch.setattr(TreadMarksProtocol, "_validate_page", spy_validate)
    monkeypatch.setattr(TreadMarksProtocol, "_serve_diff_fetch", spy_serve)
    return validations, fetches


def test_piled_up_notices_cost_one_fetch_of_the_highest_interval(monkeypatch):
    """Rank 0 writes word 0 in three intervals (rank 2's reads retire
    each twin, so every interval faults and raises a notice); rank 1
    sleeps through all three barriers and then faults once.  Its pending
    map holds one entry, the writer's highest interval, and the fault
    sends exactly one DIFF_FETCH, to that writer, asking for it."""
    validations, fetches = _spy_validations_and_fetches(monkeypatch)
    pages = []

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 1:
            pages.append(arr._base // env.protocol.space.page_size)
            _ = yield from arr.get(env, 0)  # a copy, so notices invalidate
        yield from env.barrier(99)
        for it in range(3):
            if env.rank == 0:
                yield from arr.put(env, 0, float(it + 1))
            yield from env.barrier(2 * it)
            if env.rank == 2:
                _ = yield from arr.get(env, 0)
            yield from env.barrier(2 * it + 1)
        value = None
        if env.rank == 1:
            del validations[:], fetches[:]
            value = yield from arr.get(env, 0)
        env.stop_timer()
        return value

    result = run(worker, nprocs=3)
    assert result.values[1] == 3.0
    (page,) = pages
    assert validations == [(1, page, {0: 3})]
    assert [(writer, requester, need) for writer, requester, (_p, _h, need)
            in fetches] == [(0, 1, 3)]


def _tmk_system(nprocs, n_pages=4):
    from repro import api
    from repro.config import ClusterConfig
    from repro.memory import AddressSpace

    space = AddressSpace(ClusterConfig().page_size)
    space.alloc("r", n_pages * space.page_size)
    return api.build_system("tmk_mc_poll", nprocs, space=space)


def test_gc_flush_clears_pending_notices_on_pages_without_a_copy():
    system = _tmk_system(2)
    protocol, proc = system.protocol, system.cluster.proc(1)
    state = protocol.procs[1]
    state.page(2).pending[0] = 3  # page 2's manager is p0; p1 has no copy
    system.engine.process(protocol._gc_flush_pages(proc), name="gc")
    system.engine.run()
    assert state.pages[2].pending == {}
    assert state.pages[2].copy is None  # cleared, not fetched
    # p1's own managed pages were validated so post-GC base fetches
    # are complete.
    assert state.pages[1].perm.allows_read()
    assert state.pages[3].perm.allows_read()


def test_lrc_oracle_keeps_the_pending_map_representation():
    """The per-occupancy oracle and production fold the same notices
    into equal writer -> highest-interval maps."""
    from repro.core.intervals import IntervalRecord
    from tests.lrc_oracle import per_occupancy

    records = [
        IntervalRecord(0, iid, (iid, 0, 0), (1, 2)) for iid in (1, 2, 3)
    ] + [IntervalRecord(2, 1, (3, 0, 1), (2,))]

    def pending_after_merge():
        system = _tmk_system(3)
        proc = system.cluster.proc(1)
        system.engine.process(
            system.protocol._incorporate(proc, records), name="merge"
        )
        system.engine.run()
        return {
            page_idx: page.pending
            for page_idx, page in system.protocol.procs[1].pages.items()
        }

    production = pending_after_merge()
    with per_occupancy():
        oracle = pending_after_merge()
    assert production == oracle == {1: {0: 3}, 2: {0: 3, 2: 1}}
