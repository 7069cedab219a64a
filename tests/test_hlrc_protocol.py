"""Behavioural tests for the home-based LRC extension protocol."""

import numpy as np
import pytest

from repro.config import HLRC_INT, HLRC_POLL, RunConfig
from repro.core import Program, SharedArray, run_program, run_sequential

from tests.helpers import values_match


def simple_program(worker):
    def setup(space, params):
        arr = SharedArray.alloc(space, "data", np.float64, (4096,))
        arr.initialize(np.zeros(4096))
        return {"arr": arr}

    return Program("probe", setup, worker)


def run(worker, nprocs=2, variant=HLRC_POLL, **overrides):
    return run_program(
        simple_program(worker),
        RunConfig(variant=variant, nprocs=nprocs, **overrides),
        {},
    )


def test_dynamic_homing_notice_units_carry_their_rank(monkeypatch):
    """Under ``homing="dynamic"`` a merge copies each record once per
    notice (``dataclasses.replace(record, pages=(p,))``): every copy
    the hook sees must carry ``rank == sum(vts)``, not a stale value."""
    from repro import api
    from repro.core.hlrc.protocol import HlrcProtocol

    units = []
    real = HlrcProtocol._note_record

    def spy(self, proc, record, at, run):
        units.append(record)
        return real(self, proc, record, at, run)

    monkeypatch.setattr(HlrcProtocol, "_note_record", spy)
    result = api.run_point(
        "tsp", "hlrc_int", 8, scale="tiny", homing="dynamic"
    )
    assert result.counter("home_migrations") > 0
    assert units and all(len(unit.pages) == 1 for unit in units)
    for unit in units:
        assert unit.rank == sum(unit.vts)
        assert unit.order == unit.rank * len(unit.vts) + unit.proc


def test_release_pushes_diff_to_home():
    """A non-home writer's release eagerly diffs to the home."""

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            _ = yield from arr.get(env, 0)  # first touch: rank 0 is home
        yield from env.barrier(0)
        if env.rank == 1:
            yield from arr.put(env, 0, 5.0)
        yield from env.barrier(1)
        if env.rank == 0:
            value = yield from arr.get(env, 0)
            assert value == 5.0
        yield from env.barrier(2)
        env.stop_timer()
        return None

    result = run(worker, trace=True)
    counts = result.trace.counts()
    assert counts["twin"] == 1
    assert counts["diff_to_home"] == 1
    assert counts["diff_apply"] == 1
    # The home never faults for remote data: its copy is authoritative.
    assert result.stats[0].reported_counters["page_fetches"] == 0


def test_home_writes_in_place_without_twins():
    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:  # home of page 0
            yield from arr.put(env, 0, 7.0)
        yield from env.barrier(0)
        value = yield from arr.get(env, 0)
        assert value == 7.0
        yield from env.barrier(1)
        env.stop_timer()
        return None

    result = run(worker, nprocs=4)
    assert result.stats[0].reported_counters["twins_created"] == 0
    assert result.counter("diffs_created") == 0


def test_reader_validates_with_single_page_fetch():
    """Many writers, one reader: HLRC needs ONE fetch where TreadMarks
    needs a diff from every writer."""

    def worker(env, shared, params):
        arr = shared["arr"]
        yield from arr.put(env, env.rank, float(env.rank + 1))
        yield from env.barrier(0)
        out = yield from arr.read_range(env, 0, env.nprocs)
        yield from env.barrier(1)
        env.stop_timer()
        return list(out)

    result = run(worker, nprocs=8)
    expected = [float(r + 1) for r in range(8)]
    for values in result.values:
        assert values == expected
    # Each non-home processor revalidated with one whole-page fetch.
    assert result.counter("page_fetches") <= 2 * 8


def test_unflushed_writes_survive_refetch():
    """Regression: an invalidation landing on a dirty page must not
    clobber the open interval's writes (found via TSP)."""

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 1:
            # Dirty word 100 in an open interval...
            yield from arr.put(env, 100, 42.0)
            # ...then acquire a lock whose grant invalidates the page
            # (rank 0 wrote word 0 under it).
            yield from env.lock_acquire(0)
            value = yield from arr.get(env, 0)
            own = yield from arr.get(env, 100)
            yield from env.lock_release(0)
            env.stop_timer()
            return value, own
        yield from env.lock_acquire(0)
        yield from arr.put(env, 0, 1.0)
        yield from env.lock_release(0)
        env.stop_timer()
        return None

    result = run(worker)
    value, own = result.values[1]
    assert value == 1.0  # saw the lock-protected write
    assert own == 42.0  # kept its own unflushed write


def test_lock_chain_rmw_exact():
    def worker(env, shared, params):
        arr = shared["arr"]
        for _ in range(4):
            for victim in range(env.nprocs):
                target = (env.rank + victim) % env.nprocs
                yield from env.lock_acquire(target)
                value = yield from arr.get(env, target)
                yield from arr.put(env, target, value + 1.0)
                yield from env.lock_release(target)
        yield from env.barrier(0)
        env.stop_timer()
        if env.rank == 0:
            return (yield from arr.read_range(env, 0, env.nprocs))
        return None

    result = run(worker, nprocs=16)
    assert list(result.values[0]) == [64.0] * 16


@pytest.mark.parametrize("variant", [HLRC_POLL, HLRC_INT])
def test_apps_match_sequential(variant):
    from repro.apps import sor, water

    for module in (sor, water):
        app = module.program()
        params = module.default_params("tiny")
        seq = run_sequential(app, params)
        par = run_program(app, RunConfig(variant=variant, nprocs=8), params)
        assert values_match(seq.values[0], par.values[0], rtol=1e-7)


def test_no_gc_pressure():
    """HLRC discards twins/diffs at each release: no diff accumulation,
    and GC (when records trigger it) has no page work to do."""
    import repro.core.lrc as lrc

    def worker(env, shared, params):
        arr = shared["arr"]
        for it in range(30):
            yield from arr.put(env, env.rank * 512 + it % 512, float(it))
            yield from env.barrier(0)
        env.stop_timer()
        return None

    import unittest.mock as mock

    with mock.patch.object(lrc, "GC_RECORD_THRESHOLD", 16):
        # The class attribute reads the module constant at definition
        # time; patch the instance attribute path instead.
        from repro.core.hlrc.protocol import HlrcProtocol

        with mock.patch.object(HlrcProtocol, "gc_record_threshold", 16):
            result = run(worker, nprocs=4)
    assert result.counter("gc_rounds") > 0


def test_prewarm_gives_everyone_copies():
    def worker(env, shared, params):
        arr = shared["arr"]
        _ = yield from arr.read_range(env, 0, 4096)
        yield from env.barrier(0)
        env.stop_timer()
        return None

    warm = run(worker, nprocs=4, warm_start=True)
    assert warm.counter("page_fetches") == 0
