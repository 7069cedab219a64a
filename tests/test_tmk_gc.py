"""TreadMarks garbage collection: consistency data is bounded, and
collection never changes program results."""

import numpy as np
import pytest

import repro.core.treadmarks.protocol as tmk_protocol
from repro.config import TMK_MC_POLL, RunConfig
from repro.core import Program, SharedArray, run_program, run_sequential
from repro.core.treadmarks.protocol import TreadMarksProtocol

from tests.helpers import values_match


@pytest.fixture
def low_threshold(monkeypatch):
    """Force GC to trigger after a handful of intervals."""
    monkeypatch.setattr(tmk_protocol, "GC_RECORD_THRESHOLD", 16)


def churn_program(iters=24):
    """Every iteration every processor writes a page and barriers —
    interval records accumulate fast."""

    def setup(space, params):
        arr = SharedArray.alloc(space, "data", np.float64, (4096,))
        arr.initialize(np.zeros(4096))
        return {"arr": arr}

    def worker(env, shared, params):
        arr = shared["arr"]
        for it in range(iters):
            idx = (env.rank * 1024 + it) % 4096
            yield from arr.put(env, idx, it * 100.0 + env.rank)
            yield from env.barrier(0)
            # Read a neighbour's slot so diffs and notices flow.
            other = (((env.rank + 1) % env.nprocs) * 1024 + it) % 4096
            value = yield from arr.get(env, other)
            assert value == it * 100.0 + (env.rank + 1) % env.nprocs
            yield from env.barrier(1)
        env.stop_timer()
        if env.rank == 0:
            return (yield from arr.read_all(env))
        return None

    return Program("churn", setup, worker)


def _grab_protocols(monkeypatch):
    created = []
    original = TreadMarksProtocol.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(TreadMarksProtocol, "__init__", spy)
    return created


def test_gc_triggers_and_results_stay_correct(monkeypatch):
    created = _grab_protocols(monkeypatch)
    # Baseline: same program, GC effectively disabled.
    monkeypatch.setattr(tmk_protocol, "GC_RECORD_THRESHOLD", 10**9)
    baseline = run_program(
        churn_program(), RunConfig(variant=TMK_MC_POLL, nprocs=4), {}
    )
    assert baseline.counter("gc_rounds") == 0

    monkeypatch.setattr(tmk_protocol, "GC_RECORD_THRESHOLD", 16)
    result = run_program(
        churn_program(), RunConfig(variant=TMK_MC_POLL, nprocs=4), {}
    )
    assert values_match(baseline.values[0], result.values[0])
    assert result.counter("gc_rounds") > 0
    # Interval stores stay bounded at the threshold scale.
    protocol = created[-1]
    for state in protocol.procs.values():
        assert state.store.record_count() <= 3 * 16


def test_gc_discards_diff_payloads(low_threshold, monkeypatch):
    created = _grab_protocols(monkeypatch)
    run_program(churn_program(), RunConfig(variant=TMK_MC_POLL, nprocs=4), {})
    protocol = created[-1]
    cached = sum(
        len(wd.cache)
        for state in protocol.procs.values()
        for wd in state.diff_cache.values()
    )
    # Most diff payloads were collected; only the current epoch remains.
    assert cached < 40


def test_no_gc_without_threshold(monkeypatch):
    created = _grab_protocols(monkeypatch)
    result = run_program(
        churn_program(iters=4), RunConfig(variant=TMK_MC_POLL, nprocs=4), {}
    )
    assert result.counter("gc_rounds") == 0


def test_gc_after_epoch_first_touch_gets_flushed_copy(
    low_threshold, monkeypatch
):
    """A processor that first touches a page only *after* a GC epoch must
    see current data via the manager's flushed copy."""

    def setup(space, params):
        arr = SharedArray.alloc(space, "data", np.float64, (2048,))
        arr.initialize(np.zeros(2048))
        return {"arr": arr}

    def worker(env, shared, params):
        arr = shared["arr"]
        # Ranks 0..2 churn on page 0 to force a GC.
        for it in range(20):
            if env.rank < 3:
                yield from arr.put(env, env.rank, it * 10.0 + env.rank)
            yield from env.barrier(0)
        # Rank 3 touches page 0 for the first time, post-GC.
        value = None
        if env.rank == 3:
            value = yield from arr.get(env, 1)
        yield from env.barrier(1)
        env.stop_timer()
        return value

    result = run_program(
        Program("late_touch", setup, worker),
        RunConfig(variant=TMK_MC_POLL, nprocs=4),
        {},
    )
    assert result.counter("gc_rounds") > 0
    assert result.values[3] == 19 * 10.0 + 1


def _one_barrier_program():
    """Each rank writes its own page, then every rank barriers once."""

    def setup(space, params):
        arr = SharedArray.alloc(space, "data", np.float64, (4 * 1024,))
        arr.initialize(np.zeros(4 * 1024))
        return {"arr": arr}

    def worker(env, shared, params):
        yield from shared["arr"].put(env, env.rank * 1024, 1.0)
        yield from env.barrier(0)
        env.stop_timer()

    return Program("one_barrier", setup, worker)


@pytest.mark.parametrize(
    "overrides",
    [{"nprocs": 1}, {"nprocs": 4}, {"nprocs": 4, "barrier_fanin": 2}],
    ids=["single", "flat", "hierarchical"],
)
def test_gc_flushes_only_above_the_record_threshold(monkeypatch, overrides):
    """The barrier's collection test is ``record_count() > threshold``:
    no flush when the deciding store holds exactly ``threshold``
    records, a flush at one more.  Runs the one-processor barrier, the
    flat manager and the hierarchical root."""
    created = _grab_protocols(monkeypatch)
    cfg = RunConfig(variant=TMK_MC_POLL, **overrides)
    assert cfg.hierarchical_barriers == ("barrier_fanin" in overrides)
    monkeypatch.setattr(tmk_protocol, "GC_RECORD_THRESHOLD", 10**9)
    run_program(_one_barrier_program(), cfg, {})
    records = created[-1].procs[0].store.record_count()
    assert records == cfg.nprocs  # one interval a writer, all at rank 0

    for threshold, rounds in ((records, 0), (records - 1, cfg.nprocs)):
        monkeypatch.setattr(tmk_protocol, "GC_RECORD_THRESHOLD", threshold)
        result = run_program(_one_barrier_program(), cfg, {})
        assert result.counter("gc_rounds") == rounds, threshold
