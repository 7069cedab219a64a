"""Tests for the protocol event tracer."""

import numpy as np

from repro.config import CSM_POLL, TMK_MC_POLL, RunConfig
from repro.core import Program, SharedArray, run_program
from repro.stats.trace import TraceEvent, Tracer


def handoff_program():
    def setup(space, params):
        arr = SharedArray.alloc(space, "x", np.float64, (1024,))
        arr.initialize(np.zeros(1024))
        return {"arr": arr}

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank == 0:
            yield from arr.put(env, 0, 42.0)
        yield from env.barrier(0)
        if env.rank == 1:
            value = yield from arr.get(env, 0)
            assert value == 42.0
        yield from env.barrier(1)
        env.stop_timer()
        return None

    return Program("handoff", setup, worker)


def test_tracer_unit_api():
    tracer = Tracer(enabled=True)
    tracer.emit(1.0, 0, "read_fault", page=3)
    tracer.emit(2.0, 1, "diff_apply", page=3, writer=0)
    tracer.emit(3.0, 1, "read_fault", page=4)
    assert len(tracer) == 3
    assert tracer.counts() == {"read_fault": 2, "diff_apply": 1}
    assert len(tracer.of_kind("read_fault")) == 2
    assert len(tracer.for_pid(1)) == 2
    assert len(tracer.for_page(3)) == 2
    assert tracer.events[0].get("page") == 3
    assert tracer.events[0].get("missing", "x") == "x"
    assert "read_fault" in str(tracer.events[0])
    assert "p1" in tracer.render(limit=2)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.emit(1.0, 0, "read_fault")
    assert len(tracer) == 0


def test_trace_off_by_default():
    result = run_program(
        handoff_program(), RunConfig(variant=CSM_POLL, nprocs=2), {}
    )
    assert result.trace is None


def test_cashmere_trace_story():
    result = run_program(
        handoff_program(),
        RunConfig(variant=CSM_POLL, nprocs=2, trace=True),
        {},
    )
    counts = result.trace.counts()
    assert counts["write_fault"] >= 1
    assert counts["home_assigned"] >= 1
    assert counts["page_transfer"] >= 1
    # Rank 0 is the only sharer at its release: the page goes exclusive.
    assert counts["exclusive_enter"] >= 1
    # The transfer happens at rank 1 for page 0, after rank 0's fault.
    transfer = result.trace.of_kind("page_transfer")[0]
    fault = result.trace.of_kind("write_fault")[0]
    assert transfer.pid == 1 and fault.pid == 0
    assert transfer.time > fault.time


def test_treadmarks_trace_story():
    result = run_program(
        handoff_program(),
        RunConfig(variant=TMK_MC_POLL, nprocs=2, trace=True),
        {},
    )
    counts = result.trace.counts()
    assert counts["twin"] == 1
    assert counts["diff_create"] == 1
    assert counts["diff_apply"] == 1
    assert counts["interval_close"] >= 1
    assert counts["page_fetch"] >= 1  # rank 1's cold first touch
    create = result.trace.of_kind("diff_create")[0]
    apply_ = result.trace.of_kind("diff_apply")[0]
    assert create.pid == 0 and apply_.pid == 1
    assert create.time <= apply_.time
    # Only one word changed: the diff carries 8 bytes.
    assert create.get("bytes") == 8


def test_trace_event_ordering_is_chronological():
    result = run_program(
        handoff_program(),
        RunConfig(variant=TMK_MC_POLL, nprocs=2, trace=True),
        {},
    )
    times = [e.time for e in result.trace]
    assert times == sorted(times)
