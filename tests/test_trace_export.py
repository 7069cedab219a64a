"""Tests for trace export (JSONL / Chrome), queries, and diffing."""

import json

import numpy as np
import pytest

from repro.config import CSM_POLL, TMK_MC_POLL, RunConfig
from repro.core import Program, SharedArray, run_program
from repro.harness.cli import main
from repro.stats.export import (
    PP_TRACK_OFFSET,
    TRACE_SCHEMA_VERSION,
    TraceRun,
    chrome_trace,
    export_runs,
    read_jsonl,
    run_metadata,
    write_chrome,
    write_jsonl,
)
from repro.stats.trace import TraceEvent, Tracer, diff_traces


def handoff_program():
    def setup(space, params):
        arr = SharedArray.alloc(space, "x", np.float64, (1024,))
        arr.initialize(np.zeros(1024))
        return {"arr": arr}

    def worker(env, shared, params):
        arr = shared["arr"]
        yield from env.lock_acquire(0)
        yield from arr.put(env, 8 * env.rank, float(env.rank))
        yield from env.lock_release(0)
        yield from env.barrier(0)
        value = yield from arr.get(env, 8 * ((env.rank + 1) % env.nprocs))
        assert value == float((env.rank + 1) % env.nprocs)
        yield from env.barrier(1)
        env.stop_timer()
        return None

    return Program("handoff", setup, worker)


@pytest.fixture(scope="module")
def traced_results():
    out = {}
    for variant in (CSM_POLL, TMK_MC_POLL):
        out[variant.name] = run_program(
            handoff_program(),
            RunConfig(variant=variant, nprocs=4, trace=True),
            {},
        )
    return out


@pytest.fixture(scope="module")
def runs(traced_results):
    return [
        TraceRun.from_result(result, scale="tiny")
        for result in traced_results.values()
    ]


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def test_run_metadata_is_self_describing(traced_results):
    meta = run_metadata(traced_results["csm_poll"], scale="tiny")
    assert meta["type"] == "run"
    assert meta["schema"] == TRACE_SCHEMA_VERSION
    assert meta["program"] == "handoff"
    assert meta["variant"] == "csm_poll"
    assert meta["system"] == "cashmere"
    assert meta["nprocs"] == 4
    assert meta["scale"] == "tiny"
    assert meta["cluster"]["page_size"] > 0
    assert meta["costs"]  # full cost-model constants
    assert set(meta["flags"]) == {
        "exclusive_mode", "write_double_dummy", "remote_reads",
        "weak_state", "trace", "debug_checks", "warm_start",
        "barrier_fanin", "dir_shards", "node_mem_pages",
        "granularity", "prefetch", "homing",
    }
    assert meta["exec_time_us"] > 0
    assert meta["events"] == len(traced_results["csm_poll"].trace)
    assert meta["counters"]["read_faults"] >= 0
    # Sorted, so the bytes do not depend on which counter ticked first.
    assert list(meta["counters"]) == sorted(meta["counters"])
    assert "user" in meta["breakdown_us"]


def test_trace_run_requires_trace():
    import types

    bare = types.SimpleNamespace(trace=None, program="handoff")
    with pytest.raises(ValueError, match="no trace"):
        TraceRun.from_result(bare)


def test_untraced_run_exports_empty_timeline(tmp_path):
    from repro.harness.runner import ExperimentContext

    ctx = ExperimentContext(scale="tiny")
    result = ctx.run("sor", CSM_POLL, 2)
    assert "events" not in run_metadata(result)
    assert ctx.trace_runs == []
    out = tmp_path / "t.jsonl"
    export_runs(ctx.trace_runs, str(out))
    assert read_jsonl(str(out)) == []


def test_untraced_parallel_run_has_no_trace_to_export():
    result = run_program(
        handoff_program(), RunConfig(variant=CSM_POLL, nprocs=2), {}
    )
    with pytest.raises(ValueError, match="pass RunConfig\\(trace=True\\)"):
        TraceRun.from_result(result)


# ---------------------------------------------------------------------------
# JSONL: lossless round trip
# ---------------------------------------------------------------------------

def test_jsonl_round_trip_preserves_every_event(runs, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(runs, path)
    back = read_jsonl(path)
    assert len(back) == len(runs)
    for original, loaded in zip(runs, back):
        assert loaded.meta["variant"] == original.meta["variant"]
        assert len(loaded.events) == len(original.events)
        for a, b in zip(original.events, loaded.events):
            assert a == b  # time, pid, kind, details, dur — all of it


def test_jsonl_lines_are_typed_json(runs, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(runs[0], path)  # a single run is accepted too
    with open(path) as stream:
        records = [json.loads(line) for line in stream]
    assert records[0]["type"] == "run"
    assert all(r["type"] == "event" for r in records[1:])
    assert len(records) == 1 + len(runs[0].events)


def test_read_jsonl_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "mystery"}\n')
    with pytest.raises(ValueError, match="unknown record type"):
        read_jsonl(str(bad))
    orphan = tmp_path / "orphan.jsonl"
    orphan.write_text('{"type": "event", "ts": 0, "pid": 0, "kind": "x"}\n')
    with pytest.raises(ValueError, match="event before any run"):
        read_jsonl(str(orphan))


def test_loaded_run_supports_queries(runs, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(runs, path)
    tracer = read_jsonl(path)[0].tracer()
    assert tracer.counts() == runs[0].tracer().counts()
    assert tracer.spans("barrier")
    assert tracer.page_history(0)


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------

def test_chrome_trace_is_valid_json(runs, tmp_path):
    path = str(tmp_path / "trace.json")
    write_chrome(runs, path)
    with open(path) as stream:
        doc = json.load(stream)
    assert "traceEvents" in doc
    assert doc["otherData"]["schema"] == TRACE_SCHEMA_VERSION
    assert len(doc["otherData"]["runs"]) == len(runs)


def test_chrome_ts_non_decreasing_per_track(runs):
    doc = chrome_trace(runs)
    last = {}
    for record in doc["traceEvents"]:
        if record["ph"] == "M":
            continue
        track = (record["pid"], record["tid"])
        assert record["ts"] >= last.get(track, float("-inf"))
        last[track] = record["ts"]
    assert last  # there were body events


def test_chrome_structure(runs):
    doc = chrome_trace(runs)
    events = doc["traceEvents"]
    # One viewer process per run, named after the run.
    names = [
        e["args"]["name"] for e in events if e.get("name") == "process_name"
    ]
    assert names == [run.label for run in runs]
    # One named thread per simulated processor.
    threads = {
        (e["pid"], e["args"]["name"])
        for e in events
        if e.get("name") == "thread_name"
    }
    for run_index in range(len(runs)):
        for pid in range(4):
            assert (run_index, f"p{pid}") in threads
    # Spans are complete events with durations; instants are instants.
    body = [e for e in events if e["ph"] in ("X", "i")]
    assert any(e["ph"] == "X" and e["dur"] > 0 for e in body)
    assert any(e["ph"] == "i" and e["s"] == "t" for e in body)


def test_chrome_protocol_processor_track():
    run = TraceRun(
        meta={"nprocs": 4, "program": "x", "variant": "v"},
        events=[TraceEvent(1.0, -1, "write_notice", (("page", 1),))],
    )
    doc = chrome_trace(run)
    body = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert body[0]["tid"] == PP_TRACK_OFFSET + 4
    names = {
        e["args"]["name"] for e in doc["traceEvents"]
        if e.get("name") == "thread_name"
    }
    assert "protocol processors" in names


def test_export_runs_dispatch(runs, tmp_path):
    export_runs(runs, str(tmp_path / "a.jsonl"), format="jsonl")
    export_runs(runs, str(tmp_path / "a.json"), format="chrome")
    with pytest.raises(ValueError, match="unknown trace format"):
        export_runs(runs, str(tmp_path / "a.xml"), format="xml")


# ---------------------------------------------------------------------------
# disabled tracer cost
# ---------------------------------------------------------------------------

def test_disabled_emit_is_one_branch():
    tracer = Tracer(enabled=False)
    tracer._sorted = sentinel = [TraceEvent(0.0, 0, "sentinel")]
    tracer.emit(1.0, 0, "read_fault", page=3)
    # The disabled path returned before touching any state: no event
    # recorded, and not even the sort cache was invalidated.
    assert tracer.events == []
    assert tracer._sorted is sentinel


# ---------------------------------------------------------------------------
# timeline queries
# ---------------------------------------------------------------------------

def test_between_is_half_open():
    tracer = Tracer(enabled=True)
    for t in (1.0, 2.0, 3.0):
        tracer.emit(t, 0, "tick")
    assert [e.time for e in tracer.between(1.0, 3.0)] == [1.0, 2.0]


def test_spans_sort_by_start_time():
    tracer = Tracer(enabled=True)
    tracer.emit(5.0, 0, "read_fault", page=1)
    # The span *ends* later but started first; emitted after the instant.
    tracer.emit(2.0, 0, "compute", dur=10.0)
    assert [e.kind for e in tracer.timeline()] == ["compute", "read_fault"]
    assert tracer.spans() == [tracer.timeline()[0]]
    assert tracer.timeline()[0].end == 12.0


def test_lock_chain_shows_token_migration(traced_results):
    chain = traced_results["tmk_mc_poll"].trace.lock_chain(0)
    kinds = {e.kind for e in chain}
    assert "lock_acquire" in kinds
    assert "lock_grant" in kinds  # LRC token passing carries records
    assert all(e.get("lock") == 0 for e in chain)
    assert len({e.pid for e in chain if e.kind == "lock_acquire"}) == 4


def test_page_history_tells_the_coherence_story(traced_results):
    trace = traced_results["csm_poll"].trace
    page = trace.of_kind("write_fault")[0].get("page")
    kinds = [e.kind for e in trace.page_history(page)]
    assert "write_fault" in kinds
    assert "read_fault" in kinds


# ---------------------------------------------------------------------------
# cross-protocol diffing
# ---------------------------------------------------------------------------

def test_diff_traces_aligns_on_barriers(traced_results):
    csm = traced_results["csm_poll"].trace
    tmk = traced_results["tmk_mc_poll"].trace
    diff = diff_traces(csm, tmk, "csm_poll", "tmk_mc_poll")
    # 4 processors x 2 program barriers, aligned pairwise.
    assert len(diff.sync_points) == 8
    assert {s.pid for s in diff.sync_points} == {0, 1, 2, 3}
    # Protocol-specific kinds land on the right side.
    assert "page_transfer" in diff.only_a
    assert "diff_create" in diff.only_b
    # Shared program structure: same number of barrier episodes.
    assert diff.delta("barrier") == 0
    rendered = diff.render()
    assert "csm_poll" in rendered and "largest skew" in rendered


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_trace_subcommand_chrome(tmp_path, capsys):
    out = str(tmp_path / "sor.json")
    assert main([
        "trace", "sor", "--scale", "tiny", "--procs", "2",
        "--variants", "csm_poll", "--trace-out", out, "--format", "chrome",
    ]) == 0
    printed = capsys.readouterr().out
    assert "sor under csm_poll" in printed
    with open(out) as stream:
        doc = json.load(stream)
    assert doc["otherData"]["runs"][0]["variant"] == "csm_poll"
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])


def test_cli_trace_two_variants_prints_diff(tmp_path, capsys):
    out = str(tmp_path / "sor.jsonl")
    assert main([
        "trace", "sor", "--scale", "tiny", "--procs", "2",
        "--variants", "csm_poll", "tmk_mc_poll",
        "--trace-out", out, "--limit", "5",
    ]) == 0
    printed = capsys.readouterr().out
    assert "trace diff: csm_poll vs tmk_mc_poll" in printed
    runs = read_jsonl(out)
    assert [r.meta["variant"] for r in runs] == ["csm_poll", "tmk_mc_poll"]
    assert all(r.meta["scale"] == "tiny" for r in runs)
    assert all(r.events for r in runs)


def test_cli_global_trace_out_on_run(tmp_path, capsys):
    out = str(tmp_path / "run.jsonl")
    assert main([
        "run", "sor", "--scale", "tiny", "--procs", "2",
        "--variant", "tmk_mc_poll", "--trace-out", out,
    ]) == 0
    capsys.readouterr()
    (run,) = read_jsonl(out)
    assert run.meta["variant"] == "tmk_mc_poll"
    assert run.events
