"""Self-tests of the benchmark suite.

Run explicitly (``pyproject`` collects only ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import re
import shutil
import subprocess
import sys

import pytest

from . import checks, loadgen, report, servework, simwork, spec, tracing

RUN = [sys.executable, str(spec.SUITE_DIR / "run.py")]


# -- the contract file -------------------------------------------------


def test_contract_names_and_limits():
    contract = spec.load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in contract["workloads"]] == list(
        spec.SIM_WORKLOADS + spec.SERVE_WORKLOADS
    )
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [
        m["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for m in contract[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_per_layer_list_is_generated_from_the_layer_table():
    assert spec.load_contract()["per_layer"] == spec.per_layer_contract()


def test_layer_of_maps_files_to_layers():
    root = str(spec.SRC / "repro")
    assert spec.layer_of(f"{root}/sim/engine.py") == "sim.engine"
    assert spec.layer_of(f"{root}/core/fastpath.py") == "core.base"
    assert spec.layer_of(f"{root}/core/intervals.py") == "core.lrc"
    assert spec.layer_of(f"{root}/core/treadmarks/intervals.py") == "core.treadmarks"
    assert spec.layer_of(f"{root}/apps/kernels.py") == "apps.kernels"
    assert spec.layer_of(f"{root}/apps/barnes.py") == "apps"
    assert spec.layer_of(f"{root}/memory/page.py") == "memory.space"
    assert spec.layer_of(f"{root}/api.py") == "harness"
    assert spec.layer_of("/usr/lib/python3/json/encoder.py") is None
    assert spec.layer_of("~") is None
    for layer in {spec.layer_of(str(p)) for p in (spec.SRC / "repro").rglob("*.py")}:
        assert layer in spec.LAYERS


# -- spans -------------------------------------------------------------


def test_span_self_time_on_synthetic_nested_spans():
    us = 1000
    spans = [
        ["request", 0, 100 * us, None, 0],
        ["child", 10 * us, 40 * us, 0, 0],
        ["grandchild", 20 * us, 30 * us, 1, 0],
        ["child", 50 * us, 70 * us, 0, 0],
        ["open", 80 * us, None, 0, 0],  # never closed: ignored
    ]
    folded = tracing.fold_spans(spans)
    assert folded["request"] == {"n": 1, "total_us": 100.0, "self_us": 50.0}
    assert folded["child"] == {"n": 2, "total_us": 50.0, "self_us": 40.0}
    assert folded["grandchild"] == {"n": 1, "total_us": 10.0, "self_us": 10.0}
    assert "open" not in folded
    assert tracing.mean_us(folded, "child") == 25.0
    assert tracing.mean_us(folded, "absent") == 0.0
    # Self times partition the root's duration.
    assert sum(row["self_us"] for row in folded.values()) == 100.0


class _Seams:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Seams.inner(x) * 2

    @staticmethod
    async def resolve(x):
        await asyncio.sleep(0)
        return _Seams.inner(x)


def test_recorder_nests_spans_per_task_and_restores_callables():
    originals = (_Seams.inner, _Seams.outer, _Seams.resolve)
    recorder = tracing.SpanRecorder()
    recorder.wrap(_Seams, "inner", "inner")
    recorder.wrap(_Seams, "outer", "outer")
    recorder.wrap(_Seams, "resolve", "resolve")
    assert _Seams.outer(1) == 4

    async def two_requests():
        return await asyncio.gather(_Seams.resolve(1), _Seams.resolve(2))

    assert asyncio.run(two_requests()) == [2, 3]
    recorder.remove()
    assert (_Seams.inner, _Seams.outer, _Seams.resolve) == originals

    by_name = {}
    for index, span in enumerate(recorder.spans):
        by_name.setdefault(span[tracing.NAME], []).append(index)
        assert span[tracing.END] >= span[tracing.START]
    outer = by_name["outer"][0]
    assert recorder.spans[by_name["inner"][0]][tracing.PARENT] == outer
    # The two interleaved resolves each own their inner span.
    for resolve in by_name["resolve"]:
        children = [
            i for i in by_name["inner"] if recorder.spans[i][tracing.PARENT] == resolve
        ]
        assert len(children) == 1
        assert recorder.spans[children[0]][tracing.REQUEST] == resolve


# -- the profile fold and the wrappers ---------------------------------


def _tiny_points():
    from repro import api

    return [
        api.run_point("sor", "tmk_mc_poll", 4, scale="tiny"),
        api.run_point("em3d", "csm_poll", 4, scale="tiny"),
    ]


def _crc(results):
    counts = checks.ExactCounts()
    for result in results:
        counts.add(result)
    return counts.metrics(0)["sim.stats_crc"]


def test_layer_fold_sums_to_the_profiled_total():
    _tiny_points()  # imports done: importlib's frames would all be "other"
    profiler = cProfile.Profile()
    profiler.runcall(_tiny_points)
    stats = tracing.profile_stats(profiler)
    layers = tracing.fold_profile(stats)
    total = sum(row[2] for row in stats.values())
    assert sum(layers.values()) == pytest.approx(total, rel=1e-9)
    table = tracing.layer_table(layers)
    assert sum(table[f"{layer}.share"] for layer in spec.LAYERS) == pytest.approx(1.0)
    assert table["other.share"] < 0.10
    assert table["sim.engine.self_s"] > 0 and table["core.treadmarks.self_s"] > 0


def test_wrappers_leave_simulated_results_untouched():
    from repro.sim.engine import Engine

    original_run = Engine.run
    untraced = _crc(_tiny_points())
    counter = tracing.EventCounter()
    counter.install()
    try:
        profiler = cProfile.Profile()
        traced = _crc(profiler.runcall(_tiny_points))
    finally:
        counter.remove()
    assert Engine.run is original_run
    assert traced == untraced
    assert counter.events > 0
    assert _crc(_tiny_points()) == untraced


def test_serving_spans_install_and_remove():
    from repro.harness.cache import ResultCache
    from repro.serving import server

    before = (
        server.ExperimentService.resolve, server.decode_request,
        server.encode_payload, ResultCache.get, ResultCache.put,
    )
    recorder = tracing.SpanRecorder()
    tracing.install_serving_spans(recorder)
    assert server.encode_payload({"a": 1}) == b'{"a": 1}'
    recorder.remove()
    after = (
        server.ExperimentService.resolve, server.decode_request,
        server.encode_payload, ResultCache.get, ResultCache.put,
    )
    assert before == after
    assert [s[tracing.NAME] for s in recorder.spans] == ["serving.server.encode"]


# -- seeded inputs -----------------------------------------------------


def test_one_seed_gives_one_schedule():
    catalogue = servework.hit_catalogue()
    assert len(catalogue) == 324
    assert len({json.dumps(r, sort_keys=True) for r in catalogue}) == 324
    first = servework.hit_schedule(catalogue, seed=7)
    assert first == servework.hit_schedule(catalogue, seed=7)
    assert first != servework.hit_schedule(catalogue, seed=8)
    invalid = [p for p, item in enumerate(first) if item == len(catalogue)]
    assert invalid == list(range(49, len(first), 50))
    assert servework.miss_batches(81, 7) == servework.miss_batches(81, 7)
    assert servework.miss_batches(81, 7) != servework.miss_batches(81, 8)


def test_popularity_mass_per_app_does_not_depend_on_the_seed():
    import random

    catalogue = servework.hit_catalogue()
    apps = [
        [catalogue[i]["app"] for i in servework.popularity_order(catalogue, random.Random(s))]
        for s in (1, 2)
    ]
    assert apps[0] == apps[1]
    assert len(set(apps[0][:9])) == 9  # one point of every app leads


def test_miss_batches_cover_every_point_with_in_batch_duplicates():
    lanes, batches = servework.miss_batches(81, seed=3)
    assert len(lanes) == servework.CONNECTIONS
    assert batches == [batch for lane in lanes for batch in lane]
    assert sorted({i for batch in batches for i in batch}) == list(range(81))
    assert sum(len(batch) for batch in batches) == 93
    for batch in batches:
        assert len(batch) - len(set(batch)) >= 1 or len(set(batch)) == 1


# -- checks ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert checks.percentile(values, 50) == 50
    assert checks.percentile(values, 99) == 99
    assert checks.percentile([3.0, 1.0, 2.0], 99) == 3.0
    assert checks.percentile([5.0], 50) == 5.0


def test_values_match_tolerance_and_shape():
    import numpy as np

    a = (np.arange(4.0), 2.0)
    assert checks.values_match(a, (np.arange(4.0) * (1 + 1e-9), 2.0))
    assert not checks.values_match(a, (np.arange(4.0) * (1 + 1e-3), 2.0))
    assert not checks.values_match(a, (np.arange(4.0),))


def test_sim_verify_flags_a_perturbed_reference():
    from repro import api

    answers = {
        ("sor", None, 1): api.run_point("sor", scale="tiny").values[0],
        ("sor", "csm_poll", 4): api.run_point("sor", "csm_poll", 4, scale="tiny").values[0],
    }
    assert simwork.verify(answers, "tiny", {}) == []
    assert simwork.verify(answers, "tiny", {}, perturb=1e-3) == [
        "sor/csm_poll/4p differs from sequential"
    ]


def _reply(payload: dict) -> bytearray:
    body = json.dumps(payload, sort_keys=True).encode()
    return bytearray(
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    )


def test_verifier_accepts_the_reference_and_rejects_anything_else():
    catalogue = servework.miss_catalogue()[:1]
    refs = servework.references(catalogue, count_events=False)
    result = json.loads(refs.bodies[0])
    envelope = {
        "app": "sor", "compute_seconds": None, "digest": refs.digests[0].decode(),
        "key": "k", "nprocs": 2, "result": result, "serve_seconds": 0.001,
        "source": "cache", "variant": "csm_poll",
    }
    verifier = servework.Verifier(refs, invalid_index=1)
    verifier.begin([0, 0, 0, 1, 1])

    def feed(position, buf):
        status, start, end = loadgen._split_reply(buf)
        verifier.check(position, status, buf, start, end)

    feed(0, _reply(envelope))  # first sighting: parsed and compared
    feed(1, _reply(dict(envelope, serve_seconds=0.25, source="computed")))
    assert (verifier.ok, verifier.problems) == (2, [])
    tampered = dict(envelope, result=dict(result, exec_time_us=result["exec_time_us"] + 1))
    feed(2, _reply(tampered))
    assert verifier.ok == 2 and "differs from its first sighting" in verifier.problems[-1]
    invalid = bytearray(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 2\r\n\r\n{}")
    feed(3, invalid)
    assert verifier.ok == 3
    feed(4, _reply(envelope))  # the invalid body must not be answered 200
    assert "invalid body answered 200" in verifier.problems[-1]

    fresh = servework.Verifier(refs, invalid_index=1)
    fresh.begin([0])
    status, start, end = loadgen._split_reply(_reply(tampered))
    fresh.check(0, status, _reply(tampered), start, end)
    assert fresh.ok == 0 and "differs from direct run" in fresh.problems[-1]


# -- compare -----------------------------------------------------------


def _document(cpu, samples, events=10):
    record = {
        "workload": "fig5_8p", "trace": False, "seed": 0, "quick": False, "n": len(samples),
        "attempted": 24, "failed": 0, "failures": [], "host": {}, "notes": {},
        "end_to_end": {
            "cpu_ms_per_req": cpu, "req_per_s": 2.0, "peak_rss_mb": 1.0, "setup_s": 1.0,
        },
        "samples": {"cpu_ms_per_req": samples},
    }
    traced = dict(record, trace=True, per_layer={"sim.engine.events": events})
    return report.document([record, traced])


def test_compare_verdicts():
    base = _document(100.0, [99.0, 100.0, 101.0])

    def verdict(other):
        lines, regressed = report.compare(base, other)
        row = next(line for line in lines if " cpu_ms_per_req " in line)
        return row.split()[-1], regressed

    assert verdict(_document(104.0, [103.0, 104.0, 105.0])) == ("ok", False)
    assert verdict(_document(150.0, [149.0, 150.0, 151.0])) == ("regressed", True)
    assert verdict(_document(104.0, [70.0, 104.0, 140.0])) == ("unresolved", False)
    # Wide spread, but every repeat of B beats every repeat of A.
    assert verdict(_document(50.0, [30.0, 50.0, 70.0])) == ("ok", False)
    lines, regressed = report.compare(base, _document(100.0, [100.0], events=11))
    assert regressed and any("count differs: 10 -> 11" in line for line in lines)


# -- the command, end to end (smoke-sized) ------------------------------


def _last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def test_quick_run_prints_every_end_to_end_metric():
    done = subprocess.run(
        RUN + ["--workload", "fig5_8p", "--quick", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    last = _last_json(done.stdout)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(spec.units("end_to_end"))
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize(
    "workload, fault", [("fig5_8p", "values"), ("serve_miss", "reference")]
)
def test_a_broken_check_fails_the_run(workload, fault):
    done = subprocess.run(
        RUN + ["--workload", workload, "--quick", "--inject-fault", fault],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    last = _last_json(done.stdout)
    assert last["correct"] is False and last["failed"] > 0


def test_without_the_simulator_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        spec.SUITE_DIR, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "fig5_8p",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
