"""Serving-layer guarantees: coalescing, batching, identity, shutdown.

The contract (see ``docs/SERVING.md``): the experiment server is a pure
wall-clock optimisation.  Every payload it serves — whether from the
sharded cache, a coalesced singleflight, or a cold batch — is
byte-for-byte the canonical encoding of the result the equivalent
direct :func:`repro.api.run_point` call produces.  These tests pin the
three tiers individually (singleflight and batcher as units, cache
layout on disk) and end-to-end (in-process and over real HTTP).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.config import CSM_POLL
from repro.harness.cache import ResultCache, key_for_spec, run_key
from repro.harness.runner import BatchPoint, ExperimentContext
from repro.serving import (
    ColdPointBatcher,
    ServingClient,
    ServingError,
    SingleFlight,
    encode_result,
    request_kwargs,
)
from repro.serving.codec import result_digest
from repro.serving.server import (
    ExperimentServer,
    ExperimentService,
    ServerConfig,
)
from tests.helpers import tiny_result

SOR = {"app": "sor", "variant": "csm_poll", "nprocs": 4, "scale": "tiny"}


def _config(tmp_path, **overrides) -> ServerConfig:
    fields = {
        "jobs": 0,
        "batch_window_ms": 1.0,
        "cache_dir": str(tmp_path / "serve-cache"),
    }
    fields.update(overrides)
    return ServerConfig(**fields)


def _serve(tmp_path, coro_fn, **config_overrides):
    """Run ``coro_fn(service)`` against a started, then drained, service."""

    async def go():
        service = ExperimentService(_config(tmp_path, **config_overrides))
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.shutdown()

    return asyncio.run(go())


def _payload_bytes(payload) -> bytes:
    """Re-encode a served ``payload['result']`` canonically."""
    return json.dumps(
        payload["result"], sort_keys=True, separators=(",", ":")
    ).encode()


# -- tier primitives ---------------------------------------------------


def test_singleflight_one_leader_n_awaiters():
    async def go():
        flight = SingleFlight()
        f1, lead1 = flight.begin("k")
        f2, lead2 = flight.begin("k")
        assert lead1 and not lead2
        assert f1 is f2
        assert len(flight) == 1
        assert flight.led == 1 and flight.coalesced == 1
        flight.resolve("k", 42)
        assert await f1 == 42 and await f2 == 42
        assert len(flight) == 0

        # A retired key starts a fresh flight; failures propagate.
        f3, lead3 = flight.begin("k")
        assert lead3
        flight.fail("k", ValueError("boom"))
        with pytest.raises(ValueError):
            await f3

    asyncio.run(go())


def test_batcher_window_and_max_batch_flush():
    async def go():
        done = []
        with ThreadPoolExecutor(max_workers=2) as pool:
            batcher = ColdPointBatcher(
                submit=lambda spec: pool.submit(lambda: (spec * 2, 0.0)),
                on_done=lambda key, outcome, err: done.append(
                    (key, outcome, err)
                ),
                window_s=0.01,
                max_batch=3,
            )
            batcher.admit("a", 1)
            batcher.admit("b", 2)
            # Window armed but not elapsed: nothing flushed yet.
            assert batcher.batches == 0
            await asyncio.sleep(0.05)
            assert batcher.batches == 1
            assert batcher.largest_batch == 2

            # A burst of max_batch flushes immediately, no window wait.
            batcher.admit("c", 3)
            batcher.admit("d", 4)
            batcher.admit("e", 5)
            assert batcher.batches == 2
            assert batcher.largest_batch == 3
            await batcher.drain()
        assert batcher.points == 5
        assert sorted(k for k, _, _ in done) == ["a", "b", "c", "d", "e"]
        assert all(err is None for _, _, err in done)
        outcomes = {k: out for k, out, _ in done}
        assert outcomes["e"] == (10, 0.0)

    asyncio.run(go())


def test_batcher_reports_submit_errors():
    async def go():
        done = []
        batcher = ColdPointBatcher(
            submit=lambda spec: (_ for _ in ()).throw(
                RuntimeError("pool down")
            ),
            on_done=lambda key, outcome, err: done.append(
                (key, outcome, err)
            ),
            window_s=0.0,
        )
        batcher.admit("k", object())
        batcher.flush()
        assert len(done) == 1
        key, outcome, err = done[0]
        assert key == "k" and outcome is None
        assert isinstance(err, RuntimeError)

    asyncio.run(go())


# -- cache layout: sharded ---------------------------------------------


def test_cache_put_writes_sharded_layout(tmp_path):
    cache = ResultCache(cache_dir=tmp_path)
    key = "ab" * 32
    result = tiny_result()
    cache.put(key, result)
    assert (tmp_path / key[:2] / f"{key}.pkl").exists()
    assert encode_result(cache.get(key)) == encode_result(result)


def test_cache_summary_counts_shards(tmp_path):
    cache = ResultCache(cache_dir=tmp_path)
    cache.put("ab" * 32, tiny_result())
    cache.put("cd" * 32, tiny_result())
    summary = cache.summary()
    assert summary["entries"] == 2
    assert summary["shards"] == 2
    assert summary["bytes"] > 0
    assert "legacy_entries" not in summary


def test_clear_and_prune_sweep_stale_root_files(tmp_path):
    """Files an older schema left in the cache root are outside the
    index; prune and clear remove them and report the bytes."""
    cache = ResultCache(cache_dir=tmp_path)
    cache.put("ab" * 32, tiny_result())
    stale = tmp_path / ("ef" * 32 + ".pkl")
    stale.write_bytes(b"old flat-layout pickle")
    assert cache.get("ef" * 32) is None  # no flat fallback any more
    assert stale.exists()
    report = cache.prune()  # unbounded: evicts no entry, sweeps the root
    assert not stale.exists()
    assert report["evicted"] == 1 and report["entries"] == 1
    assert report["reclaimed_bytes"] == len(b"old flat-layout pickle")
    stale.write_bytes(b"again")
    report = cache.clear()
    assert not stale.exists()
    assert report["evicted"] == 2 and report["entries"] == 0
    assert cache.stats.evictions == 3


def test_key_for_spec_matches_manual_derivation():
    ctx = ExperimentContext(scale="tiny")
    spec = ctx._spec_for(BatchPoint("sor", CSM_POLL, 4))
    assert key_for_spec(spec) == run_key(
        spec.app, spec.params, spec.run_config()
    )
    sequential = ctx._spec_for(BatchPoint("sor", None))
    assert key_for_spec(sequential) != key_for_spec(spec)
    assert key_for_spec(sequential) == key_for_spec(sequential)


# -- the three tiers, end to end ---------------------------------------


def test_identical_requests_coalesce_to_one_simulation(tmp_path):
    async def fan_out(service):
        return await asyncio.gather(
            *(service.resolve(dict(SOR)) for _ in range(6))
        )

    payloads = _serve(tmp_path, fan_out)
    assert len(payloads) == 6
    sources = sorted(p["source"] for p in payloads)
    assert sources.count("computed") == 1
    assert sources.count("coalesced") == 5
    assert len({p["digest"] for p in payloads}) == 1
    assert len({_payload_bytes(p) for p in payloads}) == 1


def test_cache_tier_survives_service_restarts(tmp_path):
    async def once(service):
        return await service.resolve(dict(SOR))

    first = _serve(tmp_path, once)
    assert first["source"] == "computed"
    second = _serve(tmp_path, once)  # new service, same cache dir
    assert second["source"] == "cache"
    assert second["digest"] == first["digest"]
    assert _payload_bytes(second) == _payload_bytes(first)


@pytest.mark.parametrize(
    "options",
    [{}],
    ids=["default"],
)
def test_served_result_is_byte_identical_to_direct(tmp_path, options):
    request = dict(SOR)
    if options:
        request["options"] = options

    async def once(service):
        return await service.resolve(dict(request))

    payload = _serve(tmp_path, once)
    direct = api.run_point(**request_kwargs(request))
    assert _payload_bytes(payload) == encode_result(direct)


def test_client_point_resolves_to_run_point(tmp_path):
    """The async ``ServingClient.point`` builds its request from
    positional fields plus overrides and resolves to exactly the
    direct ``api.run_point`` result."""

    async def go(service):
        return await ServingClient(service=service).point(
            "sor", "csm_poll", 4, scale="tiny"
        )

    payload = _serve(tmp_path, go)
    direct = api.run_point("sor", "csm_poll", 4, scale="tiny")
    assert payload["digest"] == result_digest(direct)
    assert _payload_bytes(payload) == encode_result(direct)


def test_graceful_shutdown_completes_inflight_then_503s(tmp_path):
    async def go():
        service = ExperimentService(_config(tmp_path))
        await service.start()
        task = asyncio.ensure_future(service.resolve(dict(SOR)))
        # Let the request reach the batcher before we pull the plug.
        while service.batcher.points == 0 and not task.done():
            await asyncio.sleep(0.01)
        await service.shutdown(drain=True)
        payload = await task  # in-flight work still gets its result
        assert payload["source"] == "computed"
        with pytest.raises(ServingError) as excinfo:
            await service.resolve(dict(SOR))
        assert excinfo.value.status == 503

    asyncio.run(go())


def test_bad_requests_are_400s(tmp_path):
    async def go(service):
        with pytest.raises(ServingError) as unknown_app:
            await service.resolve({"app": "no-such-app"})
        assert unknown_app.value.status == 400
        with pytest.raises(ServingError) as unknown_field:
            await service.resolve(dict(SOR, bogus_knob=1))
        assert unknown_field.value.status == 400
        for bad in (
            dict(SOR, nprocs=-1),
            dict(SOR, nprocs=True),
            dict(SOR, v=1),
            dict(SOR, overrides={"first_touch_homes": False}),
        ):
            with pytest.raises(ServingError) as refused:
                await service.resolve(bad)
            assert refused.value.status == 400, bad
        assert service.stats.errors == 0  # decode errors aren't computes

    _serve(tmp_path, go)


# -- HTTP front end ----------------------------------------------------


def test_http_roundtrip_streaming_and_errors(tmp_path):
    async def go():
        server = ExperimentServer(config=_config(tmp_path, port=0))
        host, port = await server.start()
        client = ServingClient(host, port, keepalive=False)
        try:
            assert (await client.healthz())["status"] == "ok"

            payload = await client.resolve(dict(SOR))
            assert payload["source"] == "computed"
            direct = api.run_point(**request_kwargs(SOR))
            assert _payload_bytes(payload) == encode_result(direct)

            # Batch endpoint: JSONL stream, reordered by index.
            batch = await client.points([dict(SOR), dict(SOR), dict(SOR)])
            assert [p["index"] for p in batch] == [0, 1, 2]
            assert all(p["source"] == "cache" for p in batch)
            assert {p["digest"] for p in batch} == {payload["digest"]}

            stats = await client.stats()
            assert stats["serving"]["requests"] == 4
            assert stats["serving"]["cache_hits"] == 3
            assert stats["cache"]["entries"] == 1

            with pytest.raises(ServingError) as bad_app:
                await client.resolve({"app": "no-such-app"})
            assert bad_app.value.status == 400
            with pytest.raises(ServingError) as bad_route:
                await client._json("GET", "/v1/nope")
            assert bad_route.value.status == 404
        finally:
            await server.shutdown()

    asyncio.run(go())


def test_http_stream_reports_per_point_errors(tmp_path):
    async def go():
        server = ExperimentServer(config=_config(tmp_path, port=0))
        host, port = await server.start()
        client = ServingClient(host, port, keepalive=False)
        try:
            lines = []
            async for line in client.stream_points(
                [dict(SOR), {"app": "no-such-app"}]
            ):
                lines.append(line)
        finally:
            await server.shutdown()
        by_index = {line["index"]: line for line in lines}
        assert set(by_index) == {0, 1}
        assert "digest" in by_index[0]
        assert by_index[1]["status"] == 400

    asyncio.run(go())


# -- serving-aware api.run_point ---------------------------------------


def test_run_point_cache_reports_in_band_metadata(tmp_path):
    cache = ResultCache(cache_dir=tmp_path / "cache")
    kwargs = request_kwargs(SOR)
    cold = api.run_point(cache=cache, **kwargs)
    assert cold.extras["cache"]["hit"] is False
    warm = api.run_point(cache=cache, **kwargs)
    assert warm.extras["cache"]["hit"] is True
    assert warm.extras["cache"]["key"] == cold.extras["cache"]["key"]
    assert warm.extras["cache"]["stats"]["hits"] == 1
    assert warm.extras["cache"]["stats"]["misses"] == 1
    assert encode_result(warm) == encode_result(cold)
    # The stored pickle is the pure simulation result: the serving
    # metadata is attached per call, never persisted.
    stored = cache.get(cold.extras["cache"]["key"])
    assert "cache" not in stored.extras


def test_driver_provenance_carries_cache_stats(tmp_path):
    cache = ResultCache(cache_dir=tmp_path / "cache")
    result = api.run_experiment(
        "table3", scale="tiny", cache=cache, apps=["sor"], nprocs=4
    )
    stats = result.provenance["cache_stats"]
    assert stats is not None
    assert stats["misses"] > 0
    uncached = api.run_experiment(
        "table3", scale="tiny", apps=["sor"], nprocs=4
    )
    assert uncached.provenance["cache_stats"] is None
