"""Serving v2 guarantees: sessions, bounds, negative cache, sweeps.

PR 9's contract on top of the PR 8 tiers (``docs/SERVING.md``):
connections are keep-alive sessions the server may close (idle
timeout, per-connection request limit) without the client surface
noticing; the result cache holds its configured byte/entry bound at
all times; deterministically invalid requests are rejected from
memory; sweeps expand server-side and stream through the same
coalescing/batching path; and saturation answers 429 instead of
queueing unboundedly.  Every payload stays byte-identical to direct
``api.run_point`` — including the hot tier's pre-encoded splice.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro import api
from repro.config import CONTEXT_KNOBS
from repro.harness.cache import CacheStats, ResultCache, key_for_spec
from repro.serving import codec
from repro.serving import (
    NegativeCache,
    ServingClient,
    ServingError,
    encode_result,
    expand_sweep,
    request_kwargs,
)
from repro.serving.server import (
    ExperimentServer,
    ExperimentService,
    ServerConfig,
    encode_payload,
)
from tests.helpers import tiny_result

SOR = {"app": "sor", "variant": "csm_poll", "nprocs": 4, "scale": "tiny"}
BAD = {"app": "no-such-app", "nprocs": 1}


def _config(tmp_path, **overrides) -> ServerConfig:
    fields = {
        "port": 0,
        "jobs": 0,
        "batch_window_ms": 1.0,
        "cache_dir": str(tmp_path / "serve-cache"),
    }
    fields.update(overrides)
    return ServerConfig(**fields)


def _result_slice(body: bytes) -> bytes:
    """The bytes a reply carries inside ``"result"`` (sorted envelope:
    ``result`` is followed by ``serve_seconds``)."""
    start = body.index(b'"result": ') + len(b'"result": ')
    return body[start : body.rindex(b', "serve_seconds"')]


def _with_server(tmp_path, coro_fn, **config_overrides):
    """Run ``coro_fn(server, host, port)`` against a live HTTP server."""

    async def go():
        server = ExperimentServer(config=_config(tmp_path, **config_overrides))
        host, port = await server.start()
        try:
            return await coro_fn(server, host, port)
        finally:
            await server.shutdown(drain=True)

    return asyncio.run(go())


# -- keep-alive sessions -----------------------------------------------


def test_keepalive_session_reuses_one_connection(tmp_path):
    async def go(server, host, port):
        client = ServingClient(host, port)
        digests = set()
        for _ in range(3):
            digests.add((await client.resolve(dict(SOR)))["digest"])
        await client.close()
        assert len(digests) == 1
        assert client.connections_opened == 1
        assert client.requests_reused == 2
        assert server.http_stats()["reused"] == 2

    _with_server(tmp_path, go)


def test_idle_timeout_closes_session_client_reconnects(tmp_path):
    async def go(server, host, port):
        client = ServingClient(host, port)
        first = await client.resolve(dict(SOR))
        # Past the idle timeout the server closes the connection; the
        # session must notice the stale socket and retry once, fresh.
        await asyncio.sleep(0.3)
        second = await client.resolve(dict(SOR))
        await client.close()
        assert first["digest"] == second["digest"]
        assert client.connections_opened == 2

    _with_server(tmp_path, go, idle_timeout_s=0.05)


def test_max_requests_per_conn_rotates_the_session(tmp_path):
    async def go(server, host, port):
        client = ServingClient(host, port)
        for _ in range(4):
            await client.resolve(dict(SOR))
        await client.close()
        # 2 requests per connection -> 4 requests need 2 connections.
        assert client.connections_opened == 2
        assert server.http_stats()["connections"] == 2

    _with_server(tmp_path, go, max_requests_per_conn=2)


# -- negative-result cache ---------------------------------------------


def test_negative_cache_memoises_deterministic_rejections(tmp_path):
    async def go(server, host, port):
        service = server.service
        for _ in range(3):
            with pytest.raises(ServingError) as exc_info:
                await service.resolve(dict(BAD))
            assert exc_info.value.status == 400
        # First rejection validates and stores; the two repeats are
        # served from memory without touching decode or the pool.
        assert service.stats.negative_hits == 2
        assert service.negative.as_dict()["stores"] == 1

    _with_server(tmp_path, go)


@pytest.mark.parametrize(
    "retired", ["shard", "calqueue", "fastpath", "kernels"]
)
def test_retired_scheduler_options_are_negative_cached_400s(tmp_path, retired):
    request = dict(SOR, options={retired: False})

    async def go(server, host, port):
        service = server.service
        for _ in range(2):
            with pytest.raises(ServingError) as exc_info:
                await service.resolve(dict(request))
            assert exc_info.value.status == 400
        message = str(exc_info.value)
        assert f"unknown options field(s) ['{retired}']" in message
        assert f"accepted: {list(CONTEXT_KNOBS)}" in message
        assert CONTEXT_KNOBS == (
            "debug_checks", "network", "granularity", "prefetch", "homing"
        )
        assert service.stats.negative_hits == 1
        assert service.negative.as_dict()["stores"] == 1

    _with_server(tmp_path, go)


def test_options_fold_into_overrides_and_overrides_win():
    kwargs = request_kwargs(
        dict(
            SOR,
            options={"network": "rdma", "homing": "dynamic"},
            overrides={"network": "ethernet"},
        )
    )
    assert kwargs["network"] == "ethernet"
    assert kwargs["homing"] == "dynamic"
    assert "options" not in kwargs


def test_checked_request_keys_apart_from_unchecked():
    plain = key_for_spec(codec.decode_request(dict(SOR)))
    checked = dict(SOR, options={"debug_checks": True})
    assert key_for_spec(codec.decode_request(checked)) != plain


def test_negative_cache_entries_expire():
    cache = NegativeCache(ttl_s=0.05, max_entries=4)
    cache.put("k", "bad spec", 400)
    assert cache.get("k") == ("bad spec", 400)
    time.sleep(0.08)
    assert cache.get("k") is None
    assert cache.as_dict()["expired"] == 1


# -- bounded result cache ----------------------------------------------


def test_eviction_under_concurrent_load_respects_bound(tmp_path):
    points = [
        {"app": "sor", "variant": "csm_poll", "nprocs": n, "scale": "tiny"}
        for n in (1, 2, 4)
    ] + [{"app": "water", "variant": "csm_poll", "nprocs": 1, "scale": "tiny"}]
    # Every point plus a salted known-invalid body, fired concurrently
    # by both transports: one keep-alive session and one client that
    # opens a fresh connection per request.
    schedule = points[:2] + [BAD] + points[2:] + [BAD]

    async def fire(client, request):
        try:
            return (await client.resolve(dict(request)))["digest"]
        except ServingError as exc:
            return exc.status

    async def go(server, host, port):
        service = server.service
        session = ServingClient(host, port)
        per_request = ServingClient(host, port, keepalive=False)
        outcomes = await asyncio.gather(
            *(
                fire(client, request)
                for client in (session, per_request)
                for request in schedule
            )
        )
        await session.close()
        half = len(schedule)
        by_session, by_request = outcomes[:half], outcomes[half:]
        assert by_session == by_request  # same digests on both transports
        for request, outcome in zip(schedule, by_session):
            if request is BAD:
                assert outcome == 400
            else:
                assert isinstance(outcome, str), (request, outcome)
        assert service.stats.negative_hits >= 1
        assert server.http_stats()["reused"] > 0
        summary = service.cache.summary()
        assert summary["entries"] <= 2
        assert service.cache.stats.evictions >= 2
        # The hot payload tier is independent of disk eviction: every
        # point answers as a cache hit even though only 2 remain on disk.
        client = ServingClient(service=service)
        before = service.stats.cache_hits
        for point in points:
            payload = await client.resolve(dict(point))
            assert payload["source"] == "cache"
        assert service.stats.cache_hits == before + len(points)
        assert service.stats.hot_hits >= len(points)

    _with_server(tmp_path, go, cache_max_entries=2)


def test_result_cache_prune_and_clear_reports(tmp_path):
    cache = ResultCache(cache_dir=tmp_path / "c", max_entries=2)
    for i in range(4):
        cache.put(f"{i:032x}", tiny_result())
    assert cache.summary()["entries"] == 2
    # Exactly one eviction per over-bound put: the in-flight tmp file
    # must not count as a phantom entry during _make_room's scan.
    assert cache.stats.evictions == 2
    report = cache.prune(max_entries=1)
    assert report["evicted"] == 1 and report["entries"] == 1
    report = cache.clear()
    assert report["entries"] == 0 and report["evicted"] == 1
    assert set(report) == {"evicted", "reclaimed_bytes", "entries", "bytes"}


def test_cache_cli_matches_cachestats_schema(tmp_path, capsys):
    from repro.harness.cli import main

    cache_dir = str(tmp_path / "cli-cache")
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["stats"]) == set(CacheStats().as_dict())
    assert {"entries", "bytes", "max_bytes", "max_entries"} <= set(payload)
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"evicted", "reclaimed_bytes", "entries", "bytes"}


# -- admission control --------------------------------------------------


def test_saturated_server_answers_429_with_retry_after(tmp_path):
    async def go(server, host, port):
        service = server.service
        service.inflight = 1  # pin saturation; no timing races
        with pytest.raises(ServingError) as exc_info:
            await service.resolve(dict(SOR))
        service.inflight = 0
        assert exc_info.value.status == 429
        assert exc_info.value.retry_after == service.config.retry_after_s
        assert service.stats.rejected == 1
        # Admitted (stream-originated) points bypass the 429 path.
        service.inflight = 1
        payload = await service.resolve(dict(SOR), admitted=True)
        service.inflight = 0
        assert payload["source"] in ("computed", "cache")

    _with_server(tmp_path, go, max_inflight=1)


def test_http_429_carries_retry_after_header(tmp_path):
    async def go(server, host, port):
        server.service.inflight = 1
        reader, writer = await asyncio.open_connection(host, port)
        body = json.dumps(SOR).encode()
        writer.write(
            b"POST /v1/point HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n%b"
            % (len(body), body)
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        writer.close()
        server.service.inflight = 0
        assert b"429" in head.splitlines()[0]
        assert b"Retry-After:" in head

    _with_server(tmp_path, go, max_inflight=1)


# -- server-side sweeps -------------------------------------------------


def test_expand_sweep_validates_and_caps():
    points = expand_sweep(
        {
            "kind": "figure5",
            "apps": ["sor"],
            "variants": ["csm_poll"],
            "counts": [1, 2],
            "baselines": False,
            "scale": "tiny",
        }
    )
    assert [p["nprocs"] for p in points] == [1, 2]
    for point in points:
        request_kwargs(dict(point))
    with pytest.raises(ServingError) as exc_info:
        expand_sweep({"kind": "figure5"}, max_points=3)
    assert exc_info.value.status == 413
    with pytest.raises(ServingError):
        expand_sweep({"kind": "nope"})
    with pytest.raises(ServingError):
        expand_sweep(
            {"kind": "figure5", "apps": ["sor"], "counts": [True, 2]}
        )


def test_sweep_streams_preamble_then_points_in_completion_order(tmp_path):
    request = {
        "kind": "figure5",
        "apps": ["sor"],
        "variants": ["csm_poll"],
        "counts": [1, 2],
        "baselines": False,
        "scale": "tiny",
    }

    async def go(server, host, port):
        client = ServingClient(host, port)
        lines = [line async for line in client.sweep(dict(request))]
        assert lines[0]["sweep"] == {"kind": "figure5", "points": 2}
        assert sorted(line["index"] for line in lines[1:]) == [0, 1]
        # The convenience wrapper reorders by index and keeps the meta.
        ordered = await client.sweep_points(dict(request))
        await client.close()
        assert [p["index"] for p in ordered["points"]] == [0, 1]
        assert ordered["errors"] == []
        assert ordered["points"][0]["source"] == "cache"

    _with_server(tmp_path, go)


def test_mid_stream_disconnect_leaves_server_healthy(tmp_path):
    request = {
        "kind": "figure5",
        "apps": ["sor"],
        "variants": ["csm_poll"],
        "counts": [1, 2],
        "baselines": False,
        "scale": "tiny",
    }

    async def go(server, host, port):
        warm = ServingClient(service=server.service)
        for point in server.service.expand(dict(request)):
            await warm.resolve(point)
        reader, writer = await asyncio.open_connection(host, port)
        body = json.dumps(request).encode()
        writer.write(
            b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%b" % (len(body), body)
        )
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        preamble = json.loads(await reader.readline())
        assert preamble["sweep"]["points"] == 2
        writer.close()  # walk away mid-stream
        await asyncio.sleep(0.05)
        # The abandoned stream must not wedge the service: a fresh
        # request resolves and no connection stays marked busy.
        after = await warm.resolve(dict(SOR))
        assert after["digest"]
        assert not server._busy

    _with_server(tmp_path, go)


def test_drain_during_sweep_delivers_admitted_points(tmp_path):
    request = {
        "kind": "figure5",
        "apps": ["sor"],
        "variants": ["csm_poll"],
        "counts": [1, 2],
        "baselines": False,
        "scale": "tiny",
    }

    async def go():
        server = ExperimentServer(config=_config(tmp_path))
        host, port = await server.start()
        warm = ServingClient(service=server.service)
        for point in server.service.expand(dict(request)):
            await warm.resolve(point)
        client = ServingClient(host, port)
        stream = client.sweep(dict(request))
        preamble = await stream.__anext__()
        assert preamble["sweep"]["points"] == 2
        first = await stream.__anext__()
        # Graceful shutdown mid-stream: the busy connection gets its
        # remaining admitted points before the listener dies.
        shutdown = asyncio.ensure_future(server.shutdown(drain=True))
        rest = [line async for line in stream]
        await shutdown
        indices = {first["index"]} | {line["index"] for line in rest}
        assert indices == {0, 1}
        await client.close()

    asyncio.run(go())


# -- hot tier byte identity ---------------------------------------------


def test_hot_tier_splice_is_byte_identical(tmp_path):
    direct = encode_result(api.run_point(**request_kwargs(SOR)))

    async def go(server, host, port):
        service = server.service
        await service.resolve(dict(SOR))  # cold: populates the hot tier
        hot = await service.resolve(dict(SOR), encoded=True)
        assert service.stats.hot_hits == 1
        assert hot["result"] == direct  # the tier holds the codec's bytes
        body = encode_payload(hot)
        # The body decodes to the public payload, and the bytes inside
        # "result" are the canonical encoding, untouched.
        public = await service.resolve(dict(SOR))
        decoded = json.loads(body)
        del decoded["serve_seconds"], public["serve_seconds"]
        assert decoded == public
        assert _result_slice(body) == direct
        # Encoding leaves the payload alone: a second encode of the
        # same hot payload takes the same splice path to equal bytes.
        assert isinstance(hot["result"], bytes)
        assert encode_payload(hot) == body
        # In-process and HTTP clients see the same decoded dict.
        inproc = await ServingClient(service=service).resolve(dict(SOR))
        http_client = ServingClient(host, port)
        over_http = await http_client.resolve(dict(SOR))
        await http_client.close()
        assert inproc["result"] == over_http["result"] == decoded["result"]
        assert over_http["digest"] == inproc["digest"]

    _with_server(tmp_path, go)
