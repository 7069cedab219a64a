"""One encoding of a result, shared by every tier (``docs/SERVING.md``).

The server encodes a result once, when its point completes.  These
tests pin what follows from that: the computed, coalesced, disk-hit and
hot-hit replies carry the same ``"result"`` bytes and digest on every
route; a disk hit neither unpickles nor re-encodes; a harness-written
entry is upgraded the first time it is served; and a damaged entry is a
clean miss, never an exception or a wrong body.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pickle

import pytest

from repro import api
from repro.harness import cache as cache_module
from repro.harness.cache import Encoded, ResultCache, key_for_spec
from repro.serving import (
    ServingClient,
    decode_request,
    encode_result,
    request_kwargs,
)
from repro.serving.server import ExperimentServer, ServerConfig

SOR = {"app": "sor", "variant": "csm_poll", "nprocs": 4, "scale": "tiny"}
#: 0.5 KB of result, and 84 KB / 159 KB — both over asyncio's 64 KiB
#: default ``StreamReader`` line limit.
TSP = {"app": "tsp", "variant": "csm_poll", "nprocs": 2, "scale": "tiny"}
LU = {"app": "lu", "variant": "tmk_mc_poll", "nprocs": 8, "scale": "tiny"}
ILINK = {"app": "ilink", "variant": "csm_poll", "nprocs": 8, "scale": "tiny"}

_HEADER_SIZE = cache_module._HEADER.size


def _direct(request) -> Encoded:
    data = encode_result(api.run_point(**request_kwargs(request)))
    return Encoded(hashlib.sha256(data).hexdigest(), data)


def _key(request) -> str:
    return key_for_spec(decode_request(request))


def _with_server(cache_dir, coro_fn):
    """Run ``coro_fn(server, host, port)`` on a fresh server (cold hot
    tier) over ``cache_dir``."""

    async def go():
        config = ServerConfig(
            port=0, jobs=0, batch_window_ms=1.0, cache_dir=str(cache_dir)
        )
        server = ExperimentServer(config=config)
        host, port = await server.start()
        try:
            return await coro_fn(server, host, port)
        finally:
            await server.shutdown(drain=True)

    return asyncio.run(go())


async def _post(host, port, path, payload) -> bytes:
    """Raw response body of one ``Connection: close`` POST."""
    body = json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        b"POST %b HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
        b"Connection: close\r\n\r\n%b" % (path.encode(), len(body), body)
    )
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200"), head
    return body


def _split(reply: bytes):
    """``(source, digest, result bytes)`` of one reply or JSONL line,
    sliced — not decoded — out of the sorted envelope."""
    start = reply.index(b'"result": ') + len(b'"result": ')
    end = reply.rindex(b', "serve_seconds"')
    envelope = json.loads(reply[:start] + b"null" + reply[end:])
    return envelope["source"], envelope["digest"], reply[start:end]


# -- byte identity across tiers and routes -----------------------------


@pytest.mark.parametrize("request_", [TSP, LU], ids=["small", "large"])
def test_every_tier_and_route_serves_the_same_bytes(tmp_path, request_):
    direct = _direct(request_)
    seen = []

    async def first_server(server, host, port):
        # Four concurrent askers: one computes, the others coalesce.
        for reply in await asyncio.gather(
            *(_post(host, port, "/v1/point", request_) for _ in range(4))
        ):
            seen.append(_split(reply))
        seen.append(_split(await _post(host, port, "/v1/point", request_)))
        lines = await _post(
            host, port, "/v1/points", {"points": [request_, request_]}
        )
        seen.extend(_split(line) for line in lines.splitlines())
        inproc = await ServingClient(service=server.service).resolve(
            dict(request_)
        )
        return inproc, server.service.stats.as_dict()

    inproc, stats = _with_server(tmp_path, first_server)
    assert stats["computed"] == 1 and stats["coalesced"] == 3
    assert stats["hot_hits"] == 4  # the single, both lines, in-process
    assert [source for source, _, _ in seen[:4]].count("computed") == 1

    async def second_server(server, host, port):
        # A new process state: the first reply comes from the disk tier,
        # the second from the hot tier it filled.
        for _ in range(2):
            seen.append(_split(await _post(host, port, "/v1/point", request_)))
        return server.service.stats.as_dict()

    stats = _with_server(tmp_path, second_server)
    assert stats["cache_hits"] == 2 and stats["hot_hits"] == 1
    assert stats["computed"] == 0

    assert len(seen) == 9
    for source, digest, result in seen:
        assert result == direct.data, source
        assert digest == direct.digest, source
    assert inproc["digest"] == direct.digest
    assert (
        json.dumps(
            inproc["result"], sort_keys=True, separators=(",", ":")
        ).encode()
        == direct.data
    )


# -- a disk hit is a read and a splice ---------------------------------


def test_disk_hit_neither_unpickles_nor_reencodes(tmp_path, monkeypatch):
    direct = _direct(LU)
    _with_server(
        tmp_path, lambda server, host, port: _post(host, port, "/v1/point", LU)
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("a disk hit must not touch the result")

    big_dumps = []
    real_dumps = json.dumps

    def counting_dumps(obj, *args, **kwargs):
        text = real_dumps(obj, *args, **kwargs)
        if len(text) > 4096:  # an envelope is a few hundred bytes
            big_dumps.append(len(text))
        return text

    async def serve(server, host, port):
        with monkeypatch.context() as patch:
            patch.setattr(pickle, "load", forbidden)
            patch.setattr(pickle, "loads", forbidden)
            patch.setattr("repro.serving.codec.result_payload", forbidden)
            patch.setattr(json, "dumps", counting_dumps)
            reply = await _post(host, port, "/v1/point", LU)
        return reply, dict(
            server.service.stats.as_dict(),
            stores=server.service.cache.stats.stores,
        )

    reply, stats = _with_server(tmp_path, serve)
    source, digest, result = _split(reply)
    assert (source, digest, result) == ("cache", direct.digest, direct.data)
    assert stats["cache_hits"] == 1 and stats["hot_hits"] == 0
    assert stats["stores"] == 0
    assert big_dumps == []


def test_harness_written_entry_is_served_and_upgraded_once(tmp_path):
    direct = _direct(SOR)
    harness_cache = ResultCache(cache_dir=tmp_path)
    api.run_point(cache=harness_cache, **request_kwargs(SOR))
    key = _key(SOR)
    # The harness does not pay for an encoding: the serving lookup of
    # its entry hands back the result itself.
    assert not isinstance(harness_cache.get(key, encoded=True), Encoded)

    async def serve(server, host, port):
        replies = [await _post(host, port, "/v1/point", SOR) for _ in range(2)]
        return replies, server.service.cache.stats.stores

    for expected_stores in (1, 0):  # upgraded by the first server only
        replies, stores = _with_server(tmp_path, serve)
        assert stores == expected_stores
        for reply in replies:
            assert _split(reply) == ("cache", direct.digest, direct.data)

    reader = ResultCache(cache_dir=tmp_path)
    assert reader.get(key, encoded=True) == direct
    assert encode_result(reader.get(key)) == direct.data  # pickle intact


# -- damaged entries ---------------------------------------------------


def _damage(case: str, blob: bytes) -> bytes:
    header = cache_module._HEADER.unpack(blob[:_HEADER_SIZE])
    encoded_len = header[1]
    if case == "empty":
        return b""
    if case == "cut-in-header":
        return blob[: _HEADER_SIZE // 2]
    if case == "cut-in-encoded":
        return blob[: _HEADER_SIZE + encoded_len // 2]
    if case == "cut-in-pickle":
        return blob[:-10]
    if case == "trailing-garbage":
        return blob + b"x"
    if case == "bad-magic":
        return b"X" + blob[1:]
    assert case == "flipped-encoded-byte"
    at = _HEADER_SIZE + encoded_len // 2
    return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1 :]


@pytest.mark.parametrize(
    "case",
    [
        "empty",
        "cut-in-header",
        "cut-in-encoded",
        "cut-in-pickle",
        "trailing-garbage",
        "bad-magic",
        "flipped-encoded-byte",
    ],
)
def test_damaged_entry_is_a_clean_miss_then_recomputed(tmp_path, case):
    direct = _direct(SOR)
    _with_server(
        tmp_path, lambda server, host, port: _post(host, port, "/v1/point", SOR)
    )
    key = _key(SOR)
    path = tmp_path / key[:2] / f"{key}.pkl"
    damaged = _damage(case, path.read_bytes())

    # The serving lookup: a miss that removes the file.
    path.write_bytes(damaged)
    cache = ResultCache(cache_dir=tmp_path)
    assert cache.get(key, encoded=True) is None
    assert cache.stats.misses == 1 and not path.exists()

    # The harness lookup never reads the encoded section, so a flipped
    # byte there leaves it the (intact) pickled result; every other
    # kind of damage is the same clean miss.
    path.write_bytes(damaged)
    found = ResultCache(cache_dir=tmp_path).get(key)
    if case == "flipped-encoded-byte":
        assert encode_result(found) == direct.data
    else:
        assert found is None and not path.exists()

    # The server over the damaged entry: recompute, right bytes, and a
    # whole entry on disk again.
    path.write_bytes(damaged)

    async def serve(server, host, port):
        return await _post(host, port, "/v1/point", SOR)

    assert _split(_with_server(tmp_path, serve)) == (
        "computed",
        direct.digest,
        direct.data,
    )
    assert ResultCache(cache_dir=tmp_path).get(key, encoded=True) == direct


def test_unloadable_pickle_section_is_a_clean_miss(tmp_path):
    """Lengths right, pickle wrong (a class that moved, a damaged
    stream): the unpickle guard turns it into a miss."""
    cache = ResultCache(cache_dir=tmp_path)
    key = "ab" * 32
    cache.put(key, {"x": 1})
    path = tmp_path / key[:2] / f"{key}.pkl"
    junk = b"\x80\x05cno.such.module\nThing\n."  # GLOBAL of a missing module
    header = cache_module._HEADER.pack(
        cache_module._MAGIC, 0, len(junk), b"0" * 64
    )
    path.write_bytes(header + junk)
    assert cache.get(key) is None
    assert not path.exists()


# -- streams of large lines --------------------------------------------


def test_client_streams_result_lines_over_64_kib(tmp_path):
    """``stream_points`` used to die in ``StreamReader.readline`` on
    any line over asyncio's 64 KiB limit."""
    points = [LU, ILINK, TSP]
    expected = [_direct(point) for point in points]
    assert len(expected[0].data) > 65536 < len(expected[1].data)

    async def stream(server, host, port):
        client = ServingClient(host, port)
        lines = [line async for line in client.stream_points(points)]
        swept = await client.points(points)  # the ordered wrapper too
        return lines, swept

    lines, swept = _with_server(tmp_path, stream)
    assert sorted(line["index"] for line in lines) == [0, 1, 2]
    for line in lines + swept:
        assert "error" not in line
        assert line["digest"] == expected[line["index"]].digest
