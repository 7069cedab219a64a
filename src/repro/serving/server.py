"""The experiment server: service core plus stdlib-only HTTP front end.

Two layers, deliberately separable:

:class:`ExperimentService`
    The event-loop core.  ``resolve(request)`` takes one decoded JSON
    request through the fast path — hot in-memory payload, sharded
    disk cache, singleflight coalesce, cold-point batch — and returns
    the payload dict.  A result is encoded exactly once, when its
    point completes; every tier holds and every reply splices those
    same bytes.  Known-invalid request bodies are rejected from
    a negative cache without touching any of that.  Tests and
    in-process clients drive it directly with no sockets
    (``repro.serving.client.ServingClient(service=...)``).

:class:`ExperimentServer`
    A hand-rolled HTTP/1.1 front end on :func:`asyncio.start_server`
    (stdlib only).  Connections are **keep-alive** (v2): JSON
    responses are Content-Length framed and the connection is reused
    until the client sends ``Connection: close``, goes idle past
    ``idle_timeout_s``, or hits ``max_requests_per_conn``.  Streaming
    responses (``/v1/points``, ``/v1/sweep``) stay close-delimited.
    Routes are in :data:`ROUTES`; when ``max_inflight`` is set,
    saturated single-point requests get ``429`` + ``Retry-After``.

Deployment knobs live in :class:`ServerConfig`; ``docs/SERVING.md``
documents every field and route (enforced by
``tests/test_serving_docs.py``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.cache import (
    Encoded,
    ResultCache,
    encode_with_digest,
    key_for_spec,
)
from repro.harness.parallel import execute_point_timed, persistent_pool
from repro.serving.batcher import ColdPointBatcher
from repro.serving.codec import (
    NegativeCache,
    ServingError,
    decode_request,
    expand_sweep,
    negative_key,
)
from repro.serving.singleflight import SingleFlight

#: Route table of the HTTP front end: (method, path) -> summary.
#: docs/SERVING.md must document every row (tests/test_serving_docs.py).
ROUTES = {
    ("GET", "/v1/healthz"): "liveness probe ({'status': 'ok'})",
    ("GET", "/v1/stats"): "serving, cache, and batcher statistics",
    ("POST", "/v1/point"): "resolve one experiment point (JSON in/out)",
    ("POST", "/v1/points"): (
        "resolve a list of points; streams JSONL in completion order"
    ),
    ("POST", "/v1/sweep"): (
        "expand a figure5/scaling sweep server-side; streams JSONL"
    ),
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServerConfig:
    """Deployment knobs (CLI: ``repro-dsm serve``; docs/SERVING.md).

    ``jobs=0`` executes points on a single in-process worker thread —
    zero fork cost, right for tests and one-shot scripts; ``jobs>0``
    builds a :func:`~repro.harness.parallel.persistent_pool` of that
    many worker processes, the production configuration.

    The zero-valued knobs follow one convention: ``0`` disables the
    bound (unlimited requests per connection, unbounded in-flight
    admission, unbounded cache, no background sweep).
    """

    host: str = "127.0.0.1"
    port: int = 8377
    jobs: int = 0
    batch_window_ms: float = 5.0
    max_batch: int = 32
    cache_dir: Optional[str] = None
    no_cache: bool = False
    refresh: bool = False
    drain_timeout_s: float = 60.0
    idle_timeout_s: float = 30.0
    max_requests_per_conn: int = 0
    max_inflight: int = 0
    retry_after_s: float = 0.5
    negative_ttl_s: float = 60.0
    negative_entries: int = 1024
    cache_max_bytes: int = 0
    cache_max_entries: int = 0
    cache_sweep_interval_s: float = 0.0
    hot_entries: int = 256
    max_sweep_points: int = 4096

    @classmethod
    def describe(cls) -> Dict[str, str]:
        """``{field: repr(default)}`` — the docs table contract."""
        return {
            f.name: repr(f.default) for f in dataclasses.fields(cls)
        }


@dataclass
class ServeStats:
    """Per-server counters, surfaced by ``GET /v1/stats``.

    ``requests`` counts every point request received; each successful
    one lands in exactly one of ``cache_hits`` (tier 1 — ``hot_hits``
    sub-counts the in-memory payload tier), ``coalesced`` (tier 2), or
    ``computed`` (tier 3, once its simulation finishes).
    ``negative_hits`` are requests rejected from the negative cache,
    ``rejected`` are admission-control 429s, and ``errors`` are
    simulations that raised.
    """

    requests: int = 0
    cache_hits: int = 0
    hot_hits: int = 0
    coalesced: int = 0
    computed: int = 0
    negative_hits: int = 0
    rejected: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


def _warm_worker() -> int:
    """Pool-worker warm-up: pre-import the simulation stack.

    Submitted once per worker at :meth:`ExperimentService.start`, for
    two reasons.  First, latency: the first real request should not
    pay the NumPy/``repro`` import.  Second, and critically, fork
    safety: the executor forks workers lazily on first submit, and by
    then the event loop may have spawned helper threads (asyncio's
    ``getaddrinfo`` runs in the default thread executor) whose held
    locks a forked child would inherit mid-acquire and deadlock on.
    Forcing every fork here — while the process is still
    single-threaded — sidesteps that entirely.
    """
    from repro.apps import registry  # noqa: F401  (import cost is the point)
    from repro.core import run_program  # noqa: F401
    import os

    return os.getpid()

#: Placeholder the body encoder swaps for the encoded result.  No
#: legitimate envelope value can contain it (keys/digests are hex, the
#: rest are registry names and numbers).
_SPLICE = "__repro_result_splice__"
_SPLICE_TOKEN = f'"{_SPLICE}"'.encode()


def encode_payload(payload: Any) -> bytes:
    """Serialise one response payload to its JSON bytes.

    A payload resolved with ``encoded=True`` carries ``result`` as the
    canonical bytes every tier shares.  Those are spliced, untouched,
    into a dumps of the envelope, so the same compact ``result`` bytes
    go on the wire whichever tier answered.  ``payload`` is left as it
    was.
    """
    result = payload.get("result") if isinstance(payload, dict) else None
    if not isinstance(result, bytes):
        return json.dumps(payload, sort_keys=True).encode()
    envelope = json.dumps(dict(payload, result=_SPLICE), sort_keys=True)
    head, tail = envelope.encode().split(_SPLICE_TOKEN)
    return b"".join((head, result, tail))


class ExperimentService:
    """The multi-tier resolver behind every serving entry point."""

    def __init__(
        self,
        config: ServerConfig = ServerConfig(),
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config
        if cache is None and not config.no_cache:
            cache = ResultCache(
                cache_dir=(
                    Path(config.cache_dir) if config.cache_dir else None
                ),
                refresh=config.refresh,
                max_bytes=config.cache_max_bytes,
                max_entries=config.cache_max_entries,
            )
        self.cache = cache
        self.stats = ServeStats()
        self.negative = NegativeCache(
            ttl_s=config.negative_ttl_s,
            max_entries=config.negative_entries,
        )
        # Hot payload tier: canonical request body -> the envelope
        # fields that are a pure function of the request, ``result``
        # held as its encoded bytes.  A hot hit skips request decoding,
        # the spec fingerprint and the disk read — the request costs
        # one dict lookup.  Disabled under ``refresh`` (which promises
        # recomputation) and ``no_cache``.
        self._hot: Dict[str, Dict[str, Any]] = {}
        self._hot_limit = (
            config.hot_entries
            if (self.cache is not None and not config.refresh)
            else 0
        )
        self.flight: Optional[SingleFlight] = None
        self.batcher: Optional[ColdPointBatcher] = None
        self.inflight = 0
        self.cache_sweeps = 0
        self._pool = None
        self._sweeper: Optional[asyncio.Task] = None
        self._started = False
        self._closed = False

    async def start(self) -> "ExperimentService":
        """Bind to the running loop: build the pool and the batcher."""
        if self._started:
            return self
        if self.config.jobs > 0:
            self._pool = persistent_pool(self.config.jobs)
            # Fork/warm every worker now, while single-threaded (see
            # _warm_worker).  One submit per worker spawns the full
            # complement; gather keeps start() honest about readiness.
            await asyncio.gather(
                *(
                    asyncio.wrap_future(self._pool.submit(_warm_worker))
                    for _ in range(self.config.jobs)
                )
            )
        else:
            # Single in-process worker thread: serialized execution, so
            # per-spec SimOptions never race on the process globals.
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
        self.flight = SingleFlight()
        self.batcher = ColdPointBatcher(
            submit=lambda spec: self._pool.submit(
                execute_point_timed, spec
            ),
            on_done=self._point_done,
            window_s=self.config.batch_window_ms / 1000.0,
            max_batch=self.config.max_batch,
        )
        if self.cache is not None and self.config.cache_sweep_interval_s > 0:
            self._sweeper = asyncio.get_running_loop().create_task(
                self._sweep_cache()
            )
        self._started = True
        return self

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError(
                "ExperimentService.start() must run inside the event "
                "loop before the first resolve()"
            )
        if self._closed:
            raise ServingError("server is shutting down", status=503)

    async def _sweep_cache(self) -> None:
        """Background eviction sweep: enforce cache bounds off-request.

        Eviction already runs inline on every ``put`` (the bound holds
        even mid-burst); the sweep additionally reclaims entries
        written by *other* processes sharing the cache directory,
        which inline eviction cannot see.
        """
        while True:
            await asyncio.sleep(self.config.cache_sweep_interval_s)
            try:
                await asyncio.to_thread(self.cache.prune)
                self.cache_sweeps += 1
            except Exception:
                pass  # a sweep failure must never take the server down

    def _point_done(self, key: str, outcome, error) -> None:
        """Batcher completion: encode, store, then wake every awaiter."""
        if error is None:
            result, seconds = outcome
            try:
                encoded = self._store(key, result)
            except Exception as exc:
                # A result that will not encode or pickle must fail its
                # awaiters, not strand them on a flight nobody resolves.
                error = exc
        if error is not None:
            self.stats.errors += 1
            self.flight.fail(key, error)
            return
        self.stats.computed += 1
        self.flight.resolve(key, (encoded, seconds))

    def _store(self, key: str, result) -> Encoded:
        """Cache ``result``; returns its encoding, made this once."""
        if self.cache is not None:
            try:
                return self.cache.put(key, result)
            except OSError:
                pass  # read-only cache dir: serve without storing
        return encode_with_digest(result)

    # -- hot payload tier ----------------------------------------------

    def _hot_get(self, body_key: Optional[str]):
        if not self._hot_limit or body_key is None:
            return None
        entry = self._hot.pop(body_key, None)
        if entry is not None:
            self._hot[body_key] = entry  # LRU touch
        return entry

    def _hot_put(self, body_key: Optional[str], entry: Dict) -> None:
        if not self._hot_limit or body_key is None:
            return
        self._hot.pop(body_key, None)
        while len(self._hot) >= self._hot_limit:
            self._hot.pop(next(iter(self._hot)))
        self._hot[body_key] = entry

    # -- resolution ----------------------------------------------------

    async def resolve(
        self,
        request: Dict[str, Any],
        admitted: bool = False,
        encoded: bool = False,
    ) -> Dict[str, Any]:
        """One request through the tiers; returns the payload.

        ``admitted=True`` marks server-originated work (batch and
        sweep expansion points) that is bounded by the stream's own
        semaphore — it bypasses the 429 admission check so a stream
        can never reject its own points.

        ``encoded=True`` is the front end's opt-in: ``result`` stays
        the canonical bytes the tiers hold, for :func:`encode_payload`
        to splice.  Without it ``result`` is decoded from those bytes.
        """
        self._require_started()
        self.stats.requests += 1
        started = time.perf_counter()
        body_key = negative_key(request)
        memo = self.negative.get(body_key)
        if memo is not None:
            self.stats.negative_hits += 1
            message, status = memo
            raise ServingError(message, status=status)
        hot = self._hot_get(body_key)
        if hot is not None:
            self.stats.cache_hits += 1
            self.stats.hot_hits += 1
            return self._payload(hot, "cache", None, started, encoded)
        limit = self.config.max_inflight
        if not admitted and limit and self.inflight >= limit:
            self.stats.rejected += 1
            raise ServingError(
                f"server saturated ({self.inflight} requests in flight, "
                f"max_inflight={limit}); retry after "
                f"{self.config.retry_after_s}s",
                status=429,
                retry_after=self.config.retry_after_s,
            )
        self.inflight += 1
        try:
            try:
                spec = decode_request(request)
            except ServingError as exc:
                if exc.status == 400:
                    # Deterministically invalid: memoise the refusal.
                    self.negative.put(body_key, str(exc), exc.status)
                raise
            key = key_for_spec(spec)
            source, seconds = "cache", None
            hit = None
            if self.cache is not None:
                hit = self.cache.get(key, encoded=True)
                if hit is not None:
                    self.stats.cache_hits += 1
            if hit is None:
                future, leader = self.flight.begin(key)
                if leader:
                    self.batcher.admit(key, spec)
                else:
                    if self.cache is not None:
                        self.cache.stats.coalesced += 1
                    self.stats.coalesced += 1
                hit, seconds = await future
                source = "computed" if leader else "coalesced"
            # Everything under "result" (and its "digest") is a pure
            # function of the simulation; the envelope around it
            # records how *this* request was served.
            entry = {
                "key": key,
                "app": spec.app,
                "variant": spec.variant_name,
                "nprocs": spec.nprocs,
                "digest": hit.digest,
                "result": hit.data,
            }
            if source != "coalesced":
                self._hot_put(body_key, entry)
            return self._payload(entry, source, seconds, started, encoded)
        finally:
            self.inflight -= 1

    @staticmethod
    def _payload(
        entry, source, compute_seconds, started, encoded
    ) -> Dict[str, Any]:
        """One reply: a hot-tier ``entry`` plus this request's envelope."""
        payload = dict(
            entry,
            source=source,
            compute_seconds=compute_seconds,
            serve_seconds=time.perf_counter() - started,
        )
        if not encoded:
            payload["result"] = json.loads(payload["result"])
        return payload

    async def resolve_many(
        self,
        requests: List[Dict[str, Any]],
        concurrency: Optional[int] = None,
        encoded: bool = False,
    ):
        """Async-iterate payloads in completion order (JSONL feed).

        Each yielded payload carries ``index``, its position in the
        request list, so clients can reorder; errors yield an
        ``{"index": i, "error": ..., "status": ...}`` line instead of
        killing the stream.  Points are admitted through a bounded
        semaphore (``concurrency``, default ``max_inflight`` or
        ``4 * max_batch``) rather than the 429 path — a stream queues
        its own excess instead of rejecting it.  Abandoning the
        iterator (client disconnect) cancels every unfinished point.
        """
        self._require_started()
        limit = concurrency or (
            self.config.max_inflight or 4 * self.config.max_batch
        )
        gate = asyncio.Semaphore(max(1, limit))

        async def one(i: int, request: Dict[str, Any]):
            async with gate:
                try:
                    payload = await self.resolve(
                        request, admitted=True, encoded=encoded
                    )
                    payload["index"] = i
                    return payload
                except ServingError as exc:
                    return {
                        "index": i,
                        "error": str(exc),
                        "status": exc.status,
                    }
                except Exception as exc:
                    return {"index": i, "error": str(exc), "status": 500}

        tasks = [
            asyncio.ensure_future(one(i, request))
            for i, request in enumerate(requests)
        ]
        try:
            for completed in asyncio.as_completed(tasks):
                yield await completed
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()

    def expand(self, request: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Expand one sweep request, bounded by ``max_sweep_points``."""
        return expand_sweep(
            request, max_points=self.config.max_sweep_points
        )

    def stats_payload(self) -> Dict[str, Any]:
        """The ``GET /v1/stats`` body: serving + caches + batcher."""
        payload: Dict[str, Any] = {
            "serving": self.stats.as_dict(),
            "inflight": len(self.flight) if self.flight else 0,
            "admitted_inflight": self.inflight,
            "batcher": (
                {
                    "batches": self.batcher.batches,
                    "points": self.batcher.points,
                    "largest_batch": self.batcher.largest_batch,
                    "window_ms": self.config.batch_window_ms,
                }
                if self.batcher
                else None
            ),
            "negative": self.negative.as_dict(),
            "hot": {
                "entries": len(self._hot),
                "max_entries": self._hot_limit,
            },
            "cache": None,
        }
        if self.cache is not None:
            payload["cache"] = {
                "stats": self.cache.stats.as_dict(),
                "sweeps": self.cache_sweeps,
                **self.cache.summary(),
            }
        return payload

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admitting, optionally drain in-flight work, stop pool.

        ``drain=True`` (the graceful path) flushes the batcher and
        waits — bounded by ``config.drain_timeout_s`` — until every
        in-flight request has its result; clients already awaiting
        (including streaming sweeps) get their payloads.
        ``drain=False`` fails outstanding flights immediately.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        if self._sweeper is not None:
            self._sweeper.cancel()
        if drain:
            try:
                await asyncio.wait_for(
                    self.batcher.drain(),
                    timeout=self.config.drain_timeout_s,
                )
            except asyncio.TimeoutError:
                pass
        for key_future in self.flight.outstanding():
            if not key_future.done():
                key_future.set_exception(
                    ServingError("server shut down", status=503)
                )
        self._pool.shutdown(wait=drain)


class ExperimentServer:
    """HTTP/1.1 keep-alive front end over an :class:`ExperimentService`."""

    def __init__(
        self,
        service: Optional[ExperimentService] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        if service is None:
            service = ExperimentService(config or ServerConfig())
        self.service = service
        self.config = service.config
        self._server: Optional[asyncio.base_events.Server] = None
        #: Actual bound address, available after :meth:`start`
        #: (``port=0`` requests an ephemeral port).
        self.address: Optional[Tuple[str, int]] = None
        self._closing = False
        self._conns: set = set()  # every open connection's writer
        self._busy: set = set()  # writers mid-request/mid-stream
        self.connections_total = 0
        self.requests_total = 0
        self.requests_reused = 0  # served on an already-used connection

    async def start(self) -> Tuple[str, int]:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, close idle connections, drain busy ones.

        Idle keep-alive connections are closed immediately (their next
        read sees EOF).  Busy connections — including in-progress
        sweep/points streams — get up to ``drain_timeout_s`` to flush
        before the service itself drains; points a stream already
        admitted thus complete and reach the client.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._conns - self._busy):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout_s
            while self._busy and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        await self.service.shutdown(drain=drain)

    def http_stats(self) -> Dict[str, int]:
        return {
            "open_connections": len(self._conns),
            "connections": self.connections_total,
            "requests": self.requests_total,
            "reused": self.requests_reused,
        }

    # -- one connection, many requests ---------------------------------

    async def _handle(self, reader, writer) -> None:
        self._conns.add(writer)
        self.connections_total += 1
        served = 0
        try:
            while not self._closing:
                timeout = self.config.idle_timeout_s or None
                try:
                    parsed = await asyncio.wait_for(
                        self._read_request(reader), timeout
                    )
                except (
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                if parsed is None:
                    break
                method, path, body, want_keepalive = parsed
                served += 1
                self.requests_total += 1
                if served > 1:
                    self.requests_reused += 1
                limit = self.config.max_requests_per_conn
                last = (
                    not want_keepalive
                    or self._closing
                    or bool(limit and served >= limit)
                )
                self._busy.add(writer)
                try:
                    streamed = await self._dispatch(
                        method, path, body, writer, close=last
                    )
                finally:
                    self._busy.discard(writer)
                if streamed or last:
                    break
        except ConnectionError:
            pass
        except Exception as exc:
            try:
                await self._respond_json(
                    writer,
                    500,
                    {"error": f"internal error: {exc}"},
                    close=True,
                )
            except (ConnectionError, OSError):
                pass
        finally:
            self._conns.discard(writer)
            self._busy.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        try:
            method, path, version = (
                request_line.decode("latin-1").split(None, 2)
            )
        except ValueError:
            return None
        keep_alive = "1.0" not in version  # HTTP/1.1 defaults keep-alive
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
            elif name == "connection":
                token = value.strip().lower()
                if token == "close":
                    keep_alive = False
                elif token == "keep-alive":
                    keep_alive = True
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body, keep_alive

    async def _dispatch(self, method, path, body, writer, close) -> bool:
        """Serve one request; returns True if the response streamed
        (stream responses are close-delimited, ending the connection)."""
        if (method, path) not in ROUTES:
            await self._respond_json(
                writer,
                404,
                {
                    "error": f"no route {method} {path}",
                    "routes": [f"{m} {p}" for m, p in sorted(ROUTES)],
                },
                close=close,
            )
            return False
        if path == "/v1/healthz":
            await self._respond_json(
                writer, 200, {"status": "ok"}, close=close
            )
        elif path == "/v1/stats":
            payload = self.service.stats_payload()
            payload["http"] = self.http_stats()
            await self._respond_json(writer, 200, payload, close=close)
        elif path == "/v1/point":
            try:
                request = json.loads(body or b"{}")
                payload = await self.service.resolve(request, encoded=True)
            except ServingError as exc:
                headers = None
                if exc.retry_after is not None:
                    headers = {"Retry-After": f"{exc.retry_after:g}"}
                await self._respond_json(
                    writer,
                    exc.status,
                    {"error": str(exc)},
                    close=close,
                    headers=headers,
                )
                return False
            except json.JSONDecodeError as exc:
                await self._respond_json(
                    writer,
                    400,
                    {"error": f"bad JSON body: {exc}"},
                    close=close,
                )
                return False
            await self._respond_json(writer, 200, payload, close=close)
        elif path == "/v1/points":
            return await self._stream_points(body, writer, close)
        elif path == "/v1/sweep":
            return await self._stream_sweep(body, writer, close)
        return False

    async def _stream_points(self, body, writer, close) -> bool:
        try:
            decoded = json.loads(body or b"{}")
            requests = decoded.get("points")
            if not isinstance(requests, list):
                raise ServingError(
                    "body must be {'points': [request, ...]}"
                )
        except json.JSONDecodeError as exc:
            await self._respond_json(
                writer, 400, {"error": f"bad JSON body: {exc}"}, close=close
            )
            return False
        except ServingError as exc:
            await self._respond_json(
                writer, exc.status, {"error": str(exc)}, close=close
            )
            return False
        await self._stream_lines(
            writer, self.service.resolve_many(requests, encoded=True)
        )
        return True

    async def _stream_sweep(self, body, writer, close) -> bool:
        try:
            decoded = json.loads(body or b"{}")
            points = self.service.expand(decoded)
        except json.JSONDecodeError as exc:
            await self._respond_json(
                writer, 400, {"error": f"bad JSON body: {exc}"}, close=close
            )
            return False
        except ServingError as exc:
            await self._respond_json(
                writer, exc.status, {"error": str(exc)}, close=close
            )
            return False
        preamble = {
            "sweep": {"kind": decoded.get("kind"), "points": len(points)}
        }
        await self._stream_lines(
            writer,
            self.service.resolve_many(points, encoded=True),
            preamble=preamble,
        )
        return True

    async def _stream_lines(self, writer, payloads, preamble=None) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        if preamble is not None:
            writer.write(
                json.dumps(preamble, sort_keys=True).encode() + b"\n"
            )
            await writer.drain()
        # A disconnect raises out of drain(); closing the generator
        # then cancels every point the stream has not yielded yet.
        agen = payloads.__aiter__()
        try:
            async for payload in agen:
                writer.write(encode_payload(payload) + b"\n")
                await writer.drain()
        finally:
            await agen.aclose()

    async def _respond_json(
        self, writer, status, payload, close=False, headers=None
    ) -> None:
        body = encode_payload(payload)
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        writer.write(head.encode() + body)
        await writer.drain()
