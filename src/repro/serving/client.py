"""The serving client: one facade over every transport (v2).

:class:`ServingClient`
    The client surface.  Construct it over a live HTTP server
    (``ServingClient(host, port)`` — a keep-alive session that reuses
    one connection across requests, reconnecting transparently if the
    server closed it) or over an in-process
    :class:`~repro.serving.server.ExperimentService`
    (``ServingClient(service=svc)`` — no sockets, same payloads).
    ``keepalive=False`` opens a fresh connection per request, the PR 8
    behaviour, kept measurable so benchmarks can isolate the
    connection-setup cost.

    Its methods (``point``, ``points``, ``resolve``, ``sweep``,
    ``stream_points``, ``stats``, ``healthz``) are coroutines.  A
    keep-alive session is bound to the event loop that opened it, so
    synchronous callers make all of a session's calls inside one
    ``asyncio.run``.

All transports speak the same request objects (see
:mod:`repro.serving.codec`) and return the same payload dicts.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.serving.codec import ServingError

def _request(app: str, variant=None, nprocs: int = 1, **fields) -> Dict:
    request: Dict[str, Any] = {"app": app, "nprocs": nprocs}
    if variant is not None:
        request["variant"] = variant
    request.update(fields)
    return request


async def _read_lines(reader) -> AsyncIterator[bytes]:
    """Yield newline-delimited lines of any length until EOF.

    ``StreamReader.readline`` refuses lines over the reader's 64 KiB
    limit, and one result line is routinely larger (tiny 8p lu and
    ilink are 84 KB and 159 KB), so streams are read in chunks and
    split here.
    """
    parts: List[bytes] = []
    while True:
        chunk = await reader.read(1 << 16)
        if not chunk:
            break
        *completed, tail = chunk.split(b"\n")
        for piece in completed:
            parts.append(piece)
            yield b"".join(parts)
            parts.clear()
        parts.append(tail)
    yield b"".join(parts)  # an unterminated last line, or b""


class ServingClient:
    """Talk to the serving layer — HTTP keep-alive or in-process."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8377,
        *,
        service=None,
        keepalive: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.service = service
        self.keepalive = keepalive and service is None
        self._conn: Optional[Tuple[Any, Any]] = None
        self._lock: Optional[asyncio.Lock] = None
        #: Session diagnostics: connections opened / requests reusing one.
        self.connections_opened = 0
        self.requests_reused = 0

    # -- the async API -------------------------------------------------

    async def healthz(self) -> Dict[str, Any]:
        if self.service is not None:
            return {"status": "ok"}
        return await self._json("GET", "/v1/healthz")

    async def stats(self) -> Dict[str, Any]:
        if self.service is not None:
            return self.service.stats_payload()
        return await self._json("GET", "/v1/stats")

    async def point(
        self, app: str, variant=None, nprocs: int = 1, **fields
    ) -> Dict[str, Any]:
        """Resolve one point; returns the payload dict."""
        return await self.resolve(_request(app, variant, nprocs, **fields))

    async def resolve(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Resolve one already-built request object."""
        if self.service is not None:
            return await self.service.resolve(request)
        return await self._json("POST", "/v1/point", request)

    async def points(
        self, requests: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Resolve many requests; returns payloads in request order."""
        if self.service is not None:
            return list(
                await asyncio.gather(
                    *(self.service.resolve(request) for request in requests)
                )
            )
        ordered: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        async for payload in self.stream_points(requests):
            ordered[payload["index"]] = payload
        missing = [i for i, p in enumerate(ordered) if p is None]
        if missing:
            raise ServingError(
                f"stream ended without results for indices {missing}",
                status=502,
            )
        return ordered

    async def stream_points(
        self, requests: List[Dict[str, Any]]
    ) -> AsyncIterator[Dict[str, Any]]:
        """Yield payloads as the server completes them (JSONL order)."""
        if self.service is not None:
            async for payload in self.service.resolve_many(requests):
                yield payload
            return
        async for line in self._stream(
            "POST", "/v1/points", {"points": requests}
        ):
            yield line

    async def sweep(
        self, request: Dict[str, Any]
    ) -> AsyncIterator[Dict[str, Any]]:
        """Expand a sweep server-side; yield its JSONL lines.

        The first line is the preamble ``{"sweep": {"kind": ...,
        "points": n}}``; every following line is a point payload (or an
        ``{"index", "error", "status"}`` line), in completion order.
        """
        if self.service is not None:
            points = self.service.expand(request)
            yield {
                "sweep": {
                    "kind": request.get("kind"),
                    "points": len(points),
                }
            }
            async for payload in self.service.resolve_many(points):
                yield payload
            return
        async for line in self._stream("POST", "/v1/sweep", request):
            yield line

    async def sweep_points(
        self, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run a sweep to completion; points come back in index order.

        Returns ``{"sweep": preamble, "points": [...], "errors": [...]}``.
        """
        meta: Dict[str, Any] = {}
        points: List[Dict[str, Any]] = []
        errors: List[Dict[str, Any]] = []
        async for line in self.sweep(request):
            if "sweep" in line and not meta:
                meta = line["sweep"]
            elif "error" in line:
                errors.append(line)
            else:
                points.append(line)
        points.sort(key=lambda p: p["index"])
        return {"sweep": meta, "points": points, "errors": errors}

    async def close(self) -> None:
        """Close the keep-alive session (no-op for other transports)."""
        if self._lock is None:
            await self._close_conn()
            return
        async with self._lock:
            await self._close_conn()

    # -- HTTP transport ------------------------------------------------

    async def _close_conn(self) -> None:
        if self._conn is None:
            return
        _reader, writer = self._conn
        self._conn = None
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def _head(self, method, path, body, keep_alive) -> bytes:
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if body:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        head += (
            "Connection: keep-alive\r\n\r\n"
            if keep_alive
            else "Connection: close\r\n\r\n"
        )
        return head.encode()

    async def _read_head(self, reader):
        """Parse a response's status line + headers."""
        status_line = await reader.readline()
        if not status_line:
            # EOF before a status line: the server closed the
            # connection (idle timeout, request limit, shutdown).
            # Surface it as a connection error so the keep-alive
            # session's retry-once path can take it.
            raise ConnectionResetError("connection closed by server")
        try:
            status = int(status_line.split()[1])
        except (IndexError, ValueError):
            raise ServingError(
                f"malformed response: {status_line!r}", status=502
            )
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _json(self, method: str, path: str, payload=None):
        body = (
            json.dumps(payload).encode() if payload is not None else None
        )
        if self.keepalive:
            status, raw = await self._session_roundtrip(method, path, body)
        else:
            status, reader, writer = await self._roundtrip(
                method, path, body
            )
            raw = await reader.read(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        decoded = json.loads(raw) if raw else {}
        if status != 200:
            raise ServingError(
                decoded.get("error", f"HTTP {status}"), status=status
            )
        return decoded

    async def _session_roundtrip(self, method, path, body):
        """One request over the persistent connection (serialised).

        A connection the server closed (idle timeout,
        ``max_requests_per_conn``) surfaces as a reset/EOF on the next
        use; the session retries exactly once on a fresh connection.
        A failure on a connection opened for *this* request is real
        and propagates.
        """
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            for attempt in (0, 1):
                fresh = self._conn is None
                if fresh:
                    self._conn = await asyncio.open_connection(
                        self.host, self.port
                    )
                    self.connections_opened += 1
                else:
                    self.requests_reused += 1
                reader, writer = self._conn
                try:
                    writer.write(
                        self._head(method, path, body, keep_alive=True)
                        + (body or b"")
                    )
                    await writer.drain()
                    status, headers = await self._read_head(reader)
                    length = int(headers.get("content-length", 0))
                    raw = (
                        await reader.readexactly(length) if length else b""
                    )
                except (
                    ConnectionError,
                    OSError,
                    asyncio.IncompleteReadError,
                ):
                    await self._close_conn()
                    if fresh or attempt:
                        raise
                    continue
                if headers.get("connection", "").lower() == "close":
                    await self._close_conn()
                return status, raw
        raise AssertionError("unreachable")

    async def _roundtrip(
        self, method: str, path: str, body: Optional[bytes] = None
    ):
        """One fresh-connection request; returns ``(status, reader,
        writer)`` with the reader at the start of the response body."""
        reader, writer = await asyncio.open_connection(
            self.host, self.port
        )
        self.connections_opened += 1
        writer.write(self._head(method, path, body, keep_alive=False))
        writer.write(body or b"")
        await writer.drain()
        status, _headers = await self._read_head(reader)
        return status, reader, writer

    async def _stream(self, method, path, payload):
        """Open a dedicated connection and yield its JSONL lines.

        Streams are close-delimited on the wire, so they never share
        the keep-alive session's connection.
        """
        body = json.dumps(payload).encode()
        status, reader, writer = await self._roundtrip(method, path, body)
        try:
            if status != 200:
                raw = await reader.read(-1)
                decoded = json.loads(raw) if raw else {}
                raise ServingError(
                    decoded.get("error", f"HTTP {status}"), status=status
                )
            async for line in _read_lines(reader):
                if line.strip():
                    yield json.loads(line)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
