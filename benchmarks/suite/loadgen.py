"""A lean closed-loop load generator on raw sockets.

One thread, one ``selectors`` loop, N connections that each wait for
their reply before sending again.  Request bytes are encoded once per
catalogue entry before the clock starts; replies are framed by
``Content-Length`` (``POST /v1/point``, keep-alive) or by EOF (``POST
/v1/points``, a JSONL stream) and handed to the caller as bytes — no
JSON is decoded here, so the generator costs less than the server it
measures.
"""

from __future__ import annotations

import selectors
import socket
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

Address = Tuple[str, int]

_RECV = 1 << 18
#: Longest silence tolerated on every open connection at once; a hung
#: server must fail the run, not hang it.
_STALL_S = 120.0


def _ready(selector: selectors.BaseSelector):
    events = selector.select(_STALL_S)
    if not events:
        raise TimeoutError(f"no reply from the server for {_STALL_S:.0f}s")
    return events


def http_request(path: str, body: bytes, method: str = "POST") -> bytes:
    """One HTTP/1.1 request, ready to send on a keep-alive connection."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def _connect(address: Address) -> socket.socket:
    sock = socket.create_connection(address, timeout=60.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _split_reply(buf: bytearray) -> Optional[Tuple[int, int, int]]:
    """``(status, body_start, reply_end)`` once a framed reply is whole."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    at = buf.find(b"Content-Length: ", 0, head_end)
    if at < 0:
        raise ValueError("reply without Content-Length")
    length = int(buf[at + 16 : buf.find(b"\r\n", at)])
    end = head_end + 4 + length
    if len(buf) < end:
        return None
    return int(buf[9:12]), head_end + 4, end


def fetch(address: Address, path: str, body: bytes = b"", method: str = "GET"):
    """One request on a fresh connection: ``(status, body_bytes)``."""
    sock = _connect(address)
    try:
        sock.sendall(http_request(path, body, method))
        buf = bytearray()
        while True:
            whole = _split_reply(buf)
            if whole is not None:
                status, start, end = whole
                return status, bytes(buf[start:end])
            chunk = sock.recv(_RECV)
            if not chunk:
                raise ConnectionError("server closed before replying")
            buf += chunk
    finally:
        sock.close()


@dataclass
class _Conn:
    sock: socket.socket
    buf: bytearray = field(default_factory=bytearray)
    item: int = -1
    sent_at: float = 0.0


def closed_loop(
    address: Address,
    requests: Sequence[bytes],
    schedule: Sequence[int],
    on_reply: Callable[[int, int, bytearray, int, int], None],
    connections: int = 2,
) -> List[float]:
    """Send ``requests[i]`` for each ``i`` in ``schedule`` over keep-alive
    connections, each waiting for its reply before taking the next.

    ``on_reply(position, status, buf, body_start, body_end)`` sees every
    reply (``position`` indexes ``schedule``).  Returns per-request
    latency in seconds, send to last byte, in schedule order.
    """
    latencies = [0.0] * len(schedule)
    cursor = 0
    selector = selectors.DefaultSelector()
    conns = [_Conn(_connect(address)) for _ in range(connections)]

    def send_next(conn: _Conn) -> bool:
        nonlocal cursor
        if cursor >= len(schedule):
            return False
        conn.item = cursor
        cursor += 1
        conn.sent_at = perf_counter()
        conn.sock.sendall(requests[schedule[conn.item]])
        return True

    try:
        busy = 0
        for conn in conns:
            if send_next(conn):
                selector.register(conn.sock, selectors.EVENT_READ, conn)
                busy += 1
        while busy:
            for key, _ in _ready(selector):
                conn = key.data
                chunk = conn.sock.recv(_RECV)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buf += chunk
                whole = _split_reply(conn.buf)
                if whole is None:
                    continue
                latencies[conn.item] = perf_counter() - conn.sent_at
                status, start, end = whole
                on_reply(conn.item, status, conn.buf, start, end)
                del conn.buf[:end]
                if not send_next(conn):
                    selector.unregister(conn.sock)
                    busy -= 1
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    return latencies


@dataclass
class StreamLine:
    """One JSONL line of a ``/v1/points`` stream and when it arrived."""

    batch: int
    line: bytes
    latency_s: float


@dataclass
class _Lane:
    """One connection's worth of batches, sent one after another."""

    batches: Sequence[bytes]
    first_batch: int  # number of this lane's first batch overall
    position: int = 0
    sock: Optional[socket.socket] = None
    buf: bytearray = field(default_factory=bytearray)
    sent_at: float = 0.0
    in_body: bool = False


def stream_batches(
    address: Address,
    lanes: Sequence[Sequence[bytes]],
) -> List[StreamLine]:
    """Send each lane's batch requests one after another, the lanes side
    by side, reading every stream to EOF.

    A stream response closes its connection, so each batch opens a new
    one.  A line's latency runs from its batch's send to the arrival of
    the chunk that completed it.  Batches are numbered lane-major (lane
    0's first, lane 0's second, ..., then lane 1's first).
    """
    selector = selectors.DefaultSelector()
    lines: List[StreamLine] = []
    state: List[_Lane] = []
    for batches in lanes:
        state.append(_Lane(batches, sum(len(lane.batches) for lane in state)))

    def start(lane: _Lane) -> bool:
        if lane.position >= len(lane.batches):
            return False
        lane.sock, lane.buf, lane.in_body = _connect(address), bytearray(), False
        lane.sent_at = perf_counter()
        lane.sock.sendall(lane.batches[lane.position])
        selector.register(lane.sock, selectors.EVENT_READ, lane)
        return True

    try:
        busy = sum(start(lane) for lane in state)
        while busy:
            for key, _ in _ready(selector):
                lane = key.data
                chunk = lane.sock.recv(_RECV)
                now = perf_counter()
                buf = lane.buf
                buf += chunk
                if not lane.in_body:
                    head_end = buf.find(b"\r\n\r\n")
                    if head_end >= 0:
                        if int(buf[9:12]) != 200:
                            raise ConnectionError(
                                f"stream refused: {bytes(buf[:head_end])!r}"
                            )
                        del buf[: head_end + 4]
                        lane.in_body = True
                if lane.in_body:
                    cut = buf.rfind(b"\n") + 1
                    if cut:
                        batch = lane.first_batch + lane.position
                        for line in bytes(buf[: cut - 1]).split(b"\n"):
                            lines.append(
                                StreamLine(batch, line, now - lane.sent_at)
                            )
                        del buf[:cut]
                if not chunk:  # EOF: this batch's stream is complete
                    selector.unregister(lane.sock)
                    lane.sock.close()
                    lane.sock = None
                    lane.position += 1
                    if not start(lane):
                        busy -= 1
    finally:
        selector.close()
        for lane in state:
            if lane.sock is not None:
                lane.sock.close()
    return lines
