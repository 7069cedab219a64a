"""The two serving workloads: ``serve_hit`` and ``serve_miss``.

The program under test is a ``repro-dsm serve --jobs 1`` subprocess; the
load is :mod:`loadgen`'s closed loop over 2 connections.  Every reply is
checked: the first sighting of each distinct point in a run is parsed,
canonically re-encoded and compared with ``codec.encode_result`` of a
direct ``api.run_point``; later sightings must carry the same ``result``
bytes and digest (the envelope's ``source`` and ``serve_seconds``
legitimately differ).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import checks, loadgen, procstat, spec, tracing

CONNECTIONS = 2
HIT_REQUESTS = 2_500  # per repeat
INVALID_EVERY = 50  # every 50th request is the fixed invalid body
# Tuned so the zipf tail past the 256-entry hot tier is 2-10 % of
# requests (``serving.disk_hit_share``); change this, not the catalogue.
ZIPF_S = 1.1
MISS_BATCH = 16
MISS_DUPLICATES = 2  # per batch, coalesced by the server's singleflight
INVALID_REQUEST = {"v": 2, "app": "no-such-app"}

_VARIANTS = ("csm_poll", "tmk_mc_poll", "hlrc_poll", "csm_int")
_NPROCS = (2, 4, 8)
_NETWORKS = ("memch", "rdma", "ethernet")


def _apps() -> Tuple[str, ...]:
    from repro.apps import registry

    return tuple(registry.ALL_APP_NAMES)


def hit_catalogue(quick: bool = False) -> List[Dict[str, Any]]:
    """324 distinct tiny points — more than the 256-entry hot tier, so
    the zipf tail is served from disk.  App-major order."""
    networks = _NETWORKS[:1] if quick else _NETWORKS
    return [
        {
            "v": 2,
            "app": app,
            "variant": variant,
            "nprocs": nprocs,
            "scale": "tiny",
            "options": {"network": network},
        }
        for app in _apps()
        for variant in _VARIANTS
        for nprocs in _NPROCS
        for network in networks
    ]


def miss_catalogue() -> List[Dict[str, Any]]:
    """81 distinct tiny points, every one a cold miss on a fresh server."""
    return [
        {"v": 2, "app": app, "variant": variant, "nprocs": nprocs, "scale": "tiny"}
        for app in _apps()
        for variant in _VARIANTS[:3]
        for nprocs in _NPROCS
    ]


def popularity_order(catalogue: Sequence[Dict], rng: random.Random) -> List[int]:
    """Catalogue indices from most to least popular.

    Ranks are dealt round-robin over the apps in registry order; the seed
    picks which of an app's points gets each of its ranks.  Reply size is
    a function of the app alone (0.5 KB for tsp, 159 KB for ilink), so a
    seeded *app* ranking would move bytes-per-request — and every
    end-to-end metric — by more than any bound; this keeps the popularity
    mass per app fixed and lets the seed vary everything else.
    """
    by_app: Dict[str, List[int]] = {}
    for index, request in enumerate(catalogue):
        by_app.setdefault(request["app"], []).append(index)
    for members in by_app.values():
        rng.shuffle(members)
    order = []
    for depth in range(max(len(m) for m in by_app.values())):
        for members in by_app.values():
            if depth < len(members):
                order.append(members[depth])
    return order


def hit_schedule(
    catalogue: Sequence[Dict], seed: int, n_requests: int = HIT_REQUESTS
) -> List[int]:
    """Request indices for one repeat: zipf over the seeded popularity
    order, with index ``len(catalogue)`` (the invalid body) in every
    ``INVALID_EVERY``-th place.

    The rank-k point is asked for its *expected* number of times
    (largest-remainder rounding of ``n * k**-s / H``) and the seed
    shuffles the order, so every seed sends the same number of requests
    to every rank — i.i.d. draws would let the handful of disk-tier hits
    that dominate server CPU vary by tens of percent between seeds.
    """
    rng = random.Random(seed)
    order = popularity_order(catalogue, rng)
    n_invalid = n_requests // INVALID_EVERY
    weights = [1.0 / rank**ZIPF_S for rank in range(1, len(order) + 1)]
    scale = (n_requests - n_invalid) / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(
        range(len(order)), key=lambda k: counts[k] - weights[k] * scale
    )
    for k in by_remainder[: n_requests - n_invalid - sum(counts)]:
        counts[k] += 1
    draws = [item for item, count in zip(order, counts) for _ in range(count)]
    rng.shuffle(draws)
    for position in range(INVALID_EVERY - 1, n_requests, INVALID_EVERY):
        draws.insert(position, len(catalogue))
    return draws


def miss_batches(
    n_points: int, seed: int
) -> Tuple[List[List[List[int]]], List[List[int]]]:
    """``(lanes, batches)``: per lane the batches it sends, and per batch
    (numbered lane-major, as ``loadgen.stream_batches`` numbers them) the
    catalogue index behind each line's ``index``."""
    rng = random.Random(seed)
    shuffled = list(range(n_points))
    rng.shuffle(shuffled)
    chunks = [
        shuffled[at : at + MISS_BATCH] for at in range(0, n_points, MISS_BATCH)
    ]
    for chunk in chunks:
        chunk += rng.choices(chunk, k=MISS_DUPLICATES)
    lanes = [chunks[lane::CONNECTIONS] for lane in range(CONNECTIONS)]
    return lanes, [batch for lane in lanes for batch in lane]


def encode(request: Dict) -> bytes:
    return json.dumps(request).encode()


# -- references --------------------------------------------------------


@dataclass
class References:
    """What a direct ``api.run_point`` says each catalogue point is."""

    bodies: List[bytes]  # codec.encode_result, per catalogue index
    digests: List[bytes]
    counts: checks.ExactCounts
    events: int  # Engine events, counted only when traced
    execute_us: float  # mean wall of the direct run, per point
    seconds: float


def references(
    catalogue: Sequence[Dict], count_events: bool, fault: Optional[str] = None
) -> References:
    from repro import api
    from repro.serving import codec

    counter = tracing.EventCounter()
    if count_events:
        counter.install()
    counts = checks.ExactCounts()
    bodies, walls = [], []
    began = time.perf_counter()
    try:
        for request in catalogue:
            started = time.perf_counter()
            result = api.run_point(**codec.request_kwargs(request))
            walls.append(time.perf_counter() - started)
            counts.add(result)
            bodies.append(codec.encode_result(result))
    finally:
        counter.remove()
    if fault == "reference":
        bodies[0] = bodies[0].replace(b"1", b"2", 1)
    return References(
        bodies=bodies,
        digests=[hashlib.sha256(b).hexdigest().encode() for b in bodies],
        counts=counts,
        events=counter.events,
        execute_us=statistics.fmean(walls) * 1e6,
        seconds=time.perf_counter() - began,
    )


def _canonical_result(payload: Dict) -> bytes:
    return json.dumps(
        payload["result"], sort_keys=True, separators=(",", ":")
    ).encode()


class Verifier:
    """Checks every reply of a ``/v1/point`` repeat as it arrives."""

    _RESULT = b'"result": '
    _AFTER = b', "serve_seconds"'

    def __init__(self, refs: References, invalid_index: int):
        self.refs = refs
        self.invalid_index = invalid_index
        self.schedule: Sequence[int] = ()
        self.seen: Dict[int, bytes] = {}
        self.ok = 0
        self.problems: List[str] = []

    def begin(self, schedule: Sequence[int]) -> None:
        """Start a repeat.  First sightings carry over: one JSON decode
        per distinct point per run keeps the generator cheaper than the
        server, and a later reply is still compared with verified bytes."""
        self.schedule = schedule
        self.ok = 0

    def check(self, position: int, status: int, buf: bytearray, start: int, end: int):
        item = self.schedule[position]
        if item == self.invalid_index:
            if 400 <= status < 500:
                self.ok += 1
            else:
                self.problems.append(f"invalid body answered {status}")
            return
        if status != 200:
            self.problems.append(f"point {item} answered {status}")
            return
        known = self.seen.get(item)
        if known is None:
            self._first_sighting(item, buf, start, end)
            return
        at = buf.find(self._RESULT, start, end) + len(self._RESULT)
        same = (
            buf.startswith(known, at)
            and buf.startswith(self._AFTER, at + len(known))
            and buf.find(b'"digest": "' + self.refs.digests[item] + b'"', start, at) > 0
        )
        if same:
            self.ok += 1
        else:
            self.problems.append(f"point {item}: reply differs from its first sighting")

    def _first_sighting(self, item: int, buf: bytearray, start: int, end: int):
        payload = json.loads(bytes(buf[start:end]))
        if (
            _canonical_result(payload) != self.refs.bodies[item]
            or payload["digest"].encode() != self.refs.digests[item]
        ):
            self.problems.append(f"point {item}: served result differs from direct run")
            return
        at = buf.find(self._RESULT, start, end) + len(self._RESULT)
        self.seen[item] = bytes(buf[at : buf.rfind(self._AFTER, at, end)])
        self.ok += 1


def verify_lines(
    lines: Sequence[loadgen.StreamLine],
    batches: Sequence[Sequence[int]],
    refs: References,
) -> Tuple[int, List[str]]:
    """``(ok, problems)`` for one repeat's JSONL lines."""
    ok = 0
    problems: List[str] = []
    seen = [set() for _ in batches]
    for entry in lines:
        payload = json.loads(entry.line)
        index = payload.get("index")
        if "error" in payload or not isinstance(index, int):
            problems.append(f"batch {entry.batch}: {payload.get('error', 'no index')}")
            continue
        item = batches[entry.batch][index]
        if (
            _canonical_result(payload) != refs.bodies[item]
            or payload["digest"].encode() != refs.digests[item]
        ):
            problems.append(f"point {item}: served result differs from direct run")
            continue
        seen[entry.batch].add(index)
        ok += 1
    for number, batch in enumerate(batches):
        if len(seen[number]) != len(batch):
            problems.append(
                f"batch {number}: {len(batch) - len(seen[number])} line(s) missing"
            )
    return ok, problems


# -- the server process ------------------------------------------------


class Server:
    """A ``repro-dsm serve --jobs 1`` child on an ephemeral port.

    ``mode`` is ``plain`` (the CLI itself) or ``spans``/``profile`` (the
    same CLI under :mod:`servehost`, which dumps to ``dump`` on exit).
    Always reaped: a leaked child would hold the parent's pipes open.
    """

    def __init__(self, cache_dir: Path, mode: str = "plain", dump: Optional[Path] = None):
        serve = ["serve", "--port", "0", "--jobs", "1", "--cache-dir", str(cache_dir)]
        if mode == "plain":
            command = [sys.executable, "-m", "repro.harness.cli"] + serve
        else:
            host = str(spec.SUITE_DIR / "servehost.py")
            command = [sys.executable, host, mode, str(dump)] + serve
        env = dict(os.environ, PYTHONPATH=str(spec.SRC), REPRO_DSM_CACHE=str(cache_dir))
        self._log_path = cache_dir.parent / f"{cache_dir.name}.{mode}.log"
        self.started = time.perf_counter()
        with open(self._log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=log, stdin=subprocess.DEVNULL, env=env
            )
        try:
            self.address = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.started
        self.workers = procstat.children(self.process.pid)

    def _await_ready(self, timeout: float = 90.0) -> loadgen.Address:
        marker = "listening on http://"
        while time.perf_counter() - self.started < timeout:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited {self.process.returncode}: "
                    + self._log_path.read_text()[-2000:]
                )
            log = self._log_path.read_text()
            if marker in log:
                host, port = log.split(marker, 1)[1].split()[0].split(":")
                address = (host, int(port))
                status, _ = loadgen.fetch(address, "/v1/healthz")
                if status != 200:
                    raise RuntimeError(f"/v1/healthz answered {status}")
                return address
            time.sleep(0.01)
        raise TimeoutError("server did not start listening")

    def cpu(self) -> Tuple[float, float]:
        """``(front end, pool workers)`` CPU seconds so far."""
        return (
            procstat.cpu_seconds(self.process.pid),
            sum(procstat.cpu_seconds(pid) for pid in self.workers),
        )

    def peak_rss_mb(self) -> float:
        return sum(
            procstat.peak_rss_mb(pid) for pid in [self.process.pid] + self.workers
        )

    def profiling(self, on: bool) -> None:
        """Start or stop a ``profile``-mode server's profiler.  The
        round trip afterwards makes the loop run the handler before the
        next request of the load arrives."""
        self.process.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        loadgen.fetch(self.address, "/v1/healthz")

    def stats(self) -> Dict[str, Any]:
        status, body = loadgen.fetch(self.address, "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log_path.unlink(missing_ok=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def stats_delta(before: Optional[Dict], after: Dict) -> Dict[str, float]:
    """The ``serving.*`` share metrics from two ``/v1/stats`` bodies."""

    def moved(*path: str) -> float:
        def dig(body):
            for key in path:
                body = body[key]
            return body

        return dig(after) - (dig(before) if before else 0)

    requests = moved("serving", "requests") or 1
    hits, hot = moved("serving", "cache_hits"), moved("serving", "hot_hits")
    flushes = moved("batcher", "batches")
    return {
        "serving.hot_hit_share": hot / requests,
        "serving.disk_hit_share": (hits - hot) / requests,
        "serving.negative_hits": moved("serving", "negative_hits"),
        "serving.coalesced_share": moved("serving", "coalesced") / requests,
        "serving.batcher.mean_batch": (
            moved("batcher", "points") / flushes if flushes else 0.0
        ),
        "serving.errors": moved("serving", "errors"),
    }


# -- repeats -----------------------------------------------------------


@dataclass
class Repeat:
    """What one timed repeat measured."""

    wall_s: float
    ok: int
    attempted: int
    latencies_s: List[float]
    front_cpu_s: float
    worker_cpu_s: float
    loadgen_cpu_s: float
    peak_rss_mb: float
    setup_s: float = 0.0
    spin_ms: float = 0.0  # the host yardstick, sampled just before
    problems: List[str] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def cpu_ms_per_req(self) -> float:
        return (self.front_cpu_s + self.worker_cpu_s) * 1e3 / max(1, self.ok)


def hit_repeat(
    server: Server, requests: Sequence[bytes], schedule: Sequence[int], verifier: Verifier
) -> Repeat:
    verifier.begin(schedule)
    known_problems = len(verifier.problems)
    before = server.cpu()
    own = time.process_time()
    started = time.perf_counter()
    latencies = loadgen.closed_loop(
        server.address, requests, schedule, verifier.check, CONNECTIONS
    )
    wall = time.perf_counter() - started
    own = time.process_time() - own
    after = server.cpu()
    return Repeat(
        wall_s=wall,
        ok=verifier.ok,
        attempted=len(schedule),
        latencies_s=latencies,
        front_cpu_s=after[0] - before[0],
        worker_cpu_s=after[1] - before[1],
        loadgen_cpu_s=own,
        peak_rss_mb=server.peak_rss_mb(),
        problems=verifier.problems[known_problems:],
    )


def miss_repeat(
    scratch: Path,
    number: int,
    catalogue_bytes: Sequence[bytes],
    seed: int,
    refs: References,
    mode: str = "plain",
) -> Repeat:
    """A fresh server on an empty cache dir, the whole catalogue sent as
    ``/v1/points`` batches, then the server stopped."""
    lanes, batches = miss_batches(len(catalogue_bytes), seed)
    lane_requests = [
        [
            loadgen.http_request(
                "/v1/points",
                b'{"points": [' + b", ".join(catalogue_bytes[i] for i in batch) + b"]}",
            )
            for batch in lane
        ]
        for lane in lanes
    ]
    cache_dir = scratch / f"miss-{number}"
    cache_dir.mkdir()
    with Server(cache_dir, mode, scratch / f"miss-{number}.{mode}") as server:
        if mode == "profile":
            server.profiling(True)
        before = server.cpu()
        own = time.process_time()
        started = time.perf_counter()
        lines = loadgen.stream_batches(server.address, lane_requests)
        wall = time.perf_counter() - started
        own = time.process_time() - own
        after = server.cpu()
        rss = server.peak_rss_mb()
        stats = stats_delta(None, server.stats())
        setup_s = server.ready_s
    ok, problems = verify_lines(lines, batches, refs)
    return Repeat(
        wall_s=wall,
        ok=ok,
        attempted=sum(len(batch) for batch in batches),
        latencies_s=[entry.latency_s for entry in lines],
        front_cpu_s=after[0] - before[0],
        worker_cpu_s=after[1] - before[1],
        loadgen_cpu_s=own,
        peak_rss_mb=rss,
        setup_s=setup_s,
        problems=problems,
        stats=stats,
    )


def _timed_repeats(one_repeat, seconds: float, quick: bool, trace: bool):
    """Run ``one_repeat(number)`` until the next would overrun ``seconds``
    (at least 3 times); a smoke run takes one repeat, and a traced run
    two, since it only needs a base for the overhead ratio."""
    at_least = 1 if (quick or trace) else 3
    at_most = 1 if quick else (2 if trace else None)
    repeats: List[Repeat] = []
    began = time.perf_counter()
    while True:
        spin_ms = procstat.spin_ms()
        started = time.perf_counter()
        repeats.append(one_repeat(len(repeats)))
        repeats[-1].spin_ms = spin_ms
        last = time.perf_counter() - started
        if at_most is not None and len(repeats) >= at_most:
            break
        if (
            len(repeats) >= at_least
            and time.perf_counter() - began + last > seconds
        ):
            break
    return repeats


def _end_to_end(repeats: Sequence[Repeat], setup_s: float) -> Tuple[Dict, Dict]:
    samples = {
        "cpu_ms_per_req": [r.cpu_ms_per_req for r in repeats],
        "req_per_s": [r.ok / r.wall_s for r in repeats],
        "latency_p50_ms": [checks.percentile(r.latencies_s, 50) * 1e3 for r in repeats],
        "latency_p99_ms": [checks.percentile(r.latencies_s, 99) * 1e3 for r in repeats],
        "peak_rss_mb": [r.peak_rss_mb for r in repeats],
        "host_cpu_s": [r.front_cpu_s + r.worker_cpu_s for r in repeats],
        "loadgen_cpu_us_per_req": [
            r.loadgen_cpu_s * 1e6 / r.attempted for r in repeats
        ],
        "host_spin_ms": [r.spin_ms for r in repeats],
    }
    end_to_end = {
        name: statistics.median(samples[name])
        for name in ("cpu_ms_per_req", "req_per_s", "peak_rss_mb")
    }
    end_to_end["setup_s"] = setup_s
    return end_to_end, samples


def pool_transit_us(catalogue: Sequence[Dict], sample: int = 81) -> float:
    """Mean cost of sending one point through the harness's process pool
    and back, beyond the simulation itself: pickling the spec, the pipe,
    the app-module lookup, pickling the result.

    Measured directly on ``persistent_pool(1)`` — the pool the server
    builds — one point in flight at a time, as round-trip wall minus the
    seconds ``execute_point_timed`` reports from inside the worker, over
    an evenly spaced ``sample`` of the catalogue.
    """
    from repro.harness.parallel import execute_point_timed, persistent_pool
    from repro.serving import codec

    step = max(1, len(catalogue) // sample)
    specs = [codec.decode_request(request) for request in catalogue[::step]]
    pool = persistent_pool(1)
    try:
        pool.submit(execute_point_timed, specs[0]).result()  # fork + imports
        beyond = []
        for point in specs:
            started = time.perf_counter()
            _, inside = pool.submit(execute_point_timed, point).result()
            beyond.append(time.perf_counter() - started - inside)
    finally:
        pool.shutdown()
    return statistics.fmean(beyond) * 1e6


def _per_layer(
    spans: Sequence[Repeat],
    span_dump: Path,
    since_ns: int,
    profile_dump: Path,
    samples: Dict[str, List[float]],
    stats: Dict[str, float],
    refs: References,
    catalogue: Sequence[Dict],
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    """``(folded spans, per-layer metrics)`` of one traced serving run.

    ``spans`` are the repeats a ``spans``-mode server answered (its dump
    is cut at ``since_ns``); ``samples`` are the untraced repeats'.
    """
    folded = tracing.fold_spans(json.loads(span_dump.read_text()), since_ns)
    replies = max(1, sum(r.ok for r in spans))

    def calls(name: str) -> float:
        return folded.get(name, {}).get("n", 0) / len(spans)

    covered_us = sum(
        folded.get(name, {}).get("total_us", 0.0)
        for name in (
            "serving.codec.validate",
            "harness.cache.get",
            "harness.cache.put",
            "serving.server.encode",
        )
    )
    front_us = sum(r.front_cpu_s for r in spans) * 1e6 / replies
    per_layer = tracing.layer_table(
        tracing.fold_profile(tracing.profile_stats(str(profile_dump)))
    )
    per_layer.update(stats)
    per_layer.update(refs.counts.metrics(refs.events))
    per_layer.update(
        {
            "harness.cache.get_us": tracing.mean_us(folded, "harness.cache.get"),
            "harness.cache.put_us": tracing.mean_us(folded, "harness.cache.put"),
            "harness.cache.gets": calls("harness.cache.get"),
            "harness.cache.puts": calls("harness.cache.put"),
            "harness.parallel.execute_us": refs.execute_us,
            "serving.codec.validate_us": tracing.mean_us(folded, "serving.codec.validate"),
            "serving.server.encode_us": tracing.mean_us(folded, "serving.server.encode"),
            "serving.server.resolve_us": tracing.mean_us(folded, "serving.server.resolve"),
            "serving.server.front_us": front_us - covered_us / replies,
            "serving.pool.transit_us": pool_transit_us(catalogue),
            "serving.latency_p50_ms": statistics.median(samples["latency_p50_ms"]),
            "serving.latency_p99_ms": statistics.median(samples["latency_p99_ms"]),
            "serving.loadgen.cpu_us_per_req": statistics.median(
                samples["loadgen_cpu_us_per_req"]
            ),
            "trace.overhead_ratio": statistics.median(r.cpu_ms_per_req for r in spans)
            / statistics.median(samples["cpu_ms_per_req"]),
        }
    )
    return folded, per_layer


def _assemble(repeats, end_to_end, samples, per_layer, refs, notes) -> Dict[str, Any]:
    """The result record; ``repeats`` is every repeat run, timed or not."""
    problems = [problem for r in repeats for problem in r.problems]
    return {
        "n": len(samples["req_per_s"]),
        "attempted": sum(r.attempted for r in repeats),
        "failed": sum(r.attempted - r.ok for r in repeats),
        "failures": problems[:20],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": samples,
        "notes": dict(notes, reference_s=refs.seconds),
    }


# -- the workloads -----------------------------------------------------


def run_hit(
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    fault: Optional[str] = None,
) -> Dict[str, Any]:
    catalogue = hit_catalogue(quick)
    n_requests = 1_000 if quick else HIT_REQUESTS
    requests = [loadgen.http_request("/v1/point", encode(r)) for r in catalogue]
    requests.append(loadgen.http_request("/v1/point", encode(INVALID_REQUEST)))
    schedule = hit_schedule(catalogue, seed, n_requests)
    once_each = list(range(len(catalogue)))
    refs = references(catalogue, count_events=trace, fault=fault)
    verifier = Verifier(refs, invalid_index=len(catalogue))
    per_layer: Dict[str, float] = {}
    folded: Dict[str, Dict[str, float]] = {}

    with procstat.scratch_dir("hit-") as scratch:
        cache_dir = scratch / "cache"
        cache_dir.mkdir()

        def warm(server: Server) -> Repeat:
            """Ask for every catalogue point once, verifying each."""
            return hit_repeat(server, requests, once_each, verifier)

        with Server(cache_dir) as server:
            prewarm = warm(server)
            setup_s = time.perf_counter() - server.started
            stats_before = server.stats()
            repeats = _timed_repeats(
                lambda _: hit_repeat(server, requests, schedule, verifier),
                seconds,
                quick,
                trace,
            )
            stats = stats_delta(stats_before, server.stats())
        all_repeats = [prewarm] + repeats
        end_to_end, samples = _end_to_end(repeats, setup_s)

        if trace:
            traced: Dict[str, List[Repeat]] = {}
            warmed_ns = 0
            for mode, count in (("spans", 2), ("profile", 1)):
                dump = scratch / mode
                with Server(cache_dir, mode, dump) as server:
                    all_repeats.append(warm(server))
                    if mode == "spans":
                        warmed_ns = time.perf_counter_ns()
                    else:
                        server.profiling(True)
                    traced[mode] = [
                        hit_repeat(server, requests, schedule, verifier)
                        for _ in range(count)
                    ]
                    if mode == "profile":
                        server.profiling(False)
                all_repeats += traced[mode]
            folded, per_layer = _per_layer(
                traced["spans"],
                scratch / "spans",
                warmed_ns,
                scratch / "profile",
                samples,
                stats,
                refs,
                catalogue,
            )

    return _assemble(
        all_repeats,
        end_to_end,
        samples,
        per_layer,
        refs,
        {"prewarm_s": prewarm.wall_s, "catalogue": len(catalogue), "spans": folded, **stats},
    )


def run_miss(
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    fault: Optional[str] = None,
) -> Dict[str, Any]:
    catalogue = miss_catalogue()
    catalogue_bytes = [encode(r) for r in catalogue]
    refs = references(catalogue, count_events=trace, fault=fault)
    per_layer: Dict[str, float] = {}
    folded: Dict[str, Dict[str, float]] = {}

    with procstat.scratch_dir("miss-") as scratch:
        repeats = _timed_repeats(
            lambda number: miss_repeat(scratch, number, catalogue_bytes, seed, refs),
            seconds,
            quick,
            trace,
        )
        all_repeats = list(repeats)
        end_to_end, samples = _end_to_end(
            repeats, statistics.median(r.setup_s for r in repeats)
        )
        samples["setup_s"] = [r.setup_s for r in repeats]

        if trace:
            spans = miss_repeat(scratch, 100, catalogue_bytes, seed, refs, "spans")
            profiled = miss_repeat(scratch, 101, catalogue_bytes, seed, refs, "profile")
            all_repeats += [spans, profiled]
            folded, per_layer = _per_layer(
                [spans],
                scratch / "miss-100.spans",
                0,
                scratch / "miss-101.profile",
                samples,
                repeats[0].stats,
                refs,
                catalogue,
            )

    return _assemble(
        all_repeats,
        end_to_end,
        samples,
        per_layer,
        refs,
        {"catalogue": len(catalogue), "spans": folded, **repeats[0].stats},
    )
