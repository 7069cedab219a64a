"""Wall-clock benchmarks for the simulator's hot paths.

Four modes:

**Default (PR2)** — times one fixed Figure-5 slice three ways:

1. **serial** — ``jobs=1``, cache disabled (the pre-PR baseline path);
2. **parallel** — ``jobs=N`` process-pool fan-out, cache disabled;
3. **warm cache** — ``jobs=1`` against a cache populated by pass 1.

All three must produce identical speedup curves (asserted here; the
same guarantee is locked in by ``tests/test_parallel_harness.py``), so
any wall-clock difference is pure harness overhead.  Results land in
``BENCH_PR2.json`` together with host provenance — process-pool gains
scale with physical cores, so absolute numbers are only comparable on
the recorded host.

**--pr8** — load-tests the experiment-serving layer (asyncio front
end with request coalescing, cold-point batching, and the sharded
result cache — see docs/SERVING.md) against the naive pre-serving
path:

1. **served load** — boots a real HTTP server on an ephemeral port
   and fires hundreds of concurrent synthetic clients over a zipf-ish
   distribution of a mixed hot/cold tiny-scale point set, reporting
   throughput, p50/p99 latency, coalesce rate, and cache-hit rate;
   every distinct point's served bytes are diffed against a direct
   ``api.run_point`` call (identical or the benchmark fails);
2. **naive baseline** — the same request issued as the pre-PR8 world
   would: one fresh subprocess per request (interpreter + NumPy
   import + uncached simulation), giving the ``speedup_over_naive``
   figure (the acceptance gate is >= 5x; measured runs land around
   two orders of magnitude).

Results land in ``BENCH_PR8.json``.

**--pr9** — load-tests serving v2 (HTTP/1.1 keep-alive sessions,
bounded result cache, negative-result cache, hot payload tier — see
docs/SERVING.md):

1. **connection comparison** — the identical 500-client zipf schedule
   runs twice, over per-request connections and over keep-alive
   sessions (one persistent connection per simulated client); both
   fleets byte-verify against direct ``api.run_point``;
2. **acceptance** — keep-alive throughput must be >= 2x the
   per-request baseline BENCH_PR8.json recorded, the salted invalid
   requests must all be rejected (negative-cache hits > 0, none
   served), and the entry-bounded cache must evict (> 0) yet never
   exceed its bound.

Results land in ``BENCH_PR9.json``.

**--pr10** — A/Bs the sharing-policy layer (docs/POLICIES.md) on the
false-sharing stressor ``irreg`` at 8 processors over ``rdma``:

1. **policy ladder** — the default triple ``(page, none,
   first-touch)`` against ``block256``, ``block256``+``seq``, and
   ``block1k`` on the invalidate-based protocols (``hlrc_poll``,
   ``tmk_mc_poll``), comparing *simulated* execution time (the layer's
   product is simulated-time savings, so the gate is deterministic —
   no wall-clock noise);
2. **acceptance** — fine granularity + prefetch
   (``block256``+``seq``) must be >= 1.2x the default triple on at
   least one protocol, and every policy row's simulated values must be
   bit-identical to its default-triple row.

Results land in ``BENCH_PR10.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        [--jobs N] [--scale tiny] [--out BENCH_PR2.json]
    PYTHONPATH=src python benchmarks/bench_wallclock.py --pr8 \
        [--clients N] [--jobs N] [--out BENCH_PR8.json]
    PYTHONPATH=src python benchmarks/bench_wallclock.py --pr9 \
        [--clients N] [--serve-requests N] [--cache-max-entries N] \
        [--bad-every N] [--out BENCH_PR9.json]
    PYTHONPATH=src python benchmarks/bench_wallclock.py --pr10 \
        [--scale small] [--out BENCH_PR10.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro import api
from repro.config import CSM_POLL, TMK_MC_POLL
from repro.harness import figure5
from repro.harness.cache import ResultCache
from repro.harness.runner import ExperimentContext

APPS = ("sor", "water", "gauss")
VARIANTS = (CSM_POLL, TMK_MC_POLL)
COUNTS = (1, 4, 8, 16)


def _curves_signature(curves):
    return [(c.app, c.variant, sorted(c.points.items())) for c in curves]


def _generate(scale: str, jobs: int, cache) -> tuple:
    ctx = ExperimentContext(scale=scale, jobs=jobs, cache=cache)
    started = time.perf_counter()
    curves = figure5.generate(
        ctx, apps=APPS, variants=VARIANTS, counts=COUNTS
    )
    elapsed = time.perf_counter() - started
    return _curves_signature(curves), elapsed, ctx


def pr8_main(args) -> int:
    from repro.serving.loadgen import bench_serve

    clients = args.clients
    requests = args.serve_requests
    print(
        f"benchmarking the experiment-serving layer: {clients} concurrent "
        f"clients x {requests} requests (zipf {args.zipf}) over HTTP, "
        f"plus a {args.naive_requests}-request naive subprocess baseline",
        file=sys.stderr,
    )
    served = bench_serve(
        clients=clients,
        requests_per_client=requests,
        jobs=min(8, max(1, args.jobs)),
        zipf_s=args.zipf,
        seed=1234,
        naive_requests=args.naive_requests,
        http=True,
    )
    print(
        f"  served: {served['requests']} requests in "
        f"{served['wall_seconds']:.2f}s "
        f"({served['throughput_rps']:.1f} rps, "
        f"p50 {served['latency_ms']['p50']:.0f}ms / "
        f"p99 {served['latency_ms']['p99']:.0f}ms), "
        f"sources {served['sources']}",
        file=sys.stderr,
    )
    naive = served.get("naive_baseline")
    if naive:
        print(
            f"  naive subprocess-per-request baseline: "
            f"{naive['throughput_rps']:.2f} rps "
            f"-> speedup {served.get('speedup_over_naive')}x",
            file=sys.stderr,
        )
    failed = served["failed_requests"]
    identical = served["identical_results"]
    overlap = served["coalesce_rate"] > 0 or served["cache_hit_rate"] > 0
    fast_enough = served.get("speedup_over_naive", 0) >= 5
    report = {
        "benchmark": (
            "experiment-serving layer: asyncio HTTP front end with "
            "singleflight request coalescing, cold-point batching onto "
            "a persistent pre-forked worker pool, and the sharded "
            "on-disk result cache, vs the naive pre-serving path (one "
            "fresh subprocess per request)"
        ),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "served": served,
        "identical_results": identical,
        "acceptance": {
            "failed_requests": failed,
            "coalesce_or_hit_rate_positive": overlap,
            "speedup_over_naive_ge_5x": fast_enough,
            "served_byte_identical_to_direct": identical,
        },
        "notes": (
            "throughput_rps counts completed requests over the wall "
            "clock of the whole fleet; the zipf(1.2) schedule over a "
            "hottest-first mixed hot/cold point set means early bursts "
            "coalesce (many awaiters, one simulation) and later "
            "requests hit the sharded disk cache.  speedup_over_naive "
            "compares against one subprocess per request running the "
            "identical api.run_point call on the *hottest* (cheapest) "
            "point — the baseline's best case.  identity replays every "
            "distinct point through direct api.run_point and "
            "byte-compares the canonical result encoding; "
            "identical_results also requires every point to have "
            "served exactly one digest across all its requests."
        ),
    }
    out = args.out or str(
        Path(__file__).resolve().parent.parent / "BENCH_PR8.json"
    )
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if not (identical and failed == 0 and overlap and fast_enough):
        print("acceptance gate FAILED", file=sys.stderr)
        return 1
    return 0


def pr9_main(args) -> int:
    from repro.serving.loadgen import bench_serve

    clients = args.clients
    requests = args.serve_requests
    print(
        f"benchmarking serving v2: {clients} concurrent keep-alive "
        f"clients x {requests} requests (zipf {args.zipf}) vs the same "
        f"schedule over per-request connections, with a "
        f"{args.cache_max_entries}-entry cache bound and one invalid "
        f"request every {args.bad_every}",
        file=sys.stderr,
    )
    served = bench_serve(
        clients=clients,
        requests_per_client=requests,
        jobs=min(8, max(1, args.jobs)),
        zipf_s=args.zipf,
        seed=1234,
        http=True,
        compare_connections=True,
        bad_every=args.bad_every,
        cache_max_entries=args.cache_max_entries,
    )
    for mode, mode_report in served.get("modes", {}).items():
        print(
            f"  {mode}: {mode_report['completed']} requests in "
            f"{mode_report['wall_seconds']:.2f}s "
            f"({mode_report['throughput_rps']:.1f} rps, "
            f"p50 {mode_report['latency_ms']['p50']:.1f}ms / "
            f"p99 {mode_report['latency_ms']['p99']:.1f}ms)",
            file=sys.stderr,
        )
    # The acceptance ratio is against the PR 8 recorded baseline: the
    # same 500-client zipf fleet over the per-request transport as it
    # measured then (BENCH_PR8.json's served.throughput_rps).  The
    # fresh per_request mode above isolates connection reuse *alone*
    # on today's stack (both modes share the v2 hot-encode path, and
    # client + server share one event loop, so concurrency hides all
    # but the CPU cost of connection setup).
    pr8_path = Path(__file__).resolve().parent.parent / "BENCH_PR8.json"
    pr8_rps = None
    if pr8_path.exists():
        try:
            pr8_rps = json.loads(pr8_path.read_text())["served"][
                "throughput_rps"
            ]
        except (KeyError, ValueError):
            pr8_rps = None
    if pr8_rps is None:
        pr8_rps = served["modes"]["per_request"]["throughput_rps"]
    keepalive_rps = served["modes"]["keepalive"]["throughput_rps"]
    speedup_vs_pr8 = round(keepalive_rps / pr8_rps, 2) if pr8_rps else 0.0
    print(
        f"  keep-alive vs PR 8 per-request baseline ({pr8_rps} rps): "
        f"{speedup_vs_pr8}x; vs same-stack per-request: "
        f"{served.get('keepalive_speedup')}x",
        file=sys.stderr,
    )
    stats = served["server"]
    cache = stats["cache"]
    evictions = cache["stats"]["evictions"]
    negative_hits = stats["serving"]["negative_hits"]
    bound_held = cache["entries"] <= args.cache_max_entries
    failed = served["failed_requests"]
    identical = served["identical_results"]
    acceptance = {
        "failed_requests": failed,
        "keepalive_ge_2x_pr8_baseline": speedup_vs_pr8 >= 2.0,
        "served_byte_identical_to_direct": identical,
        "cache_evictions_positive": evictions > 0,
        "cache_bound_respected": bound_held,
        "negative_cache_hits_positive": negative_hits > 0,
        "invalid_rejected_not_served": (
            served["invalid_rejected"] == served["bad_requests"]
        ),
    }
    report = {
        "benchmark": (
            "serving layer v2: HTTP/1.1 keep-alive sessions vs "
            "per-request connections over the identical 500-client "
            "zipf schedule, with a bounded LRU result cache, negative-"
            "result caching of the salted invalid requests, and the "
            "hot payload tier splicing pre-encoded result bytes"
        ),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "pr8_baseline_rps": pr8_rps,
        "keepalive_rps": keepalive_rps,
        "speedup_vs_pr8_baseline": speedup_vs_pr8,
        "keepalive_speedup_same_stack": served.get("keepalive_speedup"),
        "served": served,
        "identical_results": identical,
        "acceptance": acceptance,
        "notes": (
            "speedup_vs_pr8_baseline divides keep-alive throughput by "
            "the per-request-connection throughput BENCH_PR8.json "
            "recorded for the same 500-client zipf fleet — the v2 "
            "serving path (connection reuse + the hot payload tier's "
            "pre-encoded result splice) over the v1 per-request path.  "
            "keepalive_speedup_same_stack re-runs the per-request "
            "transport on today's stack: both modes then share every "
            "v2 optimisation and one event loop runs client and "
            "server, so overlapped connects cost only their CPU and "
            "the ratio isolates connection setup alone.  Each mode's "
            "fleet byte-verifies against direct api.run_point, every "
            "Nth request is a known-invalid body that must be "
            "rejected (negative cache) and never served, and the "
            "8-entry cache bound must hold at the end of the storm."
        ),
    }
    out = args.out or str(
        Path(__file__).resolve().parent.parent / "BENCH_PR9.json"
    )
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if not all(
        v if isinstance(v, bool) else v == 0 for v in acceptance.values()
    ):
        print(f"acceptance gate FAILED: {acceptance}", file=sys.stderr)
        return 1
    return 0


def pr10_main(args) -> int:
    from repro.harness.policies import _values_equal

    app, nprocs, network = "irreg", 8, "rdma"
    variants = ("hlrc_poll", "tmk_mc_poll")
    policies = (
        ("page", "none"),  # the paper's triple (homing stays first-touch)
        ("block256", "none"),
        ("block256", "seq"),
        ("block1k", "none"),
    )
    print(
        f"benchmarking the sharing-policy layer: {app} x {nprocs}p on "
        f"{network} at scale={args.scale}, "
        f"{len(variants)} variants x {len(policies)} policy pairs "
        f"(simulated time, deterministic)",
        file=sys.stderr,
    )
    rows = []
    gate_speedups = {}
    identical = True
    for variant in variants:
        baseline = None
        for granularity, prefetch in policies:
            result = api.run_point(
                app,
                variant,
                nprocs,
                scale=args.scale,
                network=network,
                granularity=granularity,
                prefetch=prefetch,
            )
            if baseline is None:
                baseline = result
            values_ok = _values_equal(baseline.values, result.values)
            identical = identical and values_ok
            speedup = round(baseline.exec_time / result.exec_time, 2)
            if (granularity, prefetch) == ("block256", "seq"):
                gate_speedups[variant] = speedup
            rows.append(
                {
                    "variant": variant,
                    "granularity": granularity,
                    "prefetch": prefetch,
                    "exec_time_us": result.exec_time,
                    "speedup_vs_default": speedup,
                    "prefetches": result.counter("prefetches"),
                    "values_identical": values_ok,
                }
            )
            print(
                f"  {variant:12s} {granularity:9s}+{prefetch:4s} "
                f"{result.exec_time / 1000.0:10.1f}ms  "
                f"{speedup:5.2f}x  values_ok={values_ok}",
                file=sys.stderr,
            )
    best_gate = max(gate_speedups.values())
    acceptance = {
        "fine_granularity_plus_prefetch_ge_1_2x": best_gate >= 1.2,
        "identical_results": identical,
    }
    report = {
        "benchmark": (
            "sharing-policy layer: granularity/prefetch ladder vs the "
            "default (page, demand-fault) triple on the false-sharing "
            "stressor irreg, 8 processors, rdma backend — simulated "
            "execution time (deterministic; the layer's product is "
            "simulated-time savings, not wall clock)"
        ),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "scale": args.scale,
        "rows": rows,
        "gate_speedups_block256_seq": gate_speedups,
        "best_gate_speedup": best_gate,
        "identical_results": identical,
        "acceptance": acceptance,
        "notes": (
            "speedup_vs_default divides the default triple's simulated "
            "exec_time by the policy row's, per protocol variant.  The "
            "gate row is block256+seq (fine granularity + software "
            "re-validation prefetch) and must reach >= 1.2x on at "
            "least one invalidate-based protocol; every row's "
            "simulated values must match its default row bit-for-bit "
            "(the policy contract, docs/POLICIES.md).  All quantities "
            "are simulated and deterministic, so this gate cannot "
            "flake on a loaded CI host."
        ),
    }
    out = args.out or str(
        Path(__file__).resolve().parent.parent / "BENCH_PR10.json"
    )
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if not all(acceptance.values()):
        print(f"acceptance gate FAILED: {acceptance}", file=sys.stderr)
        return 1
    print(
        f"gate: block256+seq best {best_gate}x (>= 1.2x), "
        f"values identical: {identical}",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument(
        "--scale", default="tiny", choices=("tiny", "small", "large")
    )
    parser.add_argument(
        "--pr8",
        action="store_true",
        help=(
            "load-test the experiment-serving layer (concurrent HTTP "
            "clients vs naive subprocess-per-request baseline)"
        ),
    )
    parser.add_argument(
        "--pr9",
        action="store_true",
        help=(
            "load-test serving v2 (keep-alive vs per-request "
            "connections, bounded cache, negative-result cache)"
        ),
    )
    parser.add_argument(
        "--pr10",
        action="store_true",
        help=(
            "A/B the sharing-policy layer (granularity/prefetch ladder "
            "on irreg 8p rdma; simulated-time gate, deterministic)"
        ),
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=500,
        help="--pr8/--pr9: number of concurrent synthetic clients",
    )
    parser.add_argument(
        "--serve-requests",
        type=int,
        default=2,
        help="--pr8/--pr9: sequential requests per client "
        "(--pr9 defaults to 8 so a client's session amortises)",
    )
    parser.add_argument(
        "--zipf",
        type=float,
        default=1.2,
        help="--pr8/--pr9: zipf exponent for point popularity",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=8,
        help="--pr9: server result-cache entry bound (forces eviction)",
    )
    parser.add_argument(
        "--bad-every",
        type=int,
        default=25,
        help="--pr9: salt every Nth request with a known-invalid body",
    )
    parser.add_argument(
        "--naive-requests",
        type=int,
        default=3,
        help="--pr8: requests for the subprocess-per-request baseline",
    )
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.pr8:
        return pr8_main(args)
    if args.pr9:
        if "--serve-requests" not in (argv or sys.argv):
            args.serve_requests = 8
        return pr9_main(args)
    if args.pr10:
        if "--scale" not in (argv or sys.argv):
            args.scale = "small"
        return pr10_main(args)
    if args.out is None:
        args.out = str(
            Path(__file__).resolve().parent.parent / "BENCH_PR2.json"
        )

    n_points = len(APPS) * (1 + len(VARIANTS) * len(COUNTS))
    print(
        f"benchmarking figure5 slice: {len(APPS)} apps x {len(VARIANTS)} "
        f"variants x {len(COUNTS)} counts ({n_points} simulation points), "
        f"scale={args.scale}",
        file=sys.stderr,
    )

    serial_sig, serial_s, _ = _generate(args.scale, jobs=1, cache=None)
    print(f"  serial   (jobs=1, no cache): {serial_s:8.2f}s", file=sys.stderr)

    parallel_sig, parallel_s, _ = _generate(
        args.scale, jobs=args.jobs, cache=None
    )
    print(
        f"  parallel (jobs={args.jobs}, no cache): {parallel_s:8.2f}s",
        file=sys.stderr,
    )

    with tempfile.TemporaryDirectory(prefix="repro-dsm-bench-") as tmp:
        cache_dir = Path(tmp)
        cold_sig, cold_s, cold_ctx = _generate(
            args.scale, jobs=1, cache=ResultCache(cache_dir=cache_dir)
        )
        warm_sig, warm_s, warm_ctx = _generate(
            args.scale, jobs=1, cache=ResultCache(cache_dir=cache_dir)
        )
    print(
        f"  cold cache: {cold_s:8.2f}s ({cold_ctx.cache.stats}); "
        f"warm cache: {warm_s:8.2f}s ({warm_ctx.cache.stats})",
        file=sys.stderr,
    )

    assert serial_sig == parallel_sig, "parallel results diverge from serial"
    assert serial_sig == cold_sig, "cached-run results diverge from serial"
    assert serial_sig == warm_sig, "cache-hit results diverge from serial"
    print("  all four passes bit-identical", file=sys.stderr)

    report = {
        "benchmark": "figure5-slice wall clock (serial vs --jobs vs cache)",
        "slice": {
            "apps": list(APPS),
            "variants": [v.name for v in VARIANTS],
            "counts": list(COUNTS),
            "scale": args.scale,
            "simulation_points": n_points,
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "seconds": {
            "serial_jobs1": round(serial_s, 3),
            f"parallel_jobs{args.jobs}": round(parallel_s, 3),
            "cold_cache_jobs1": round(cold_s, 3),
            "warm_cache_jobs1": round(warm_s, 3),
        },
        "speedup_over_serial": {
            f"parallel_jobs{args.jobs}": round(serial_s / parallel_s, 2),
            "warm_cache": round(serial_s / warm_s, 2),
        },
        "cache": {
            "cold": {
                "hits": cold_ctx.cache.stats.hits,
                "misses": cold_ctx.cache.stats.misses,
            },
            "warm": {
                "hits": warm_ctx.cache.stats.hits,
                "misses": warm_ctx.cache.stats.misses,
            },
        },
        "identical_results": True,
        "notes": (
            "process-pool gains scale with physical cores: on a "
            f"{os.cpu_count()}-core host, expect --jobs N to approach "
            "min(N, cores)x on the dominant points; on 1 core the pool "
            "only adds overhead and the cache provides the win"
        ),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
