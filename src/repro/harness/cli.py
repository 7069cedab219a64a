"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    repro-dsm table1
    repro-dsm table2 --scale large
    repro-dsm table3 --apps sor lu --procs 16
    repro-dsm figure5 --apps sor --variants csm_poll tmk_mc_poll
    repro-dsm figure6 --warm-start
    repro-dsm trace sor --variants csm_poll tmk_mc_poll --trace-out out.jsonl
    repro-dsm run sor --variant csm_poll --trace-out sor.json --trace-format chrome

The full subcommand reference lives in README.md; the trace file
formats and event catalog in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path
from typing import List, Optional

from repro import api
from repro.config import CONTEXT_KNOBS, KNOBS, variant_by_name
from repro.harness.declaration import (
    APP_CHOICES,
    LIST_KINDS,
    VARIANT_CHOICES,
    Param,
    positive_int,
)
from repro.harness.cache import ResultCache
from repro.harness.runner import ExperimentContext
from repro.stats.export import EXPORT_FORMATS, export_runs
from repro.stats.trace import diff_traces


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="small",
        choices=("tiny", "small", "large", "xlarge", "paper"),
        help=(
            "problem-size tier (see each app's default_params); "
            "'paper' is an alias for xlarge, the paper's full-size "
            "inputs — overnight territory, see EXPERIMENTS.md"
        ),
    )
    parser.add_argument(
        "--cold-start",
        action="store_true",
        help=(
            "include cold data distribution in the timed run (the "
            "default pre-validates copies, matching the paper's "
            "amortisation; see DESIGN.md)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help=(
            "record protocol events for every run of this command and "
            "export them to PATH (see docs/OBSERVABILITY.md)"
        ),
    )
    parser.add_argument(
        "--trace-format",
        choices=EXPORT_FORMATS,
        default=None,
        help=(
            "trace export format: jsonl (lossless, default) or chrome "
            "(Perfetto / chrome://tracing)"
        ),
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run independent simulation points on N worker processes "
            "(results are bit-identical to --jobs 1)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "result-cache directory (default: $REPRO_DSM_CACHE, then "
            "~/.cache/repro-dsm)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every point and overwrite any cached results",
    )
    for name in CONTEXT_KNOBS:
        knob = KNOBS[name]
        param = Param(name, knob.kind, help=knob.help, choices=knob.choices)
        _add_param(parser, param)
    parser.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help=(
            "profile this invocation with cProfile and dump the stats "
            "to FILE (inspect with 'python -m pstats FILE'); use "
            "--jobs 1, worker processes are not profiled"
        ),
    )


def _context(args: argparse.Namespace) -> ExperimentContext:
    cache = None
    if not args.no_cache:
        cache = ResultCache(
            cache_dir=Path(args.cache_dir) if args.cache_dir else None,
            refresh=args.refresh,
        )
    # Only the knobs actually given: the rest keep RunConfig's defaults.
    overrides = {
        name: getattr(args, name)
        for name in CONTEXT_KNOBS
        if getattr(args, name) not in (None, False)
    }
    return ExperimentContext(
        scale=args.scale,
        warm_start=not args.cold_start,
        trace=args.trace_out is not None,
        jobs=args.jobs,
        cache=cache,
        overrides=overrides,
    )


def _positive_int(text: str) -> int:
    """argparse type for processor counts (the counts/procs kind)."""
    try:
        return positive_int(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer"
        ) from None


def _knob_int(param: Param, text: str) -> int:
    """argparse type for an int run knob (the knob kind): checked by
    the knob's declaration."""
    try:
        value = int(text)
    except ValueError:
        value = text  # refused below, in the knob's own words
    try:
        return param.check(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_param(parser: argparse.ArgumentParser, param: Param) -> None:
    """The CLI option of one declared driver parameter.

    Every option defaults to None, which ``run_experiment`` reads as
    "the declared default".
    """
    options = {"dest": param.name, "help": param.help}
    if param.kind == "bool":
        options["action"] = "store_true"
    else:
        if param.kind in LIST_KINDS:
            options["nargs"] = "+"
        if param.kind in ("counts", "procs"):
            options["type"] = _positive_int
        elif param.kind == "knob":
            options["type"] = partial(_knob_int, param)
        else:
            options["choices"] = param.values
    parser.add_argument(param.option, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dsm",
        description=(
            "Regenerate the tables and figures of 'VM-Based Shared Memory "
            "on Low-Latency, Remote-Memory-Access Networks' (ISCA 1997)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    shared = vars(common.parse_args([]))

    for name, module in api.DRIVERS.items():
        driver = sub.add_parser(name, help=module.HELP, parents=[common])
        for param in module.PARAMS:
            # A parameter named like a shared option (policies'
            # ``network``) reads that option.
            if param.name not in shared:
                _add_param(driver, param)
        if hasattr(module, "chart"):
            driver.add_argument(
                "--chart",
                action="store_true",
                help="also render the result as an ASCII chart",
            )

    tr = sub.add_parser(
        "trace",
        help="run an application under tracing and export the event "
        "timeline (JSONL or Chrome trace format)",
        parents=[common],
    )
    tr.add_argument("app", choices=APP_CHOICES)
    tr.add_argument(
        "--variants",
        nargs="+",
        default=["csm_poll"],
        choices=VARIANT_CHOICES,
        help="protocol variants to trace (two traces of the same app "
        "are aligned and diffed)",
    )
    tr.add_argument("--procs", type=_positive_int, default=8)
    tr.add_argument(
        "--format",
        choices=EXPORT_FORMATS,
        default=None,
        help="alias for --trace-format",
    )
    tr.add_argument(
        "--limit",
        type=int,
        default=0,
        help="also print the first N events of each trace",
    )

    sv = sub.add_parser(
        "serve",
        help="serve experiment points over HTTP (async front end with "
        "request coalescing, cold-point batching, and the sharded "
        "result cache; see docs/SERVING.md)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port",
        type=int,
        default=8377,
        help="listen port (0 picks an ephemeral port)",
    )
    sv.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=0,
        metavar="N",
        help="simulation worker processes (0 = one in-process worker "
        "thread; N>0 = persistent process pool)",
    )
    sv.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="cold-point arrival window: requests within it batch onto "
        "one pool submission round",
    )
    sv.add_argument(
        "--max-batch",
        type=int,
        default=32,
        metavar="N",
        help="flush a batch early once this many cold points pend",
    )
    sv.add_argument("--cache-dir", metavar="DIR", default=None)
    sv.add_argument("--no-cache", action="store_true")
    sv.add_argument(
        "--refresh",
        action="store_true",
        help="treat every lookup as a miss (recompute and overwrite)",
    )
    sv.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="close a keep-alive connection after S idle seconds "
        "(0 = never)",
    )
    sv.add_argument(
        "--max-requests-per-conn",
        type=int,
        default=0,
        metavar="N",
        help="close a keep-alive connection after N requests "
        "(0 = unlimited)",
    )
    sv.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        metavar="N",
        help="reject point requests with 429 + Retry-After once N are "
        "in flight (0 = unbounded)",
    )
    sv.add_argument(
        "--negative-ttl",
        type=float,
        default=60.0,
        metavar="S",
        help="seconds an invalid request body stays in the negative "
        "cache",
    )
    sv.add_argument(
        "--cache-max-bytes",
        type=int,
        default=0,
        metavar="B",
        help="bound the result cache to B bytes, LRU eviction "
        "(0 = unbounded)",
    )
    sv.add_argument(
        "--cache-max-entries",
        type=int,
        default=0,
        metavar="N",
        help="bound the result cache to N entries, LRU eviction "
        "(0 = unbounded)",
    )
    sv.add_argument(
        "--cache-sweep-interval",
        type=float,
        default=0.0,
        metavar="S",
        help="background cache-bound sweep period in seconds "
        "(0 = inline eviction only)",
    )
    sv.add_argument(
        "--hot-entries",
        type=int,
        default=256,
        metavar="N",
        help="in-memory hot payload tier size (0 disables)",
    )
    sv.add_argument(
        "--max-sweep-points",
        type=int,
        default=4096,
        metavar="N",
        help="largest point count one POST /v1/sweep may expand to",
    )

    ca = sub.add_parser(
        "cache",
        help="inspect or trim the on-disk result cache "
        "(stats | prune | clear)",
    )
    ca.add_argument(
        "action",
        choices=("stats", "prune", "clear"),
        help="stats: print the cache summary as JSON (the same shape "
        "GET /v1/stats nests under 'cache'); prune: LRU-evict down to "
        "the given bounds; clear: remove every entry",
    )
    ca.add_argument("--cache-dir", metavar="DIR", default=None)
    ca.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="B",
        help="prune: byte bound to enforce (0 = unbounded)",
    )
    ca.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="prune: entry bound to enforce (0 = unbounded)",
    )

    one = sub.add_parser(
        "run", help="one application run, in detail", parents=[common]
    )
    one.add_argument("app", choices=APP_CHOICES)
    one.add_argument("--variant", default="csm_poll", choices=VARIANT_CHOICES)
    one.add_argument("--procs", type=_positive_int, default=8)
    one.add_argument(
        "--trace",
        action="store_true",
        help="print the protocol event trace",
    )
    one.add_argument(
        "--trace-limit",
        type=int,
        default=200,
        help="maximum trace events to print",
    )

    return parser


def _run_trace(ctx: ExperimentContext, args: argparse.Namespace) -> None:
    """The ``trace`` subcommand: run, summarize, and diff traces."""
    traces = {}
    for name in args.variants:
        variant = variant_by_name(name)
        result = ctx.run(args.app, variant, args.procs, trace=True)
        traces[name] = result.trace
        counts = result.trace.counts()
        print(
            f"{args.app} under {name} on {args.procs} processors: "
            f"{len(result.trace):,} events in "
            f"{result.exec_time / 1e6:.3f} simulated seconds"
        )
        for kind in sorted(counts):
            print(f"  {kind:<20}: {counts[kind]:,}")
        if args.limit:
            print(f"\nfirst {args.limit} events of {name}:")
            print(result.trace.render(limit=args.limit))
            print()
    if len(args.variants) == 2:
        a, b = args.variants
        print(f"\n--- trace diff: {a} vs {b} ---")
        print(diff_traces(traces[a], traces[b], a, b).render())


def _run_one(ctx: ExperimentContext, args: argparse.Namespace) -> None:
    from repro.stats import Category

    variant = variant_by_name(args.variant)
    sequential = ctx.sequential(args.app)
    result = ctx.run(args.app, variant, args.procs, trace=args.trace or ctx.trace)
    speedup = result.speedup_over(sequential.exec_time)
    print(f"{args.app} on {args.procs} processors under {variant.name}")
    print(f"  sequential : {sequential.exec_time / 1e6:10.3f} s")
    print(f"  parallel   : {result.exec_time / 1e6:10.3f} s "
          f"(speedup {speedup:.2f}x)")
    fractions = result.breakdown.fractions()
    print("  breakdown  : " + "  ".join(
        f"{c.value}={fractions[c]:.1%}" for c in Category
    ))
    agg = result.stats.aggregate_counters()
    interesting = (
        "read_faults", "write_faults", "page_transfers", "page_fetches",
        "twins_created", "diffs_created", "messages", "rdma_reads",
        "data_bytes", "write_through_bytes", "gc_rounds",
        "prefetches", "home_migrations",
    )
    for name in interesting:
        if agg[name]:
            print(f"  {name:<20}: {agg[name]:,}")
    if args.trace:
        print(f"\nfirst {args.trace_limit} protocol events:")
        print(result.trace.render(limit=args.trace_limit))


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the HTTP server until stopped."""
    import asyncio
    import signal

    from repro.serving import ExperimentServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        refresh=args.refresh,
        idle_timeout_s=args.idle_timeout,
        max_requests_per_conn=args.max_requests_per_conn,
        max_inflight=args.max_inflight,
        negative_ttl_s=args.negative_ttl,
        cache_max_bytes=args.cache_max_bytes,
        cache_max_entries=args.cache_max_entries,
        cache_sweep_interval_s=args.cache_sweep_interval,
        hot_entries=args.hot_entries,
        max_sweep_points=args.max_sweep_points,
    )

    async def run() -> None:
        server = ExperimentServer(config=config)
        host, port = await server.start()
        workers = (
            f"{config.jobs} worker process(es)"
            if config.jobs > 0
            else "1 in-process worker thread"
        )
        banner = (
            f"[serve] listening on http://{host}:{port} "
            f"({workers}, batch window {config.batch_window_ms}ms)"
        )
        cache = server.service.cache
        if cache is not None:
            summary = cache.summary()
            banner += (
                f"\n[serve] cache {summary['cache_dir']}: "
                f"{summary['entries']} entr(ies) in "
                f"{summary['shards']} shard(s)"
            )
        else:
            banner += "\n[serve] result cache disabled"
        print(banner, file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:
                pass
        await stop.wait()
        print("[serve] draining in-flight requests...", file=sys.stderr)
        await server.shutdown(drain=True)
        print(
            f"[serve] done: {server.service.stats.as_dict()}",
            file=sys.stderr,
        )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """The ``cache`` subcommand: stats / prune / clear as JSON."""
    import json

    if args.action == "stats":
        payload = api.cache_info(cache_dir=args.cache_dir)
    elif args.action == "prune":
        payload = api.cache_prune(
            max_bytes=args.max_bytes,
            max_entries=args.max_entries,
            cache_dir=args.cache_dir,
        )
    else:  # clear
        payload = api.cache_prune(cache_dir=args.cache_dir, clear=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _dispatch(args)
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(
                f"[profile: wrote {args.profile}; inspect with "
                f"'python -m pstats {args.profile}' (try "
                f"'sort cumtime' then 'stats 25')]",
                file=sys.stderr,
            )
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    ctx = _context(args)
    started = time.time()
    module = api.DRIVERS.get(args.command)
    if module is not None:
        kwargs = {p.name: getattr(args, p.name) for p in module.PARAMS}
        result = api.run_experiment(args.command, ctx=ctx, **kwargs)
        print(result.text)
        if getattr(args, "chart", False):
            print()
            print(module.chart(result.rows))
    elif args.command == "trace":
        _run_trace(ctx, args)
    elif args.command == "run":
        _run_one(ctx, args)
    if args.trace_out:
        fmt = (
            getattr(args, "format", None) or args.trace_format or "jsonl"
        )
        if ctx.trace_runs:
            try:
                export_runs(ctx.trace_runs, args.trace_out, format=fmt)
            except OSError as exc:
                print(
                    f"error: cannot write trace to {args.trace_out}: {exc}",
                    file=sys.stderr,
                )
                return 1
            total = sum(len(run.events) for run in ctx.trace_runs)
            print(
                f"[trace: {len(ctx.trace_runs)} run(s), {total:,} events "
                f"-> {args.trace_out} ({fmt})]",
                file=sys.stderr,
            )
        else:
            print(
                f"[trace: no runs recorded; nothing written to "
                f"{args.trace_out}]",
                file=sys.stderr,
            )
    footer = (
        f"\n[{args.command} regenerated in {time.time() - started:.1f}s "
        f"wall time, scale={args.scale}, jobs={args.jobs}"
    )
    if ctx.cache is not None:
        footer += f", cache: {ctx.cache.stats}"
    print(footer + "]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
