"""Command lines: one workload (``run.py``), the whole suite, compare."""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import procstat, report, spec

WORKLOADS = spec.SIM_WORKLOADS + spec.SERVE_WORKLOADS


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    fault: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload in this interpreter; returns its result record
    with the host's state around the run attached."""
    load_before = procstat.loadavg1()
    if workload in spec.SIM_WORKLOADS:
        from . import simwork

        result = simwork.run(workload, seconds, trace, quick, fault)
    else:
        from . import servework

        run = servework.run_hit if workload == "serve_hit" else servework.run_miss
        result = run(seed, seconds, trace, quick, fault)
    load_after = procstat.loadavg1()
    host = procstat.host_record()
    host.update(
        spin_ms=statistics.median(result["samples"]["host_spin_ms"]),
        loadavg_before=load_before,
        loadavg_after=load_after,
        # Busier than it has cores: timings from this run are suspect.
        host_noisy=max(load_before, load_after) > host["nproc"],
    )
    result.update(workload=workload, seed=seed, trace=trace, quick=quick, host=host)
    return result


def emit(result: Dict[str, Any]) -> None:
    """Print every metric of the run's section by name with unit and n,
    then the one-line result object the driver reads."""
    section = "per_layer" if result["trace"] else "end_to_end"
    units = spec.units(section)
    # A metric the workload does not exercise reads 0 (per-layer only;
    # every end-to-end metric is defined on every workload).
    values = {name: result[section].get(name, 0.0) for name in units}
    for name, value in values.items():
        print(f"{name:<34} {value:>16.6f} {units[name]:<6} n={result['n']}")
    for problem in result["failures"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )


def workload_main(argv: Optional[List[str]] = None) -> int:
    """``run.py``: the command ``BENCHMARK.json`` names."""
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec.load_contract()["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="smoke-sized inputs; numbers not comparable"
    )
    parser.add_argument("--out", metavar="FILE", help="also write the full record here")
    # For the self-tests: break a check on purpose and see the run fail.
    parser.add_argument(
        "--inject-fault", choices=("values", "reference"), help=argparse.SUPPRESS
    )
    # For simwork.time_setup: set up, print the clock, exit.
    parser.add_argument("--setup-probe", choices=spec.SIM_WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        from . import simwork

        simwork.set_up(args.setup_probe)
        print(time.perf_counter())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.quick,
        args.inject_fault,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    emit(result)
    return 1 if result["failed"] else 0


def run_suite(args: argparse.Namespace) -> int:
    """Every chosen workload, each in its own fresh interpreter."""
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records: List[Dict[str, Any]] = []
    status = 0
    with procstat.scratch_dir("suite-") as scratch:
        for workload in workloads:
            for trace in (0, 1) if args.traced else (0,):
                out = scratch / f"{workload}.{trace}.json"
                command = [
                    sys.executable,
                    str(spec.SUITE_DIR / "run.py"),
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--out", str(out),
                ] + (["--quick"] if args.quick else [])
                print(f"== {workload} ({'traced' if trace else 'untraced'})", flush=True)
                status |= subprocess.run(command).returncode
                if out.exists():
                    records.append(json.loads(out.read_text()))
    document = report.document(records)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
        print(f"wrote {args.out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m benchmarks.suite``."""
    parser = argparse.ArgumentParser(prog="benchmarks.suite", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, print and store every metric")
    run.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seconds", type=float, default=spec.load_contract()["run_seconds"]
    )
    run.add_argument("--traced", action="store_true", help="add the per-layer pass")
    run.add_argument(
        "--quick",
        action="store_true",
        help="one pass of smoke-sized inputs (whole suite under 30 s); "
        "numbers are not comparable with a full run",
    )
    run.add_argument("--out", metavar="FILE", help="write the result document here")
    compare = commands.add_parser("compare", help="judge document B against A")
    compare.add_argument("a", metavar="A.json")
    compare.add_argument("b", metavar="B.json")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_suite(args)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    lines, regressed = report.compare(a, b)
    print("\n".join(lines))
    return 1 if regressed else 0
