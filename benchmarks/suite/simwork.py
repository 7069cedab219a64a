"""The two simulator workloads: ``fig5_8p`` and ``share_64p``.

Both run single-threaded in this interpreter (``jobs=1``, result cache
off), which the caller starts fresh for every run so ``ru_maxrss`` is the
workload's own high-water mark.  Inputs are fixed — the slice of the
paper's matrix *is* the workload — so ``--seed`` changes nothing here.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import checks, procstat, spec, tracing

#: ``(app, variant or None for the sequential run, nprocs)``.
Point = Tuple[str, Optional[str], int]

# The 64-processor points where per-processor work is tiny, so engine,
# protocol and messaging carry the run (see README, "Workloads").
_SHARE_64P: Tuple[Point, ...] = (
    ("sor", "tmk_mc_poll", 64),
    ("sor", "hlrc_poll", 64),
    ("em3d", "tmk_mc_poll", 64),
    ("em3d", "csm_poll", 64),
    ("irreg", "hlrc_poll", 64),
)

#: Fresh interpreters started only to time set-up (imports and app-module
#: load); the reported ``setup_s`` is their median.
SETUP_PROBES = 5


def points_of(workload: str, quick: bool = False) -> List[Point]:
    if workload == "share_64p":
        # The smoke run keeps the three sub-100 MB points.
        return list(_SHARE_64P[2:] if quick else _SHARE_64P)
    from repro.apps import registry

    points: List[Point] = []
    for app in registry.APP_NAMES:
        points.append((app, None, 1))
        points.append((app, "csm_poll", 8))
        points.append((app, "tmk_mc_poll", 8))
    return points


def set_up(workload: str) -> None:
    """Everything before the first timed operation: import the stack and
    load the app modules the workload runs."""
    from repro import api  # noqa: F401  (the import is the cost)
    from repro.apps import registry
    from repro.harness import runner  # noqa: F401

    for app in {point[0] for point in points_of(workload)}:
        registry.load(app)


def time_setup(workload: str, probes: int = SETUP_PROBES) -> List[float]:
    """Seconds from interpreter start to ready, in ``probes`` fresh
    interpreters (``perf_counter`` is one clock for every process)."""
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(spec.SUITE_DIR / "run.py"), "--setup-probe", workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]) - started)
    return samples


def scale_of(workload: str, quick: bool) -> str:
    # The smoke run shrinks fig5_8p's problems; share_64p drops points
    # instead (water has fewer than 64 molecules at tiny scale).
    return "tiny" if quick and workload == "fig5_8p" else "small"


def _runner(workload: str, scale: str) -> Callable[[Point], Any]:
    """How one point of this workload is run through the public API."""
    if workload == "share_64p":
        from repro import api

        return lambda p: api.run_point(p[0], p[1], p[2], scale=scale)
    from repro.config import variant_by_name
    from repro.harness.runner import BatchPoint, ExperimentContext

    # One context per pass: its sequential-baseline memo would otherwise
    # turn every later pass's sequential points into lookups.
    ctx = ExperimentContext(scale=scale, jobs=1, cache=None)
    return lambda p: ctx.run_batch(
        [BatchPoint(p[0], variant_by_name(p[1]) if p[1] else None, p[2])]
    )[0]


class Pass:
    """One timed pass over a workload's points.

    The garbage collector runs before every point, outside the clock:
    the simulator leaves each finished system as cyclic garbage, and
    whether the collector happens to fire before the next point's peak
    moved ``ru_maxrss`` between 174 and 227 MB on ``fig5_8p`` for changes
    as small as one more list in this file.  Of each result only the
    answer and the counts are kept, so passes do not pile up either.
    """

    def __init__(self, workload: str, quick: bool, profile: bool = False):
        points = points_of(workload, quick)
        self.scale = scale_of(workload, quick)
        run_point = _runner(workload, self.scale)
        self.answers: Dict[Point, Any] = {}  # values[0] per point
        self.failures: List[str] = []
        self.point_wall_s: List[float] = []
        self.counts = checks.ExactCounts()
        self.cpu_s = 0.0
        self.spin_ms: List[float] = []
        self.profile = cProfile.Profile() if profile else None
        for point in points:
            gc.collect()
            self.spin_ms.append(procstat.spin_ms())
            result = None
            wall = time.perf_counter()
            cpu = time.process_time()
            if self.profile is not None:
                self.profile.enable()
            try:
                result = run_point(point)
            except Exception:  # a failed point is a counted failure
                self.failures.append(f"{point}: {traceback.format_exc()}")
            if self.profile is not None:
                self.profile.disable()
            self.cpu_s += time.process_time() - cpu
            self.point_wall_s.append(time.perf_counter() - wall)
            if result is not None:
                self.answers[point] = result.values[0]
                self.counts.add(result)
        self.wall_s = sum(self.point_wall_s)
        self.attempted = len(points)


def verify(
    answers: Dict[Point, Any],
    scale: str,
    sequential: Dict[str, Any],
    perturb: float = 0.0,
) -> List[str]:
    """Points whose answer differs from their sequential run's.

    ``sequential`` memoises each app's sequential answer across passes;
    runs missing from ``answers`` (``share_64p`` has none) are made here,
    outside every timed region.  ``perturb`` scales the reference — the
    self-tests use it to prove the check is live.
    """
    from repro import api

    wrong = []
    for (app, variant, nprocs), answer in answers.items():
        if variant is None:
            continue
        if app not in sequential:
            if (app, None, 1) in answers:
                sequential[app] = answers[(app, None, 1)]
            else:
                sequential[app] = api.run_point(app, scale=scale).values[0]
        expected = sequential[app]
        if perturb:
            expected = _scaled(expected, 1.0 + perturb)
        if not checks.values_match(expected, answer):
            wrong.append(f"{app}/{variant}/{nprocs}p differs from sequential")
    return wrong


def _scaled(value: Any, factor: float) -> Any:
    if isinstance(value, (tuple, list)):
        return [_scaled(v, factor) for v in value]
    return value * factor


def run(
    workload: str,
    seconds: float,
    trace: bool,
    quick: bool = False,
    fault: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure one simulator workload; see ``cli.emit`` for the shape."""
    setup_samples = time_setup(workload, 1 if quick else SETUP_PROBES)
    set_up(workload)
    warmup_s = 0.0
    if workload == "share_64p" and not quick:
        # First touch of ~500 MB costs 0.5-1.7 s of kernel time on this
        # class of host, varying 4x from run to run, and a pass that
        # faults also runs slower in user mode.  One untimed pass grows
        # the allocator's arena, so the timed passes measure the
        # simulator and not the page-fault path.
        warmup_s = Pass(workload, quick).wall_s
    setup_s = statistics.median(setup_samples) + warmup_s

    sequential: Dict[str, Any] = {}
    perturb = 1e-3 if fault == "values" else 0.0
    passes: List[Pass] = []
    spent = 0.0  # timed seconds only; checking between passes is free
    while True:
        passes.append(Pass(workload, quick))
        spent += passes[-1].wall_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes[-1].failures += verify(
            passes[-1].answers, passes[-1].scale, sequential, perturb
        )
        if quick or trace or spent + passes[-1].wall_s > seconds:
            break

    traced: Optional[Pass] = None
    counter = tracing.EventCounter()
    if trace:
        counter.install()
        try:
            traced = Pass(workload, quick, profile=True)
        finally:
            counter.remove()
        traced.failures += verify(traced.answers, traced.scale, sequential, perturb)

    every = passes + ([traced] if traced else [])
    attempted = sum(one.attempted for one in every)
    failures = [problem for one in every for problem in one.failures]
    crcs = {one.counts.metrics(0)["sim.stats_crc"] for one in every}
    if len(crcs) > 1:
        failures.append(f"passes disagree on sim.stats_crc: {sorted(crcs)}")

    n_points = passes[0].attempted
    samples = {
        "cpu_ms_per_req": [p.cpu_s * 1e3 / n_points for p in passes],
        "req_per_s": [n_points / p.wall_s for p in passes],
        "host_cpu_s": [p.cpu_s for p in passes],
        "point_wall_s": [p.point_wall_s for p in passes],
        "setup_probe_s": setup_samples,
        "host_spin_ms": [ms for p in passes for ms in p.spin_ms],
    }
    end_to_end = {
        name: statistics.median(samples[name])
        for name in ("cpu_ms_per_req", "req_per_s")
    }
    end_to_end["peak_rss_mb"] = peak_rss_mb
    end_to_end["setup_s"] = setup_s

    per_layer: Dict[str, float] = {}
    if traced is not None:
        layer_self = tracing.fold_profile(tracing.profile_stats(traced.profile))
        per_layer = tracing.layer_table(layer_self)
        per_layer.update(traced.counts.metrics(counter.events))
        engine_s = per_layer["sim.engine.self_s"]
        per_layer["sim.engine.ns_per_event"] = (
            engine_s * 1e9 / counter.events if counter.events else 0.0
        )
        untraced_cpu = statistics.median(samples["host_cpu_s"])
        per_layer["trace.overhead_ratio"] = traced.cpu_s / untraced_cpu
        # Per-point wall of the public execute path, from the untraced
        # pass (the profiler would double it).
        per_layer["harness.parallel.execute_us"] = (
            statistics.fmean(passes[0].point_wall_s) * 1e6
        )

    return {
        "n": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": samples,
        "notes": {"warmup_s": warmup_s, "scale": scale_of(workload, quick)},
    }
