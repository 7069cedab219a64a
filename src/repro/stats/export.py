"""Structured trace export: JSONL and Chrome trace-event format.

A trace file is *self-describing*: every exported run carries a
metadata record (variant, scale, processor count, cluster topology,
the full cost-model constants, aggregate counters, and the Figure 6
breakdown), so a file on disk can be interpreted without the command
line that produced it.

Two formats:

* **JSONL** (``format="jsonl"``) — one JSON object per line.  Each run
  starts with a ``{"type": "run", ...}`` metadata record followed by
  one ``{"type": "event", ...}`` record per trace event.  Lossless:
  :func:`read_jsonl` reconstructs the exact event sequence.
* **Chrome trace-event** (``format="chrome"``) — a single JSON object
  loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
  Each run becomes one process, each simulated processor one track
  (thread); coherence events render as instants and compute/comm spans
  as durations.  Timestamps are simulated microseconds.

Schemas are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, IO, List, Optional, Sequence, Union

from repro.stats.trace import TraceEvent, Tracer

#: bumped when a record's shape changes; readers should check it
TRACE_SCHEMA_VERSION = 2

EXPORT_FORMATS = ("jsonl", "chrome")

#: Chrome thread id used for protocol-processor events (their simulated
#: pid is -1, which trace viewers handle poorly as a thread id).
PP_TRACK_OFFSET = 1000


def _json_default(value):
    """Serialize NumPy scalars and other non-JSON leaves."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value)
    return str(value)


def run_metadata(result, scale: Optional[str] = None) -> Dict[str, Any]:
    """Provenance for one :class:`repro.core.RunResult`.

    Everything needed to interpret (or re-run) the trace: program,
    variant, processor count, cluster topology, the full cost model and
    every other ``RunConfig`` field under ``flags``, plus the run's
    aggregate outcome.
    """
    cfg = result.config
    meta: Dict[str, Any] = {
        "type": "run",
        "schema": TRACE_SCHEMA_VERSION,
        "generator": "repro-dsm",
        "program": result.program,
        "variant": cfg.variant.name,
        "system": cfg.variant.system.value,
        "mechanism": cfg.variant.mechanism.value,
        "transport": cfg.variant.transport.value,
        "nprocs": cfg.nprocs,
        "scale": scale,
        "network": cfg.network,
        "cluster": asdict(cfg.cluster),
        "costs": asdict(cfg.costs),
        "flags": {},
        "exec_time_us": result.exec_time,
        "network_bytes": result.network_bytes,
        # Sorted: the bytes must not depend on which counter ticked first.
        "counters": dict(sorted(result.stats.aggregate_counters().items())),
        "breakdown_us": result.breakdown.as_dict(),
    }
    # Every other run knob, so a file names the exact run (a field
    # added to RunConfig later lands here without being listed).
    for knob in fields(cfg):
        if knob.name not in meta:
            meta["flags"][knob.name] = getattr(cfg, knob.name)
    if result.trace is not None:
        meta["events"] = len(result.trace)
    return meta


@dataclass
class TraceRun:
    """One run's exported trace: metadata plus its event timeline."""

    meta: Dict[str, Any]
    events: List[TraceEvent] = field(default_factory=list)

    @staticmethod
    def from_result(result, scale: Optional[str] = None) -> "TraceRun":
        if result.trace is None:
            raise ValueError(
                f"run of {result.program!r} carries no trace; "
                "pass RunConfig(trace=True)"
            )
        return TraceRun(
            meta=run_metadata(result, scale=scale),
            events=result.trace.timeline(),
        )

    @property
    def label(self) -> str:
        nprocs = self.meta.get("nprocs", "?")
        return (
            f"{self.meta.get('program', '?')}/"
            f"{self.meta.get('variant', '?')} ({nprocs}p)"
        )

    def tracer(self) -> Tracer:
        """Rebuild a queryable :class:`Tracer` over the events (used
        after :func:`read_jsonl` to get the full query API back)."""
        tracer = Tracer(enabled=True)
        tracer.events = list(self.events)
        return tracer


RunsLike = Union[TraceRun, Sequence[TraceRun]]


def _as_runs(runs: RunsLike) -> List[TraceRun]:
    if isinstance(runs, TraceRun):
        return [runs]
    return list(runs)


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def dump_jsonl(runs: RunsLike, stream: IO[str]) -> None:
    for run in _as_runs(runs):
        json.dump(run.meta, stream, default=_json_default)
        stream.write("\n")
        for event in run.events:
            record = event.to_dict()
            record["type"] = "event"
            json.dump(record, stream, default=_json_default)
            stream.write("\n")


def write_jsonl(runs: RunsLike, path: str) -> None:
    """Write runs as JSON Lines (one self-describing block per run)."""
    with open(path, "w") as stream:
        dump_jsonl(runs, stream)


def read_jsonl(path: str) -> List[TraceRun]:
    """Parse a JSONL trace file back into :class:`TraceRun` objects."""
    runs: List[TraceRun] = []
    with open(path) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "run":
                runs.append(TraceRun(meta=record))
            elif kind == "event":
                if not runs:
                    raise ValueError(
                        f"{path}:{lineno}: event before any run record"
                    )
                runs[-1].events.append(TraceEvent.from_dict(record))
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    return runs


# ---------------------------------------------------------------------------
# Chrome trace-event format (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------

def _chrome_tid(event_pid: int, nprocs: int) -> int:
    """Trace-viewer thread id for a simulated processor.

    Protocol processors all carry simulated pid -1 (they are anonymous
    request servers); they share one synthetic track above the compute
    processors rather than a negative thread id.
    """
    if event_pid >= 0:
        return event_pid
    return PP_TRACK_OFFSET + nprocs


def chrome_trace(runs: RunsLike) -> Dict[str, Any]:
    """Build a Chrome trace-event JSON object.

    One viewer *process* per run (so two protocols of the same app can
    be loaded side by side), one *thread* per simulated processor.
    Instants become ``ph: "i"`` events, spans become ``ph: "X"``
    complete events.  Per-track timestamps are non-decreasing.
    """
    trace_events: List[Dict[str, Any]] = []
    metas: List[Dict[str, Any]] = []
    for run_index, run in enumerate(_as_runs(runs)):
        nprocs = int(run.meta.get("nprocs", 0))
        metas.append(run.meta)
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": run_index, "tid": 0,
            "args": {"name": run.label},
        })
        trace_events.append({
            "ph": "M", "name": "process_sort_index", "pid": run_index,
            "tid": 0, "args": {"sort_index": run_index},
        })
        tids = set()
        events = sorted(run.events, key=lambda e: e.time)
        body: List[Dict[str, Any]] = []
        for event in events:
            tid = _chrome_tid(event.pid, nprocs)
            tids.add((tid, event.pid))
            record: Dict[str, Any] = {
                "name": event.kind,
                "ts": event.time,
                "pid": run_index,
                "tid": tid,
                "args": event.details_dict(),
            }
            if event.is_span:
                record["ph"] = "X"
                record["dur"] = event.dur
                record["cat"] = "span"
            else:
                record["ph"] = "i"
                record["s"] = "t"  # thread-scoped instant
                record["cat"] = "coherence"
            body.append(record)
        for tid, event_pid in sorted(tids):
            name = (
                f"p{event_pid}" if event_pid >= 0 else "protocol processors"
            )
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": run_index,
                "tid": tid, "args": {"name": name},
            })
            trace_events.append({
                "ph": "M", "name": "thread_sort_index", "pid": run_index,
                "tid": tid, "args": {"sort_index": tid},
            })
        trace_events.extend(body)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro-dsm",
            "schema": TRACE_SCHEMA_VERSION,
            "runs": metas,
        },
    }


def write_chrome(runs: RunsLike, path: str) -> None:
    """Write runs as one Chrome trace-event JSON file."""
    with open(path, "w") as stream:
        json.dump(chrome_trace(runs), stream, default=_json_default)


# ---------------------------------------------------------------------------
# format dispatch
# ---------------------------------------------------------------------------

def export_runs(runs: RunsLike, path: str, format: str = "jsonl") -> None:
    """Write runs to ``path`` in the requested format."""
    if format == "jsonl":
        write_jsonl(runs, path)
    elif format == "chrome":
        write_chrome(runs, path)
    else:
        known = ", ".join(EXPORT_FORMATS)
        raise ValueError(f"unknown trace format {format!r}; known: {known}")
