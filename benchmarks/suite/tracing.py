"""The traced pass: spans around public callables, and profile folding.

Two instruments, both installed from outside ``src/``:

* :class:`SpanRecorder` wraps low-call-count public functions of the
  harness and serving layers with ``perf_counter_ns`` spans (name, start,
  end, parent, request id), kept in memory until the process exits.
* :func:`fold_profile` folds a ``cProfile`` table by the layer of each
  frame's defining file — the only way to attribute the simulator, whose
  layers are interleaved generators with millions of calls.

End-to-end metrics are never taken with either installed.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Tuple

from . import spec

# Span fields, by position.
NAME, START, END, PARENT, REQUEST = range(5)


class SpanRecorder:
    """Records nested spans around callables it wraps.

    The enclosing span travels in a ``ContextVar``, so spans opened by
    interleaved asyncio tasks (one per connection) nest under their own
    request, not under whichever task ran last.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "suite_span", default=None
        )
        self._undo: List[Tuple[Any, str, Any]] = []

    def _open(self, name: str):
        index = len(self.spans)
        parent = self._current.get()
        request = index if parent is None else self.spans[parent][REQUEST]
        self.spans.append([name, perf_counter_ns(), None, parent, request])
        return index, self._current.set(index)

    def _close(self, index: int, token) -> None:
        self.spans[index][END] = perf_counter_ns()
        self._current.reset(token)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index, token = self._open(name)
        try:
            yield
        finally:
            self._close(index, token)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span
        called ``name`` around every call; :meth:`remove` undoes it."""
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced(*args, **kwargs):
                index, token = self._open(name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    self._close(index, token)

        else:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                index, token = self._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(index, token)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def remove(self) -> None:
        """Put every wrapped callable back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def fold_spans(
    spans: List[List[Any]], since_ns: int = 0
) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self time in microseconds.

    A span's self time is its duration minus the durations of its direct
    children.  Spans still open (``END`` is None) are skipped along with
    their claim on the parent, and so are spans that started before
    ``since_ns`` (``perf_counter_ns`` is one clock for every process, so
    the load generator can mark where its warm-up ended).
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[END] is not None and span[PARENT] is not None:
            child_ns[span[PARENT]] += span[END] - span[START]
    folded: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span[END] is None or span[START] < since_ns:
            continue
        duration = span[END] - span[START]
        row = folded.setdefault(
            span[NAME], {"n": 0, "total_us": 0.0, "self_us": 0.0}
        )
        row["n"] += 1
        row["total_us"] += duration / 1e3
        row["self_us"] += (duration - child_ns[index]) / 1e3
    return folded


def mean_us(folded: Dict[str, Dict[str, float]], name: str) -> float:
    """Mean duration of one span name, 0.0 if it never fired."""
    row = folded.get(name)
    return row["total_us"] / row["n"] if row and row["n"] else 0.0


def install_serving_spans(recorder: SpanRecorder) -> None:
    """Wrap the serving read and write paths' public seams.

    ``decode_request`` and ``encode_payload`` are patched where
    ``server.py`` looks them up (its own module globals).
    """
    from repro.harness.cache import ResultCache
    from repro.serving import server

    recorder.wrap(server.ExperimentService, "resolve", "serving.server.resolve")
    recorder.wrap(server, "decode_request", "serving.codec.validate")
    recorder.wrap(server, "encode_payload", "serving.server.encode")
    recorder.wrap(ResultCache, "get", "harness.cache.get")
    recorder.wrap(ResultCache, "put", "harness.cache.put")


class EventCounter:
    """Sums ``Engine.events_fired`` over every ``Engine.run`` call."""

    def __init__(self) -> None:
        self.events = 0
        self._original = None

    def install(self) -> None:
        from repro.sim.engine import Engine

        original = Engine.run
        counter = self

        @functools.wraps(original)
        def run(engine, until=None):
            before = engine.events_fired
            try:
                return original(engine, until)
            finally:
                counter.events += engine.events_fired - before

        self._original = original
        Engine.run = run

    def remove(self) -> None:
        from repro.sim.engine import Engine

        if self._original is not None:
            Engine.run = self._original
            self._original = None


def fold_profile(stats: Dict) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats`` table.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``.  A frame defined under ``src/repro`` is charged to its
    file's layer.  Any other frame — builtins, NumPy, stdlib — is charged
    to the layers of its callers, in proportion to the self time each
    caller's calls account for, following foreign callers upwards until
    repo code is reached; what never reaches repo code is ``other``.
    """
    memo: Dict[Tuple, Dict[str, float]] = {}

    def distribution(func: Tuple, trail: frozenset) -> Dict[str, float]:
        """Layer weights (summing to 1) that ``func``'s time belongs to."""
        layer = spec.layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        # ``trail`` only breaks recursion among foreign frames (json's
        # encoder, NumPy's dispatchers); the answer is cached as found.
        callers = {
            caller: row[2]
            for caller, row in stats[func][4].items()
            if caller not in trail and caller in stats
        }
        weight = sum(callers.values())
        if weight <= 0.0:
            memo[func] = {"other": 1.0}
            return memo[func]
        mixed: Dict[str, float] = {}
        for caller, caller_tt in callers.items():
            share = caller_tt / weight
            for name, part in distribution(caller, trail | {func}).items():
                mixed[name] = mixed.get(name, 0.0) + share * part
        memo[func] = mixed
        return mixed

    layers = {layer: 0.0 for layer in spec.LAYERS}
    for func, row in stats.items():
        for name, weight in distribution(func, frozenset()).items():
            layers[name] += row[2] * weight
    return layers


def layer_table(layer_self: Dict[str, float]) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.share`` for every layer."""
    total = sum(layer_self.values())
    table = {}
    for layer in spec.LAYERS:
        self_s = layer_self.get(layer, 0.0)
        table[f"{layer}.self_s"] = self_s
        table[f"{layer}.share"] = self_s / total if total > 0 else 0.0
    return table


def profile_stats(profile_or_path) -> Dict:
    """The ``pstats`` table of a live ``cProfile.Profile`` or a dump."""
    import pstats

    return pstats.Stats(profile_or_path).stats
