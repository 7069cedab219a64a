"""Deterministic discrete-event simulation engine.

The design follows SimPy's process/event model, reduced to exactly what
the DSM simulation needs:

* :class:`Event` — one-shot; processes wait on it by yielding it (the
  first of three wait forms; bare delays and :class:`Until` are below).
* :class:`Timeout` — an event that fires after a simulated delay.
* :class:`AnyOf` — fires as soon as any child event fires.
* :class:`Process` — wraps a generator; is itself an event that fires
  when the generator returns.  Supports :meth:`Process.interrupt`, which
  the cluster model uses to deliver remote requests into a running
  compute block.

The inner loop is deliberately allocation-light, and (as of the PR 4
overhaul) the scheduler itself is a **bucketed calendar queue**: pending
callbacks are grouped into per-timestamp buckets (a dict keyed by the
exact firing time, with a small heap ordering the distinct times), so
the extremely common same-timestamp schedules — event fire delivery,
barrier wake-ups of every waiting processor, interrupt posting —
are O(1) list appends instead of O(log n) heap pushes of fresh tuples.
Within a bucket, entries fire in push order, which is exactly the
``(when, seq)`` order the old binary heap produced, so simulated
results are bit-identical (``tests/test_engine_queue.py`` proves the
orders equal on random schedules; the goldens run in both modes).

Two further allocation levers ride on the same switch:

* **Event pooling** — :meth:`Engine.timeout` and :meth:`Engine.any_of`
  recycle their objects through per-engine free lists.  An event
  returns to the pool at the end of its fire delivery (when no live
  reference can observe its state anymore — waiters resume *during*
  delivery); each reuse bumps a generation counter and resets the
  callback list, so callbacks can never leak across generations
  (property-tested in ``tests/test_engine_queue.py``).
* **No closures on the hot path** — heap entries are plain
  ``(when, func, arg)``; callback registration hands out *cells*
  cancelled in O(1) by tombstoning rather than ``list.remove``.
* **Bare-delay yields** — a process may yield a plain ``float``/``int``
  instead of a :class:`Timeout`: "resume me in this many microseconds,
  value ``None``".  The engine schedules the resume with the *same two
  queue hops* a Timeout takes (fire entry at ``now + delay``, resume
  entry appended when it pops), so relative ordering against every
  other same-time entry is bit-identical — but with no event object,
  no callback cell, and no pool traffic.  ``Processor.busy`` (the
  single hottest wait in full runs: every protocol-handler occupancy
  and doubled write goes through it) rides this channel.
* **Absolute-deadline yields** — the third wait form: a process may
  yield ``Until(when)`` (:class:`Until`): "resume me at absolute time
  ``when``, value ``None``".  It rides the bare-delay channel (same two queue
  hops, same wait-token rule on interrupt), and exists because float
  addition is not associative: a run of back-to-back delays ``a, b``
  ends at ``(now + a) + b``, which ``yield a + b`` would not reproduce
  bit-for-bit.  ``Processor.busy_run`` folds such a run left to right
  and sleeps through it with one ``Until`` — one wake instead of one
  per delay.

Escape hatch: ``SimOptions(calqueue=False)`` (CLI ``--no-calqueue``,
deprecated alias ``REPRO_DSM_NO_CALQUEUE=1``) restores the plain binary
heap and per-event allocation for A/B verification.

PR 7 shards the calendar queue for 64–1024-processor clusters
(``SimOptions(shard=True)``, the default; CLI ``--no-shard`` restores
the PR 4 flat calendar queue for A/B verification):

* **Same-timestamp cascade ring** (level 0) — entries scheduled for
  exactly the current time during delivery (the second hop of every
  bare delay, fire deliveries, interrupt posts, and the barrier wake
  storms that grow O(P)) land in a plain ring list instead of opening
  a fresh bucket: no heap round trip, no dict traffic, no allocation.
  At 256 processors ~46% of all pushes ride this channel.
* **Bucket free list** — drained per-timestamp buckets (and ring
  batches) are recycled through a bounded pool, so the allocation in
  ``_push_bucket`` (the last profiled engine lever) disappears.
* **Small top-level time index** — with the cascade ring absorbing
  every same-timestamp push, the top-level heap holds only *distinct
  future* times, which stays small (~130 entries at 256 processors —
  the simulated cluster's event horizon, not its event count).  An
  epoch-sharded wheel over that heap was prototyped and measured
  *slower* (the epoch indexing cost more than a heappush into a
  ~100-entry heap saves), so the top level deliberately stays a flat
  heap; the measurement lives in BENCH_PR7.json's design notes.

Entries from different nodes at the same timestamp are **not**
commutative (messenger queues are served in arrival order), so the
shards preserve one global drain order — bit-identical simulated
results in all three queue modes is the contract, enforced by the
goldens.  What stays node-local is the accounting: processes carry a
``shard`` tag (their node id), and :meth:`Engine.enable_shard_meter`
turns on per-shard delivery meters (fired-event counts, last-delivery
times) that the scaling invariant tests check — global time never
moves backwards across shards.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional


class DeadlockError(RuntimeError):
    """Raised when live processes remain but no event can ever fire."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Until:
    """Wait target: resume at absolute simulated time ``when``.

    The absolute-time sibling of a bare delay (see the module
    docstring); ``when`` earlier than the current time is an error.
    """

    __slots__ = ("when",)

    def __init__(self, when: float):
        self.when = when


#: A registered callback: a one-element list so cancellation is a single
#: store (``cell[0] = None``) instead of an O(n) list removal.
Cell = List[Optional[Callable]]

#: Compact an event's callback list only once tombstones both exceed
#: this count and outnumber the live entries.
_COMPACT_MIN_DEAD = 8

#: Sentinel ``_waiting_on`` value while a process sleeps on a bare
#: delay (no event object to register a callback with).
_BUSY_WAIT = object()

#: Sharded-queue tuning: bound on the recycled-list pool (drained
#: buckets and cascade-ring batches are reused instead of reallocated).
_POOL_MAX = 128


def _succeed(event: "Event") -> None:
    event.succeed()


def _invoke(action: Callable[[], None]) -> None:
    action()


def _fire(event: "Event") -> None:
    """Deliver a fired event to the callbacks registered at fire time.

    Pooled events are recycled *after* the delivery loop: every waiter
    has resumed (resumption happens synchronously inside its callback),
    so no live code can observe the object's state afterwards — only
    identity comparisons against still-held references, which reuse
    does not disturb.
    """
    cells, event.callbacks = event.callbacks, None
    for cell in cells:
        callback = cell[0]
        if callback is not None:
            callback(event)
    pool = event._recycle_list
    if pool is not None:
        pool.append(event)


class Event:
    """A one-shot event; fires at most once with an optional value."""

    __slots__ = (
        "engine",
        "callbacks",
        "_dead",
        "_triggered",
        "value",
        "_gen",
        "_recycle_list",
    )

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: Optional[List[Cell]] = []
        self._dead = 0
        self._triggered = False
        self.value: Any = None
        self._gen = 0
        self._recycle_list: Optional[list] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def generation(self) -> int:
        """How many times this object has been recycled (pooled events)."""
        return self._gen

    def _reset_for_reuse(self) -> None:
        """Re-arm a recycled event: fresh callbacks, next generation."""
        self.callbacks = []
        self._dead = 0
        self._triggered = False
        self.value = None
        self._gen += 1

    def add_callback(self, callback: Callable[["Event"], None]) -> Cell:
        """Register ``callback`` for the fire; returns its cancel cell."""
        cell: Cell = [callback]
        self.callbacks.append(cell)
        return cell

    def cancel_callback(self, cell: Cell) -> None:
        """Cancel a registration in O(1) by tombstoning its cell."""
        if cell[0] is None:
            return
        cell[0] = None
        callbacks = self.callbacks
        if callbacks is None:
            return  # already fired; the tombstone alone suffices
        self._dead += 1
        if (
            self._dead > _COMPACT_MIN_DEAD
            and self._dead * 2 > len(callbacks)
        ):
            self.callbacks = [c for c in callbacks if c[0] is not None]
            self._dead = 0

    def live_callbacks(self) -> List[Callable]:
        """The still-registered callbacks (testing/introspection)."""
        return [c[0] for c in (self.callbacks or ()) if c[0] is not None]

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event now; waiters resume at the current sim time."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self.value = value
        if self.callbacks:
            self.engine._push(self.engine.now, _fire, self)
        else:
            # No waiters: never delivered, so never recycled — the
            # caller may still hold the object and inspect its state.
            self.callbacks = None
        return self


class Timeout(Event):
    """An event that fires ``delay`` simulated microseconds from now."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(engine)
        self.delay = delay
        engine._push(engine.now + delay, _succeed, self)


class AnyOf(Event):
    """Fires when the first of ``events`` fires; value is that event."""

    __slots__ = ("events", "_cells")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self._arm(events)

    def _arm(self, events: Iterable[Event]) -> None:
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf needs at least one event")
        fired = None
        for e in self.events:
            if e._triggered:
                fired = e
                break
        if fired is not None:
            self._cells = ()
            self.succeed(fired)
            return
        self._cells = [e.add_callback(self._child_fired) for e in self.events]

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        # Detach from the children that did not fire; long-lived events
        # (processor mailboxes, lock grants) would otherwise accumulate
        # one dead callback per wait.
        for child, cell in zip(self.events, self._cells):
            if child is not event:
                child.cancel_callback(cell)
        self.succeed(event)


class Process(Event):
    """A running generator process.  Fires (as an event) on return."""

    __slots__ = (
        "generator",
        "name",
        "daemon",
        "shard",
        "_waiting_on",
        "_wait_cell",
        "_interrupt_pending",
        "_pending_value",
        "_wait_token",
    )

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: str = "proc",
        daemon: bool = False,
        shard: int = 0,
    ):
        super().__init__(engine)
        self.generator = generator
        self.name = name
        self.daemon = daemon
        #: Event-shard tag (the owning node id on cluster runs); only
        #: read by the per-shard delivery meters, never by scheduling.
        self.shard = shard
        self._waiting_on: Optional[Event] = None
        self._wait_cell: Optional[Cell] = None
        self._interrupt_pending: Optional[Interrupt] = None
        self._pending_value: Any = None
        self._wait_token = 0
        engine._push(engine.now, Process._start, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self._triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name}")
        if self._interrupt_pending is not None:
            return  # coalesce; one wakeup is enough
        self._interrupt_pending = Interrupt(cause)
        self.engine._push(self.engine.now, Process._deliver_interrupt, self)

    # -- internals ----------------------------------------------------

    def _start(self) -> None:
        self._step_send(None)

    def _deliver_interrupt(self) -> None:
        interrupt = self._interrupt_pending
        self._interrupt_pending = None
        if interrupt is None or self._triggered:
            return
        waited = self._waiting_on
        self._waiting_on = None
        if waited is _BUSY_WAIT:
            # Invalidate the in-flight delay entries; a new token makes
            # the stale _delay_fire/_delay_resume pair a no-op.
            self._wait_token += 1
        elif waited is not None:
            waited.cancel_callback(self._wait_cell)
        try:
            target = self.generator.throw(interrupt)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        self._wait_for(target)

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wakeup (we were interrupted away from it)
        self._waiting_on = None
        self._step_send(event.value)

    def _step_send(self, value: Any) -> None:
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        # Bare delays inline (the dominant resume target on full runs);
        # everything else through the shared classifier.
        if type(target) is float or type(target) is int:
            if target < 0:
                raise ValueError(f"negative delay {target!r}")
            self._wait_token += 1
            self._waiting_on = _BUSY_WAIT
            engine = self.engine
            engine._push(
                engine.now + target, _delay_fire, (self, self._wait_token)
            )
            return
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        # Bare delays first: with busy/compute riding the delay channel
        # they outnumber event waits on full runs.
        kind = type(target)
        if kind is float or kind is int:
            # Bare-delay fast channel: resume with value None after
            # ``target`` microseconds, through the same two queue hops
            # a Timeout would take (see module docstring).
            if target < 0:
                raise ValueError(f"negative delay {target!r}")
            self._sleep_until(self.engine.now + target)
            return
        if kind is Until:
            # Absolute deadline on the same channel: no addition here,
            # the caller already folded its delays into ``when``.
            if target.when < self.engine.now:
                raise ValueError(
                    f"deadline {target.when!r} is in the past "
                    f"(now {self.engine.now!r})"
                )
            self._sleep_until(target.when)
            return
        if isinstance(target, Event):
            if target._triggered:
                # Capture the value now rather than at delivery: a fired
                # value can never change, and holding no reference to the
                # event lets pooled events recycle safely.
                self._pending_value = target.value
                self.engine._push(
                    self.engine.now, Process._resume_immediate, self
                )
            else:
                self._waiting_on = target
                self._wait_cell = target.add_callback(self._resume)
            return
        raise TypeError(
            f"process {self.name!r} yielded {target!r}; "
            "processes must yield Event instances, bare delays or Until"
        )

    def _sleep_until(self, when: float) -> None:
        """Arm the bare-delay channel: first hop at ``when``, guarded
        by a fresh wait token (an interrupt bumps it again)."""
        self._wait_token += 1
        self._waiting_on = _BUSY_WAIT
        self.engine._push(when, _delay_fire, (self, self._wait_token))

    def _resume_immediate(self) -> None:
        value, self._pending_value = self._pending_value, None
        if self._triggered:
            return
        self._waiting_on = None
        self._step_send(value)


def _is_pure_delay(bucket: list, n: int) -> bool:
    """True when every entry of the batch is a bare-delay first hop."""
    i = 0
    while i < n:
        if bucket[i] is not _delay_fire:
            return False
        i += 2
    return True


def _delay_fire(pair) -> None:
    """First hop of a bare delay (the Timeout ``_succeed`` stand-in)."""
    proc = pair[0]
    if proc._wait_token != pair[1]:
        return  # interrupted away from this delay
    proc.engine._push(proc.engine.now, _delay_resume, pair)


def _delay_resume(pair) -> None:
    """Second hop of a bare delay (the ``_fire`` -> resume stand-in)."""
    proc = pair[0]
    if proc._wait_token != pair[1]:
        return
    proc._wait_token += 1
    proc._waiting_on = None
    proc._step_send(None)


class Engine:
    """The event loop.

    Two interchangeable schedulers (selected by
    :class:`repro.options.SimOptions`, default calendar queue):

    * **calendar queue** — per-timestamp buckets (``_buckets``: exact
      firing time -> flat ``[func, arg, func, arg, ...]`` list) with a
      heap of distinct times (``_times``).  Same-time schedules append;
      within a bucket, entries fire in push order — identical global
      order to the binary heap's ``(when, seq)``.
    * **binary heap** — the original time-ordered heap of
      ``(when, seq, func, arg)`` tuples (the A/B escape hatch).
    """

    def __init__(self, options=None) -> None:
        if options is None:
            from repro import options as _options_mod

            options = _options_mod.current()
        self.now: float = 0.0
        self.calqueue: bool = bool(getattr(options, "calqueue", True))
        self.sharded: bool = self.calqueue and bool(
            getattr(options, "shard", True)
        )
        # binary-heap state
        self._heap: List = []
        self._seq = 0
        # calendar-queue state
        self._times: List[float] = []
        self._buckets: dict = {}
        # sharded-queue state: same-timestamp cascade ring and the
        # recycled list pool (drained buckets and ring batches).
        self._ring: List = []
        self._list_pool: List[list] = []
        #: Delivered (func, arg) entries, all queue modes — the
        #: denominator of the wall-clock-per-simulated-event metric.
        self.events_fired: int = 0
        # per-shard delivery meters (None unless enabled by tests /
        # the scaling smoke checks; see enable_shard_meter)
        self._shard_meter: Optional[dict] = None
        self._shard_violations: List = []
        self._processes: List[Process] = []
        # free lists for pooled events (calendar-queue mode only; the
        # escape hatch restores per-event allocation wholesale)
        self._timeout_pool: List[Timeout] = []
        self._anyof_pool: List[AnyOf] = []
        if self.sharded:
            self._push = self._push_shard  # type: ignore[method-assign]
        elif self.calqueue:
            self._push = self._push_bucket  # type: ignore[method-assign]

    # -- public construction helpers ----------------------------------

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: str = "proc",
        daemon: bool = False,
        shard: int = 0,
    ) -> Process:
        proc = Process(self, generator, name, daemon, shard)
        self._processes.append(proc)
        return proc

    def enable_shard_meter(self) -> dict:
        """Turn on per-shard delivery meters (test instrumentation).

        Returns the live meter dict: shard id -> ``[fired_count,
        last_delivery_time]``.  A delivery at a time earlier than the
        shard's last recorded delivery is appended to
        :attr:`shard_violations` — the invariant the 256p scaling
        smoke test checks is that this list stays empty (global time
        never moves backwards across shards).
        """
        if self._shard_meter is None:
            self._shard_meter = {}
        return self._shard_meter

    @property
    def shard_violations(self) -> List:
        return self._shard_violations

    def call_at(self, when: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute sim time ``when``."""
        if when < self.now:
            raise ValueError("cannot schedule in the past")
        self._push(when, _invoke, action)

    def schedule(
        self, when: float, func: Callable[[Any], None], arg: Any = None
    ) -> None:
        """Run ``func(arg)`` at absolute sim time ``when``.

        The closure-free sibling of :meth:`call_at`: hot paths
        (messaging continuations, lock grants, barrier releases) push
        a plain ``(func, arg)`` pair instead of building a lambda.
        """
        if when < self.now:
            raise ValueError("cannot schedule in the past")
        self._push(when, func, arg)

    def succeed_at(self, when: float, event: Event) -> None:
        """Fire ``event`` (with no value) at absolute sim time ``when``."""
        if when < self.now:
            raise ValueError("cannot schedule in the past")
        self._push(when, _succeed, event)

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay!r}")
            t = pool.pop()
            t._reset_for_reuse()
            t.delay = delay
            self._push(self.now + delay, _succeed, t)
            return t
        t = Timeout(self, delay)
        if self.calqueue:
            t._recycle_list = pool
        return t

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        pool = self._anyof_pool
        if pool:
            a = pool.pop()
            a._reset_for_reuse()
            a._arm(events)
            return a
        a = AnyOf(self, events)
        if self.calqueue:
            a._recycle_list = pool
        return a

    # -- running -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until no work remains (or ``until`` sim time); return now."""
        if self.sharded:
            exhausted = self._run_shard(until)
        elif self.calqueue:
            exhausted = self._run_calqueue(until)
        else:
            exhausted = self._run_heap(until)
        if not exhausted:
            return self.now  # stopped at ``until`` with work pending
        stuck = [
            p.name for p in self._processes if p.is_alive and not p.daemon
        ]
        if stuck:
            raise DeadlockError(
                f"no events pending but processes still alive: {stuck}"
            )
        return self.now

    def _run_heap(self, until: Optional[float]) -> bool:
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return False
            _when, _seq, func, arg = pop(heap)
            if when < self.now:
                raise RuntimeError("event scheduled in the past")
            self.now = when
            self.events_fired += 1
            func(arg)
        return True

    def _run_calqueue(self, until: Optional[float]) -> bool:
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        while times:
            when = times[0]
            if until is not None and when > until:
                self.now = until
                return False
            if when < self.now:
                raise RuntimeError("event scheduled in the past")
            pop(times)
            self.now = when
            # Entries scheduled for this same time *during* delivery
            # open a fresh bucket (this one is already detached), which
            # the loop drains on its next iteration — preserving global
            # push order exactly.
            bucket = buckets.pop(when)
            n = len(bucket)
            i = 0
            while i < n:
                func = bucket[i]
                arg = bucket[i + 1]
                i += 2
                if func is _delay_fire:
                    # A bare delay's first hop.  Its second hop would be
                    # appended to the fresh bucket for this same time;
                    # when this is the last entry of the current bucket
                    # and no fresh bucket exists, that append position
                    # is provably "run next" — so skip the heap round
                    # trip and deliver the resume inline.  (Identical
                    # firing order either way; the detour is only an
                    # allocation/heap saving.)
                    if i == n and when not in buckets:
                        self.events_fired += 1
                        _delay_resume(arg)
                    else:
                        _delay_fire(arg)
                else:
                    func(arg)
            self.events_fired += n >> 1
        return True

    def _run_shard(self, until: Optional[float]) -> bool:
        """The sharded scheduler: cascade ring over the bucketed heap.

        Drain order is identical to :meth:`_run_calqueue`: the ring
        holds exactly the entries that would have opened a fresh
        bucket for the current time (drained next in push order), and
        the heap yields the distinct future times in the same numeric
        order either way.
        """
        times = self._times
        buckets = self._buckets
        pool = self._list_pool
        pop = heapq.heappop
        while True:
            batch = self._ring
            if batch:
                # Cascade entries at self.now: detach the ring (fresh
                # pushes during delivery open the next one) and drain.
                self._ring = pool.pop() if pool else []
            else:
                if not times:
                    return True
                when = times[0]
                if until is not None and when > until:
                    self.now = until
                    return False
                if when < self.now:
                    raise RuntimeError("event scheduled in the past")
                pop(times)
                self.now = when
                batch = buckets.pop(when)
            n = len(batch)
            if self._shard_meter is not None:
                self.events_fired += n >> 1
                self._deliver_metered(batch)
            elif not self._ring and _is_pure_delay(batch, n):
                # Whole-batch resume: every entry is a bare-delay first
                # hop and the ring is empty, so the original schedule is
                # provably [fire1..fireK][resume1..resumeK] with the
                # fires side-effect-free (they only push their resume,
                # token permitting; tokens never regress, so checking
                # once at resume time gives the same outcome).  Deliver
                # the resumes directly in push order — this turns the
                # O(P) barrier/compute wake storms at large P into one
                # pass with no second queue hop at all.
                self.events_fired += n  # fires + their direct resumes
                i = 1
                while i < n:
                    _delay_resume(batch[i])
                    i += 2
            else:
                self.events_fired += n >> 1
                i = 0
                while i < n:
                    func = batch[i]
                    arg = batch[i + 1]
                    i += 2
                    if func is _delay_fire:
                        # Same inline-resume saving as _run_calqueue:
                        # when this bare-delay fire is the last entry
                        # of the batch and the cascade ring is empty,
                        # its resume is provably the next entry to run
                        # — deliver it without the ring detour.
                        if i == n and not self._ring:
                            self.events_fired += 1
                            _delay_resume(arg)
                        else:
                            _delay_fire(arg)
                    else:
                        func(arg)
            if len(pool) < _POOL_MAX:
                batch.clear()
                pool.append(batch)

    def _deliver_metered(self, bucket: list) -> None:
        """The shard-metered drain (test instrumentation path only)."""
        n = len(bucket)
        i = 0
        while i < n:
            func = bucket[i]
            arg = bucket[i + 1]
            i += 2
            self._meter_entry(arg)
            if func is _delay_fire:
                if i == n and not self._ring:
                    _delay_resume(arg)
                else:
                    _delay_fire(arg)
            else:
                func(arg)

    def _meter_entry(self, arg: Any) -> None:
        obj = arg[0] if type(arg) is tuple else arg
        shard = getattr(obj, "shard", 0)
        meter = self._shard_meter
        rec = meter.get(shard)
        if rec is None:
            meter[shard] = [1, self.now]
        else:
            if self.now < rec[1]:
                self._shard_violations.append((shard, rec[1], self.now))
            rec[0] += 1
            rec[1] = self.now

    # -- internals -----------------------------------------------------

    def _push(self, when: float, func: Callable[[Any], None], arg: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, func, arg))

    def _push_bucket(
        self, when: float, func: Callable[[Any], None], arg: Any
    ) -> None:
        bucket = self._buckets.get(when)
        if bucket is None:
            heapq.heappush(self._times, when)
            self._buckets[when] = [func, arg]
        else:
            bucket.append(func)
            bucket.append(arg)

    def _push_shard(
        self, when: float, func: Callable[[Any], None], arg: Any
    ) -> None:
        if when == self.now:
            # Same-timestamp cascade: stays in the ring, drained next
            # in push order — never touches the heap or the buckets.
            ring = self._ring
            ring.append(func)
            ring.append(arg)
            return
        bucket = self._buckets.get(when)
        if bucket is not None:
            bucket.append(func)
            bucket.append(arg)
            return
        # First entry at this exact future time: index it in the heap
        # of distinct times, reusing a drained list when one is free.
        heapq.heappush(self._times, when)
        pool = self._list_pool
        if pool:
            bucket = pool.pop()
            bucket.append(func)
            bucket.append(arg)
            self._buckets[when] = bucket
        else:
            self._buckets[when] = [func, arg]
