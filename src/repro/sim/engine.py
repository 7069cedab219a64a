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

**The ordering contract.**  Every simulated result comes from one event
order: queue entries fire in ``(when, push order)`` — earliest time
first, and at equal times in the order they were pushed.  Entries from
different nodes at the same time are *not* commutative (messenger
queues are served in arrival order), so there is one global queue.
Time never moves backwards: :meth:`Engine.schedule`,
:meth:`Engine.call_at`, :meth:`Engine.succeed_at`, :class:`Timeout` and
:class:`Until` reject the past when they push, and the drain raises if
it ever meets a bucket earlier than ``now``.

**One scheduler** keeps that order — a calendar queue with a
same-timestamp ring:

* **Ring** — entries pushed for exactly ``now`` during delivery (the
  second hop of every bare delay, fire deliveries, interrupt posts, and
  the barrier wake storms that grow O(P)) append to a plain list that
  is drained next, in push order: no heap, no dict, no allocation.  At
  256 processors ~46% of all pushes ride it.
* **Buckets** — an entry for a future time appends to that exact
  time's bucket (a flat ``[func, arg, func, arg, ...]`` list); a heap
  of the distinct times orders the buckets.  Drained buckets and ring
  batches are recycled through a bounded list pool.
* **A flat top level** — with the ring absorbing every same-time push,
  the heap holds only distinct *future* times, ~130 entries at 256
  processors (the simulated cluster's event horizon, not its event
  count).  An epoch-sharded wheel over that heap was prototyped and
  measured *slower* — the epoch indexing cost more than a heappush into
  a ~100-entry heap saves — so the top level stays a flat heap.
* **Two drain shortcuts**, both order-exact: a bare-delay fire that is
  the last entry of a batch, with the ring empty, delivers its resume
  inline (the resume would be the next entry anyway); and a batch made
  only of bare-delay fires, with the ring empty, resumes every process
  directly in push order (the whole-batch resume that turns an O(P)
  wake storm into one pass).

The reference for the order is the binary heap of ``(when, seq, func,
arg)`` tuples the engine started as.  It survives only as a test
oracle, ``HeapEngine`` in ``tests/heap_oracle.py``: the random-schedule
property tests and the golden replays compare production against it.

Allocation levers on the same path:

* **Event pooling** — :meth:`Engine.timeout` and :meth:`Engine.any_of`
  recycle their objects through per-engine free lists.  An event
  returns to the pool at the end of its fire delivery (when no live
  reference can observe its state anymore — waiters resume *during*
  delivery); each reuse bumps a generation counter and resets the
  callback list, so callbacks can never leak across generations
  (property-tested in ``tests/test_engine_queue.py``).
* **No closures on the hot path** — queue entries are plain
  ``(func, arg)`` pairs; callback registration hands out *cells*
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

#: Bound on the recycled-list pool (drained buckets and ring batches
#: are reused instead of reallocated).
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
    ):
        super().__init__(engine)
        self.generator = generator
        self.name = name
        self.daemon = daemon
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
    """The event loop: the calendar queue with a same-timestamp ring
    described in the module docstring.

    * ``_ring`` — flat ``[func, arg, ...]`` entries pushed for ``now``;
    * ``_buckets`` — exact future time -> flat entry list, with
      ``_times`` the heap of those distinct times;
    * ``_list_pool`` — drained buckets and ring batches for reuse.

    ``events_fired`` counts delivered entries — the denominator of the
    wall-clock-per-simulated-event metric.  A drain shortcut counts the
    hop it skips, so the count is the heap oracle's pop count whenever
    no bare-delay sleep is interrupted (an interrupted sleep's stale
    hop is counted here but never queued by the heap).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._ring: List = []
        self._times: List[float] = []
        self._buckets: dict = {}
        self._list_pool: List[list] = []
        self.events_fired: int = 0
        self._processes: List[Process] = []
        # free lists for pooled events
        self._timeout_pool: List[Timeout] = []
        self._anyof_pool: List[AnyOf] = []

    # -- public construction helpers ----------------------------------

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: str = "proc",
        daemon: bool = False,
    ) -> Process:
        proc = Process(self, generator, name, daemon)
        self._processes.append(proc)
        return proc

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
        a._recycle_list = pool
        return a

    # -- running -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until no work remains (or ``until`` sim time); return now."""
        if not self._drain(until):
            return self.now  # stopped at ``until`` with work pending
        stuck = [
            p.name for p in self._processes if p.is_alive and not p.daemon
        ]
        if stuck:
            raise DeadlockError(
                f"no events pending but processes still alive: {stuck}"
            )
        return self.now

    def _drain(self, until: Optional[float]) -> bool:
        """Deliver entries in ``(when, push order)``; False if stopped
        at ``until`` with work pending.

        The ring holds exactly the entries pushed for ``now`` since the
        current batch was detached, so draining it before the next
        bucket keeps push order; the heap yields the distinct future
        times in numeric order.
        """
        times = self._times
        buckets = self._buckets
        pool = self._list_pool
        pop = heapq.heappop
        while True:
            batch = self._ring
            if batch:
                # Entries at self.now: detach the ring (pushes during
                # delivery open the next one) and drain.
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
            if not self._ring and _is_pure_delay(batch, n):
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
                        # Inline resume: when this bare-delay fire is
                        # the last entry of the batch and the ring is
                        # empty, its resume is provably the next entry
                        # to run — deliver it without the ring detour.
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

    # -- internals -----------------------------------------------------

    def _push(self, when: float, func: Callable[[Any], None], arg: Any) -> None:
        if when == self.now:
            # Same-timestamp entry: the ring, drained next in push
            # order — never touches the heap or the buckets.
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
