"""Property tests for the scheduler and event pooling.

The engine promises that its calendar queue fires every event in
exactly the order of the binary heap it replaced — same timestamps,
same within-timestamp sequence — and that pooled ``Timeout``/``AnyOf``
reuse never leaks a callback from one generation to the next.  These
tests drive both promises with randomized schedules against the heap
oracle (``tests/heap_oracle.py``); ``tests/test_engine_equivalence.py``
additionally replays the application goldens on both engines.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Interrupt
from tests.heap_oracle import HeapEngine

DELAYS = (0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 5.0)


def _delay_trace(engine, delays_per_proc):
    """Run one process per delay list; log every resume (time, pid, i).

    Mixes the two sleep styles deterministically — bare-delay yields and
    pooled ``Timeout`` events — since both must occupy identical queue
    positions.
    """
    log = []

    def worker(pid, delays):
        for i, delay in enumerate(delays):
            if (pid + i) % 2:
                yield engine.timeout(delay)
            else:
                yield float(delay)
            log.append((engine.now, pid, i))

    for pid, delays in enumerate(delays_per_proc):
        engine.process(worker(pid, delays), name=f"p{pid}")
    engine.run()
    return log, engine.events_fired


@st.composite
def _schedules(draw):
    nprocs = draw(st.integers(min_value=1, max_value=4))
    return [
        draw(
            st.lists(
                st.sampled_from(DELAYS), min_size=1, max_size=8
            )
        )
        for _ in range(nprocs)
    ]


@given(_schedules())
@settings(max_examples=60, deadline=None)
def test_random_delay_schedules_fire_identically(delays_per_proc):
    # Same resumes, and the same event count: production's
    # events_fired (the benchmark's sim.engine.events) is one per heap
    # pop, the drain shortcuts counting the hop they skip.
    assert _delay_trace(Engine(), delays_per_proc) == _delay_trace(
        HeapEngine(), delays_per_proc
    )


def _mixed_actions(seed: int):
    """A deterministic random workload: delays, timeouts, any-ofs."""
    rng = random.Random(seed)
    nprocs = rng.randint(2, 5)
    return [
        [
            (
                rng.choice(("delay", "timeout", "anyof")),
                rng.choice(DELAYS),
            )
            for _ in range(rng.randint(3, 10))
        ]
        for _ in range(nprocs)
    ]


def _mixed_trace(engine, actions_per_proc):
    """Delays + pooled timeouts + any-of fan-ins + event waits."""
    nprocs = len(actions_per_proc)
    flags = [engine.event() for _ in range(nprocs)]
    log = []

    def worker(pid, actions):
        for i, (kind, delay) in enumerate(actions):
            if kind == "delay":
                yield float(delay)
            elif kind == "timeout":
                yield engine.timeout(delay)
            else:
                yield engine.any_of(
                    [engine.timeout(delay), engine.timeout(delay + 1.0)]
                )
                log.append((engine.now, pid, i, "anyof"))
            log.append((engine.now, pid, i))
        flags[pid].succeed(pid)
        # Join on the next process's flag: exercises waits on both
        # pending and already-triggered events.
        value = yield flags[(pid + 1) % nprocs]
        log.append((engine.now, pid, "joined", value))

    for pid, actions in enumerate(actions_per_proc):
        engine.process(worker(pid, actions), name=f"p{pid}")
    engine.run()
    return log, engine.events_fired


@pytest.mark.parametrize("seed", range(10))
def test_mixed_workloads_fire_identically(seed):
    actions = _mixed_actions(seed)
    assert _mixed_trace(Engine(), actions) == _mixed_trace(
        HeapEngine(), actions
    )


@pytest.mark.parametrize("style", ["bare", "timeout"])
@pytest.mark.parametrize("at", [3.0, 7.0, 10.0])
def test_interrupted_sleeps_identical_across_modes(style, at):
    def trace(engine):
        log = []

        def sleeper():
            # Two legs so an interrupt landing exactly at the first
            # leg's fire time (at=10.0) still has a live sleep to hit.
            for leg in (10.0, 5.0):
                try:
                    if style == "bare":
                        yield leg
                    else:
                        yield engine.timeout(leg)
                    log.append(("slept", leg, engine.now))
                except Interrupt as intr:
                    log.append(("interrupted", engine.now, intr.cause))
                    yield 2.0
                    log.append(("resumed", engine.now))

        target = engine.process(sleeper(), name="sleeper")

        def poker():
            yield float(at)
            target.interrupt("poke")
            log.append(("poked", engine.now))

        engine.process(poker(), name="poker")
        engine.run()
        return log

    assert trace(Engine()) == trace(HeapEngine())


def test_pooled_timeout_recycles_without_leaking_callbacks():
    engine = Engine()
    fired = []
    seen = []

    def worker():
        t1 = engine.timeout(5.0)
        seen.append((t1, t1.generation))
        t1.add_callback(lambda ev: fired.append(engine.now))
        yield t1
        # t1 recycles at the end of its fire delivery, so the timeout
        # created *inside* that delivery is a fresh object...
        t2 = engine.timeout(3.0)
        seen.append((t2, t2.generation))
        yield t2
        # ...and the next creation pops t1 back out of the pool.
        t3 = engine.timeout(2.0)
        seen.append((t3, t3.generation))
        assert t3.live_callbacks() == []
        yield t3

    engine.process(worker(), name="w")
    engine.run()
    (t1, gen1), (_t2, _), (t3, gen3) = seen
    assert t3 is t1, "timeout object was not recycled through the pool"
    assert gen3 == gen1 + 1, "reuse must bump the generation counter"
    assert fired == [5.0], "stale callback leaked into a later generation"


def test_pooled_anyof_recycles_without_stray_resumes():
    engine = Engine()
    log = []
    seen = []

    def worker():
        for i in range(4):
            a = engine.any_of([engine.timeout(1.0), engine.timeout(4.0)])
            seen.append(a)
            yield a
            log.append((engine.now, i))

    engine.process(worker(), name="w")
    engine.run()
    assert log == [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]
    # The loser timeouts (4.0) stay armed past their AnyOf's recycling;
    # their late fires must not resume anything.  engine.run() returning
    # cleanly past t=8 with exactly four resumes proves that.
    assert engine.now >= 7.0
    assert len(set(map(id, seen))) < len(seen), "AnyOf pool never reused"


def test_pool_is_per_engine():
    one, two = Engine(), Engine()
    out = []

    def worker(engine):
        t = engine.timeout(1.0)
        out.append(t)
        yield t

    one.process(worker(one), name="a")
    two.process(worker(two), name="b")
    one.run()
    two.run()
    assert out[0] is not out[1]
