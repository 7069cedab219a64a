"""``Until`` and ``Processor.busy_run``: a run of uninterruptible
occupancies is one engine wake, and nothing simulated can tell.

Three layers of evidence:

* engine level — ``yield Until(when)`` lands on the bit-identical float
  time of the delay chain it replaces, on the production engine and
  the binary-heap oracle, and obeys the wait-token rule;
* processor level — ``busy_run`` charges and sleeps exactly like the
  ``busy`` loop, and both reject negative occupancies;
* protocol level (the order gate) — the final wake of a run is queued
  when the run *starts*, so it may precede a same-instant entry it used
  to follow.  Random race-free LRC programs, run against the per-
  occupancy oracle of ``tests/lrc_oracle.py``, must produce the same
  result digest and the same per-processor trace timeline.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.cluster.machine import Cluster
from repro.config import ClusterConfig, CostModel, Mechanism
from repro.core import run_program
from repro.serving.codec import result_digest
from repro.sim import Engine, Interrupt, Until
from repro.stats import Category, StatsBoard
from tests.helpers import (
    LRC_FUZZ_AXES,
    lrc_fuzz_config,
    lrc_program,
    timelines,
)
from tests.heap_oracle import HeapEngine
from tests.lrc_oracle import per_occupancy

#: Engine by test id: ``heap`` is the binary-heap oracle; ``calqueue``
#: and ``shard`` named retired scheduler modes and now both run the
#: production engine (kept so the cases keep their ids).
QUEUE_MODES = {"heap": HeapEngine, "calqueue": Engine, "shard": Engine}


def _engine(mode: str) -> Engine:
    return QUEUE_MODES[mode]()


# -- engine: the third wait form ----------------------------------------

_cost = st.one_of(
    st.sampled_from([0.1, 0.7, 2.0, 12.0, 62.0, 1e-3, 1e6 + 0.3]),
    st.floats(min_value=1e-6, max_value=1e5, allow_nan=False),
)
_chains = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),  # start
        st.lists(_cost, min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=5,
)


def _landings(mode: str, chains, folded: bool):
    """``(time, worker)`` of every wake-up after the start-up delay."""
    engine = _engine(mode)
    log = []

    def worker(wid, start, costs):
        yield start
        if folded:
            when = engine.now
            for us in costs:
                when += us
            yield Until(when)
        else:
            for us in costs:
                yield us
        log.append((engine.now, wid))

    for wid, (start, costs) in enumerate(chains):
        engine.process(worker(wid, start, costs), name=f"w{wid}")
    engine.run()
    return log


@pytest.mark.parametrize("mode", QUEUE_MODES)
@settings(max_examples=60, deadline=None)
@given(chains=_chains)
def test_until_lands_on_the_delay_chains_exact_time(mode, chains):
    # Sorted: the *times* are the claim here; same-instant order
    # between workers is what the protocol-level differential gates.
    chained = sorted(_landings(mode, chains, folded=False))
    assert sorted(_landings(mode, chains, folded=True)) == chained
    assert chained == sorted(_landings("heap", chains, folded=False))


@pytest.mark.parametrize("mode", QUEUE_MODES)
def test_until_in_the_past_raises(mode):
    engine = _engine(mode)

    def bad():
        yield 5.0
        yield Until(4.0)

    engine.process(bad())
    with pytest.raises(ValueError, match="in the past"):
        engine.run()


@pytest.mark.parametrize("mode", QUEUE_MODES)
def test_until_now_still_yields_to_same_instant_entries(mode):
    engine = _engine(mode)
    log = []

    def sleeper():
        yield 3.0
        yield Until(engine.now)
        log.append("sleeper")

    def other():
        yield 3.0
        log.append("other")

    engine.process(sleeper())
    engine.process(other())
    engine.run()
    assert log == ["other", "sleeper"]
    assert engine.now == 3.0


@pytest.mark.parametrize("mode", QUEUE_MODES)
def test_interrupt_away_from_until_ignores_the_stale_wake(mode):
    engine = _engine(mode)
    log = []

    def sleeper():
        try:
            yield Until(100.0)
            log.append("full sleep")
        except Interrupt as err:
            log.append(("interrupted", engine.now, err.cause))
        yield Until(150.0)  # still asleep when the stale wake pops
        log.append(("resumed", engine.now))

    def waker(target):
        yield 30.0
        target.interrupt("wake")

    target = engine.process(sleeper())
    engine.process(waker(target))
    engine.run()
    assert log == [("interrupted", 30.0, "wake"), ("resumed", 150.0)]


# -- processor: busy_run vs the busy loop ---------------------------------


def _processor(engine):
    stats = StatsBoard(1)
    cluster = Cluster(
        engine, ClusterConfig(), CostModel(), Mechanism.POLL, [(0, 0)], stats
    )
    return cluster.proc(0), stats[0]


@pytest.mark.parametrize("costs", [[], [0.0], [0.0, 0.0, 0.0]])
def test_busy_run_of_nothing_yields_nothing(engine, costs):
    proc, stat = _processor(engine)
    assert list(proc.busy_run(costs, Category.PROTOCOL)) == []
    assert stat.time[Category.PROTOCOL] == 0.0


@pytest.mark.parametrize("costs", [[-1.0], [12.0, -1e-9, 62.0]])
def test_negative_occupancy_raises(engine, costs):
    proc, stat = _processor(engine)
    with pytest.raises(ValueError, match="negative busy"):
        list(proc.busy_run(costs, Category.PROTOCOL))
    with pytest.raises(ValueError, match="negative busy"):
        list(proc.busy(-1.0, Category.PROTOCOL))
    assert stat.time[Category.PROTOCOL] == 0.0  # nothing charged


@settings(max_examples=60, deadline=None)
@given(
    start=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    costs=st.lists(st.one_of(st.just(0.0), _cost), max_size=12),
)
def test_busy_run_sleeps_and_charges_like_the_busy_loop(start, costs):
    def measure(run):
        engine = Engine()
        proc, stat = _processor(engine)
        wakes = []

        def worker():
            yield start
            before = engine.events_fired
            if run:
                yield from proc.busy_run(costs, Category.PROTOCOL)
            else:
                for us in costs:
                    yield from proc.busy(us, Category.PROTOCOL)
            wakes.append(engine.events_fired - before)

        engine.process(worker())
        engine.run()
        return engine.now, stat.time[Category.PROTOCOL], wakes[0]

    end, charged, events = measure(run=True)
    loop_end, loop_charged, loop_events = measure(run=False)
    assert (end, charged) == (loop_end, loop_charged)  # bit-identical
    assert events == min(loop_events, 2)  # one fire + one resume, or none


# -- protocol: the order gate ----------------------------------------------


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(**LRC_FUZZ_AXES)
def test_one_wake_merge_matches_the_per_occupancy_oracle(
    rounds, variant, homing, network, nprocs
):
    cfg = lrc_fuzz_config(variant, homing, network, nprocs)
    program = lrc_program(rounds)
    production = run_program(program, cfg, {})
    with per_occupancy():
        oracle = run_program(program, cfg, {})
    assert result_digest(production) == result_digest(oracle)
    assert timelines(production.trace, nprocs) == timelines(
        oracle.trace, nprocs
    )


@pytest.mark.parametrize(
    "app, variant, nprocs, homing",
    [
        ("sor", "tmk_mc_poll", 8, "first-touch"),
        ("water", "tmk_udp_int", 8, "first-touch"),
        ("em3d", "hlrc_poll", 16, "round-robin"),
        ("irreg", "hlrc_int", 8, "first-touch"),
        ("tsp", "hlrc_int", 8, "dynamic"),
        ("water", "hlrc_poll", 16, "dynamic"),
    ],
)
def test_traced_app_timeline_equals_the_oracles(app, variant, nprocs, homing):
    """Each ``invalidate`` is stamped with the time its page's turn came
    in the merge — not the time the merge was evaluated — so every
    processor's timeline is the oracle's, event for event."""

    def traced():
        return api.run_point(
            app, variant, nprocs, scale="tiny", homing=homing, trace=True
        )

    production = traced()
    with per_occupancy():
        oracle = traced()
    assert result_digest(production) == result_digest(oracle)
    assert production.trace.counts().get("invalidate", 0) > 0
    if homing == "dynamic":  # homes moved while merges were in flight
        assert production.counter("home_migrations") > 0
    assert timelines(production.trace, nprocs) == timelines(
        oracle.trace, nprocs
    )
