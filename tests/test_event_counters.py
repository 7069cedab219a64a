"""A counter is the count of its events.

``DsmProtocol.record`` increments the counter ``EVENT_COUNTERS`` pairs
with an event's kind and traces the event, so on a traced run each
processor's live counters equal the number of its trace events of the
paired kinds.  The runs below reach every counted kind (faults, twins,
diffs, page fetches and transfers, write notices, one-sided reads,
prefetches, home migrations, evictions, GC rounds, barriers and locks),
and each event's details must match its docs/OBSERVABILITY.md row.
"""

from collections import Counter

import pytest

import repro.core.treadmarks.protocol as tmk_protocol
from repro.apps import registry
from repro.config import TMK_MC_POLL, RunConfig, variant_by_name
from repro.core import run_program
from repro.stats.counters import EVENT_COUNTERS

from tests.test_observability_docs import catalog_rows
from tests.test_tmk_gc import churn_program

PROTOCOLS = ("csm_poll", "tmk_mc_poll", "hlrc_poll")


def _run(app, variant, **knobs):
    module = registry.load(app)
    config = RunConfig(
        variant=variant_by_name(variant), nprocs=4, trace=True, **knobs
    )
    return run_program(module.program(), config, module.default_params("tiny"))


@pytest.fixture(scope="module")
def runs():
    found = {}
    for variant in PROTOCOLS:
        found[f"water {variant}"] = _run("water", variant)
        found[f"sor {variant} rdma"] = _run("sor", variant, network="rdma")
        found[f"water {variant} dynamic+seq"] = _run(
            "water", variant, homing="dynamic", prefetch="seq"
        )
    found["irreg csm_poll node_mem_pages=3"] = _run(
        "irreg", "csm_poll", node_mem_pages=3
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tmk_protocol, "GC_RECORD_THRESHOLD", 16)
        config = RunConfig(variant=TMK_MC_POLL, nprocs=4, trace=True)
        found["churn tmk_mc_poll gc"] = run_program(
            churn_program(), config, {}
        )
    return found


def test_counter_is_the_count_of_its_events(runs):
    seen = Counter()
    for label, result in runs.items():
        events = Counter(
            (event.pid, event.kind) for event in result.trace.timeline()
        )
        seen.update(kind for _, kind in events.elements())
        for stats in result.stats:
            for counter in set(EVENT_COUNTERS.values()):
                recorded = sum(
                    events[stats.pid, kind]
                    for kind, paired in EVENT_COUNTERS.items()
                    if paired == counter
                )
                assert stats.counters[counter] == recorded, (
                    label, stats.pid, counter
                )
    never = set(EVENT_COUNTERS) - set(seen)
    assert not never, f"no run recorded {sorted(never)}"


def test_event_details_match_the_catalog(runs):
    documented = {}
    for kind, keys, _ in catalog_rows():
        documented.setdefault(kind, set()).add(keys)
    for label, result in runs.items():
        for event in result.trace.timeline():
            keys = frozenset(key for key, _ in event.details)
            assert keys in documented[event.kind], (label, event)
