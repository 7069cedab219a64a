"""Goldens for the LRC fault path and the home-placement rules.

``tests/golden_fault_paths.json`` pins, with ``==``, the simulated
outcome of points that exercise what the TreadMarks and HLRC fault
paths and the Cashmere/HLRC home table do differently: round-robin and
dynamic homing (home migrations), software prefetch at sub-page
granularity, cold starts, and one-sided (RDMA) fetches.  Each case pins
``exec_time``, ``network_bytes``, every aggregate counter, the
breakdown and the served result digest.

Regenerate only when simulated semantics change intentionally:

    PYTHONPATH=src python -m tests.test_golden_fault_paths
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import api
from repro.serving.codec import result_digest

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_fault_paths.json"

_RDMA_DYNAMIC = {"network": "rdma", "homing": "dynamic"}
_FINE_PREFETCH = {"network": "rdma", "granularity": "block256", "prefetch": "seq"}

#: (app, variant, nprocs, RunConfig overrides, warm_start)
CASES = [
    ("irreg", "csm_poll", 8, _RDMA_DYNAMIC, True),
    ("irreg", "csm_poll", 8, {"homing": "round-robin"}, True),
    ("irreg", "csm_poll", 8, _FINE_PREFETCH, True),
    ("tsp", "hlrc_int", 8, {"homing": "dynamic"}, True),
    ("water", "hlrc_poll", 16, {"homing": "dynamic"}, True),
    # HLRC vetoes a move here (the old home is mid-interval).
    ("water", "hlrc_poll", 8, {"homing": "dynamic"}, True),
    ("em3d", "hlrc_poll", 16, {"homing": "round-robin"}, True),
    ("irreg", "hlrc_poll", 8, _FINE_PREFETCH, True),
    ("irreg", "tmk_mc_poll", 8, _FINE_PREFETCH, True),
    ("sor", "hlrc_poll", 4, {}, False),
    ("sor", "tmk_mc_poll", 4, {}, False),
    ("water", "tmk_udp_int", 8, {"network": "rdma"}, True),
]


def _case_id(case) -> str:
    app, variant, nprocs, overrides, warm = case
    knobs = [f"{k}={v}" for k, v in sorted(overrides.items())]
    if not warm:
        knobs.append("cold")
    return "-".join([app, variant, f"{nprocs}p", *knobs])


def record(case) -> dict:
    app, variant, nprocs, overrides, warm = case
    result = api.run_point(
        app, variant, nprocs, scale="tiny", warm_start=warm, **overrides
    )
    agg = result.stats.aggregate_counters()
    return {
        "id": _case_id(case),
        "exec_time": result.exec_time,
        "network_bytes": result.network_bytes,
        "counters": {name: agg[name] for name in sorted(agg)},
        "breakdown": result.breakdown.as_dict(),
        "digest": result_digest(result),
    }


def _goldens():
    return {g["id"]: g for g in json.loads(GOLDEN_PATH.read_text())}


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_fault_path_golden(case):
    golden = _goldens()[_case_id(case)]
    assert record(case) == golden


def test_goldens_cover_the_fault_path_differences():
    """The pinned points really exercise migration and prefetch."""
    goldens = _goldens()
    migrations = [
        g["counters"].get("home_migrations", 0)
        for key, g in goldens.items()
        if "homing=dynamic" in key
    ]
    assert migrations and all(m > 0 for m in migrations)
    prefetches = [
        g["counters"].get("prefetches", 0)
        for key, g in goldens.items()
        if "prefetch=seq" in key
    ]
    assert prefetches and all(p > 0 for p in prefetches)


if __name__ == "__main__":
    records = [record(case) for case in CASES]
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} goldens to {GOLDEN_PATH}")
