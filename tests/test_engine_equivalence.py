"""Bit-exact equivalence of the optimized hot paths.

``tests/golden_engine.json`` holds run outcomes (simulated times,
counters, breakdowns) captured before the engine and diff hot-path
optimizations landed.  These tests re-run the same configurations and
require *exact* equality — the optimizations must change wall-clock
time only, never a single simulated microsecond or counter.

The goldens predate the shared-access fast path, the kernel layer and
the calendar-queue engine, so every case runs on production, on the
per-page access oracle (``tests/access_oracle.py``), on the binary-heap
engine oracle (``tests/heap_oracle.py``) and on both oracles at once —
proving production and the references all reproduce the
pre-optimization simulated results exactly.  The case ids keep the
names of the retired mode matrix (``tests/conftest.py``).  Runs go
through the public ``repro.api`` facade, so the goldens also pin its
behaviour.

Regenerate the goldens only when the simulation's *semantics* change
intentionally (a protocol fix, a cost-model change):

    PYTHONPATH=src python tests/regen_golden_engine.py
"""

import json
import pathlib

import pytest

from repro import api
from tests.helpers import replay_ids

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_engine.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())


def _run(golden):
    variant = (
        None if golden["variant"] == "sequential" else golden["variant"]
    )
    return api.run_point(
        golden["app"],
        variant,
        golden.get("nprocs", 1),
        scale=golden["scale"],
    )


@pytest.mark.parametrize(
    "golden",
    GOLDENS,
    ids=[f"{g['app']}-{g['variant']}-{g['nprocs']}p" for g in GOLDENS],
)
@pytest.mark.parametrize(
    "replay", replay_ids(["calqueue", "noshard", "heap"]), indirect=True
)
def test_run_matches_golden(golden, replay):
    result = replay(json.dumps(golden, sort_keys=True), lambda: _run(golden))
    assert result.exec_time == golden["exec_time"]
    assert result.network_bytes == golden["network_bytes"]
    agg = result.stats.aggregate_counters()
    for name, value in golden["counters"].items():
        assert agg[name] == value, f"counter {name}"
    breakdown = result.breakdown.as_dict()
    for category, value in golden["breakdown"].items():
        assert breakdown[category] == value, f"breakdown {category}"
