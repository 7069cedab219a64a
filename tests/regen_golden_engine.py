"""Regenerate ``tests/golden_engine.json``.

Run this ONLY when a simulated-semantics change is intentional (protocol
fix, cost-model change); performance work must leave the goldens alone —
that is the point of ``tests/test_engine_equivalence.py``.  Each point
is built by ``api.run_point``, the call that test replays.

Usage::

    PYTHONPATH=src python tests/regen_golden_engine.py
"""

import json
import pathlib

from repro import api

# A spread across protocols (Cashmere, TreadMarks, HLRC), mechanisms
# (poll, interrupt, protocol processor), and transports (MC, UDP), and
# the sequential baseline.
CONFIGS = [
    ("sor", "csm_poll", 4, "tiny"),
    ("sor", "tmk_mc_poll", 4, "tiny"),
    ("water", "tmk_udp_int", 2, "tiny"),
    ("gauss", "csm_pp", 4, "tiny"),
    ("tsp", "hlrc_poll", 4, "tiny"),
    ("lu", "csm_int", 4, "tiny"),
    ("sor", "sequential", 1, "tiny"),
]


def golden(app, variant, nprocs, scale):
    result = api.run_point(
        app, None if variant == "sequential" else variant, nprocs,
        scale=scale,
    )
    agg = result.stats.aggregate_counters()
    if variant == "sequential":
        agg = {}  # the baseline's record pins no counters
    return {
        "app": app,
        "variant": variant,
        "nprocs": nprocs,
        "scale": scale,
        "exec_time": result.exec_time,
        "network_bytes": result.network_bytes,
        "counters": {k: agg[k] for k in sorted(agg)},
        "breakdown": result.breakdown.as_dict(),
    }


def main() -> None:
    out = [golden(*spec) for spec in CONFIGS]
    path = pathlib.Path(__file__).parent / "golden_engine.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True))
    print(f"wrote {len(out)} goldens to {path}")


if __name__ == "__main__":
    main()
