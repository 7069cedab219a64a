"""Regenerate the per-network-backend goldens.

Writes two kinds of pinned artifacts:

* ``tests/golden_networks.json`` — raw per-point outcomes (exec time,
  network bytes, counters, breakdown) for a protocol spread under every
  network backend; ``tests/test_network_backends.py`` replays them on
  production and the test oracles and requires exact equality.
* ``tests/golden_cross_era_<backend>.txt`` — the rendered cross-era
  study for one backend at a pinned invocation (scale=tiny, sor+water,
  counts 1 2 4 8).  The same file is diffed against live CLI output by
  CI's network-backend matrix.

Run this ONLY when a simulated-semantics change is intentional (a
protocol fix, a cost-model or backend-constant change); performance
work must leave these goldens alone.

Usage::

    PYTHONPATH=src python tests/regen_golden_networks.py
"""

import json
import pathlib

from repro import RunConfig, run_program, variant_by_name
from repro.apps import registry
from repro.config import NETWORK_BACKENDS
from repro.harness import cross_era
from repro.harness.runner import ExperimentContext

# A spread across the three protocol families (Cashmere directory,
# TreadMarks lazy diffs, home-based HLRC) — the ones whose data-fetch
# paths diverge per backend (one-sided reads vs request/reply).
CONFIGS = [
    ("sor", "csm_poll", 4, "tiny"),
    ("sor", "tmk_mc_poll", 4, "tiny"),
    ("water", "hlrc_poll", 2, "tiny"),
]

# The pinned cross-era invocation.  Keep in lock step with the CI
# backend matrix (.github/workflows/ci.yml) and the golden-replay test.
CROSS_ERA_APPS = ("sor", "water")
CROSS_ERA_COUNTS = (1, 2, 4, 8)


def golden(app, variant, nprocs, scale, network):
    module = registry.load(app)
    params = module.default_params(scale)
    cfg = RunConfig(
        variant=variant_by_name(variant),
        nprocs=nprocs,
        warm_start=True,
        network=network,
    )
    result = run_program(module.program(), cfg, params)
    agg = result.stats.aggregate_counters()
    return {
        "app": app,
        "variant": variant,
        "nprocs": nprocs,
        "scale": scale,
        "network": network,
        "exec_time": result.exec_time,
        "network_bytes": result.network_bytes,
        "counters": {k: agg[k] for k in sorted(agg)},
        "breakdown": result.breakdown.as_dict(),
    }


def main() -> None:
    here = pathlib.Path(__file__).parent
    out = [
        golden(*spec, network)
        for network in NETWORK_BACKENDS
        for spec in CONFIGS
    ]
    path = here / "golden_networks.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} goldens to {path}")
    for network in NETWORK_BACKENDS:
        ctx = ExperimentContext(scale="tiny")
        result = cross_era.run(
            ctx,
            apps=CROSS_ERA_APPS,
            counts=CROSS_ERA_COUNTS,
            networks=[network],
        )
        path = here / f"golden_cross_era_{network}.txt"
        path.write_text(result.text + "\n")
        print(f"wrote rendered cross-era study to {path}")


if __name__ == "__main__":
    main()
