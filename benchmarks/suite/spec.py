"""Names the suite is judged by: workloads, metrics, layers.

``BENCHMARK.json`` is the single source for workload names, metric
names, units, directions and bounds; this module loads it, and defines
what the contract file cannot hold — which source file belongs to which
layer, and how the per-layer metric names are generated from the layer
list (``test_suite.py`` pins the generated list to the file).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
SRC = ROOT / "src"
#: Scratch space for cache dirs, span dumps and profiles.  Inside the
#: checkout because the benchmark may write nowhere else; every run
#: removes what it created.
TMP_ROOT = ROOT / ".bench_tmp"

SIM_WORKLOADS = ("fig5_8p", "share_64p")
SERVE_WORKLOADS = ("serve_hit", "serve_miss")

#: Layers in report order.  A profiled frame belongs to the layer of the
#: file that defines it; :func:`layer_of` is the mapping.
LAYERS = (
    "sim.engine",
    "cluster.machine",
    "cluster.messaging",
    "cluster.network",
    "core.base",
    "core.cashmere",
    "core.treadmarks",
    "core.hlrc",
    "core.lrc",
    "core.runtime",
    "memory.diff",
    "memory.space",
    "apps.kernels",
    "apps",
    "stats",
    "harness",
    "serving",
    "other",
)

# Longest prefix wins; paths are relative to src/repro.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim.engine"),
    ("cluster/messaging.py", "cluster.messaging"),
    ("cluster/network.py", "cluster.network"),
    ("cluster/", "cluster.machine"),
    ("core/cashmere/", "core.cashmere"),
    ("core/treadmarks/", "core.treadmarks"),
    ("core/hlrc/", "core.hlrc"),
    ("core/lrc.py", "core.lrc"),
    ("core/intervals.py", "core.lrc"),
    ("core/runtime/", "core.runtime"),
    ("core/", "core.base"),
    ("memory/diff.py", "memory.diff"),
    ("memory/", "memory.space"),
    ("apps/kernels.py", "apps.kernels"),
    ("apps/", "apps"),
    ("stats/", "stats"),
    ("serving/", "serving"),
    # harness/ plus the facade modules at the package root (api.py,
    # config.py, options.py): everything that turns a request into a run.
    ("", "harness"),
)

_REPO_MARK = str(SRC / "repro") + "/"


def layer_of(filename: str) -> Optional[str]:
    """The layer of one source file, or None for code outside the repo
    (stdlib, NumPy, builtins, the suite itself)."""
    if not filename.startswith(_REPO_MARK):
        return None
    rel = filename[len(_REPO_MARK):]
    for prefix, layer in _LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return None  # unreachable: "" matches


#: Exact counts: deterministic, equal on every repeat of one seed, and
#: the only numbers a later change may claim as a *count*.
EXACT_COUNTS = (
    "sim.engine.events",
    "sim.exec_time_us",
    "sim.stats_crc",
    "cluster.messaging.msgs",
    "cluster.network.bytes",
    "core.read_faults",
    "core.write_faults",
    "core.page_transfers",
    "core.sync_ops",
    "memory.diff.created",
    "memory.diff.applied",
    "memory.twins",
)

#: Per-layer metrics beyond the two-per-layer table and the counts:
#: name -> (unit, better).
_OTHER_PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.engine.ns_per_event": ("ns", "lower"),
    "harness.cache.get_us": ("us", "lower"),
    "harness.cache.put_us": ("us", "lower"),
    "harness.cache.gets": ("count", "lower"),
    "harness.cache.puts": ("count", "lower"),
    "harness.parallel.execute_us": ("us", "lower"),
    "serving.codec.validate_us": ("us", "lower"),
    "serving.server.encode_us": ("us", "lower"),
    "serving.server.resolve_us": ("us", "lower"),
    "serving.server.front_us": ("us", "lower"),
    "serving.pool.transit_us": ("us", "lower"),
    "serving.hot_hit_share": ("ratio", "higher"),
    "serving.disk_hit_share": ("ratio", "lower"),
    "serving.negative_hits": ("count", "lower"),
    "serving.coalesced_share": ("ratio", "higher"),
    "serving.batcher.mean_batch": ("count", "higher"),
    "serving.errors": ("count", "lower"),
    "serving.latency_p50_ms": ("ms", "lower"),
    "serving.latency_p99_ms": ("ms", "lower"),
    "serving.loadgen.cpu_us_per_req": ("us", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_contract() -> List[Dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``, generated."""
    rows = []
    for layer in LAYERS:
        rows.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
        rows.append({"name": f"{layer}.share", "unit": "ratio", "better": "lower"})
    for name in EXACT_COUNTS:
        rows.append({"name": name, "unit": "count", "better": "lower"})
    for name, (unit, better) in _OTHER_PER_LAYER.items():
        rows.append({"name": name, "unit": unit, "better": better})
    return rows


def load_contract() -> Dict:
    """``BENCHMARK.json`` as a dict."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def units(section: str) -> Dict[str, str]:
    """``{metric: unit}`` for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in load_contract()[section]}
