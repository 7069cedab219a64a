"""``benchmarks/trajectory.jsonl``: the append-only history of accepted
performance PRs (ROADMAP aim 1) stays machine-readable.

One line per PR — ``{pr, commit, parent_commit, claim: {metric,
workload}, medians: {"<workload>/<metric>": {parent, change, unit}}}``
— with the ten-pair medians measured on the unmodified suite.  A line
is written inside the commit it describes, so it cannot know its own
hash: ``commit`` is ``null`` there (the backfilled lines carry it) and
``parent_commit`` pins the baseline the medians were measured against.
Every name must exist in ``BENCHMARK.json``, so a renamed workload or
metric cannot silently orphan the history.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _lines():
    text = (ROOT / "benchmarks" / "trajectory.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def test_every_line_names_only_declared_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    entries = _lines()
    assert len(entries) >= 3
    for entry in entries:
        assert set(entry) == {
            "pr", "commit", "parent_commit", "claim", "medians"
        }
        claim = entry["claim"]
        assert claim["workload"] in workloads and claim["metric"] in units
        assert f"{claim['workload']}/{claim['metric']}" in entry["medians"]
        for key, median in entry["medians"].items():
            workload, metric = key.split("/")
            assert workload in workloads and metric in units
            assert median["unit"] == units[metric]
            assert median["parent"] > 0 and median["change"] > 0


def test_history_is_in_pr_order():
    prs = [entry["pr"] for entry in _lines()]
    assert prs == sorted(set(prs))
