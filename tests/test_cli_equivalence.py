"""The CLI is a thin shell over ``api.run_experiment``.

For each argv below, ``main(argv)`` must print exactly the text of the
``api.run_experiment`` call the argv names, plus the driver's chart
when ``--chart`` is given.  The expected keyword arguments are written
out by hand, so a change in how the CLI maps flags onto a driver shows
up here even if the rendered text of some other invocation still
matches.  The rows cover the driver flags no other test exercises.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.config import CSM_POLL
from repro.harness import cross_era, plots
from repro.harness.cache import ResultCache
from repro.harness.cli import main

TINY = ["--scale", "tiny"]


def _figure5_chart(rows):
    apps = list(dict.fromkeys(curve.app for curve in rows))
    return [
        plots.line_chart(
            {c.variant: c.points for c in rows if c.app == app},
            title=f"Figure 5: {app}",
        )
        for app in apps
    ]


CHARTS = {
    "figure5": _figure5_chart,
    "figure6": lambda rows: [plots.breakdown_chart(list(rows))],
    "cross_era": lambda rows: [cross_era.chart(list(rows))],
}

CASES = {
    "figure5-full-chart": (
        ["figure5", "--apps", "sor", "lu", "--variants", "csm_poll",
         "--full", "--chart"],
        "figure5",
        {"apps": ["sor", "lu"], "variants": [CSM_POLL],
         "counts": [1, 2, 4, 8, 12, 16, 24, 32]},
        {},
    ),
    "cross_era-networks-chart": (
        ["cross_era", "--apps", "sor", "--counts", "1", "2",
         "--networks", "memch", "rdma", "--chart"],
        "cross_era",
        {"apps": ["sor"], "variants": None, "counts": [1, 2],
         "networks": ["memch", "rdma"]},
        {},
    ),
    "scaling-strong": (
        ["scaling", "--mode", "strong", "--app", "sor", "--counts", "2",
         "4"],
        "scaling",
        {"app": "sor", "mode": "strong", "counts": [2, 4],
         "variants": None},
        {},
    ),
    "scaling-knobs": (
        ["scaling", "--app", "sor", "--counts", "2", "4", "--variants",
         "csm_poll", "--fanin", "4", "--dir-shards", "2", "--node-mem",
         "64"],
        "scaling",
        {"app": "sor", "mode": "weak", "counts": [2, 4],
         "variants": [CSM_POLL], "barrier_fanin": 4, "dir_shards": 2,
         "node_mem_pages": 64},
        {},
    ),
    "policies-default-network": (
        ["policies", "--app", "sor", "--variants", "csm_poll", "--procs",
         "4"],
        "policies",
        {"app": "sor", "variants": [CSM_POLL], "nprocs": 4,
         "network": "rdma"},
        {},
    ),
    "policies-network": (
        ["policies", "--app", "sor", "--variants", "csm_poll", "--procs",
         "4", "--network", "ethernet"],
        "policies",
        {"app": "sor", "variants": [CSM_POLL], "nprocs": 4,
         "network": "ethernet"},
        {"network": "ethernet"},
    ),
    "sweep-latency": (
        ["sweep", "--knob", "latency", "--app", "sor", "--procs", "4"],
        "sweep",
        {"knob": "latency", "app": "sor", "nprocs": 4},
        {},
    ),
    "table3-procs": (
        ["table3", "--apps", "sor", "--procs", "4"],
        "table3",
        {"apps": ["sor"], "nprocs": 4},
        {},
    ),
    "figure6-procs-chart": (
        ["figure6", "--apps", "sor", "--procs", "4", "--chart"],
        "figure6",
        {"apps": ["sor"], "nprocs": 4},
        {},
    ),
}


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-equivalence-cache")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_prints_run_experiment_text(case, shared_cache_dir, capsys):
    argv, driver, kwargs, overrides = CASES[case]
    assert main(argv + TINY + ["--cache-dir", str(shared_cache_dir)]) == 0
    printed = capsys.readouterr().out
    result = api.run_experiment(
        driver,
        scale="tiny",
        cache=ResultCache(cache_dir=shared_cache_dir),
        overrides=overrides,
        **kwargs,
    )
    expected = result.text + "\n"
    if "--chart" in argv:
        expected += "".join(
            "\n" + block + "\n" for block in CHARTS[driver](result.rows)
        )
    assert printed == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["scaling", "--app", "sor", "--counts", "0", "4"],
        ["figure5", "--counts", "0", "2"],
        ["table3", "--procs", "-2"],
        ["run", "sor", "--procs", "0"],
    ],
    ids=["scaling-counts", "figure5-counts", "table3-procs", "run-procs"],
)
def test_non_positive_processor_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv + TINY)
    assert exc_info.value.code == 2
    assert "is not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--fanin", "1"], ["--dir-shards", "0"], ["--node-mem", "x"]],
    ids=["fanin", "dir-shards", "node-mem"],
)
def test_invalid_scaling_knobs_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["scaling", "--app", "sor", "--counts", "2", "4"] + argv + TINY)
    assert exc_info.value.code == 2
    assert "known: None or an int" in capsys.readouterr().err
