"""Tests for the experiment harness (tables, figures, CLI)."""

from unittest import mock

import pytest

from repro import api
from repro.config import CSM_POLL, CSM_PP, TMK_MC_POLL, TMK_UDP_INT
from repro.harness import figure5, figure6, table1, table2, table3
from repro.harness.cli import build_parser, main
from repro.harness.runner import ExperimentContext, feasible_counts
from repro.memory.address_space import AddressSpace
from repro.stats import Category


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale="tiny")


@pytest.fixture(scope="module")
def table1_rows(ctx):
    return table1.generate(ctx)


def test_table1_covers_all_variants(table1_rows):
    assert [r.variant for r in table1_rows] == [
        "csm_pp",
        "csm_int",
        "csm_poll",
        "tmk_udp_int",
        "tmk_mc_int",
        "tmk_mc_poll",
    ]


def test_table1_values_positive(table1_rows):
    for row in table1_rows:
        for value in row.as_dict().values():
            assert value > 0


def test_table1_shapes(table1_rows):
    by_name = {r.variant: r for r in table1_rows}
    # Bigger barriers cost more.
    for row in table1_rows:
        assert row.barrier_16 > row.barrier_2
    # Kernel UDP messaging is the most expensive lock path.
    assert (
        by_name["tmk_udp_int"].lock_acquire
        > by_name["tmk_mc_poll"].lock_acquire
    )
    # Cashmere locks are plain MC writes: cheaper than any TMK lock.
    assert (
        by_name["csm_poll"].lock_acquire
        < by_name["tmk_mc_poll"].lock_acquire
    )
    # A page transfer costs hundreds of microseconds on every system.
    for row in table1_rows:
        assert 200 < row.page_transfer < 5000


def test_table1_render(table1_rows):
    text = table1.render(table1_rows)
    assert "Lock Acquire" in text
    assert "csm_poll" in text
    assert "(" in text  # 16-processor barrier in parentheses


def test_table2_rows(ctx):
    rows = table2.generate(ctx)
    assert [r.app for r in rows] == list(
        ("sor", "lu", "water", "tsp", "gauss", "ilink", "em3d", "barnes")
    )
    for row in rows:
        assert row.sequential_seconds > 0
        assert row.shared_mbytes > 0
        assert row.paper_sequential_seconds > 0
    text = table2.render(rows)
    assert "sor" in text and "Paper" in text


def test_table3_cells(ctx):
    cells = table3.generate(ctx, apps=["sor"], nprocs=4)
    assert len(cells) == 2
    csm = next(c for c in cells if c.system == "CSM")
    tmk = next(c for c in cells if c.system == "TMK")
    assert csm.page_transfers is not None and csm.messages is None
    assert tmk.messages is not None and tmk.page_transfers is None
    assert csm.barriers == tmk.barriers  # same program structure
    assert csm.exec_seconds > 0
    text = table3.render(cells)
    assert "Page transfers" in text and "Messages" in text


def test_table3_barnes_runs_at_16():
    assert table3.procs_for("barnes") == 16
    assert table3.procs_for("sor") == 32


def test_figure5_curves(ctx):
    curves = figure5.generate(
        ctx,
        apps=["sor"],
        variants=[CSM_POLL, CSM_PP],
        counts=[1, 2, 4],
    )
    assert len(curves) == 2
    for curve in curves:
        assert set(curve.points) == {1, 2, 4}
        assert all(s > 0 for s in curve.points.values())
    text = figure5.render(curves)
    assert "== sor ==" in text


def test_figure5_pp_not_applicable_at_32():
    assert feasible_counts([16, 24, 32], CSM_PP) == [16, 24]
    assert feasible_counts([16, 24, 32], CSM_POLL) == [16, 24, 32]


def test_figure6_bars(ctx):
    bars = figure6.generate(ctx, apps=["sor"], nprocs=4)
    assert len(bars) == 2
    csm = next(b for b in bars if b.system == "CSM")
    tmk = next(b for b in bars if b.system == "TMK")
    # Normalization: the Cashmere bar totals exactly 1.
    assert csm.total == pytest.approx(1.0)
    assert sum(csm.normalized.values()) == pytest.approx(1.0)
    # TreadMarks never pays write doubling.
    assert tmk.normalized[Category.WDOUBLE] == 0.0
    text = figure6.render(bars)
    assert "write_doubling" in text


def test_sequential_results_cached(ctx):
    first = ctx.sequential("sor")
    second = ctx.sequential("sor")
    assert first is second


def test_cli_parser_commands():
    parser = build_parser()
    for command in ("table1", "table2", "table3", "figure5", "figure6"):
        args = parser.parse_args([command])
        assert args.command == command


def test_cli_runs_table2(capsys):
    assert main(["table2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "sor" in out


def test_cli_runs_figure5_subset(capsys):
    assert (
        main(
            [
                "figure5",
                "--scale",
                "tiny",
                "--apps",
                "sor",
                "--variants",
                "csm_poll",
                "--counts",
                "1",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "csm_poll" in out


def test_cli_run_command(capsys):
    assert (
        main(
            [
                "run",
                "sor",
                "--scale",
                "tiny",
                "--variant",
                "csm_poll",
                "--procs",
                "4",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "breakdown" in out


def test_cli_run_with_trace(capsys):
    assert (
        main(
            [
                "run",
                "sor",
                "--scale",
                "tiny",
                "--procs",
                "2",
                "--trace",
                "--trace-limit",
                "10",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "protocol events" in out


def test_cli_figure6_chart(capsys):
    assert main(["figure6", "--scale", "tiny", "--apps", "sor",
                 "--procs", "4", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "segments:" in out


def test_cli_sweep_command(capsys):
    assert (
        main(
            [
                "sweep",
                "--scale",
                "tiny",
                "--knob",
                "latency",
                "--app",
                "sor",
                "--procs",
                "4",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "latency" in out
    assert "gains:" in out


def test_sweep_module_shapes():
    from repro.harness import sweep

    points = sweep.sweep_bandwidth(
        ExperimentContext(scale="tiny"),
        app="sor",
        nprocs=4,
        multipliers=(1.0, 4.0),
    )
    assert len(points) == 4  # 2 multipliers x 2 variants
    gains = sweep.gains(points)
    assert set(gains) == {"csm_poll", "tmk_mc_poll"}
    rendered = sweep.render(points)
    assert "bandwidth" in rendered


def test_run_experiment_overrides_end_with_the_call():
    """Knobs passed to one call leave nothing behind: the next call
    without them runs on memch, unchecked (no backing-store digest),
    and its provenance says so."""
    kwargs = dict(scale="tiny", apps=["sor"], variants=[CSM_POLL], counts=[2])
    rdma = api.run_experiment(
        "figure5", overrides={"network": "rdma", "debug_checks": True}, **kwargs
    )
    with mock.patch.object(
        AddressSpace, "backing_digest", autospec=True
    ) as checks:
        plain = api.run_experiment("figure5", **kwargs)
    assert checks.call_count == 0
    assert rdma.provenance["overrides"]["network"] == "rdma"
    assert rdma.provenance["overrides"]["debug_checks"] is True
    assert plain.provenance["overrides"]["network"] == "memch"
    assert plain.provenance["overrides"]["debug_checks"] is False
    memch = api.run_experiment(
        "figure5", overrides={"network": "memch"}, **kwargs
    )
    assert plain.text == memch.text != rdma.text


def test_run_experiment_refuses_overrides_beside_a_context():
    """A passed context keeps its own overrides; per-call ones would be
    dropped, so the call refuses them instead of running unchecked."""
    ctx = ExperimentContext(scale="tiny")
    with pytest.raises(ValueError, match="overrides"):
        api.run_experiment(
            "figure5",
            ctx=ctx,
            overrides={"debug_checks": True},
            apps=["sor"],
            variants=[CSM_POLL],
            counts=[2],
        )


def test_table1_runs_on_the_overridden_network():
    memch = api.run_experiment("table1").text
    ethernet = api.run_experiment(
        "table1", overrides={"network": "ethernet"}
    ).text
    assert ethernet != memch
