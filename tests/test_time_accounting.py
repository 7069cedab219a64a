"""Global time-accounting invariants: every simulated microsecond of a
worker's execution is charged to exactly one category."""

import pytest

from repro.config import (
    CSM_POLL,
    HLRC_POLL,
    TMK_MC_POLL,
    RunConfig,
)
from repro.core import run_program, run_sequential
from repro.apps import registry, sor
from repro.apps.registry import APP_NAMES


@pytest.mark.parametrize(
    "variant", (CSM_POLL, TMK_MC_POLL, HLRC_POLL), ids=lambda v: v.name
)
@pytest.mark.parametrize("app", APP_NAMES)
def test_categories_cover_execution_time(variant, app):
    """Charged time equals finish time up to float rounding: the
    measured worst residual is 7e-15 relative, so a leak of any size
    that matters fails."""
    module = registry.load(app)
    params = module.default_params("tiny")
    result = run_program(
        module.program(), RunConfig(variant=variant, nprocs=4), params
    )
    for proc_stats in result.stats:
        accounted = proc_stats.total_time
        finish = proc_stats.finish_time
        assert finish > 0
        assert abs(accounted - finish) <= 1e-9 * finish, (
            f"p{proc_stats.pid}: {accounted!r} of {finish!r} us accounted"
        )


def test_sequential_time_is_pure_user():
    from repro.stats import Category

    params = sor.default_params("tiny")
    seq = run_sequential(sor.program(), params)
    times = seq.stats[0].reported_time
    assert times[Category.USER] == pytest.approx(seq.exec_time, rel=0.01)
    assert times[Category.COMM_WAIT] == 0.0
    assert times[Category.WDOUBLE] == 0.0


def test_breakdown_matches_exec_time_scaled():
    params = sor.default_params("tiny")
    result = run_program(
        sor.program(), RunConfig(variant=CSM_POLL, nprocs=8), params
    )
    breakdown = result.breakdown
    # Aggregate charged time across processors approximates
    # nprocs x exec_time (each processor runs for the whole execution).
    assert breakdown.total == pytest.approx(
        8 * result.exec_time, rel=0.10
    )
