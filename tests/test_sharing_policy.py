"""The sharing-policy layer's contract (docs/POLICIES.md).

Three guarantees, each locked in here:

* **Policies move costs, never values** — hypothesis samples the
  granularity x prefetch x homing x variant matrix on three apps
  (regular sor, pivoting gauss, irregular false-sharing irreg) and
  every combination must reproduce the default triple's results
  bit-for-bit.
* **The default triple is the pre-policy simulator** — passing
  ``(page, none, first-touch)`` explicitly is byte-identical (times,
  counters, values) to not passing policy knobs at all, on production
  and on the per-page access and binary-heap oracles.
* **The machinery actually engages** — prefetch and dynamic-homing
  runs bump their counters, sub-page units respect the per-message
  cost floor, and bad policy values fail loudly at config time.
"""

import functools

import pytest
from hypothesis import given, strategies as st

from repro import api
from repro.config import CostModel, RunConfig, variant_by_name
from repro.memory import policy
from tests.helpers import (
    LRC_AXIS_VALUES,
    POLICY_AXES,
    covering_examples,
    replay_ids,
    values_match,
)

VARIANTS = ("csm_poll", "tmk_mc_poll", "hlrc_poll")
APPS = ("sor", "gauss", "irreg")
NPROCS = 4


@functools.lru_cache(maxsize=None)
def _reference_values(app: str, variant: str):
    """Default-triple values for (app, variant), once per session."""
    return api.run_point(
        app, variant, NPROCS, scale="tiny", network="rdma"
    ).values


@covering_examples(
    dict(
        app=APPS,
        variant=VARIANTS,
        **{name: LRC_AXIS_VALUES[name] for name in POLICY_AXES},
    )
)
@given(
    app=st.sampled_from(APPS), variant=st.sampled_from(VARIANTS), **POLICY_AXES
)
def test_any_policy_combo_preserves_values(
    app, variant, granularity, prefetch, homing
):
    result = api.run_point(
        app,
        variant,
        NPROCS,
        scale="tiny",
        network="rdma",
        granularity=granularity,
        prefetch=prefetch,
        homing=homing,
    )
    assert values_match(
        _reference_values(app, variant), result.values
    ), (
        f"{app}/{variant} values diverged under "
        f"({granularity}, {prefetch}, {homing})"
    )


# -- default-triple bit-identity on production and the oracles ----------


@pytest.mark.parametrize("app,variant", [
    ("sor", "csm_poll"),
    ("irreg", "hlrc_poll"),
])
@pytest.mark.parametrize(
    "replay", replay_ids(["calqueue", "noshard", "heap"]), indirect=True
)
def test_explicit_default_triple_is_byte_identical(app, variant, replay):
    """On production and on every oracle, spelling out the default
    triple must reconstruct the pre-policy simulation exactly — times,
    counters, and values, not just values."""
    implicit = replay(
        ("implicit", app, variant),
        lambda: api.run_point(app, variant, NPROCS, scale="tiny"),
    )
    explicit = replay(
        ("explicit", app, variant),
        lambda: api.run_point(
            app,
            variant,
            NPROCS,
            scale="tiny",
            granularity="page",
            prefetch="none",
            homing="first-touch",
        ),
    )
    assert explicit.exec_time == implicit.exec_time
    assert explicit.network_bytes == implicit.network_bytes
    assert (
        explicit.stats.aggregate_counters()
        == implicit.stats.aggregate_counters()
    )
    assert values_match(implicit.values, explicit.values)


# -- the machinery engages ---------------------------------------------


def test_prefetch_fires_and_counts():
    result = api.run_point(
        "irreg",
        "hlrc_poll",
        NPROCS,
        scale="tiny",
        network="rdma",
        granularity="block256",
        prefetch="seq",
    )
    assert result.counter("prefetches") > 0
    assert values_match(
        _reference_values("irreg", "hlrc_poll"), result.values
    )


def test_dynamic_homing_migrates_and_counts():
    result = api.run_point(
        "irreg",
        "csm_poll",
        8,
        scale="tiny",
        network="rdma",
        homing="dynamic",
    )
    assert result.counter("home_migrations") > 0
    baseline = api.run_point(
        "irreg", "csm_poll", 8, scale="tiny", network="rdma"
    )
    assert values_match(baseline.values, result.values)


def test_treadmarks_accepts_homing_as_noop():
    # No data homes in TreadMarks: the knob validates but nothing
    # migrates, and results are identical to first-touch.
    result = api.run_point(
        "irreg",
        "tmk_mc_poll",
        NPROCS,
        scale="tiny",
        network="rdma",
        homing="dynamic",
    )
    assert result.counter("home_migrations") == 0
    assert values_match(
        _reference_values("irreg", "tmk_mc_poll"), result.values
    )


# -- config-layer validation and the cost floor ------------------------


def test_unit_cost_floor():
    costs = CostModel()
    # A full page pays the paper's cost untouched.
    assert costs.page_sized(362.0, 8192) == 362.0
    # Sub-page units scale linearly...
    assert costs.page_sized(362.0, 2048) == pytest.approx(362.0 / 4)
    # ...but never below the per-message floor.
    assert costs.page_sized(100.0, 256) == costs.unit_cost_floor
    assert costs.page_sized(100.0, 256) == 9.0
    # Multi-page regions scale up.
    assert costs.page_sized(362.0, 16384) == pytest.approx(724.0)


@pytest.mark.parametrize("field,value", [
    ("granularity", "block99"),
    ("prefetch", "psychic"),
    ("homing", "nowhere"),
])
def test_bad_policy_values_fail_at_config_time(field, value):
    with pytest.raises(ValueError, match="known"):
        RunConfig(
            variant=variant_by_name("csm_poll"),
            nprocs=2,
            **{field: value},
        )


def test_unit_size_resolution():
    assert policy.resolve_unit_size("page", 8192) is None
    assert policy.resolve_unit_size("block256", 8192) == 256
    assert policy.resolve_unit_size("region4", 8192) == 4 * 8192
    cfg = RunConfig(
        variant=variant_by_name("csm_poll"),
        nprocs=2,
        granularity="block1k",
    )
    assert cfg.unit_bytes == 1024
    assert cfg.resolved_unit_bytes == 1024
    cfg = RunConfig(variant=variant_by_name("csm_poll"), nprocs=2)
    assert cfg.unit_bytes is None
    assert cfg.resolved_unit_bytes == cfg.cluster.page_size
