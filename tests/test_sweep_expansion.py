"""``POST /v1/sweep`` expansion is the figure5/scaling drivers' own
point enumeration.

``golden_sweeps.json`` pins ``expand_sweep``'s output, order included,
for the default figure5 grid, a ``baselines: false`` subset, weak and
strong scaling with defaults, and requests that carry
``options``/``overrides``/``warm_start``.  It was recorded before the
expansion moved into the drivers' ``points`` functions, so it holds
the wire behaviour fixed across that move.

The served points must also *be* the driver's points: each expanded
request resolves to the spec, and so the cache key, of the driver's
own point, gauss's scaled caches included.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import api
from repro.apps import gauss, registry
from repro.config import CostModel, variant_by_name
from repro.harness import scaling
from repro.harness.cache import key_for_spec, result_digest
from repro.harness.declaration import resolve
from repro.harness.runner import BatchPoint, ExperimentContext
from repro.serving import ServingError, expand_sweep, request_kwargs
from repro.serving.codec import decode_request

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_sweeps.json").read_text()
)


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[str(i) for i in range(len(GOLDEN))]
)
def test_expand_sweep_matches_golden(case):
    points = expand_sweep(dict(case["request"]))
    assert json.loads(json.dumps(points)) == case["points"]


@pytest.mark.parametrize(
    "request_body",
    [
        {"kind": "scaling", "app": "sor", "counts": [0, 4]},
        {"kind": "figure5", "apps": ["sor"], "counts": [0, 2]},
        {"kind": "figure5", "apps": ["sor"], "counts": [-2]},
    ],
)
def test_non_positive_counts_are_400(request_body):
    with pytest.raises(ServingError) as exc_info:
        expand_sweep(request_body)
    assert exc_info.value.status == 400
    assert "is not a positive integer" in str(exc_info.value)


def _sweeps(app):
    mode = "weak" if app in scaling.WEAK_KNOBS else "strong"
    return [
        ("figure5", {"apps": [app]}),
        ("scaling", {"app": app, "mode": mode}),
    ]


@pytest.mark.parametrize("app", registry.ALL_APP_NAMES)
def test_served_sweep_points_key_like_the_driver(app):
    ctx = ExperimentContext(scale="tiny")
    for kind, fields in _sweeps(app):
        driver = api.DRIVERS[kind]
        wire = expand_sweep(dict(fields, kind=kind, scale="tiny"))
        own = driver.points(ctx, **resolve(driver.PARAMS, fields))
        assert len(wire) == len(own)
        for point, batch_point in zip(wire, own):
            served = key_for_spec(api.point_spec(**request_kwargs(point)))
            assert served == key_for_spec(ctx._spec_for(batch_point)), point


@pytest.mark.parametrize("variant", [None, "csm_poll"])
def test_run_point_runs_gauss_as_the_driver_does(variant):
    """``api.run_point`` and the drivers' ``run_batch`` run one point:
    gauss on the caches its cost rule scales."""
    direct = api.run_point("gauss", variant, 4, scale="tiny")
    own = ExperimentContext(scale="tiny").run_batch(
        [BatchPoint("gauss", variant and variant_by_name(variant), 4)]
    )[0]
    assert result_digest(direct) == result_digest(own)
    assert direct.exec_time == own.exec_time


def test_a_wire_point_is_keyed_with_the_rule_on_its_own_params():
    """The cost rule reads the request's ``params``, not its scale
    tier's (``small``, where the rule gives other cache sizes)."""
    spec = decode_request(
        {"app": "gauss", "variant": "csm_poll", "nprocs": 4,
         "params": {"n": 64}}
    )
    own = CostModel(**gauss.cost_overrides({"n": 64}))
    tier = CostModel(**gauss.cost_overrides(gauss.default_params("small")))
    assert own != tier
    assert spec.config.costs == own
    tiered = replace(spec, config=replace(spec.config, costs=tier))
    assert key_for_spec(spec) != key_for_spec(tiered)
