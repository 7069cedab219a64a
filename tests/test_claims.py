"""The claims ledger's self-test: no simulation.

``python -m benchmarks.claims`` measures every claim and records the
quantities its predicates read in ``benchmarks/claims/recorded.json``.
Here every predicate is evaluated on that file and must give its
expected verdict; the table must name declared drivers, parameters and
points; and EXPERIMENTS.md's two claim lists must be the rendered table.
"""

import dataclasses
import re

import pytest

from benchmarks.claims import (
    EXPERIMENTS,
    Driver,
    Point,
    load_recorded,
    render,
    verdict,
)
from benchmarks.claims.ledger import CLAIMS, MEASURES
from repro import api
from repro.config import RunConfig
from repro.harness.declaration import APP_CHOICES, VARIANT_CHOICES, resolve

RECORDED = load_recorded()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_recorded_verdict_is_the_expected_one(claim):
    assert verdict(claim, RECORDED[claim.measure]) == claim.expected


def test_claim_ids_are_unique_and_causes_are_experiments_headings():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    headings = set(re.findall(r"(?m)^#+ (.+)$", EXPERIMENTS.read_text()))
    for claim in CLAIMS:
        assert claim.cause is None or claim.cause in headings, claim.id


def test_every_measure_is_declared_and_recorded():
    assert set(RECORDED) == set(MEASURES)
    assert {claim.measure for claim in CLAIMS} == set(MEASURES)
    run_config_fields = {f.name for f in dataclasses.fields(RunConfig)}
    for name, measure in MEASURES.items():
        if isinstance(measure, Driver):
            module = api.DRIVERS[measure.name]
            declared = {param.name for param in module.PARAMS}
            assert {key for key, _ in measure.params} <= declared, name
            resolve(module.PARAMS, dict(measure.params))
            continue
        assert set(RECORDED[name]) == set(measure), name
        for point in measure.values():
            assert isinstance(point, Point)
            assert point.app in APP_CHOICES
            assert point.variant in VARIANT_CHOICES
            overrides = {key for key, _ in point.overrides}
            assert overrides <= run_config_fields, name


def test_experiments_lists_are_the_rendered_table():
    assert render(CLAIMS, RECORDED) in EXPERIMENTS.read_text(), (
        "EXPERIMENTS.md's claim lists differ from benchmarks/claims/"
        "ledger.py: run `python -m benchmarks.claims` to re-render them"
    )
