"""A result's values are pinned by ``values_sha256``, not stored.

``run_program`` and ``run_sequential`` digest the workers' return
values once (``values_digest``); the served payload and the cache carry
only that digest, so a cache hit has ``values=None`` while uncached
runs keep the arrays their callers read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.config import variant_by_name
from repro.core.runtime.program import values_digest
from repro.harness.cache import ResultCache, result_payload
from repro.harness.runner import BatchPoint, ExperimentContext

POINTS = [
    BatchPoint("sor", variant_by_name("csm_poll"), 4),
    BatchPoint("sor", None),
]


def test_one_flipped_bit_changes_the_digest():
    result = api.run_point("sor", "csm_poll", 4, scale="tiny")
    assert result.values_sha256 == values_digest(result.values)
    _, red, black = result.values[0]
    flipped = black.copy()
    flipped.view(np.uint64)[3, 5] ^= 1  # the lowest mantissa bit
    changed = [(result.values[0][0], red, flipped), None, None, None]
    assert values_digest(changed) != result.values_sha256
    same = [(result.values[0][0], red, black.copy()), None, None, None]
    assert values_digest(same) == result.values_sha256


@pytest.mark.parametrize(
    "other",
    [
        [(1.0, np.zeros(4))],  # list, not tuple
        ((1.0, np.zeros(4)), None),  # one more node
        ((1, np.zeros(4)),),  # int64, not float64
        ((1.0, np.zeros((2, 2))),),  # same bytes, another shape
        ((1.0, np.zeros(4, dtype=np.float32)),),  # another dtype
    ],
    ids=["container", "length", "scalar-dtype", "shape", "array-dtype"],
)
def test_structure_is_part_of_the_digest(other):
    assert values_digest(other) != values_digest(((1.0, np.zeros(4)),))


def test_byte_order_is_not_part_of_the_digest():
    values = [np.arange(6, dtype="<f8")]
    assert values_digest(values) == values_digest([values[0].astype(">f8")])


def test_values_held_by_reference_cannot_be_digested():
    with pytest.raises(TypeError):
        values_digest([object()])


def test_uncached_runs_keep_their_values():
    direct = api.run_point("sor", "csm_poll", 4, scale="tiny", cache=None)
    batch = ExperimentContext(scale="tiny", cache=None).run_batch(POINTS)
    for result in [direct, *batch]:
        assert result.values[0] is not None
        assert result.values_sha256 == values_digest(result.values)
    assert "values" not in result_payload(direct)


def test_a_cache_hit_has_the_digest_but_no_values(tmp_path):
    cold = ExperimentContext(
        scale="tiny", cache=ResultCache(cache_dir=tmp_path)
    ).run_batch(POINTS)
    cache = ResultCache(cache_dir=tmp_path)
    warm = ExperimentContext(scale="tiny", cache=cache).run_batch(POINTS)
    assert cache.stats.hits == len(POINTS)
    for before, after in zip(cold, warm):
        assert before.values is not None and after.values is None
        assert after.values_sha256 == before.values_sha256
