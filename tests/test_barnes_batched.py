"""Batched Barnes-Hut traversals: nothing simulated can tell.

Barnes speculates the walks that stay inside the cell blocks a
processor has already fetched (``kernels.barnes_forces``) and runs only
the walks that fault through the scalar ``_force_on``.  Inside
``all_scalar_walks()`` (tests/app_oracle.py) the speculation finishes no
walk, so every walk is scalar — the schedule before the change — and
that side is the oracle: result digests and per-processor trace
timelines must be equal.  (The kernel itself is pinned against
``_force_on`` in ``tests/test_app_kernels.py``.)
"""

import numpy as np
import pytest

from repro import api
from repro.apps import barnes, kernels
from repro.config import RunConfig, variant_by_name
from repro.core import Program, run_program
from repro.serving.codec import result_digest
from tests.app_oracle import all_scalar_walks
from tests.helpers import timelines

VARIANTS = ["csm_poll", "tmk_mc_poll", "tmk_udp_int", "hlrc_poll"]


def _assert_on_equals_off(run, nprocs):
    batched = run()
    with all_scalar_walks():
        scalar = run()
    assert result_digest(batched) == result_digest(scalar)
    assert timelines(batched.trace, nprocs) == timelines(scalar.trace, nprocs)


@pytest.mark.parametrize("network", ["memch", "rdma", "ethernet"])
@pytest.mark.parametrize("nprocs", [2, 8, 16, 32])
@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_run_equals_all_scalar_run(variant, nprocs, network):
    """At tiny scale ranks 16-31 of a 32p run own no bodies at all."""
    _assert_on_equals_off(
        lambda: api.run_point(
            "barnes", variant, nprocs, scale="tiny", network=network,
            trace=True,
        ),
        nprocs,
    )


@pytest.mark.parametrize("granularity", ["page", "block1k"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_fetch_block_is_keyed_on_the_vm_page(variant, granularity):
    """The fetch block follows ``vm_page_size``, not the sharing unit,
    so the speculation's ``have`` mask means the same under either."""
    _assert_on_equals_off(
        lambda: api.run_point(
            "barnes", variant, 8, scale="tiny", granularity=granularity,
            trace=True,
        ),
        8,
    )


@pytest.mark.parametrize("variant", ["csm_poll", "tmk_mc_poll"])
def test_small_scale_batched_run_equals_all_scalar_run(variant):
    _assert_on_equals_off(
        lambda: api.run_point("barnes", variant, 8, trace=True), 8
    )


def test_tree_deeper_than_the_path_key_falls_back_to_scalar(monkeypatch):
    """Two bodies 1e-7 apart put leaves ~24 levels down; their walks are
    never ``done`` even with the whole tree fetched, and the run still
    equals the all-scalar one."""

    def setup(space, params):
        shared = barnes.setup(space, params)
        bodies = shared["bodies"]
        init = bodies.region.read_backing(np.float64, bodies.size).copy()
        init = init.reshape(bodies.shape)
        init[7, 0:3] = init[3, 0:3] + 1e-7
        bodies.initialize(init)
        return shared

    speculated, done_ids = set(), set()
    real = kernels.barnes_forces

    def spying(ids, *rest):
        force, inter, done = real(ids, *rest)
        speculated.update(ids.tolist())
        done_ids.update(ids[done].tolist())
        return force, inter, done

    monkeypatch.setattr(kernels, "barnes_forces", spying)
    program = Program("barnes", setup, barnes.worker)
    cfg = RunConfig(
        variant=variant_by_name("tmk_mc_poll"), nprocs=4, trace=True
    )
    # One step: the pair drifts ~1e-3 apart (11 levels) by the second.
    params = dict(barnes.default_params("tiny"), steps=1)
    _assert_on_equals_off(lambda: run_program(program, cfg, params), 4)
    assert {3, 7} <= speculated and not {3, 7} & done_ids
    assert len(done_ids) > 32  # the far bodies accept the cell high up
