"""Determinism and caching guarantees of the parallel harness.

The contract (see ``repro/harness/parallel.py``): ``--jobs N`` and the
on-disk result cache are pure wall-clock optimisations — every simulated
time, counter, and breakdown is bit-identical to a fresh serial run.
"""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import pytest

from repro.apps import gauss
from repro.config import (
    CSM_POLL,
    CSM_PP,
    TMK_MC_POLL,
    ClusterConfig,
    CostModel,
    RunConfig,
)
from repro.harness import cache, sweep
from repro.harness.cache import (
    ResultCache,
    key_for_spec,
    run_key,
    source_fingerprint,
)
from repro.harness.cli import main
from repro.harness.runner import BatchPoint, ExperimentContext
from repro.memory.address_space import AddressSpace
from repro.harness.parallel import (
    PointSpec,
    execute_point_timed,
    point_spec,
    persistent_pool,
    run_points,
)


def _specs():
    ctx = ExperimentContext(scale="tiny")
    points = [
        BatchPoint("sor", None),
        BatchPoint("sor", CSM_POLL, 4),
        BatchPoint("sor", TMK_MC_POLL, 4),
        BatchPoint("water", CSM_POLL, 4),
    ]
    return [ctx._spec_for(p) for p in points]


def _signature(result):
    return (
        result.exec_time,
        result.network_bytes,
        result.stats.aggregate_counters(),
        dict(result.breakdown.time),
    )


def test_specs_pickle_cleanly():
    for spec in _specs():
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


def test_run_points_parallel_matches_serial():
    specs = _specs()
    serial = run_points(specs, jobs=1)
    fanned = run_points(specs, jobs=4)
    assert len(serial) == len(fanned) == len(specs)
    for a, b in zip(serial, fanned):
        assert _signature(a) == _signature(b)


def test_timed_worker_ships_the_digest_not_the_values():
    """The serving layer's pool entry drops the values it would pickle
    through the pipe, keeping the digest an in-process run takes."""
    spec = _specs()[1]
    [direct] = run_points([spec], jobs=1)
    pool = persistent_pool(1)
    try:
        timed, seconds = pool.submit(execute_point_timed, spec).result()
    finally:
        pool.shutdown()
    assert direct.values is not None
    assert timed.values is None
    assert timed.values_sha256 == direct.values_sha256
    assert _signature(timed) == _signature(direct)
    assert seconds > 0


def test_pooled_run_batch_ships_the_digest_not_the_values():
    """Values never cross a process boundary: a ``jobs=2`` batch gets
    the digest a ``jobs=1`` batch computes, without the arrays."""
    points = [BatchPoint("sor", CSM_POLL, 4), BatchPoint("sor", TMK_MC_POLL, 4)]
    serial = ExperimentContext(scale="tiny", jobs=1).run_batch(points)
    pooled = ExperimentContext(scale="tiny", jobs=2).run_batch(points)
    for direct, fanned in zip(serial, pooled):
        assert direct.values is not None
        assert fanned.values is None
        assert fanned.values_sha256 == direct.values_sha256


def test_pool_worker_keeps_no_checks_between_specs(monkeypatch):
    """A persistent worker that ran a checked spec runs the next
    unchecked spec unchecked: checking is a field of the run, not state
    left in the worker.  The workers fork after the patch, so the
    backing-store digest only a checked run takes raises in them."""

    def refuse(self):
        raise AssertionError("backing store checked")

    monkeypatch.setattr(AddressSpace, "backing_digest", refuse)
    spec = _specs()[1]
    checked = replace(spec, config=replace(spec.config, debug_checks=True))
    pool = persistent_pool(1)
    try:
        with pytest.raises(AssertionError, match="backing store checked"):
            pool.submit(execute_point_timed, checked).result()
        result, _ = pool.submit(execute_point_timed, spec).result()
    finally:
        pool.shutdown()
    assert result.values_sha256 is not None


def test_persistent_pool_reused_across_batches_matches_serial():
    specs = _specs()[:2]
    serial = run_points(specs, jobs=1)
    pool = persistent_pool(2)
    try:
        first = run_points(specs, pool=pool)
        second = run_points(specs, pool=pool)  # same workers, no respawn
        assert run_points([], pool=pool) == []
    finally:
        pool.shutdown()
    for a, b, c in zip(serial, first, second):
        assert _signature(a) == _signature(b) == _signature(c)


def test_context_pool_fans_batches_across_persistent_workers():
    points = [
        BatchPoint("sor", CSM_POLL, 4),
        BatchPoint("sor", TMK_MC_POLL, 4),
    ]
    serial = ExperimentContext(scale="tiny", jobs=1).run_batch(points)
    pool = persistent_pool(2)
    try:
        ctx = ExperimentContext(scale="tiny", pool=pool)
        pooled = ctx.run_batch(points)
        again = ctx.run_batch(points)  # second batch reuses the pool
    finally:
        pool.shutdown()
    for a, b, c in zip(serial, pooled, again):
        assert _signature(a) == _signature(b) == _signature(c)


def test_run_batch_jobs_matches_serial_context():
    points = [
        BatchPoint("sor", None),
        BatchPoint("sor", CSM_POLL, 4),
        BatchPoint("sor", TMK_MC_POLL, 4),
    ]
    serial = ExperimentContext(scale="tiny", jobs=1).run_batch(points)
    fanned = ExperimentContext(scale="tiny", jobs=4).run_batch(points)
    for a, b in zip(serial, fanned):
        assert _signature(a) == _signature(b)


def test_trace_runs_merge_in_point_order():
    points = [
        BatchPoint("sor", CSM_POLL, 4),
        BatchPoint("sor", TMK_MC_POLL, 4),
    ]
    ctx = ExperimentContext(scale="tiny", jobs=2, trace=True)
    ctx.run_batch(points)
    assert [run.meta["variant"] for run in ctx.trace_runs] == [
        "csm_poll",
        "tmk_mc_poll",
    ]
    assert all(len(run.events) > 0 for run in ctx.trace_runs)


def test_cache_hit_equals_fresh_run(tmp_path):
    cache_dir = tmp_path / "cache"
    points = [BatchPoint("sor", None), BatchPoint("sor", CSM_POLL, 4)]

    cold = ExperimentContext(
        scale="tiny", cache=ResultCache(cache_dir=cache_dir)
    )
    fresh = cold.run_batch(points)
    assert cold.cache.stats.misses == 2
    assert cold.cache.stats.hits == 0

    warm = ExperimentContext(
        scale="tiny", cache=ResultCache(cache_dir=cache_dir)
    )
    cached = warm.run_batch(points)
    assert warm.cache.stats.hits == 2
    assert warm.cache.stats.misses == 0
    for a, b in zip(fresh, cached):
        assert _signature(a) == _signature(b)


def test_refresh_recomputes_and_overwrites(tmp_path):
    cache_dir = tmp_path / "cache"
    point = [BatchPoint("sor", CSM_POLL, 4)]
    ExperimentContext(
        scale="tiny", cache=ResultCache(cache_dir=cache_dir)
    ).run_batch(point)

    refreshing = ExperimentContext(
        scale="tiny", cache=ResultCache(cache_dir=cache_dir, refresh=True)
    )
    refreshing.run_batch(point)
    assert refreshing.cache.stats.hits == 0
    assert refreshing.cache.stats.misses == 1
    assert refreshing.cache.stats.stores == 1


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir=cache_dir)
    ctx = ExperimentContext(scale="tiny", cache=cache)
    ctx.run_batch([BatchPoint("sor", CSM_POLL, 4)])
    (path,) = list(cache_dir.rglob("*.pkl"))
    path.write_bytes(b"not a pickle")

    again = ExperimentContext(
        scale="tiny", cache=ResultCache(cache_dir=cache_dir)
    )
    result = again.run_batch([BatchPoint("sor", CSM_POLL, 4)])[0]
    assert again.cache.stats.misses == 1
    assert result.exec_time > 0


def test_cache_keys_are_sensitive_to_inputs():
    ctx = ExperimentContext(scale="tiny")
    spec = ctx._spec_for(BatchPoint("sor", CSM_POLL, 4))
    base = run_key(spec.app, spec.params, spec.config)

    other_procs = ctx._spec_for(BatchPoint("sor", CSM_POLL, 8))
    assert run_key("sor", spec.params, other_procs.config) != base

    other_variant = ctx._spec_for(BatchPoint("sor", TMK_MC_POLL, 4))
    assert run_key("sor", spec.params, other_variant.config) != base

    swept = ctx._spec_for(
        BatchPoint("sor", CSM_POLL, 4, costs=CostModel(mc_latency=99.0))
    )
    assert run_key("sor", spec.params, swept.config) != base

    other_params = dict(spec.params)
    first = sorted(other_params)[0]
    other_params[first] = other_params[first] + 1
    assert run_key("sor", other_params, spec.config) != base

    # Stability: recomputing the same key yields the same digest.
    assert run_key(spec.app, spec.params, spec.config) == base


def test_run_key_digest_is_pinned(monkeypatch):
    """With the source fingerprint held fixed, a key's digest is a
    function of the key payload alone: these are the digests of the
    payload as ``_canonical`` reduced it through ``dataclasses.asdict``
    (the default config, and gauss's cost rule at ``n=48``)."""
    monkeypatch.setattr(cache, "source_fingerprint", lambda: "0" * 64)
    default = RunConfig(variant=CSM_POLL, nprocs=4)
    assert run_key("sor", {"rows": 8}, default) == (
        "5adec8125e6fbadd2b93e21a58ea320cb0823e80456a6db35679d713382c888c"
    )
    ruled = RunConfig(
        variant=CSM_PP,
        nprocs=4,
        costs=CostModel(**gauss.cost_overrides({"n": 48})),
    )
    assert run_key("gauss", {"n": 48}, ruled) == (
        "793456fd66540b6c895b5b8ad3d8cc59757b4da7cd1c8b1828fe271d91cb08df"
    )


#: A non-default value for every RunConfig field (the base is
#: ``RunConfig(CSM_POLL, 4)``).
NON_DEFAULT = {
    "variant": TMK_MC_POLL,
    "nprocs": 8,
    "cluster": ClusterConfig(n_nodes=4),
    "costs": CostModel(mc_latency=99.0),
    "network": "rdma",
    "exclusive_mode": False,
    "write_double_dummy": True,
    "remote_reads": True,
    "weak_state": True,
    "trace": True,
    "debug_checks": True,
    "warm_start": True,
    "barrier_fanin": 4,
    "dir_shards": 2,
    "node_mem_pages": 64,
    "granularity": "block1k",
    "prefetch": "seq",
    "homing": "dynamic",
}

#: Explicit settings that resolve to what the automatic policy picks at
#: 4 processors: they share the automatic setting's entry.
SAME_RESOLVED = {"dir_shards": 1}


def test_every_run_config_field_enters_the_key():
    """A field added to RunConfig later (as ``debug_checks`` was) cannot
    silently share entries: it must be listed in NON_DEFAULT, and its
    non-default value must change the key."""
    assert set(NON_DEFAULT) == {knob.name for knob in fields(RunConfig)}
    base = RunConfig(variant=CSM_POLL, nprocs=4)
    key = run_key("sor", {}, base)
    for name, value in NON_DEFAULT.items():
        assert run_key("sor", {}, replace(base, **{name: value})) != key, name
    for name, value in SAME_RESOLVED.items():
        assert run_key("sor", {}, replace(base, **{name: value})) == key, name


def test_checked_sequential_baseline_has_its_own_key():
    ctx = ExperimentContext(scale="tiny")
    spec = ctx._spec_for(BatchPoint("sor", None))
    checked = ExperimentContext(
        scale="tiny", overrides={"debug_checks": True}
    )._spec_for(BatchPoint("sor", None))
    assert checked.config.debug_checks and not spec.config.debug_checks
    assert key_for_spec(checked) != key_for_spec(spec)


def test_context_overrides_reach_every_point_and_points_win():
    ctx = ExperimentContext(scale="tiny", overrides={"network": "rdma"})
    spec = ctx._spec_for(BatchPoint("sor", CSM_POLL, 4))
    own = ctx._spec_for(
        BatchPoint("sor", CSM_POLL, 4, overrides=(("network", "ethernet"),))
    )
    assert spec.config.network == "rdma"
    assert own.config.network == "ethernet"


def test_sequential_key_distinct_namespace():
    """The sequential rule keeps only page size, costs and
    ``debug_checks`` of a baseline's knobs: network, policy, trace and
    warm-start knobs never reach its config or its cache key."""
    base = point_spec("sor", None, 1, scale="tiny")
    key = key_for_spec(base)
    assert key_for_spec(point_spec("sor", None, 1, scale="tiny")) == key
    assert key != key_for_spec(point_spec("sor", CSM_POLL, 1, scale="tiny"))
    ignored = {
        "network": "rdma",
        "granularity": "block1k",
        "prefetch": "seq",
        "homing": "round-robin",
        "trace": True,
        "warm_start": False,
    }
    for name, value in ignored.items():
        spec = point_spec("sor", None, 1, scale="tiny", **{name: value})
        assert key_for_spec(spec) == key, name
    page_size = base.config.cluster.page_size
    kept = {
        "debug_checks": {"debug_checks": True},
        "page size": {"cluster": ClusterConfig(page_size=page_size + 1024)},
        "costs": {"costs": CostModel(mc_latency=99.0)},
    }
    for name, knobs in kept.items():
        spec = point_spec("sor", None, 1, scale="tiny", **knobs)
        assert key_for_spec(spec) != key, name


def test_sequential_point_rejects_unknown_and_invalid_knobs():
    """A baseline ignores its knobs, but checks them as a variant's
    point would: a typo or a bad value is an error, not the baseline."""
    for knobs, error in (
        ({"bogus": 1}, TypeError),
        ({"network": "bogus"}, ValueError),
        ({"barrier_fanin": 1}, ValueError),
        ({"granularity": "bogus"}, ValueError),
        # Wrong-typed knobs: a bool knob takes only a bool, an int knob
        # only a non-bool int (``"off"`` is truthy: exclusive mode on).
        ({"exclusive_mode": "off"}, ValueError),
        ({"debug_checks": "no"}, ValueError),
        ({"warm_start": "false"}, ValueError),
        ({"trace": 1}, ValueError),
        ({"node_mem_pages": 2.5}, ValueError),
        ({"dir_shards": True}, ValueError),
    ):
        for variant in (CSM_POLL, None):
            with pytest.raises(error):
                point_spec("sor", variant, 1, scale="tiny", **knobs)


def test_source_fingerprint_stable():
    assert source_fingerprint() == source_fingerprint()
    assert len(source_fingerprint()) == 64


def test_sweep_shares_one_sequential_baseline(monkeypatch):
    """The sweep satellite: N knob values must not mean N baseline runs."""
    import repro.harness.runner as runner_mod

    executed = []
    real = runner_mod.run_points

    def counting(specs, jobs=1, **kw):
        executed.extend(specs)
        return real(specs, jobs=jobs, **kw)

    monkeypatch.setattr(runner_mod, "run_points", counting)
    ctx = ExperimentContext(scale="tiny")
    points = sweep.sweep_latency(
        ctx, app="sor", nprocs=4, latencies=(2.6, 10.4, 20.8)
    )
    assert len(points) == 6  # 3 latencies x 2 variants
    sequential_runs = [s for s in executed if s.is_sequential]
    assert len(sequential_runs) == 1
    # and the swept points all executed
    assert len([s for s in executed if not s.is_sequential]) == 6


def test_sweep_baseline_shared_across_both_sweeps(monkeypatch):
    import repro.harness.runner as runner_mod

    executed = []
    real = runner_mod.run_points

    def counting(specs, jobs=1, **kw):
        executed.extend(specs)
        return real(specs, jobs=jobs, **kw)

    monkeypatch.setattr(runner_mod, "run_points", counting)
    ctx = ExperimentContext(scale="tiny")
    sweep.sweep_latency(ctx, app="sor", nprocs=4, latencies=(2.6,))
    sweep.sweep_bandwidth(ctx, app="sor", nprocs=4, multipliers=(2.0,))
    assert len([s for s in executed if s.is_sequential]) == 1


def test_cli_no_cache_disables_cache(capsys):
    assert main([
        "table3", "--scale", "tiny", "--apps", "sor", "--procs", "4",
        "--no-cache",
    ]) == 0
    err = capsys.readouterr().err
    assert "cache:" not in err
    assert "jobs=1" in err


def test_cli_cache_footer_reports_hits(tmp_path, capsys):
    argv = [
        "table3", "--scale", "tiny", "--apps", "sor", "--procs", "4",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert "2 miss(es)" in first.err

    assert main(argv) == 0
    second = capsys.readouterr()
    assert "2 hit(s)" in second.err
    assert first.out == second.out


def test_cli_jobs_output_matches_serial(tmp_path, capsys):
    base = [
        "figure5", "--scale", "tiny", "--apps", "sor",
        "--variants", "csm_poll", "--counts", "1", "4", "--no-cache",
    ]
    assert main(base) == 0
    serial = capsys.readouterr().out
    assert main(base + ["--jobs", "4"]) == 0
    fanned = capsys.readouterr().out
    assert serial == fanned


def test_cli_debug_checks_miss_an_unchecked_cache(tmp_path, capsys):
    """``--debug-checks`` over a cache an unchecked run filled runs
    (and checks) every point instead of serving the unchecked ones."""
    argv = [
        "figure5", "--scale", "tiny", "--apps", "sor",
        "--variants", "csm_poll", "--counts", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    unchecked = capsys.readouterr()
    assert main(argv + ["--debug-checks"]) == 0
    checked = capsys.readouterr()
    assert "cache: 0 hit(s), 2 miss(es)" in checked.err
    assert checked.out == unchecked.out
