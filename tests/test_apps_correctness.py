"""Integration: every application's parallel result matches its
sequential (unlinked) execution, for both DSM systems."""

import numpy as np
import pytest

from repro import api
from repro.config import (
    ALL_VARIANTS,
    CSM_POLL,
    CSM_PP,
    TMK_MC_POLL,
    TMK_UDP_INT,
    RunConfig,
)
from repro.core import run_program, run_sequential
from repro.apps import registry

from tests.helpers import run_app_everywhere, values_match

POLLING = (CSM_POLL, TMK_MC_POLL)
EXTENDED = (CSM_PP, TMK_UDP_INT)


@pytest.mark.parametrize("app_name", registry.APP_NAMES)
def test_app_polling_variants_match_sequential(app_name):
    module = registry.load(app_name)
    failures = run_app_everywhere(module, "tiny", POLLING, (2, 4, 8))
    assert not failures, f"{app_name} diverged: {failures}"


@pytest.mark.parametrize("app_name", ("sor", "water", "gauss", "barnes"))
def test_app_extended_variants_match_sequential(app_name):
    module = registry.load(app_name)
    failures = run_app_everywhere(module, "tiny", EXTENDED, (4, 8))
    assert not failures, f"{app_name} diverged: {failures}"


@pytest.mark.parametrize("app_name", ("sor", "ilink"))
def test_app_at_16_processors(app_name):
    module = registry.load(app_name)
    failures = run_app_everywhere(module, "tiny", POLLING, (16,))
    assert not failures, f"{app_name} diverged at 16 procs: {failures}"


def test_gauss_solves_the_system():
    from repro.apps import gauss

    params = gauss.default_params("tiny")
    seq = run_sequential(gauss.program(), params)
    x = seq.values[0][0]
    assert np.allclose(x, gauss.reference(params))


def test_tsp_finds_optimum_in_parallel():
    from repro.apps import tsp

    params = tsp.default_params("tiny")
    optimum = tsp.reference(params)
    for variant in (CSM_POLL, TMK_MC_POLL):
        result = run_program(
            tsp.program(), RunConfig(variant=variant, nprocs=4), params
        )
        length, path = result.values[0]
        assert length == pytest.approx(optimum)
        # The tour must be a permutation starting at city 0.
        assert sorted(path) == list(range(params["cities"]))
        assert path[0] == 0


def test_lu_factors_the_matrix():
    from repro.apps import lu

    params = lu.default_params("tiny")
    seq = run_sequential(lu.program(), params)
    n, block = params["n"], params["block"]
    nb = n // block
    packed = seq.values[0].reshape(nb, nb, block, block)
    dense_lu = packed.swapaxes(1, 2).reshape(n, n)
    lower = np.tril(dense_lu, -1) + np.eye(n)
    upper = np.triu(dense_lu)
    from repro.apps.common import deterministic_rng

    rng = deterministic_rng(1997)
    original = rng.random((n, n)) + np.eye(n) * n
    assert np.allclose(lower @ upper, original, rtol=1e-8)


def test_barnes_positions_evolve():
    from repro.apps import barnes

    params = barnes.default_params("tiny")
    seq = run_sequential(barnes.program(), params)
    final = seq.values[0]
    from repro.apps.common import deterministic_rng

    rng = deterministic_rng(1997)
    initial = rng.random((params["n_bodies"], 3)) * 2.0 - 1.0
    assert not np.allclose(final[:, 0:3], initial)  # bodies moved


def test_water_and_em3d_warm_start_match():
    """warm_start changes timing, never data."""
    from repro.apps import em3d

    params = em3d.default_params("tiny")
    seq = run_sequential(em3d.program(), params)
    warm = run_program(
        em3d.program(),
        RunConfig(variant=TMK_MC_POLL, nprocs=8, warm_start=True),
        params,
    )
    assert values_match(seq.values[0], warm.values[0])


@pytest.mark.parametrize("nprocs", (7, 8))
def test_water_with_more_processors_than_molecules(nprocs):
    """Ranks past the last molecule own an empty band: they skip the
    band's zeroing and update instead of failing on a zero-row access.
    Six molecules on 7p/8p take the path tiny water (48 molecules) takes
    at 49p/64p, at a hundredth of the cost."""
    from repro.apps import water

    params = {"n_mols": 6, "steps": 2}
    seq = run_sequential(water.program(), params).values[0]
    for variant in POLLING:
        par = api.run_point("water", variant, nprocs, params=params)
        for got, want in zip(par.values[0], seq):
            assert np.array_equal(got, want), variant.name


def test_registry_knows_all_eight_apps():
    assert len(registry.APPS) == 8
    assert set(registry.APP_NAMES) == {
        "sor",
        "lu",
        "water",
        "tsp",
        "gauss",
        "ilink",
        "em3d",
        "barnes",
    }
    for name in registry.APP_NAMES:
        module = registry.load(name)
        assert hasattr(module, "program")
        assert hasattr(module, "default_params")
        assert registry.spec(name).name == name


def test_registry_unknown_app_rejected():
    with pytest.raises(ValueError, match="unknown application"):
        registry.load("quicksort")
    with pytest.raises(ValueError, match="unknown application"):
        registry.spec("quicksort")
