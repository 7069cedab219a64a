"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.apps import kernels
from repro.config import ClusterConfig, CostModel
from repro.core import fastpath
from tests.heap_oracle import heap_engine


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep every test's result cache inside its tmp dir so the suite
    never reads from or writes to the user's ~/.cache."""
    monkeypatch.setenv("REPRO_DSM_CACHE", str(tmp_path / "repro-dsm-cache"))


@pytest.fixture
def engine():
    from repro.sim import Engine

    return Engine()


@pytest.fixture
def cluster_config():
    return ClusterConfig()


@pytest.fixture
def costs():
    return CostModel()


@pytest.fixture
def built_systems(monkeypatch):
    """Every :class:`System` ``run_program`` builds during the test, in
    order — ``run_program`` returns results, not the protocol state the
    memory and ownership pins look at."""
    from repro.core.runtime import program as program_mod

    systems = []
    real_build = program_mod.build_system

    def spying_build(cfg, **kwargs):
        systems.append(real_build(cfg, **kwargs))
        return systems[-1]

    monkeypatch.setattr(program_mod, "build_system", spying_build)
    return systems


# -- golden replays over the wall-clock mode matrix ----------------------
#
# One fixture chain, engine -> fast path -> kernels, each depending on
# the previous so setup and teardown nest.  A replay requests
# ``kernels_mode`` and picks its engine ids with
# ``pytest.mark.parametrize("engine_mode", [...], indirect=True)``.


@pytest.fixture
def engine_mode(request):
    """The engine a replay runs on.  ``heap`` is the binary-heap oracle
    (tests/heap_oracle.py); every other id is the production engine —
    ``calqueue``/``noshard`` named retired scheduler modes and are kept
    so the replayed cases keep their ids."""
    if request.param == "heap":
        with heap_engine():
            yield request.param
    else:
        yield request.param


@pytest.fixture(params=[True, False], ids=["fastpath", "legacy"])
def fastpath_mode(request, engine_mode):
    saved = fastpath.ENABLED
    fastpath.set_enabled(request.param)
    yield request.param
    fastpath.set_enabled(saved)


@pytest.fixture(params=[True, False], ids=["kernels", "scalar"])
def kernels_mode(request, fastpath_mode):
    saved = kernels.ENABLED
    kernels.set_enabled(request.param)
    yield request.param
    kernels.set_enabled(saved)
