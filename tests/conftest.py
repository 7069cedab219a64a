"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig, CostModel


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
