"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.config import ClusterConfig, CostModel
from tests.access_oracle import per_page_access
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


# -- production against the retired implementations --------------------
#
# The per-page access loop (tests/access_oracle.py) and the binary-heap
# engine (tests/heap_oracle.py) are the references production must
# match.  Test ids keep the names of the mode matrix these replaced:
# ``legacy`` is the per-page oracle and ``fastpath``/``fast`` production's
# access path; ``heap`` is the heap oracle and ``calqueue``/``noshard``
# production's engine; ``kernels``/``scalar`` both run the one app body.


@pytest.fixture(params=["fastpath", "legacy"])
def access_path(request):
    """Production's shared-access path, or the per-page oracle."""
    if request.param == "legacy":
        with per_page_access():
            yield request.param
    else:
        yield request.param


@pytest.fixture(scope="session")
def _replays():
    return {}


@pytest.fixture
def replay(request, _replays):
    """``replay(key, run)``: ``run()`` on the column this case's id
    (``tests.helpers.replay_ids``) names — production, the heap engine,
    the per-page access path, or both oracles.  Ids that name the same
    column share one run per session, keyed by ``key``."""
    _body, access, engine = request.param.split("-")
    column = (engine == "heap", access == "legacy")

    def replay_once(key, run):
        if (column, key) not in _replays:
            with contextlib.ExitStack() as stack:
                if column[0]:
                    stack.enter_context(heap_engine())
                if column[1]:
                    stack.enter_context(per_page_access())
                _replays[column, key] = run()
        return _replays[column, key]

    return replay_once
