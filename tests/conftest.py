"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from tests.oracles import assert_differential, oracle

# Hypothesis profiles: ``tier1`` (the default) runs ten derandomized
# examples a property plus its explicit ``@example``s; ``campaign`` is
# the deep search (``pytest --hypothesis-profile=campaign``).
_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile(
    "tier1", max_examples=10, derandomize=True, database=None, **_COMMON
)
settings.register_profile("campaign", max_examples=200, **_COMMON)
settings.load_profile("tier1")


def pytest_collection_modifyitems(items):
    """The oracle-coverage check reads what the whole session entered,
    so it runs after every other test."""
    items.sort(
        key=lambda item: getattr(item, "originalname", None)
        == "test_every_oracle_is_entered_by_a_tier1_test"
    )


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
# tests/oracles.py is the one description of the oracles.  Test ids keep
# the names of the mode matrix they replaced: ``legacy`` is the access
# oracle and ``fastpath``/``fast`` production's access path; ``heap`` is
# the engine oracle and ``calqueue``/``noshard`` production's engine;
# ``kernels``/``scalar`` both run the one app body.


@pytest.fixture(params=["fastpath", "legacy"])
def access_path(request):
    """Production's shared-access path, or the per-page oracle."""
    layers = ("access",) if request.param == "legacy" else ()
    with oracle(*layers):
        yield request.param


@pytest.fixture
def replay(request):
    """``replay(key, run)``: ``run()``'s production result, after
    checking it against the oracles this case's id
    (``tests.helpers.replay_ids``) names.  Ids that name the same
    column share the work, keyed by ``key``."""
    _body, access, engine = request.param.split("-")
    named = {"engine": engine == "heap", "access": access == "legacy"}
    layers = [layer for layer, on in named.items() if on]
    return lambda key, run: assert_differential(run, *layers, key=key)
