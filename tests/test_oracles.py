"""The oracle registry checks itself (``tests/oracles.py``): leaving an
oracle restores production even when the block raises (a leaked oracle
would make every later test oracle against oracle), and every oracle is
entered by some tier-1 test."""

import pathlib
import sys

import pytest

from tests.oracles import ENTERED, ORACLES


def _production_namespace():
    """``{(owner, name): id(value)}`` over every loaded ``repro`` module
    and the classes it defines: everything an oracle could patch."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for name, value in vars(module).items():
            found[mod_name, name] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    found[f"{mod_name}.{name}", attr] = id(member)
    return found


@pytest.mark.parametrize("layer", ORACLES)
def test_leaving_an_oracle_restores_production(layer):
    production = _production_namespace()
    with pytest.raises(RuntimeError, match="inside"):
        with ORACLES[layer]():
            assert _production_namespace() != production  # it selects
            raise RuntimeError("inside")
    assert _production_namespace() == production


@pytest.mark.parametrize("layer", ORACLES)
def test_every_oracle_is_entered_by_a_tier1_test(layer, request):
    """Ordered last by ``tests/conftest.py``; it judges only a session
    that collected every test module."""
    here = pathlib.Path(__file__).parent
    modules = {item.path for item in request.session.items}
    if not set(here.glob("test_*.py")) <= modules:
        pytest.skip("needs the whole tier-1 session")
    assert layer in ENTERED
