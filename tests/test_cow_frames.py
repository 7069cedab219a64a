"""Copy-on-write warm frames: a warm start maps every processor onto
one read-only frame per page, and nothing simulated can tell.

* the differential — production against the ``warm`` oracle (the
  eager warm start, ``tests/oracles.py``) over random race-free LRC
  programs and the eight applications;
* the ownership rule — a copy is private before it is mutated, the
  safety net (NumPy's write flag) is live, and only writers own pages;
* the satellites — ``build_system(warm_start=True)`` needs ``space=``,
  and debug checks catch a parallel run that writes the backing store.
"""

import functools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given

from repro import api
from repro.apps import registry
from repro.config import HLRC_POLL, TMK_MC_POLL, ClusterConfig, RunConfig
from repro.core import Program, SharedArray, run_program
from repro.core import lrc as lrc_mod
from repro.core.hlrc import protocol as hlrc_mod
from repro.core.treadmarks import protocol as tmk_mod
from repro.memory.address_space import AddressSpace
from repro.memory.page import Protection, own_copy, shared_frame
from tests.helpers import (
    LRC_FUZZ_AXES,
    LRC_VARIANTS,
    lrc_examples,
    lrc_fuzz_config,
    lrc_program,
)
from tests.oracles import assert_differential, point


# -- the differential: production vs the eager warm start ----------------


@lrc_examples
@given(**LRC_FUZZ_AXES)
def test_shared_frames_match_the_eager_warm_start(rounds, **axes):
    cfg = replace(lrc_fuzz_config(**axes), warm_start=True)
    assert_differential(
        functools.partial(run_program, lrc_program(rounds), cfg, {}), "warm"
    )


@pytest.mark.parametrize("variant", LRC_VARIANTS, ids=lambda v: v.name)
@pytest.mark.parametrize("app", registry.APP_NAMES)
def test_warm_app_run_equals_the_eager_oracles(app, variant):
    assert_differential(
        point(app, variant, 8, scale="tiny", trace=True), "warm"
    )


# -- the two helpers -------------------------------------------------------


def test_shared_frame_is_a_read_only_alias():
    data = np.arange(64, dtype=np.uint8)
    frame = shared_frame(data)
    assert np.shares_memory(frame, data)
    assert data.flags.writeable and not frame.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        frame[0] = 1


def test_own_copy_copies_a_shared_frame_exactly_once():
    data = np.arange(64, dtype=np.uint8)
    page = SimpleNamespace(copy=shared_frame(data))
    owned = own_copy(page)
    assert owned is page.copy and owned.flags.writeable
    assert not np.shares_memory(owned, data)
    assert np.array_equal(owned, data)
    assert own_copy(page) is owned  # no second copy


# -- the ownership rule on real runs ---------------------------------------

PAGE = 1024
N_PAGES = 4


def _two_writers():
    """Ranks 0 and 1 each write one page of a warm four-page array;
    nobody reads the other's writes."""

    def setup(space, params):
        arr = SharedArray.alloc(
            space, "cow", np.float64, (N_PAGES * PAGE // 8,)
        )
        arr.initialize(np.arange(N_PAGES * PAGE // 8, dtype=np.float64))
        return {"arr": arr}

    def worker(env, shared, params):
        arr = shared["arr"]
        if env.rank < 2:
            yield from arr.put(env, 2 * env.rank * PAGE // 8, -1.0)
        yield from env.barrier(0)
        env.stop_timer()

    return Program("two_writers", setup, worker)


def _warm_cfg(variant, nprocs=4):
    return RunConfig(
        variant=variant,
        nprocs=nprocs,
        cluster=ClusterConfig(page_size=PAGE),
        warm_start=True,
    )


@pytest.mark.parametrize(
    "variant", [TMK_MC_POLL, HLRC_POLL], ids=lambda v: v.name
)
def test_each_writer_owns_only_the_pages_it_wrote(built_systems, variant):
    run_program(_two_writers(), _warm_cfg(variant), {})
    (system,) = built_systems
    owned = {
        pid: sorted(
            idx
            for idx, page in state.pages.items()
            if page.copy.flags.writeable
        )
        for pid, state in system.protocol.procs.items()
    }
    assert owned == {0: [0], 1: [2], 2: [], 3: []}
    # Everyone else still maps the backing store's own frames.
    frames = system.protocol.procs[3].pages
    for idx in range(N_PAGES):
        assert np.shares_memory(
            frames[idx].copy, system.space.backing_page(idx)
        )
        assert frames[idx].perm is not Protection.READ_WRITE


@pytest.mark.parametrize(
    "variant, module",
    [(TMK_MC_POLL, tmk_mod), (HLRC_POLL, hlrc_mod)],
    ids=["tmk_mc_poll", "hlrc_poll"],
)
def test_a_missed_own_copy_fails_loudly(monkeypatch, variant, module):
    """The safety net is live: without copy-on-write the first warm
    write hits NumPy's write flag instead of every mapper's data.  The
    sites are the shared LRC fault path and the protocol's own module."""
    for mod in (lrc_mod, module):
        monkeypatch.setattr(mod, "own_copy", lambda page: page.copy)
    with pytest.raises(ValueError, match="read-only"):
        run_program(_two_writers(), _warm_cfg(variant), {})


@pytest.mark.parametrize(
    "variant", [TMK_MC_POLL, HLRC_POLL], ids=lambda v: v.name
)
def test_invariants_reject_a_writable_shared_frame(built_systems, variant):
    run_program(_two_writers(), _warm_cfg(variant), {})
    protocol = built_systems[0].protocol
    protocol.check_invariants()
    page = protocol.procs[0].pages[0]
    page.twin = page.copy.copy()  # mid-interval, yet the copy is...
    page.copy = shared_frame(page.copy)  # ...somebody else's too
    with pytest.raises(AssertionError, match="shared frame"):
        protocol.check_invariants()


def test_invariants_reject_a_shared_home_copy(built_systems):
    run_program(_two_writers(), _warm_cfg(HLRC_POLL), {})
    protocol = built_systems[0].protocol
    assert sorted(protocol.home_pages) == [0, 2]
    protocol.home_pages[0] = protocol.space.backing_page(0)
    with pytest.raises(AssertionError, match="home copy of page 0"):
        protocol.check_invariants()


# -- satellites --------------------------------------------------------------


def test_build_system_warm_start_needs_a_space():
    with pytest.raises(ValueError, match="space="):
        api.build_system("tmk_mc_poll", 4, warm_start=True)
    space = AddressSpace(PAGE)
    space.alloc("r", 2 * PAGE)
    system = api.build_system("tmk_mc_poll", 4, warm_start=True, space=space)
    assert system.protocol.perms.read_ready(3, 0, 2)


def test_debug_checks_catch_a_written_backing_store():
    def worker(env, shared, params):
        yield from env.barrier(0)
        if env.rank == 0 and params.get("vandal"):
            shared["arr"]._space.backing_page(1)[0] ^= 0xFF
        env.stop_timer()

    program = Program("vandal", _two_writers().setup, worker)
    checked = replace(_warm_cfg(TMK_MC_POLL), debug_checks=True)
    run_program(program, checked, {})
    with pytest.raises(AssertionError, match="backing store"):
        run_program(program, checked, {"vandal": True})
