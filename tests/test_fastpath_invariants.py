"""Page-table coherence: the fast path's redundant state never drifts.

The permission bitmaps (``repro.core.fastpath.PermBitmaps``) mirror the
per-page ``perm`` fields that remain authoritative.  Every protocol
must update them at *every* transition — fault upgrades, invalidations,
release/barrier downgrades — or the fast path would serve stale data.
The one hit path (``DsmProtocol``) reads each mapped page's bytes from
its frame in ``protocol.tables``, so frames are checked too: every
readable mapping has one, a writable one is private, and under
Cashmere exactly the home node's processors alias the master copy.

These tests drive fault/invalidate/downgrade sequences through all
three page-based protocols (Cashmere, TreadMarks, HLRC) on
``debug_checks=True`` configs, so ``Env.barrier`` re-checks coherence at
every synchronization point and ``run_program`` checks it again at the
end.  A hypothesis-generated schedule shrinks any drift to a minimal
failing program.  Direct unit tests pin down the checker itself —
including that a deliberately corrupted bitmap or frame is *caught*.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import api
from repro.apps.registry import APP_NAMES
from repro.config import CSM_POLL, HLRC_POLL, TMK_MC_POLL, RunConfig
from repro.core import Program, SharedArray, run_program
from repro.core.base import DsmProtocol
from repro.core.fastpath import PermBitmaps
from repro.memory.page import Protection
from repro.serving.codec import result_digest
from tests.test_protocol_fuzz import make_barrier_program, write_rounds

VARIANTS = (CSM_POLL, TMK_MC_POLL, HLRC_POLL)
SLOTS = 96


@given(rounds=write_rounds, data=st.data())
def test_bitmaps_coherent_through_random_sharing(rounds, data):
    variant = data.draw(st.sampled_from(VARIANTS))
    nprocs = data.draw(st.sampled_from([2, 4]))
    program, _reference = make_barrier_program(rounds)
    run_program(
        program,
        RunConfig(variant=variant, nprocs=nprocs, debug_checks=True),
        {},
    )


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
@pytest.mark.parametrize("access_path", ["fast", "legacy"], indirect=True)
def test_bitmaps_coherent_dense_schedule(variant, access_path):
    """A fixed dense migratory schedule: every slot is written by a
    rotating owner each round, forcing upgrade/invalidate/downgrade
    churn on every page — checked at every barrier, on production's
    access path and on the per-page oracle (the bitmaps are maintained
    even when nothing reads them)."""
    rounds = [
        [(slot, (slot + r) % 4, float(100 * r + slot)) for slot in
         range(0, SLOTS, 3)]
        for r in range(4)
    ]
    program, _reference = make_barrier_program(rounds)
    run_program(
        program, RunConfig(variant=variant, nprocs=4, debug_checks=True), {}
    )


@pytest.mark.parametrize("app", APP_NAMES)
def test_debug_checks_pass_on_sequential_baseline(app):
    """The unlinked Figure-5 baseline maps each page read/write to its
    backing page at first touch, bitmaps and frames both: its
    ``--debug-checks`` barriers must find them coherent and leave its
    result unchanged.  Every barrier the baseline passes is checked
    (tsp synchronises with locks only)."""
    plain = api.run_point(app, None, 1, scale="tiny")
    check = DsmProtocol.check_page_tables
    with mock.patch.object(
        DsmProtocol, "check_page_tables", autospec=True, side_effect=check
    ) as checks:
        checked = api.run_point(app, None, 1, scale="tiny", debug_checks=True)
    barriers = checked.stats.aggregate_counters().get("barriers", 0)
    assert checks.call_count == barriers
    assert barriers > 0 or app == "tsp"
    assert result_digest(checked) == result_digest(plain)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_corrupted_bitmap_is_caught(variant):
    """The checker must not be vacuous: flipping one bitmap bit behind
    the protocol's back fails the next barrier's coherence check."""
    captured = {}

    def setup(space, params):
        arr = SharedArray.alloc(space, "corrupt", np.float64, (SLOTS,))
        arr.initialize(np.zeros(SLOTS))
        return {"arr": arr}

    def worker(env, shared, params):
        arr = shared["arr"]
        yield from arr.put(env, env.rank, 1.0)
        yield from env.barrier(0)
        if env.rank == 0:
            perms = env.protocol.perms
            page = arr.region.space.n_pages - 1
            perms.ensure_cap(page + 1)
            # Claim write permission the protocol never granted.
            perms.writable[0, page] = True
            perms.readable[0, page] = True
            captured["corrupted"] = True
        yield from env.barrier(1)
        env.stop_timer()

    with pytest.raises(AssertionError, match="bitmap disagrees"):
        run_program(
            Program("corrupt", setup, worker),
            RunConfig(variant=variant, nprocs=2, debug_checks=True),
            {},
        )
    assert captured.get("corrupted")


#: corruption -> what the next barrier's check says
FRAME_CORRUPTIONS = {
    "dropped": "readable without a frame",
    "unaliased": "does not alias the master copy",
}


@pytest.mark.parametrize(
    "variant, corruption",
    [(v, "dropped") for v in VARIANTS] + [(CSM_POLL, "unaliased")],
    ids=lambda x: getattr(x, "name", x),
)
def test_corrupted_frame_is_caught(variant, corruption):
    """The frame check must not be vacuous either.  Rank 0 alone reads
    a page (under Cashmere its first touch makes rank 0's node the
    home, so its frame is the master copy), then the frame is dropped,
    or replaced by a private copy of the master: the next barrier's
    check fails."""
    captured = {}

    def setup(space, params):
        arr = SharedArray.alloc(space, "corrupt", np.float64, (SLOTS,))
        arr.initialize(np.zeros(SLOTS))
        quiet = SharedArray.alloc(space, "quiet", np.float64, (SLOTS,))
        quiet.initialize(np.ones(SLOTS))
        return {"arr": arr, "quiet": quiet}

    def worker(env, shared, params):
        yield from shared["arr"].put(env, env.rank, 1.0)
        yield from env.barrier(0)
        if env.rank == 0:
            quiet = shared["quiet"]
            yield from quiet.read_all(env)
            page = quiet.region.offset // quiet.region.space.page_size
            entry = env.protocol.tables[0][page]
            if corruption == "dropped":
                entry.copy = None
            else:
                assert entry.copy is env.protocol.master[page]
                entry.copy = entry.copy.copy()
            captured["corrupted"] = True
        yield from env.barrier(1)
        env.stop_timer()

    with pytest.raises(AssertionError, match=FRAME_CORRUPTIONS[corruption]):
        run_program(
            Program("corrupt", setup, worker),
            RunConfig(variant=variant, nprocs=2, debug_checks=True),
            {},
        )
    assert captured.get("corrupted")


def test_the_hit_path_exists_once():
    """``fast_read``, ``region_gather``, ``page_data`` and the span
    loops are written once, in ``DsmProtocol``, over ``tables``; the
    only overrides are Cashmere's, whose doubled writes are never free
    (its hit writes refuse, and it keeps its own write span loop)."""
    from repro.core.base import DsmProtocol
    from repro.core.cashmere.protocol import CashmereProtocol
    from repro.core.hlrc.protocol import HlrcProtocol
    from repro.core.lrc import LrcProtocolBase
    from repro.core.runtime.sequential import SequentialProtocol
    from repro.core.treadmarks.protocol import TreadMarksProtocol

    reads = {"fast_read", "region_gather", "page_data", "ensure_read_span"}
    writes = {"fast_write", "region_scatter", "ensure_write_span"}
    assert reads | writes <= set(DsmProtocol.__dict__)
    for cls in (
        LrcProtocolBase,
        TreadMarksProtocol,
        HlrcProtocol,
        SequentialProtocol,
    ):
        assert not (reads | writes) & set(cls.__dict__), cls.__name__
    assert not reads & set(CashmereProtocol.__dict__)
    assert writes <= set(CashmereProtocol.__dict__)
    refuse = CashmereProtocol.__dict__
    assert refuse["fast_write"](None, None, None, 0, None) is False
    assert refuse["region_scatter"](None, None, None, None, None) is False


# -- PermBitmaps unit behaviour ---------------------------------------------


def test_permbitmaps_set_and_query():
    perms = PermBitmaps(2, n_pages=8)
    assert not perms.read_ready(0, 0, 8)
    for page in range(4):
        perms.set(0, page, Protection.READ)
    perms.set(0, 4, Protection.READ_WRITE)
    assert perms.read_ready(0, 0, 5)
    assert not perms.read_ready(0, 0, 6)
    assert perms.write_ready_pages(0, np.array([4]))
    assert not perms.write_ready_pages(0, np.arange(5))
    assert perms.readable_at(0, 3) and not perms.writable[0, 3]
    # The other processor's row is untouched.
    assert not perms.read_ready(1, 0, 1)
    perms.set(0, 4, Protection.NONE)
    assert not perms.readable_at(0, 4)
    assert not perms.writable[0, 4]


def test_permbitmaps_grow_preserves_and_rebinds_rows():
    perms = PermBitmaps(2, n_pages=2)
    perms.set(1, 1, Protection.READ_WRITE)
    perms.set(0, 37, Protection.READ)  # forces growth
    assert perms.writable[1, 1], "growth must preserve existing bits"
    assert perms.readable_at(0, 37)
    # Row views alias the grown arrays (the hit path probes these).
    assert perms.r_rows[0][37]
    assert perms.w_rows[1][1]
    perms.set(0, 37, Protection.NONE)
    assert not perms.r_rows[0][37]


def test_permbitmaps_vectorized_span_matches_scalar():
    perms = PermBitmaps(1, n_pages=64)
    for page in range(0, 40):
        perms.set(0, page, Protection.READ)
    # Span of 40 pages goes through the vectorized .all() branch;
    # spans <= 16 take the scalar probe: both must agree.
    assert perms.read_ready(0, 0, 40)
    assert perms.read_ready(0, 30, 40)
    assert not perms.read_ready(0, 0, 41)
    assert not perms.read_ready(0, 39, 56)


def test_permbitmaps_expect_flags_disagreement():
    perms = PermBitmaps(1, n_pages=4)
    perms.set(0, 2, Protection.READ)
    perms.expect(0, [(2, Protection.READ)])  # coherent: no raise
    with pytest.raises(AssertionError, match="disagrees"):
        perms.expect(0, [(2, Protection.READ_WRITE)])
    with pytest.raises(AssertionError, match="disagrees"):
        perms.expect(0, [])  # bitmap says readable, authority says not
    with pytest.raises(AssertionError, match="beyond bitmap capacity"):
        perms.expect(0, [(2, Protection.READ), (99, Protection.READ)])
