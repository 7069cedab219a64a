"""The home-placement and migration rules both homed protocols share
(``repro.memory.policy.HomeTable``): Cashmere keys it by node id, HLRC
by pid."""

import itertools

import pytest

from repro.memory.policy import MIGRATE_AFTER, MIGRATE_LIMIT, HomeTable


def _table(homing="dynamic"):
    return HomeTable(homing, round_robin=lambda unit: unit % 4)


@pytest.mark.parametrize("homing", ["first-touch", "dynamic"])
def test_first_touch_and_dynamic_place_at_the_toucher(homing):
    table = _table(homing)
    assert table.place(7, toucher=2) == 2
    assert table.place(8, toucher=0) == 0
    assert table.dynamic == (homing == "dynamic")


def test_round_robin_by_unit_index():
    """HLRC's rule: the home is the unit index modulo the owners."""
    table = _table("round-robin")
    assert [table.place(unit, toucher=3) for unit in (5, 2, 8)] == [1, 2, 0]


def test_round_robin_in_assignment_order():
    """Cashmere's rule: rotate over the active nodes as units are
    placed, whatever their index."""
    rotation = itertools.cycle([0, 2, 5])
    table = HomeTable("round-robin", round_robin=lambda unit: next(rotation))
    placed = [table.place(unit, toucher=1) for unit in (9, 3, 4, 0)]
    assert placed == [0, 2, 5, 0]


def test_unknown_homing_is_rejected():
    with pytest.raises(ValueError, match="unknown homing"):
        HomeTable("nearest", round_robin=lambda unit: 0)


def test_migrates_at_threshold_with_a_strict_majority():
    table = _table()
    for _ in range(MIGRATE_AFTER - 2):
        assert not table.count_fetch(0, owner=1)
    assert not table.count_fetch(0, owner=2)
    assert not table.count_fetch(0, owner=1)  # MIGRATE_AFTER - 1
    assert table.count_fetch(0, owner=1)  # MIGRATE_AFTER, beats 1


def test_no_move_on_a_tie():
    table = _table()
    for _ in range(MIGRATE_AFTER):
        table.count_fetch(0, owner=2)  # the caller vetoes each move
    for _ in range(MIGRATE_AFTER - 1):
        assert not table.count_fetch(0, owner=1)
    # Owner 1 reaches the threshold level with owner 2: no majority.
    assert not table.count_fetch(0, owner=1)
    assert table.count_fetch(0, owner=1)  # now strictly ahead


def test_counts_reset_after_a_move():
    table = _table()
    for _ in range(MIGRATE_AFTER - 1):
        table.count_fetch(0, owner=1)
    assert table.count_fetch(0, owner=1)
    table.moved(0)
    for _ in range(MIGRATE_AFTER - 1):
        assert not table.count_fetch(0, owner=1)  # the window restarted
    assert table.count_fetch(0, owner=1)


def test_a_vetoed_move_leaves_the_counts():
    table = _table()
    for _ in range(MIGRATE_AFTER - 1):
        table.count_fetch(0, owner=3)
    assert table.count_fetch(0, owner=3)  # the caller vetoes: no moved()
    assert table.count_fetch(0, owner=3)  # still counting from before


def test_no_move_past_the_limit():
    table = _table()
    for _ in range(MIGRATE_LIMIT):
        for _ in range(MIGRATE_AFTER - 1):
            table.count_fetch(0, owner=1)
        assert table.count_fetch(0, owner=1)
        table.moved(0)
    for _ in range(2 * MIGRATE_AFTER):
        assert not table.count_fetch(0, owner=1)
    # Other units keep their own budget.
    for _ in range(MIGRATE_AFTER - 1):
        table.count_fetch(1, owner=1)
    assert table.count_fetch(1, owner=1)
