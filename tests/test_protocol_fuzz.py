"""Protocol fuzzing: randomly generated race-free SPMD programs must
produce identical data under every protocol variant.

Hypothesis generates small programs from two templates:

* *barrier-phased*: each round assigns every slot-write to exactly one
  rank (so writes are race-free), separated by barriers, with random
  cross-rank reads verified against a straightforward reference
  interpretation;
* *lock-phased*: a random schedule of lock-protected read-modify-write
  increments.

Any divergence between a protocol's data and the reference is a
coherence bug, and shrinking gives a minimal failing schedule.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import (
    CSM_POLL,
    HLRC_POLL,
    TMK_MC_POLL,
    TMK_UDP_INT,
    CSM_INT,
    CSM_PP,
    RunConfig,
)
from repro.core import Program, SharedArray, run_program

SLOTS = 192  # spread across pages when page_size is small
VARIANTS = (CSM_POLL, CSM_INT, CSM_PP, TMK_MC_POLL, TMK_UDP_INT, HLRC_POLL)

write_rounds = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, SLOTS - 1),  # slot
            st.integers(0, 3),  # writer rank
            st.floats(-100, 100, allow_nan=False),  # value
        ),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=4,
)


def make_barrier_program(rounds):
    """One writer per slot per round (deduplicated), all ranks read all
    written slots after each barrier."""
    cleaned = []
    for round_writes in rounds:
        seen = set()
        unique = []
        for slot, writer, value in round_writes:
            if slot in seen:
                continue
            seen.add(slot)
            unique.append((slot, writer, value))
        cleaned.append(unique)

    def setup(space, params):
        arr = SharedArray.alloc(space, "fuzz", np.float64, (SLOTS,))
        arr.initialize(np.zeros(SLOTS))
        return {"arr": arr}

    def worker(env, shared, params):
        arr = shared["arr"]
        expected = {}
        for round_writes in cleaned:
            for slot, writer, value in round_writes:
                if writer % env.nprocs == env.rank:
                    yield from arr.put(env, slot, value)
                expected[slot] = value
            yield from env.barrier(0)
            for slot, value in expected.items():
                got = yield from arr.get(env, slot)
                assert got == value, (
                    f"rank {env.rank} slot {slot}: {got} != {value}"
                )
            yield from env.barrier(1)
        env.stop_timer()
        if env.rank == 0:
            return (yield from arr.read_all(env))
        return None

    reference = np.zeros(SLOTS)
    for round_writes in cleaned:
        for slot, _writer, value in round_writes:
            reference[slot] = value
    return Program("fuzz_barrier", setup, worker), reference


@given(rounds=write_rounds, data=st.data())
def test_barrier_phased_fuzz(rounds, data):
    variant = data.draw(st.sampled_from(VARIANTS))
    nprocs = data.draw(st.sampled_from([2, 4, 8]))
    program, reference = make_barrier_program(rounds)
    result = run_program(
        program, RunConfig(variant=variant, nprocs=nprocs), {}
    )
    assert np.array_equal(result.values[0], reference), variant.name


lock_schedule = st.lists(
    st.tuples(
        st.integers(0, 3),  # acting rank
        st.integers(0, 7),  # lock/slot
        st.integers(1, 9),  # increment
    ),
    min_size=1,
    max_size=24,
)


def make_lock_program(schedule, nprocs):
    """A fixed global schedule of lock-protected increments; each step
    is executed by exactly one rank."""

    def setup(space, params):
        arr = SharedArray.alloc(space, "locked", np.float64, (64,))
        arr.initialize(np.zeros(64))
        return {"arr": arr}

    def worker(env, shared, params):
        arr = shared["arr"]
        for rank, lock, amount in schedule:
            if rank % env.nprocs != env.rank:
                continue
            yield from env.lock_acquire(lock)
            value = yield from arr.get(env, lock)
            yield from arr.put(env, lock, value + amount)
            yield from env.lock_release(lock)
        yield from env.barrier(0)
        env.stop_timer()
        if env.rank == 0:
            return (yield from arr.read_range(env, 0, 8))
        return None

    reference = np.zeros(8)
    for _rank, lock, amount in schedule:
        reference[lock] += amount
    return Program("fuzz_lock", setup, worker), reference


@given(schedule=lock_schedule, data=st.data())
def test_lock_phased_fuzz(schedule, data):
    variant = data.draw(st.sampled_from(VARIANTS))
    nprocs = data.draw(st.sampled_from([2, 4]))
    program, reference = make_lock_program(schedule, nprocs)
    result = run_program(
        program, RunConfig(variant=variant, nprocs=nprocs), {}
    )
    assert np.array_equal(result.values[0], reference), variant.name


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_mixed_locks_and_barriers(variant):
    """A fixed dense schedule mixing both synchronization styles."""
    schedule = [(i % 4, (i * 3) % 8, 1 + i % 5) for i in range(40)]
    program, reference = make_lock_program(schedule, 8)

    result = run_program(
        program, RunConfig(variant=variant, nprocs=8), {}
    )
    assert np.array_equal(result.values[0], reference)
