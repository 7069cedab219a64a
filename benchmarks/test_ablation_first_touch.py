"""Ablation: first-touch vs. round-robin home-node assignment.

"The choice of home node can have a significant impact on performance.
The home node itself can access the page directly, while the remaining
processors have to use the slower Memory Channel interface.  We assign
home nodes at run time, based on which processor first touches a page"
(Section 2.1).  With round-robin homes, SOR's interior writes leave the
node: write-through traffic and page fetches both grow.
"""

from repro.config import CSM_POLL

from conftest import run_once


def test_first_touch_beats_round_robin_on_sor(benchmark, ctx):
    def measure():
        first_touch = ctx.run("sor", CSM_POLL, 8)
        round_robin = ctx.run("sor", CSM_POLL, 8, homing="round-robin")
        return first_touch, round_robin

    first_touch, round_robin = run_once(benchmark, measure)
    ft_wt = first_touch.counter("write_through_bytes")
    rr_wt = round_robin.counter("write_through_bytes")
    print(
        f"\nfirst touch : {first_touch.exec_time / 1e6:.3f}s, "
        f"{ft_wt / 1024:.0f} KB write-through"
        f"\nround robin : {round_robin.exec_time / 1e6:.3f}s, "
        f"{rr_wt / 1024:.0f} KB write-through"
    )
    benchmark.extra_info.update(
        first_touch_seconds=first_touch.exec_time / 1e6,
        round_robin_seconds=round_robin.exec_time / 1e6,
        first_touch_wt_kb=ft_wt / 1024,
        round_robin_wt_kb=rr_wt / 1024,
    )
    assert rr_wt > 2 * ft_wt
    assert round_robin.exec_time > first_touch.exec_time
