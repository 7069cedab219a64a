"""SOR: Red-Black Successive Over-Relaxation (paper Section 4.2).

"The red and black arrays are divided into roughly equal size bands of
rows, with each band assigned to a different processor.  Communication
occurs across the boundaries between bands.  Processors synchronize with
barriers."

The red/black coupling below is a simplified stencil that preserves the
protocol-relevant structure exactly: each phase reads the other color's
rows (own band plus one halo row on each side) and overwrites the whole
of its own band, so neighbouring bands share boundary pages and every
iteration moves two halo pages per processor per phase.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import WorkingSet
from repro.core import Program, SharedArray
from repro.apps import kernels
from repro.apps.common import band, deterministic_rng, pick_scale

# Per-cell stencil cost: four flops plus the loads/stores of a
# memory-bound sweep on a 233 MHz 21064A.
US_PER_CELL = 0.25
# One poll point per inner-loop iteration (the instrumentation pass
# inserts a check at the top of every loop).
POLLS_PER_CELL = 1


def default_params(scale: str = "small") -> Dict:
    """Scaled-down versions of the paper's 3072x4096 grid."""
    sizes = {
        "tiny": dict(rows=24, cols=32, iters=4),
        "small": dict(rows=256, cols=2048, iters=6),
        "large": dict(rows=768, cols=2048, iters=24),
        # The paper's full 3072x4096 grid (Section 4.2).
        "xlarge": dict(rows=3072, cols=4096, iters=24),
    }
    return pick_scale(sizes, scale)


def setup(space, params: Dict) -> Dict:
    rows, cols = params["rows"], params["cols"]
    half = cols // 2
    rng = deterministic_rng(params.get("seed", 1997))
    red = SharedArray.alloc(space, "sor_red", np.float64, (rows, half))
    black = SharedArray.alloc(space, "sor_black", np.float64, (rows, half))
    red.initialize(rng.random((rows, half)))
    black.initialize(rng.random((rows, half)))
    return {"red": red, "black": black}


def worker(env, shared: Dict, params: Dict):
    rows, cols, iters = params["rows"], params["cols"], params["iters"]
    half = cols // 2
    red, black = shared["red"], shared["black"]
    lo, hi = band(env.rank, env.nprocs, rows)
    # Skip fixed boundary rows when updating.
    ulo, uhi = max(lo, 1), min(hi, rows - 1)
    cells = max(uhi - ulo, 0) * half
    # The stencil streams through memory; its cache-resident set is tiny,
    # so SOR sees no working-set penalty from doubling or twins (the
    # paper attributes SOR's Cashmere overhead purely to the doubled
    # write instructions).
    ws = WorkingSet(primary=0)
    # Band mirrors: this rank is the only writer of rows [ulo, uhi) of
    # either color, so those rows — once read or written — always match
    # shared memory bitwise, and re-gathering them per phase only
    # repeats event-free hot reads.  Each buffer holds the mirrored band
    # in [1:-1]; only the two halo rows [0] / [-1] are refreshed from
    # shared memory each phase.  Any cold interior page falls back to
    # the full-range read below, which faults the band's pages in
    # ascending order.
    halo_buf: Dict[int, np.ndarray] = {}
    # Loop-invariant regions, hoisted out of the iteration loop (ROADMAP
    # "profiled micro-levers", the lu block-map idiom): every phase
    # touches the same four shapes — the full halo band, the two single
    # halo rows, and the written band — so their byte segments and page
    # spans are computed once instead of per phase.
    regions: Dict[int, tuple] = {}
    if cells:
        for arr in (red, black):
            regions[id(arr)] = (
                arr.region_rows(ulo - 1, uhi + 1),  # full halo band
                arr.region_rows(ulo - 1, ulo),  # top halo row
                arr.region_rows(uhi, uhi + 1),  # bottom halo row
                arr.region_rows(ulo, uhi),  # written band
            )
    for _ in range(iters):
        for color, source in ((red, black), (black, red)):
            if cells:
                band_reg, top_reg, bot_reg, _ = regions[id(source)]
                buf = halo_buf.get(id(source))
                if buf is not None and source.rows_hot(env, ulo, uhi):
                    # The mirrored interior is provably current (single
                    # writer) and its pages are all hot, so only the two
                    # halo rows can be cold.  Fetching them alone faults
                    # exactly the pages the full-band read would — the
                    # cold subset of the top row's span, then of the
                    # bottom row's, both ascending, with any page shared
                    # between the two spans faulted once by the first
                    # read — so the event stream is identical.
                    top = source.region_view(env, top_reg)
                    if top is None:
                        top = yield from source.read_region(env, top_reg)
                    bot = source.region_view(env, bot_reg)
                    if bot is None:
                        bot = yield from source.read_region(env, bot_reg)
                    buf[0] = top[0]
                    buf[-1] = bot[0]
                else:
                    halo = source.region_view(env, band_reg)
                    if halo is None:
                        halo = yield from source.read_region(
                            env, band_reg
                        )
                    if buf is None:
                        buf = halo_buf[id(source)] = np.array(halo)
                    else:
                        buf[:] = halo
            yield from env.compute(
                cells * US_PER_CELL, polls=cells * POLLS_PER_CELL, ws=ws
            )
            if cells:
                updated = kernels.sor_phase_update(buf)
                yield from color.write_region(
                    env, regions[id(color)][3], updated
                )
                cbuf = halo_buf.get(id(color))
                if cbuf is None:
                    cbuf = halo_buf[id(color)] = np.empty(
                        (uhi - ulo + 2, half)
                    )
                cbuf[1:-1] = updated
            yield from env.barrier(0)
    env.stop_timer()
    if env.rank == 0:
        red_final = yield from red.read_all(env)
        black_final = yield from black.read_all(env)
        return red_final.sum() + black_final.sum(), red_final, black_final
    return None


def program() -> Program:
    return Program(name="sor", setup=setup, worker=worker)
