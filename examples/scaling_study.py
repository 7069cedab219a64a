#!/usr/bin/env python
"""Processor-count scaling study, 2..32p, through ``repro.api``.

Figure 5 of the paper plots how the protocols scale as processors are
added.  This example reproduces a slice of that sweep through the
stable :func:`repro.api.run_experiment` facade — no harness internals —
and reports two kinds of scaling: the *simulated* speedups the figure
renders, and the wall-clock time the simulator itself took to produce
them.

Usage::

    python examples/scaling_study.py [--apps sor gauss ...] [--jobs N]
"""

import argparse
import time

from repro.api import run_experiment
from repro.config import variant_by_name

DEFAULT_APPS = ("sor", "gauss", "lu")
VARIANTS = ("csm_poll", "tmk_mc_poll")
COUNTS = (2, 4, 8, 16, 32)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", nargs="+", default=list(DEFAULT_APPS))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    started = time.perf_counter()
    result = run_experiment(
        "figure5",
        scale="small",
        jobs=args.jobs,
        apps=list(args.apps),
        variants=[variant_by_name(v) for v in VARIANTS],
        counts=list(COUNTS),
    )
    wall_s = time.perf_counter() - started

    print(result.text)
    print(f"\nSimulator wall clock: {wall_s:.2f} s for "
          f"{len(args.apps)} apps x {len(VARIANTS)} variants x "
          f"{len(COUNTS)} counts ({result.provenance['simulations']} "
          f"points, --jobs {args.jobs}).")


if __name__ == "__main__":
    main()
