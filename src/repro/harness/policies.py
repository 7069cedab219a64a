"""The sharing-policy study: granularity x prefetch x homing A/B.

The paper fixes the coherence unit at the 8 KB VM page, fetches purely
on demand, and homes data where it is first touched.  PR 10's pluggable
policy layer (docs/POLICIES.md) makes all three choices knobs; this
driver measures what they buy.  For each protocol variant it runs one
application over a ladder of policy triples — the default
``(page, none, first-touch)`` first — and reports each triple's
simulated time, its speedup over the default triple, the policy
counters (``prefetches``, ``home_migrations``), and whether the
simulated *results* stayed bit-identical to the baseline's (they must:
policies move costs, never values).

The interesting subject is the false-sharing-prone extension workload
``irreg`` on the ``rdma`` backend at 8 processors — the configuration
where fine-grained coherence pays off hardest against page-grained
invalidation churn (and the configuration the claims ledger's
``ext-policy-fine-grain-gate`` pins: block256+seq >= 1.2x with
identical values).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import (
    CSM_POLL,
    HLRC_POLL,
    NETWORK_BACKENDS,
    TMK_MC_POLL,
    Variant,
)
from repro.harness.declaration import Param
from repro.harness.runner import BatchPoint, ExperimentContext

#: The head-to-head set: the paper's two polling systems plus the
#: home-based third protocol (whose eager-diff page churn the policy
#: layer bites into hardest).
DEFAULT_VARIANTS = (CSM_POLL, TMK_MC_POLL, HLRC_POLL)

#: The default policy ladder.  The first triple **must** be the default
#: (page, none, first-touch): every other row is normalized to it.
DEFAULT_POLICIES: Tuple[Tuple[str, str, str], ...] = (
    ("page", "none", "first-touch"),
    ("block256", "none", "first-touch"),
    ("block256", "seq", "first-touch"),
    ("block1k", "none", "first-touch"),
    ("region2", "none", "first-touch"),
    ("page", "seq", "first-touch"),
    ("page", "none", "round-robin"),
    ("page", "none", "dynamic"),
)

DEFAULT_APP = "irreg"
DEFAULT_NPROCS = 8
DEFAULT_NETWORK = "rdma"

HELP = (
    "sharing-policy study: granularity x prefetch x homing A/B against "
    "the default (page, none, first-touch) triple (see docs/POLICIES.md)"
)

#: ``network`` is the CLI's shared ``--network`` option; this study's
#: sweet spot is the rdma backend, so that is its default here.
PARAMS = (
    Param(
        "app",
        "app",
        default=DEFAULT_APP,
        help="subject application (default: the false-sharing "
        "extension workload irreg)",
    ),
    Param(
        "variants",
        "variants",
        help="protocol variants (default: csm_poll tmk_mc_poll hlrc_poll)",
    ),
    Param("nprocs", "procs", default=DEFAULT_NPROCS, flag="--procs"),
    Param(
        "network", "choice", default=DEFAULT_NETWORK, choices=NETWORK_BACKENDS
    ),
)


@dataclass
class PolicyCell:
    """One (variant, policy-triple) measurement."""

    variant: str
    granularity: str
    prefetch: str
    homing: str
    exec_ms: float
    speedup: float  # over the default triple, same variant
    prefetches: int
    home_migrations: int
    values_ok: bool  # values digest equal to the baseline's

    @property
    def is_baseline(self) -> bool:
        return (self.granularity, self.prefetch, self.homing) == (
            "page",
            "none",
            "first-touch",
        )


def generate(
    ctx: ExperimentContext = None,
    app: str = DEFAULT_APP,
    variants: Optional[Sequence[Variant]] = None,
    policies: Optional[Sequence[Tuple[str, str, str]]] = None,
    nprocs: int = DEFAULT_NPROCS,
    network: str = DEFAULT_NETWORK,
) -> List[PolicyCell]:
    ctx = ctx or ExperimentContext()
    variants = list(variants or DEFAULT_VARIANTS)
    policies = list(policies or DEFAULT_POLICIES)
    baseline = ("page", "none", "first-touch")
    if baseline in policies:
        policies.remove(baseline)
    policies.insert(0, baseline)
    batch = [
        BatchPoint(
            app,
            variant,
            nprocs,
            overrides=(
                ("granularity", g),
                ("homing", h),
                ("network", network),
                ("prefetch", p),
            ),
        )
        for variant in variants
        for (g, p, h) in policies
    ]
    results = ctx.run_batch(batch)
    cells: List[PolicyCell] = []
    cursor = 0
    for variant in variants:
        base = results[cursor]
        for g, p, h in policies:
            result = results[cursor]
            cursor += 1
            cells.append(
                PolicyCell(
                    variant=variant.name,
                    granularity=g,
                    prefetch=p,
                    homing=h,
                    exec_ms=result.exec_time / 1000.0,
                    speedup=base.exec_time / result.exec_time,
                    prefetches=result.counter("prefetches"),
                    home_migrations=result.counter("home_migrations"),
                    values_ok=base.values_sha256 == result.values_sha256,
                )
            )
    return cells


def best_non_default(cells: List[PolicyCell]) -> Optional[PolicyCell]:
    """The fastest non-default policy row across every variant (the
    row the rendered study names as its best non-default policy)."""
    contenders = [c for c in cells if not c.is_baseline]
    if not contenders:
        return None
    return max(contenders, key=lambda c: c.speedup)


def render(cells: List[PolicyCell]) -> str:
    variants: List[str] = []
    for cell in cells:
        if cell.variant not in variants:
            variants.append(cell.variant)
    lines = []
    for variant in variants:
        lines.append(f"== variant: {variant} ==")
        lines.append(
            f"{'granularity':<12}{'prefetch':<10}{'homing':<13}"
            f"{'time_ms':>9}{'speedup':>9}{'pf':>7}{'mig':>6}  values"
        )
        for cell in cells:
            if cell.variant != variant:
                continue
            lines.append(
                f"{cell.granularity:<12}{cell.prefetch:<10}"
                f"{cell.homing:<13}{cell.exec_ms:>9.1f}"
                f"{cell.speedup:>8.2f}x{cell.prefetches:>7}"
                f"{cell.home_migrations:>6}  "
                + ("ok" if cell.values_ok else "MISMATCH")
            )
        lines.append("")
    best = best_non_default(cells)
    if best is not None:
        verdict = "MET" if best.speedup >= 1.2 else "NOT met"
        lines.append(
            "== best non-default policy: "
            f"({best.granularity}, {best.prefetch}, {best.homing}) "
            f"on {best.variant} at {best.speedup:.2f}x "
            f"— >=1.2x gate {verdict} =="
        )
    return "\n".join(lines)


def run(
    ctx: ExperimentContext = None,
    app: str = DEFAULT_APP,
    variants: Optional[Sequence[Variant]] = None,
    policies: Optional[Sequence[Tuple[str, str, str]]] = None,
    nprocs: int = DEFAULT_NPROCS,
    network: str = DEFAULT_NETWORK,
):
    """Run the policy study, wrapped in the common result envelope."""
    from repro.harness import results

    ctx = ctx or ExperimentContext()
    cells = generate(
        ctx,
        app=app,
        variants=variants,
        policies=policies,
        nprocs=nprocs,
        network=network,
    )
    best = best_non_default(cells)
    config = {
        "app": app,
        "nprocs": nprocs,
        "network": network,
        "variants": sorted({c.variant for c in cells}),
        "policies": [
            [c.granularity, c.prefetch, c.homing]
            for c in cells
            if c.variant == cells[0].variant
        ],
        "best_speedup": None if best is None else round(best.speedup, 3),
        "values_all_ok": all(c.values_ok for c in cells),
    }
    return results.build("policies", ctx, cells, render(cells), config)
