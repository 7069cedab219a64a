"""Reproduction of "VM-Based Shared Memory on Low-Latency,
Remote-Memory-Access Networks" (Kontothanassis et al., ISCA 1997).

The package simulates a 32-processor AlphaServer cluster connected by a
DEC Memory Channel network and runs two complete page-based software DSM
systems on it — Cashmere (directory + write-through to home nodes) and
TreadMarks (lazy release consistency with twins and diffs) — together
with the paper's eight benchmark applications and the harness that
regenerates every table and figure of the evaluation.

Quickstart::

    from repro import run_program, run_sequential, RunConfig, CSM_POLL
    from repro.apps import sor

    app = sor.program()
    params = sor.default_params()
    seq = run_sequential(app, params)
    par = run_program(app, RunConfig(variant=CSM_POLL, nprocs=8), params)
    print("speedup:", par.speedup_over(seq.exec_time))
"""

from repro.config import (
    ALL_VARIANTS,
    CSM_INT,
    CSM_PP,
    CSM_POLL,
    EXTENSION_VARIANTS,
    HLRC_INT,
    HLRC_POLL,
    POLLING_VARIANTS,
    TMK_MC_INT,
    TMK_MC_POLL,
    TMK_UDP_INT,
    ClusterConfig,
    CostModel,
    Mechanism,
    RunConfig,
    SystemKind,
    Transport,
    Variant,
    WorkingSet,
    variant_by_name,
)
from repro.core import (
    Program,
    RunResult,
    SharedArray,
    run_program,
    run_sequential,
)
from repro.memory import AddressSpace

__version__ = "1.0.0"

__all__ = [
    "ALL_VARIANTS",
    "EXTENSION_VARIANTS",
    "HLRC_INT",
    "HLRC_POLL",
    "AddressSpace",
    "CSM_INT",
    "CSM_PP",
    "CSM_POLL",
    "ClusterConfig",
    "CostModel",
    "Mechanism",
    "POLLING_VARIANTS",
    "Program",
    "RunConfig",
    "RunResult",
    "SharedArray",
    "SystemKind",
    "TMK_MC_INT",
    "TMK_MC_POLL",
    "TMK_UDP_INT",
    "Transport",
    "Variant",
    "WorkingSet",
    "run_program",
    "run_sequential",
    "variant_by_name",
]
