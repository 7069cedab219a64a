"""Cluster configuration and the simulation cost model.

All times are simulated microseconds.  The constants come from Section 4.1
("Basic Operation Costs") and Section 3.1 of the paper.  The OCR of the
source text drops digits in a few numbers; every such constant is marked
``# OCR`` together with the value chosen and the reasoning.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional, Tuple

from repro.memory import policy as sharing_policy


class SystemKind(enum.Enum):
    """Which DSM protocol a run uses."""

    CASHMERE = "cashmere"
    TREADMARKS = "treadmarks"
    # Extension beyond the paper: home-based LRC, the hybrid the field
    # converged on shortly afterwards (see repro.core.hlrc).
    HLRC = "hlrc"
    # The paper's unlinked baseline: the program on one processor with
    # no DSM system (``repro.core.runtime.sequential``).
    SEQUENTIAL = "sequential"


class Mechanism(enum.Enum):
    """How a processor learns about incoming remote requests."""

    INTERRUPT = "int"  # imc_kill / sigio inter-node interrupts
    POLL = "poll"  # polling inserted at loop back-edges
    PROTOCOL_PROCESSOR = "pp"  # one CPU per node dedicated to requests


class Transport(enum.Enum):
    """Messaging substrate used by the request/response layer."""

    MEMORY_CHANNEL = "mc"  # user-level MC message buffers
    UDP = "udp"  # DEC kernel-level UDP over the Memory Channel


@dataclass(frozen=True)
class Variant:
    """One of the six protocol implementations compared in the paper."""

    name: str
    system: SystemKind
    mechanism: Mechanism
    transport: Transport = Transport.MEMORY_CHANNEL

    def __str__(self) -> str:
        return self.name


CSM_PP = Variant("csm_pp", SystemKind.CASHMERE, Mechanism.PROTOCOL_PROCESSOR)
CSM_INT = Variant("csm_int", SystemKind.CASHMERE, Mechanism.INTERRUPT)
CSM_POLL = Variant("csm_poll", SystemKind.CASHMERE, Mechanism.POLL)
TMK_UDP_INT = Variant(
    "tmk_udp_int", SystemKind.TREADMARKS, Mechanism.INTERRUPT, Transport.UDP
)
TMK_MC_INT = Variant("tmk_mc_int", SystemKind.TREADMARKS, Mechanism.INTERRUPT)
TMK_MC_POLL = Variant("tmk_mc_poll", SystemKind.TREADMARKS, Mechanism.POLL)

# Extension variants (not part of the paper's six).
HLRC_POLL = Variant("hlrc_poll", SystemKind.HLRC, Mechanism.POLL)
HLRC_INT = Variant("hlrc_int", SystemKind.HLRC, Mechanism.INTERRUPT)

# The sequential baseline.  Not selectable by name: an omitted variant
# means the baseline (``repro.harness.parallel.point_spec``).
SEQUENTIAL = Variant("sequential", SystemKind.SEQUENTIAL, Mechanism.INTERRUPT)

ALL_VARIANTS = (CSM_PP, CSM_INT, CSM_POLL, TMK_UDP_INT, TMK_MC_INT, TMK_MC_POLL)
EXTENSION_VARIANTS = (HLRC_POLL, HLRC_INT)
POLLING_VARIANTS = (CSM_POLL, TMK_MC_POLL)

_VARIANTS_BY_NAME = {v.name: v for v in ALL_VARIANTS + EXTENSION_VARIANTS}


def variant_by_name(name: str) -> Variant:
    """Look a variant up by its paper name (e.g. ``"csm_poll"``)."""
    try:
        return _VARIANTS_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_VARIANTS_BY_NAME))
        raise ValueError(f"unknown variant {name!r}; known: {known}") from None


#: Interconnect backends selectable via ``RunConfig.network`` /
#: ``--network``.  The classes live in :mod:`repro.cluster.network`
#: (which imports this module, so only the names can live here); that
#: module asserts its registry matches this tuple.  See docs/NETWORKS.md.
NETWORK_BACKENDS = ("memch", "rdma", "ethernet")


@dataclass(frozen=True)
class ClusterConfig:
    """Topology of the simulated AlphaServer cluster.

    The paper's testbed is eight 4-processor AlphaServer 2100 4/233 nodes
    connected by a first-generation Memory Channel.
    """

    n_nodes: int = 8
    cpus_per_node: int = 4
    page_size: int = 8192  # Digital Unix virtual-memory page size (bytes)
    cache_line: int = 64  # bytes

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.cpus_per_node < 1:
            raise ValueError("cluster needs at least one node and one cpu")
        if self.page_size < 64 or self.page_size % 8:
            raise ValueError("page_size must be a multiple of 8 and >= 64")

    @property
    def total_cpus(self) -> int:
        return self.n_nodes * self.cpus_per_node


@dataclass(frozen=True)
class CostModel:
    """Measured basic-operation costs (microseconds unless noted).

    Defaults model the paper's first-generation Memory Channel testbed;
    ``second_generation()`` models the projected follow-on network
    (roughly half the latency and an order of magnitude more bandwidth).
    """

    # --- Memory Channel network (Section 3.1) ---
    mc_latency: float = 5.2  # process-to-process remote-write latency
    mc_link_bandwidth: float = 30.0  # bytes/us per link (~30 MB/s)  # OCR
    mc_aggregate_bandwidth: float = 32.0  # bytes/us through the hub
    # The early device driver limited aggregate bandwidth to ~32 MB/s.

    # --- Virtual memory operations (Section 4.1) ---
    mprotect: float = 62.0  # memory protection change
    page_fault: float = 89.0  # kernel fault delivery to user handler  # OCR
    # (text reads "Page faults cost 9 s"; 89us is consistent with the
    #  62us protection-change cost on the same kernel)

    # --- Signals / interrupts (Sections 3.2, 4.1) ---
    signal_local: float = 69.0  # local signal delivery
    signal_send: float = 45.0  # sender-side cost of imc_kill  # OCR
    interrupt_latency: float = 900.0  # end-to-end inter-node signal (~1 ms)

    # --- Polling (Section 3.2) ---
    poll_check: float = 0.017  # one 4-instruction poll at 233 MHz
    poll_reaction: float = 2.0  # mean delay until the next poll point

    # --- Messaging layer ---
    msg_cpu_mc: float = 9.0  # user-level buffer send/receive CPU cost
    # (includes the sense-reversing flow-control flags of Section 3.4)
    msg_cpu_udp: float = 80.0  # kernel UDP send/receive CPU cost
    msg_header: int = 32  # bytes of header per protocol message

    # --- Cashmere protocol (Sections 2.1, 3.3, 4.1) ---
    dir_modify: float = 5.0  # directory entry update, no lock
    dir_modify_locked: float = 16.0  # update incl. entry lock (home move)
    dir_entry_bytes: int = 32  # eight 4-byte words broadcast per update
    lock_mc: float = 11.0  # uncontended MC lock acquire+release
    lock_kernel: float = 280.0  # Digital Unix kernel MC lock  # OCR
    # A doubled write is a 5-instruction sequence ending in a store to an
    # uncached PCI transmit region; calibrated so SOR's doubling overhead
    # lands at the paper's measured ~19% of total execution time.
    write_double: float = 0.08
    write_notice_bytes: int = 4  # one packed notice word on the wire

    # --- TreadMarks protocol (Sections 2.2, 4.1) ---
    twin_page_8k: float = 362.0  # twin (copy) of an 8 KB page
    diff_page_min: float = 290.0  # diff of a nearly clean 8 KB page  # OCR
    diff_page_max: float = 530.0  # diff of a fully dirty 8 KB page  # OCR
    diff_apply_base: float = 60.0  # per-diff decode/merge entry cost
    diff_apply_per_kb: float = 25.0  # merging a diff into a page copy
    interval_record_bytes: int = 12  # serialized interval header (compressed)
    interval_process: float = 12.0  # incorporating one received record
    vts_entry_bytes: int = 1  # timestamps travel delta-compressed

    # --- Local memory (AlphaServer 2100 memcpy ~ 22 MB/s effective) ---
    memcpy_per_kb: float = 45.0  # derived from the 362us 8 KB twin cost

    # --- Caches (21064A: 16 KB L1; 2100 board cache as L2) ---
    l1_bytes: int = 16 * 1024
    l2_bytes: int = 1 * 1024 * 1024
    l2_penalty: float = 1.6  # compute inflation when working out of L2
    # (the 21064A's L2 is off-chip; blocked kernels slow down sharply)
    mem_penalty: float = 2.3  # compute inflation when working out of DRAM

    # --- Sharing-unit scaling (PR 10, docs/POLICIES.md) ---
    # Per-message floor for unit-scaled costs: however small the
    # sharing unit, a twin/diff/fetch still pays at least one
    # user-level message's CPU cost (= msg_cpu_mc).  Linear scaling
    # alone would let a 64-byte unit charge 2.8 us for a twin — below
    # a single wire message, which no real implementation achieves.
    # The floor never binds at page size or above (every per-8KB base
    # is >= 290 us), so default-granularity results are untouched.
    unit_cost_floor: float = 9.0

    def page_sized(self, base_8k: float, page_size: int) -> float:
        """Scale a per-8KB-page cost to ``page_size`` bytes.

        Clamped below by :attr:`unit_cost_floor` so sub-page sharing
        units cannot charge less than one wire message per operation.
        """
        return max(base_8k * (page_size / 8192.0), self.unit_cost_floor)

    def twin_cost(self, page_size: int) -> float:
        return self.page_sized(self.twin_page_8k, page_size)

    def diff_cost(self, page_size: int, dirty_fraction: float) -> float:
        """Cost of creating a diff; grows with the dirty fraction."""
        span = self.diff_page_max - self.diff_page_min
        base = self.diff_page_min + span * min(max(dirty_fraction, 0.0), 1.0)
        return self.page_sized(base, page_size)

    def memcpy_cost(self, nbytes: int) -> float:
        return self.memcpy_per_kb * (nbytes / 1024.0)

    @staticmethod
    def second_generation() -> "CostModel":
        """The second-generation Memory Channel the paper anticipates:
        roughly half the latency and an order of magnitude more bandwidth.
        """
        return CostModel(
            mc_latency=2.6,
            mc_link_bandwidth=300.0,
            mc_aggregate_bandwidth=320.0,
        )


@dataclass(frozen=True)
class WorkingSet:
    """Cache working sets declared by an application compute phase.

    ``primary`` is the inner-loop working set (first-level cache);
    ``secondary`` is the phase's larger reuse set (second-level cache —
    Gauss's remaining rows, for example).

    The protocol-added footprints are split by cache level, following the
    paper's Section 4.3 analysis: ``doubled``/``doubled_l2`` are the
    extra bytes Cashmere's write doubling adds to the primary/secondary
    sets (the local MC copies of the written data); ``twin``/``twin_l2``
    are what TreadMarks' twins and diffs add.  LU and Gauss put doubling
    pressure on L1; Gauss additionally puts twin/diff pressure on L2,
    which is why Cashmere gets the paper's 32-processor L2 jump and
    TreadMarks does not.
    """

    primary: int = 0
    secondary: int = 0
    doubled: int = 0
    doubled_l2: int = 0
    twin: int = 0
    twin_l2: int = 0


@dataclass(frozen=True)
class Knob:
    """The one declaration of a run knob, in its :class:`RunConfig`
    field's metadata; its check, CLI flag, wire field and key are read
    from it.  ``kind`` is ``bool``, ``choice`` (one of ``choices``) or
    ``int`` (None = automatic, else at least ``minimum``).  ``context``
    places a context-wide knob, one an invocation sets for all its
    points: a common CLI flag ``--<name>`` (``help``) and a field of the
    wire's ``options``.  ``key`` names the property the cache key reads
    instead, a resolved value, so an explicit setting and the automatic
    policy that picks the same value share an entry."""

    kind: str
    choices: Tuple[str, ...] = ()
    minimum: int = 1
    context: Optional[int] = None
    help: Optional[str] = None
    key: Optional[str] = None

    def checker(self, name: str) -> Callable[[Any], None]:
        """The check of a value of knob ``name``: ValueError unless it
        is of this kind (a bool is not an int)."""
        minimum = self.minimum
        valid, known = {
            "bool": (lambda v: type(v) is bool, "True, False"),
            "choice": (self.choices.__contains__, ", ".join(self.choices)),
            "int": (
                lambda v: v is None or (type(v) is int and v >= minimum),
                f"None or an int >= {minimum}",
            ),
        }[self.kind]

        def check(value: Any) -> None:
            if not valid(value):
                raise ValueError(f"unknown {name} {value!r}; known: {known}")

        return check


def _knob(default: Any, choices: Tuple[str, ...] = (), **declared: Any):
    """A :class:`RunConfig` field declared as a run knob; its kind
    follows from its default and ``choices``."""
    kind = "bool" if type(default) is bool else "choice" if choices else "int"
    knob = Knob(kind, choices, **declared)
    return field(default=default, metadata={"knob": knob})


@dataclass
class RunConfig:
    """Everything a single simulated program execution needs.  The
    fields after ``costs`` are the run knobs, each declared once."""

    variant: Variant
    nprocs: int
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    costs: CostModel = field(default_factory=CostModel)
    network: str = _knob(
        "memch",
        NETWORK_BACKENDS,
        context=1,
        help="interconnect backend: memch (paper's Memory Channel, "
        "default), rdma (modern one-sided reads+writes), or ethernet "
        "(kernel TCP) — CHANGES simulated results; see docs/NETWORKS.md",
    )
    exclusive_mode: bool = _knob(True)  # Cashmere exclusive-mode optimisation
    write_double_dummy: bool = _knob(False)  # paper's dummy-address diagnostic
    # A hypothetical Memory Channel with *hardware remote reads* (the
    # paper's csm_pp variant only emulates this conservatively with a
    # dedicated processor): page fetches cost wire time only, with no
    # remote CPU involvement and a single bus crossing.
    remote_reads: bool = _knob(False)
    # The simulation studies' original protocol (Section 2.1): pages with
    # any writer sit in the "weak state" and every sharer invalidates
    # them at every acquire — no write notices, no exclusive mode.  The
    # implemented protocol replaced this; the flag revives it for the
    # ablation that motivates the change.
    weak_state: bool = _knob(False)
    # Record every protocol event (see repro.stats.trace).
    trace: bool = _knob(False)
    debug_checks: bool = _knob(
        False,
        context=0,
        help="re-verify the page tables at every barrier and the backing "
        "store around each run (checked runs never share cache entries "
        "with unchecked ones)",
    )
    # Pre-validate read-only copies everywhere before timing starts.
    # The paper's runs are minutes long, so cold distribution of the data
    # set is negligible there; at simulation scale it can dominate, and
    # this switch isolates the steady-state protocol comparison.
    warm_start: bool = _knob(False)
    # --- Scaling past the paper (PR 7) -------------------------------
    # All three knobs default to ``None`` = automatic: at <= 32
    # processors (the paper's machine) the automatic policy selects the
    # exact legacy behaviour, keeping every golden bit-identical; above
    # 32 it switches to the scalable structures.  Setting a value
    # explicitly forces that structure at any processor count (that is
    # how the tests run several LRC barrier groups at 8p).
    #
    # Barrier fan-in: Cashmere's MC tree barrier arity (2 is the legacy
    # tree), and the group size of the LRC group-leader barrier (None
    # puts all processors in one group at <= 32 processors, which is
    # the paper's centralized barrier manager, and picks ~sqrt(nprocs)
    # groups above 32).
    barrier_fanin: Optional[int] = _knob(
        None, minimum=2, key="resolved_barriers"
    )
    # Cashmere directory shards: page-interleaved directory segments,
    # each anchored at a home node that receives *unicast* directory
    # updates instead of the legacy all-node broadcast.  None = 1 shard
    # (legacy broadcast) at <= 32 processors, one shard per node above.
    dir_shards: Optional[int] = _knob(None, key="resolved_dir_shards")
    # Per-node page-copy budget: the maximum number of remote page
    # copies a node keeps before cold copies are evicted (invalidated)
    # at release points.  None = unlimited (the paper's machines never
    # paged).  Changes simulated results when it actually evicts.
    node_mem_pages: Optional[int] = _knob(None)
    # --- Sharing policy (PR 10, docs/POLICIES.md) --------------------
    # The unit of sharing and its fetch/placement policies.  The
    # default triple (page, none, first-touch) reconstructs the
    # pre-policy stack exactly — bit-identical to every golden.
    granularity: str = _knob(
        "page",
        sharing_policy.GRANULARITIES,
        context=2,
        key="resolved_unit_bytes",
        help="coherence-unit size: sub-page blocks (block256/1k/2k), the "
        "VM page (default), or multi-page regions (region2/region4) — "
        "CHANGES simulated results; see docs/POLICIES.md",
    )
    prefetch: str = _knob(
        "none",
        sharing_policy.PREFETCHES,
        context=3,
        help="software prefetch policy: none (demand faults only, "
        "default), seq (next-unit run-ahead), or stride (confirmed-stride "
        "run-ahead) — CHANGES simulated results; see docs/POLICIES.md",
    )
    homing: str = _knob(
        "first-touch",
        sharing_policy.HOMINGS,
        context=4,
        help="home-assignment policy: first-touch (the paper's, default), "
        "round-robin, or dynamic (re-home to the dominant remote fetcher) "
        "— CHANGES simulated results; see docs/POLICIES.md",
    )

    def __post_init__(self) -> None:
        for name, check in _CHECKS:
            check(getattr(self, name))
        if self.nprocs < 1:
            raise ValueError("need at least one processor")
        if self.nprocs > self.compute_cpus_available:
            raise ValueError(
                f"{self.nprocs} processors requested but only "
                f"{self.compute_cpus_available} compute CPUs available "
                f"for {self.variant.name}"
            )
        # Resolution also validates divisibility against the VM page.
        sharing_policy.resolve_unit_size(
            self.granularity, self.cluster.page_size
        )

    # -- sharing policy (PR 10) ----------------------------------------

    @property
    def unit_bytes(self) -> Optional[int]:
        """Sharing-unit size in bytes; ``None`` means "the VM page".

        ``None`` at the default granularity lets the address space be
        constructed exactly as the pre-policy tree constructed it —
        the bit-identity guarantee by construction, not by arithmetic.
        """
        return sharing_policy.resolve_unit_size(
            self.granularity, self.cluster.page_size
        )

    @property
    def resolved_unit_bytes(self) -> int:
        """Unit size with the VM-page default made concrete (for the
        result-cache key: ``granularity="page"`` and an explicit unit
        of the same byte count share an entry)."""
        return self.unit_bytes or self.cluster.page_size

    def make_prefetcher(self):
        """A fresh per-run prefetcher, or ``None`` for demand fetch."""
        return sharing_policy.make_prefetcher(self.prefetch)

    # -- scaling policy (PR 7) -----------------------------------------

    @property
    def resolved_barrier_fanin(self) -> int:
        """Cashmere tree-barrier arity: 2 is the paper's legacy tree
        (exact legacy cost formula), the automatic policy widens to 4
        above 32 processors (lower total depth x per-level cost)."""
        if self.barrier_fanin is not None:
            return self.barrier_fanin
        return 2 if self.nprocs <= 32 else 4

    @property
    def lrc_barrier_group(self) -> int:
        """Processors per group of the LRC group-leader barrier (the
        leader included): ``barrier_fanin`` when set, else all of them
        at <= 32 processors (one group: rank 0 is the paper's barrier
        manager) and ~sqrt(nprocs) above."""
        if self.barrier_fanin is not None:
            return self.barrier_fanin
        if self.nprocs <= 32:
            return self.nprocs
        return math.isqrt(self.nprocs - 1) + 1

    @property
    def resolved_barriers(self) -> Tuple[int, int]:
        """Both barrier shapes ``barrier_fanin`` sets, as the cache key
        holds them: the Cashmere tree arity and the LRC group size."""
        group = min(self.lrc_barrier_group, self.nprocs)
        return self.resolved_barrier_fanin, group

    @property
    def resolved_dir_shards(self) -> int:
        """Cashmere directory shard count (1 = legacy broadcast)."""
        if self.dir_shards is not None:
            return self.dir_shards
        return 1 if self.nprocs <= 32 else self.cluster.n_nodes

    @property
    def compute_cpus_available(self) -> int:
        per_node = self.cluster.cpus_per_node
        if self.variant.mechanism is Mechanism.PROTOCOL_PROCESSOR:
            per_node -= 1  # one CPU per node is dedicated to requests
        return self.cluster.n_nodes * per_node


#: Every run knob's declaration, in field order.
KNOBS: Dict[str, Knob] = {
    f.name: f.metadata["knob"] for f in fields(RunConfig) if f.metadata
}

#: The context-wide knobs, in their CLI flag and wire ``options`` order.
CONTEXT_KNOBS = tuple(
    sorted(
        (name for name, knob in KNOBS.items() if knob.context is not None),
        key=lambda name: KNOBS[name].context,
    )
)

#: ``RunConfig.__post_init__``'s per-field checks, built once.
_CHECKS = tuple((name, knob.checker(name)) for name, knob in KNOBS.items())


def sequential_config(
    page_size: int = 8192,
    costs: Optional[CostModel] = None,
    debug_checks: bool = False,
) -> RunConfig:
    """The run of the paper's unlinked sequential baseline: one processor
    on a one-CPU cluster at ``page_size``, with ``costs`` (scaled cache
    parameters matter to the baseline too) and ``debug_checks``.  Every
    other field stays at its default: network, policy, trace and
    warm-start knobs mean nothing without a DSM system, so they never
    reach the baseline (nor its cache key)."""
    return RunConfig(
        variant=SEQUENTIAL,
        nprocs=1,
        cluster=ClusterConfig(n_nodes=1, cpus_per_node=1, page_size=page_size),
        costs=costs or CostModel(),
        debug_checks=debug_checks,
    )
