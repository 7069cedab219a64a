"""The pluggable sharing-policy layer: what the unit of sharing is,
how units are fetched, and where their homes live.

The paper's protocols hard-code three choices: coherence acts on 8 KB
VM pages, data moves strictly on demand (one unit per fault), and home
assignment is first-touch.  This module makes each choice a named
policy knob on :class:`~repro.config.RunConfig`:

``granularity``
    The unit of sharing — sub-page blocks, the VM page, or multi-page
    regions.  The coherence stack (permission bitmaps, twins, diffs,
    directory entries, fetches) is keyed on *units* throughout; at the
    default ``page`` the unit **is** the VM page and every simulated
    result is bit-identical to the pre-policy tree.

``prefetch``
    Software prefetch issued after a demand fault: ``none`` (the
    paper), ``seq`` (fetch the next units after a fault), or ``stride``
    (a per-processor stride predictor that fetches ahead once a stride
    repeats).  Prefetched units are validated to READ without paying
    the ``page_fault`` kernel trap — the win the user-level-DSM
    prefetch literature reports on RDMA-class networks.

``homing``
    Home/manager placement: ``first-touch`` (the paper's Cashmere
    policy), ``round-robin`` (page-interleaved), or ``dynamic``
    (first-touch plus re-homing to a node that establishes a remote
    fetch majority).  TreadMarks has no data home (diffs live with
    their writers); its round-robin *manager* map is unaffected by
    this knob (see docs/POLICIES.md).

Every knob changes simulated results (except the documented identity
at the default triple), so all three enter the result-cache key.  The
knob tables in ``docs/POLICIES.md`` are enforced against
:func:`describe_granularity` / :func:`describe_prefetch` /
:func:`describe_homing` by ``tests/test_policy_docs.py``.

This module is deliberately import-light (stdlib only): ``config.py``
imports it for validation, so it must not import anything from
``repro``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

#: Accepted ``granularity`` values, coarsest default last in docs order.
GRANULARITIES = ("block256", "block1k", "block2k", "page", "region2", "region4")

#: Unit size in bytes for the fixed sub-page granularities; the
#: page-relative ones (``page``/``region2``/``region4``) resolve against
#: the cluster's VM page size in :func:`resolve_unit_size`.
_BLOCK_BYTES = {"block256": 256, "block1k": 1024, "block2k": 2048}
_REGION_PAGES = {"page": 1, "region2": 2, "region4": 4}

#: Accepted ``prefetch`` values.
PREFETCHES = ("none", "seq", "stride")

#: Units fetched ahead per demand fault by the sequential prefetcher.
SEQ_PREFETCH_DEPTH = 4

#: Units fetched ahead per confirmed-stride fault by the stride
#: prefetcher, and the number of identical consecutive strides that
#: confirm a stream.
STRIDE_PREFETCH_DEPTH = 2
STRIDE_CONFIRM = 2

#: Accepted ``homing`` values.
HOMINGS = ("first-touch", "round-robin", "dynamic")

#: Dynamic re-homing trigger: an owner (node or processor) that
#: accumulates this many fetches of one unit since its last
#: (re-)homing — strictly more than any other owner over the same
#: window — becomes the new home (:class:`HomeTable`).
MIGRATE_AFTER = 4

#: Migrations allowed per unit over a run, bounding ping-pong.
MIGRATE_LIMIT = 8


def validate_granularity(value: str) -> str:
    if value not in GRANULARITIES:
        known = ", ".join(GRANULARITIES)
        raise ValueError(
            f"unknown granularity {value!r}; known: {known}"
        )
    return value


def validate_prefetch(value: str) -> str:
    if value not in PREFETCHES:
        known = ", ".join(PREFETCHES)
        raise ValueError(f"unknown prefetch {value!r}; known: {known}")
    return value


def validate_homing(value: str) -> str:
    if value not in HOMINGS:
        known = ", ".join(HOMINGS)
        raise ValueError(f"unknown homing {value!r}; known: {known}")
    return value


def resolve_unit_size(granularity: str, vm_page_size: int) -> Optional[int]:
    """The sharing-unit size in bytes, or ``None`` for the VM page.

    ``None`` (not ``vm_page_size``) marks the default so callers can
    build the address space exactly as the pre-policy tree did — the
    bit-identity guarantee is "same construction", not merely "same
    value".  A resolved unit must divide the VM page or be a whole
    multiple of it, so every VM page maps to whole units (or units to
    whole pages) and the unit↔page mapping stays exact.
    """
    validate_granularity(granularity)
    if granularity == "page":
        return None
    if granularity in _BLOCK_BYTES:
        unit = _BLOCK_BYTES[granularity]
    else:
        unit = _REGION_PAGES[granularity] * vm_page_size
    if unit < 64 or unit % 8:
        raise ValueError(
            f"granularity {granularity!r} resolves to {unit} bytes; "
            "units must be multiples of 8 and >= 64"
        )
    if vm_page_size % unit and unit % vm_page_size:
        raise ValueError(
            f"granularity {granularity!r} ({unit} bytes) neither divides "
            f"nor is a multiple of the {vm_page_size}-byte VM page"
        )
    return unit


# -- prefetchers --------------------------------------------------------


class SeqPrefetcher:
    """Fetch the next :data:`SEQ_PREFETCH_DEPTH` units after a fault.

    Stateless: the prediction is a pure function of the faulting unit,
    so it is trivially deterministic across processes and replays.
    """

    def predict(self, pid: int, unit: int, n_units: int) -> List[int]:
        hi = min(unit + 1 + SEQ_PREFETCH_DEPTH, n_units)
        return list(range(unit + 1, hi))


class StridePrefetcher:
    """Classic per-processor stride predictor.

    Tracks each processor's last faulting unit and last stride; once
    the same non-zero stride repeats :data:`STRIDE_CONFIRM` times the
    stream is confirmed and the next :data:`STRIDE_PREFETCH_DEPTH`
    units along it are fetched.  A stride break resets confirmation.
    State is keyed by pid only — deterministic because each simulated
    processor's fault sequence is deterministic.
    """

    def __init__(self) -> None:
        self._last: Dict[int, int] = {}
        self._stride: Dict[int, int] = {}
        self._confirmed: Dict[int, int] = {}

    def predict(self, pid: int, unit: int, n_units: int) -> List[int]:
        last = self._last.get(pid)
        self._last[pid] = unit
        if last is None:
            return []
        stride = unit - last
        if stride != 0 and stride == self._stride.get(pid):
            self._confirmed[pid] = self._confirmed.get(pid, 0) + 1
        else:
            self._confirmed[pid] = 0
        self._stride[pid] = stride
        if stride == 0 or self._confirmed[pid] < STRIDE_CONFIRM:
            return []
        out = []
        nxt = unit
        for _ in range(STRIDE_PREFETCH_DEPTH):
            nxt += stride
            if not (0 <= nxt < n_units):
                break
            out.append(nxt)
        return out


# -- home placement and migration ---------------------------------------


class HomeTable:
    """The ``homing`` rules for one run: where a unit's home is placed,
    and when dynamic homing moves it.

    Owners are node ids under Cashmere and pids under HLRC; the
    protocol records where each home is and what a move does to its
    page copies.  Only round-robin placement differs between the two,
    so the protocol passes it in as ``round_robin(unit) -> owner``.

    The migration rule: every remote fetch counts against the fetching
    owner; once an owner has :data:`MIGRATE_AFTER` fetches of a unit
    since the unit's last (re-)homing, strictly more than any other
    owner, the home may move there — at most :data:`MIGRATE_LIMIT`
    times per unit over a run.
    """

    def __init__(self, homing: str, round_robin: Callable[[int], int]):
        self.homing = validate_homing(homing)
        self.dynamic = homing == "dynamic"
        self._round_robin = round_robin
        self._fetch_counts: Dict[int, Dict[int, int]] = {}
        self._migrations: Dict[int, int] = {}

    def place(self, unit: int, toucher: int) -> int:
        """The first home of ``unit``, first faulted by ``toucher``."""
        if self.homing == "round-robin":
            return self._round_robin(unit)
        return toucher  # first-touch and dynamic both start here

    def count_fetch(self, unit: int, owner: int) -> bool:
        """Count one remote fetch of ``unit`` by ``owner``; True when the
        rule says the home should move to ``owner``.  The caller may
        still veto the move; it calls :meth:`moved` once it is made."""
        counts = self._fetch_counts.setdefault(unit, {})
        mine = counts[owner] = counts.get(owner, 0) + 1
        if self._migrations.get(unit, 0) >= MIGRATE_LIMIT:
            return False
        if mine < MIGRATE_AFTER:
            return False
        return all(c < mine for o, c in counts.items() if o != owner)

    def moved(self, unit: int) -> None:
        """The home of ``unit`` moved: count it and restart the window."""
        self._migrations[unit] = self._migrations.get(unit, 0) + 1
        self._fetch_counts[unit] = {}


def make_prefetcher(prefetch: str):
    """A fresh prefetcher instance for one run, or ``None`` for
    ``"none"`` — and ``None`` means the protocols never call the
    prefetch hook, keeping the default bit-identical by construction."""
    validate_prefetch(prefetch)
    if prefetch == "none":
        return None
    if prefetch == "seq":
        return SeqPrefetcher()
    return StridePrefetcher()


# -- knob descriptions (docs/POLICIES.md contract) ----------------------


def describe_granularity() -> Dict[str, Dict[str, str]]:
    """Constants ``docs/POLICIES.md`` must table, per granularity."""
    out: Dict[str, Dict[str, str]] = {}
    for name in GRANULARITIES:
        if name in _BLOCK_BYTES:
            unit = f"{_BLOCK_BYTES[name]} B"
        elif name == "page":
            unit = "1 VM page"
        else:
            unit = f"{_REGION_PAGES[name]} VM pages"
        out[name] = {"unit": unit}
    return out


def describe_prefetch() -> Dict[str, Dict[str, str]]:
    """Constants ``docs/POLICIES.md`` must table, per prefetch mode."""
    return {
        "none": {"depth": "0"},
        "seq": {"depth": str(SEQ_PREFETCH_DEPTH)},
        "stride": {
            "depth": (
                f"{STRIDE_PREFETCH_DEPTH} after {STRIDE_CONFIRM} "
                "confirming strides"
            )
        },
    }


def describe_homing() -> Dict[str, Dict[str, str]]:
    """Constants ``docs/POLICIES.md`` must table, per homing mode."""
    return {
        "first-touch": {"trigger": "first fault"},
        "round-robin": {"trigger": "unit index (HLRC) / assignment order (CSM)"},
        "dynamic": {
            "trigger": (
                f"{MIGRATE_AFTER} remote fetches (majority), "
                f"max {MIGRATE_LIMIT} moves"
            )
        },
    }
