"""docs/OBSERVABILITY.md must catalog every recorded event kind.

The catalog is enforced, not aspirational: this test greps every
``record(proc, "<kind>", ...)`` call site out of ``src/repro/core/`` and
fails if the documentation misses one (or documents a kind nothing
records any more).  Each row's "(counter: X)" must name the counter
``repro.stats.counters.EVENT_COUNTERS`` pairs with its kind, and the
Table 3 mapping must agree with both.
"""

import re
from pathlib import Path

from repro.stats.counters import EVENT_COUNTERS

REPO = Path(__file__).resolve().parent.parent
CORE = REPO / "src" / "repro" / "core"
DOC = REPO / "docs" / "OBSERVABILITY.md"

# Matches self.record(proc, "kind", ...) / protocol.record(self.proc, ...)
RECORD_CALL = re.compile(
    r"\.record\(\s*(?:self\.)?proc\s*,\s*\"(\w+)\"", re.S
)

# Catalog rows: | `kind` | instant/span | details | meaning |
CATALOG_ROW = re.compile(
    r"^\| `(\w+)` \| (?:instant|span) \| ([^|]*) \| (.*) \|$", re.M
)

# Table 3 mapping rows: | statistic | `counter` | trace event kind(s) |
TABLE3_ROW = re.compile(r"^\| [^|`]+ \| `(\w+)` \| (.*) \|$", re.M)

COUNTER_NOTE = re.compile(r"\(counter: `(\w+)`\)")


def emitted_kinds():
    kinds = {}
    for path in sorted(CORE.rglob("*.py")):
        for kind in RECORD_CALL.findall(path.read_text()):
            kinds.setdefault(kind, []).append(path.relative_to(REPO))
    return kinds


def catalog_rows():
    """``(kind, detail keys, counter note or None)`` per catalog row."""
    return [
        (
            kind,
            frozenset(re.findall(r"`(\w+)`", details)),
            next(iter(COUNTER_NOTE.findall(meaning)), None),
        )
        for kind, details, meaning in CATALOG_ROW.findall(DOC.read_text())
    ]


def documented_kinds():
    return {kind for kind, _, _ in catalog_rows()}


def test_sources_actually_emit_events():
    kinds = emitted_kinds()
    assert len(kinds) >= 20, sorted(kinds)
    # Spot-check one kind per subsystem so the regex tracks the code.
    for expected in (
        "compute", "barrier",                       # runtime env
        "page_transfer", "write_notice",            # cashmere
        "interval_close", "lock_grant",             # shared LRC engine
        "diff_create", "diff_fetch",                # treadmarks
        "diff_to_home", "diff_flush_wait",          # hlrc
        "rdma_read",                                # one-sided reads
    ):
        assert expected in kinds, sorted(kinds)
    # Every counted kind is recorded somewhere.
    assert set(EVENT_COUNTERS) <= set(kinds), sorted(
        set(EVENT_COUNTERS) - set(kinds)
    )


def test_catalog_is_complete():
    emitted = emitted_kinds()
    documented = documented_kinds()
    missing = set(emitted) - documented
    assert not missing, (
        f"event kinds emitted in src/repro/core/ but absent from "
        f"docs/OBSERVABILITY.md: "
        + ", ".join(
            f"{kind} ({', '.join(map(str, emitted[kind]))})"
            for kind in sorted(missing)
        )
    )
    # A row names its kind's counter, and only a counted kind has one.
    wrong = [
        (kind, note, EVENT_COUNTERS.get(kind))
        for kind, _, note in catalog_rows()
        if note != EVENT_COUNTERS.get(kind)
    ]
    assert not wrong, f"(kind, doc counter, EVENT_COUNTERS) pairs: {wrong}"


def test_catalog_has_no_phantom_kinds():
    emitted = set(emitted_kinds())
    documented = documented_kinds()
    phantom = documented - emitted
    assert not phantom, (
        f"docs/OBSERVABILITY.md documents kinds nothing emits: "
        f"{sorted(phantom)}"
    )
    # The Table 3 mapping names catalogued kinds (or detail fields),
    # and for each counter exactly the kinds EVENT_COUNTERS pairs with it.
    fields = set().union(*(keys for _, keys, _ in catalog_rows()))
    rows = TABLE3_ROW.findall(DOC.read_text())
    assert {counter for counter, _ in rows} >= {
        "barriers", "locks", "read_faults", "page_transfers", "messages",
    }, rows
    for counter, cell in rows:
        named = set(re.findall(r"`(\w+)`", cell))
        assert named <= documented | fields, (counter, named - documented)
        assert {k for k in named if EVENT_COUNTERS.get(k) == counter} == {
            k for k, c in EVENT_COUNTERS.items() if c == counter
        }, counter
    # Message traffic is counted by the messaging layer, not by events.
    assert not {"messages", "data_bytes"} & set(EVENT_COUNTERS.values())
