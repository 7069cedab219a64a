"""docs/POLICIES.md must table every sharing-policy knob exactly.

The same enforced-catalog deal as docs/NETWORKS.md
(tests/test_network_docs.py) and docs/OBSERVABILITY.md: each policy
knob has a ``## <Knob> ...`` section whose value table must match the
corresponding ``describe_*()`` function in ``repro.memory.policy``
*exactly* — missing values, stale constants, and phantom rows all
fail.  Registries and doc move in the same commit or not at all.
"""

import re
from pathlib import Path

from repro.memory import policy

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "POLICIES.md"

#: knob section heading -> (describe fn, table attribute key)
KNOBS = {
    "Granularity": (policy.describe_granularity, "unit"),
    "Prefetch": (policy.describe_prefetch, "depth"),
    "Homing": (policy.describe_homing, "trigger"),
}

# A knob section opens: ## Granularity (`--granularity`)
SECTION = re.compile(r"^## (Granularity|Prefetch|Homing)\b", re.M)

# Value rows: | `block256` | 256 B |
VALUE_ROW = re.compile(r"^\| `([\w-]+)` \| ([^|]+) \|", re.M)


def documented_sections():
    text = DOC.read_text()
    matches = list(SECTION.finditer(text))
    sections = {}
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections[match.group(1)] = text[match.start():end]
    return sections


def documented_rows(section_text):
    return {
        name: value.strip()
        for name, value in VALUE_ROW.findall(section_text)
    }


def test_every_knob_has_a_section():
    missing = set(KNOBS) - set(documented_sections())
    assert not missing, (
        f"policy knobs without a docs/POLICIES.md section: "
        f"{sorted(missing)}"
    )


def test_tables_match_describe_exactly():
    sections = documented_sections()
    for knob, (describe, attr) in KNOBS.items():
        described = {
            name: attrs[attr] for name, attrs in describe().items()
        }
        documented = documented_rows(sections[knob])
        missing = set(described) - set(documented)
        assert not missing, (
            f"{knob}: values in describe() but not docs/POLICIES.md: "
            f"{sorted(missing)}"
        )
        phantom = set(documented) - set(described)
        assert not phantom, (
            f"{knob}: docs/POLICIES.md tables values describe() does "
            f"not report: {sorted(phantom)}"
        )
        for name, value in described.items():
            assert documented[name] == value, (
                f"{knob}: {name} is {documented[name]!r} in the docs "
                f"but describe() reports {value!r} — update "
                f"docs/POLICIES.md"
            )


def test_registries_and_tables_agree():
    # The describe() functions must themselves cover the registries —
    # a value accepted by validate_* but absent from the doc contract
    # would dodge the table enforcement above.
    assert set(policy.describe_granularity()) == set(policy.GRANULARITIES)
    assert set(policy.describe_prefetch()) == set(policy.PREFETCHES)
    assert set(policy.describe_homing()) == set(policy.HOMINGS)


def test_doc_cross_references_exist():
    text = DOC.read_text()
    for ref in (
        "src/repro/memory/policy.py",
        "src/repro/harness/policies.py",
        "src/repro/apps/irreg.py",
        "tests/test_sharing_policy.py",
        "tests/test_policy_docs.py",
        "benchmarks/suite/README.md",
        ".github/workflows/ci.yml",
    ):
        assert ref in text, f"docs/POLICIES.md lost its pointer to {ref}"
        assert (REPO / ref).exists(), f"{ref} referenced but missing"
