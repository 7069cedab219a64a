"""docs/SERVING.md must match the serving layer's actual surface.

Same deal as docs/NETWORKS.md and tests/test_network_docs.py: the doc
is enforced, not aspirational.  Every route in
``repro.serving.server.ROUTES`` must appear in the routes table, every
``ServerConfig`` field must appear in the configuration table with its
actual default, and the file pointers in the walkthrough must name
files that exist.
"""

import re
from pathlib import Path

from repro.serving.server import ROUTES, ServerConfig

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "SERVING.md"

# Routes rows: | `GET` | `/v1/healthz` | summary |
ROUTE_ROW = re.compile(r"^\| `(GET|POST|PUT|DELETE)` \| `([^`]+)` \|", re.M)

# Config rows: | `host` | `'127.0.0.1'` | meaning |
CONFIG_ROW = re.compile(r"^\| `(\w+)` \| `([^`]+)` \|", re.M)


def test_every_route_is_documented():
    documented = set(ROUTE_ROW.findall(DOC.read_text()))
    assert documented == set(ROUTES), (
        f"docs/SERVING.md routes table ({sorted(documented)}) does not "
        f"match repro.serving.server.ROUTES ({sorted(ROUTES)})"
    )


def test_config_table_matches_describe_exactly():
    described = ServerConfig.describe()
    rows = CONFIG_ROW.findall(DOC.read_text())
    documented = {
        key: value for key, value in rows if key in described
    }
    missing = set(described) - set(documented)
    assert not missing, (
        f"ServerConfig fields absent from docs/SERVING.md: "
        f"{sorted(missing)}"
    )
    for key, value in described.items():
        # repr() of strings is quoted ('127.0.0.1'); numbers are bare.
        assert documented[key] in (value, value.strip("'")), (
            f"docs/SERVING.md documents {key} default as "
            f"{documented[key]!r} but ServerConfig.describe() reports "
            f"{value!r} — update the table"
        )


def test_no_phantom_config_rows():
    described = ServerConfig.describe()
    # Rows in the configuration table (between its header and the next
    # heading) that name no real field are stale.
    text = DOC.read_text()
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    phantom = {
        key for key, _ in CONFIG_ROW.findall(section)
    } - set(described) - {"Knob"}
    assert not phantom, (
        f"docs/SERVING.md configuration table documents fields "
        f"ServerConfig does not have: {sorted(phantom)}"
    )


def test_doc_cross_references_exist():
    text = DOC.read_text()
    for ref in (
        "src/repro/harness/cache.py",
        "src/repro/serving/server.py",
        "tests/test_serving.py",
        "tests/test_serving_docs.py",
        "benchmarks/suite/README.md",
        ".github/workflows/ci.yml",
        "docs/NETWORKS.md",
    ):
        assert ref in text, f"docs/SERVING.md lost its pointer to {ref}"
        assert (REPO / ref).exists(), f"{ref} referenced but missing"
