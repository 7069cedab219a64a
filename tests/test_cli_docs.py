"""README's subcommand table must match the drivers' declarations.

Same deal as tests/test_serving_docs.py: the doc is enforced, not
aspirational.  Every driver in ``api.DRIVERS`` has a row, and the row's
"notable flags" cell lists exactly that driver's declared flags: one
per ``PARAMS`` entry, plus ``--chart`` when the driver has a chart.
"""

import re
from pathlib import Path

from repro import api

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"

# | `figure5` | speedup curves | `--apps`, `--variants`, ... |
ROW = re.compile(r"^\| `(\w+)` \|.*\|(.*)\|$", re.M)
FLAG = re.compile(r"`(--[\w-]+)")


def _rows():
    # The flags cell is the last one; "\|" inside it is an escaped bar.
    text = README.read_text().replace("\\|", "/")
    return {name: cell for name, cell in ROW.findall(text)}


def _declared_flags(module):
    flags = [param.option for param in module.PARAMS]
    if hasattr(module, "chart"):
        flags.append("--chart")
    return flags


def test_every_driver_has_a_row():
    missing = set(api.DRIVERS) - set(_rows())
    assert not missing, f"README subcommand table lacks {sorted(missing)}"


def test_notable_flags_are_the_declared_flags():
    rows = _rows()
    for name, module in api.DRIVERS.items():
        documented = FLAG.findall(rows[name])
        assert sorted(documented) == sorted(_declared_flags(module)), (
            f"README row for {name} lists {documented}; the driver "
            f"declares {_declared_flags(module)}"
        )
