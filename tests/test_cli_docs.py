"""README's subcommand table must match the drivers' declarations,
and docs/API.md's "Run knobs" table the run knobs' declarations.

Same deal as tests/test_serving_docs.py: the doc is enforced, not
aspirational.  Every driver in ``api.DRIVERS`` has a row, and the row's
"notable flags" cell lists exactly that driver's declared flags: one
per ``PARAMS`` entry, plus ``--chart`` when the driver has a chart.
Every run knob (``config.KNOBS``) has one row whose default, CLI flag
and choices are its declaration's.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

from repro import api
from repro.config import CONTEXT_KNOBS, KNOBS, RunConfig

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
API = REPO / "docs" / "API.md"

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


# | `network="memch"` | `--network {memch,rdma,ethernet}` | `options...` | ...
KNOB_ROW = re.compile(r"^\| `(\w+)=([^`]*)`[^|]*\|([^|]*)\|([^|]*)\|", re.M)


def _knob_rows():
    section = API.read_text().split("## Run knobs", 1)[1].split("\n## ", 1)[0]
    return KNOB_ROW.findall(section)


def _flag_spelling(name):
    """The common flag as argparse shows it: ``--name {choices}``."""
    knob = KNOBS[name]
    flag = "--" + name.replace("_", "-")
    return f"{flag} {{{','.join(knob.choices)}}}" if knob.choices else flag


def test_run_knobs_table_is_the_declaration():
    rows = _knob_rows()
    names = [name for name, *_ in rows]
    assert sorted(names) == sorted(KNOBS), (
        f"API.md's Run knobs rows {names} are not one per knob "
        f"{sorted(KNOBS)}"
    )
    defaults = {knob.name: knob.default for knob in fields(RunConfig)}
    common = {"--" + name.replace("_", "-") for name in CONTEXT_KNOBS}
    for name, default, flag_cell, wire_cell in rows:
        documented = ast.literal_eval(default)
        assert (type(documented), documented) == (
            type(defaults[name]),
            defaults[name],
        ), name
        flags = set(FLAG.findall(flag_cell)) & common
        if name in CONTEXT_KNOBS:
            assert flag_cell.strip() == f"`{_flag_spelling(name)}`", name
            assert f"`options.{name}`" in wire_cell, name
        else:
            assert not flags, f"{name}'s row names a common flag {flags}"
            assert "options." not in wire_cell, name
