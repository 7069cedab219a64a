"""The paper's claims as one ledger.

Every qualitative claim the reproduction checks -- who wins, by roughly
how much, and why -- is one :class:`Claim` in ``ledger.CLAIMS``: the
paper sentence, the measure it reads (an experiment driver with its
declared parameters, or named ``ExperimentContext.run`` points), one
predicate, and the verdict expected at ``small``: it holds, or it
deviates and ``cause`` names the EXPERIMENTS.md section explaining why.

A predicate is a Python expression whose variables are its measure's
quantities, so its threshold is written once and the rendered ledger
shows exactly what is checked.  ``python -m benchmarks.claims`` measures
every claim and records the quantities in ``recorded.json``; tier-1
(``tests/test_claims.py``) evaluates the predicates on that file.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

HOLDS, DEVIATES = "holds", "deviates"

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "recorded.json"
EXPERIMENTS = HERE.parents[1] / "EXPERIMENTS.md"
#: EXPERIMENTS.md's rendered lists sit between these two lines.
BEGIN = "<!-- claims: rendered by `python -m benchmarks.claims` from benchmarks/claims/ledger.py -->"
END = "<!-- claims: end -->"

#: What a predicate may call besides its measure's quantities.
_BUILTINS = {f.__name__: f for f in (abs, all, any, len, max, min, sum)}
_OPS = {ast.Gt: ">", ast.GtE: ">=", ast.Lt: "<", ast.LtE: "<=", ast.Eq: "=="}


@dataclass(frozen=True)
class Driver:
    """A measure: one experiment driver run with declared parameters."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class Point:
    """One ``ExperimentContext.run(app, variant, nprocs, **overrides)``
    point of a measure; ``cluster``, ``costs`` and ``warm_start`` ride on
    the batch point or the context, the other overrides in RunConfig."""

    app: str
    variant: str
    nprocs: int
    overrides: Tuple[Tuple[str, Any], ...] = ()


def driver(name: str, **params: Any) -> Driver:
    return Driver(name, tuple(sorted(params.items())))


def point(app: str, variant: str, nprocs: int, **overrides: Any) -> Point:
    return Point(app, variant, nprocs, tuple(sorted(overrides.items())))


@dataclass(frozen=True)
class Claim:
    id: str
    section: str
    measure: str  # a key of ledger.MEASURES
    paper: str  # the sentence; "(paraphrase)" marks one
    predicate: str  # a Python expression over the measure's quantities
    cause: Optional[str] = None  # EXPERIMENTS.md heading: expected to deviate

    @property
    def expected(self) -> str:
        return DEVIATES if self.cause else HOLDS


def _namespace(quantities: Mapping[str, Any]) -> Dict[str, Any]:
    # Globals, not locals: a generator expression sees only an eval's
    # globals.
    return {"__builtins__": _BUILTINS, **quantities}


def verdict(claim: Claim, quantities: Mapping[str, Any]) -> str:
    holds = eval(claim.predicate, _namespace(quantities))
    return HOLDS if holds else DEVIATES


def _number(value: Any) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.4g}" if abs(value) < 100 else f"{value:,.0f}"


def evidence(claim: Claim, quantities: Mapping[str, Any]) -> str:
    """The measured operands of each comparison in the predicate's
    top-level ``and``, e.g. ``5.13 > 5.32``."""
    body = ast.parse(claim.predicate, mode="eval").body
    terms = body.values if isinstance(body, ast.BoolOp) else [body]
    namespace = _namespace(quantities)
    shown = []
    for term in terms:
        if not isinstance(term, ast.Compare):
            continue
        values = [
            _number(eval(compile(ast.Expression(node), "<claim>", "eval"), namespace))
            for node in (term.left, *term.comparators)
        ]
        ops = [_OPS[type(op)] for op in term.ops]
        shown.append(" ".join([values[0], *(f"{o} {v}" for o, v in zip(ops, values[1:]))]))
    return "; ".join(shown)


def _int_keys(obj: Dict[str, Any]) -> Dict[Any, Any]:
    """Processor counts back to int keys after a JSON round trip."""
    return {int(k) if k.isdigit() else k: v for k, v in obj.items()}


def load_recorded(path: Path = RECORDED) -> Dict[str, Any]:
    return json.loads(path.read_text(), object_hook=_int_keys)


def dump_recorded(recorded: Mapping[str, Any]) -> str:
    """One line per measure, so a diff names the measure that moved."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(recorded.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def anchor(heading: str) -> str:
    """The GitHub anchor of a Markdown heading."""
    return "#" + re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")


def render(claims, recorded: Mapping[str, Any]) -> str:
    """EXPERIMENTS.md's two lists, grouped by expected verdict."""
    lists = {HOLDS: [], DEVIATES: []}
    for claim in claims:
        item = f"* **`{claim.id}`** ({claim.section}): {claim.paper}\n  `{claim.predicate}`"
        shown = evidence(claim, recorded[claim.measure])
        if shown:
            item += f" (measured: {shown})"
        if claim.cause:
            item += f". Cause: [{claim.cause}]({anchor(claim.cause)})"
        lists[claim.expected].append(item)
    return "\n".join(
        [BEGIN, "", "### Paper shapes that reproduce", "", *lists[HOLDS], ""]
        + ["### Deviations, with causes", "", *lists[DEVIATES], "", END]
    )
