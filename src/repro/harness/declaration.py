"""Driver parameter declarations: one list per experiment driver.

Each driver module exports ``PARAMS``, a tuple of :class:`Param`.  The
``repro-dsm`` subcommand's flags are generated from it,
``api.run_experiment`` checks its keywords against it, and ``POST
/v1/sweep`` validates its wire fields with it.  A driver may also
export ``chart(rows) -> str`` (the CLI's ``--chart``) and ``points(ctx,
...)``, its point enumeration, which the server's sweep expansion
emits.  The kinds are a closed set, described in docs/API.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.apps import registry
from repro.config import (
    ALL_VARIANTS,
    EXTENSION_VARIANTS,
    KNOBS,
    Variant,
    variant_by_name,
)

#: Every application and protocol variant a driver may name.
APP_CHOICES = registry.ALL_APP_NAMES
VARIANT_CHOICES = tuple(v.name for v in ALL_VARIANTS + EXTENSION_VARIANTS)

#: Kinds that take a list of values (``nargs="+"`` on the CLI).
LIST_KINDS = ("apps", "variants", "counts", "choices")


@dataclass(frozen=True)
class Param:
    """One driver parameter: the keyword ``name`` its ``run()`` takes.

    ``kind`` is ``app``, ``apps``, ``variants``, ``counts``, ``procs``,
    ``choice``, ``choices``, ``bool`` or ``knob`` (an int
    :class:`~repro.config.RunConfig` knob of the same name, checked by
    its :class:`~repro.config.Knob`).  ``default`` None means "the
    driver's own default" (all paper apps, its variant set, its
    processor counts); the keyword is then not passed at all.  ``flag``
    is the CLI option when it is not ``--<name>`` with dashes.
    """

    name: str
    kind: str
    default: Any = None
    help: Optional[str] = None
    choices: Tuple[str, ...] = ()
    flag: Optional[str] = None

    @property
    def option(self) -> str:
        return self.flag or "--" + self.name.replace("_", "-")

    @property
    def values(self) -> Tuple[str, ...]:
        """The allowed values of a name-valued kind (empty otherwise)."""
        if self.kind in ("app", "apps"):
            return APP_CHOICES
        if self.kind == "variants":
            return VARIANT_CHOICES
        return self.choices

    def check(self, value: Any) -> Any:
        """``value`` as the driver takes it; ValueError if it is not
        of this parameter's kind."""
        if self.kind in LIST_KINDS:
            if not isinstance(value, (list, tuple)) or not value:
                raise ValueError(f"'{self.name}' must be a non-empty list")
            checked = [self._one(item) for item in value]
            return sorted(set(checked)) if self.kind == "counts" else checked
        return self._one(value)

    def _one(self, value: Any) -> Any:
        if self.kind in ("counts", "procs"):
            return positive_int(value, self.name)
        if self.kind == "knob":
            KNOBS[self.name].checker(self.name)(value)
            return value
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ValueError(f"'{self.name}' must be true or false")
            return value
        if self.kind == "variants" and isinstance(value, Variant):
            return value
        if not isinstance(value, str) or value not in self.values:
            what = {"apps": "app", "variants": "variant"}.get(
                self.kind, self.name
            )
            raise ValueError(
                f"unknown {what} {value!r}; known: {list(self.values)}"
            )
        return variant_by_name(value) if self.kind == "variants" else value


def positive_int(value: Any, name: str = "value") -> int:
    """The counts/procs check: a positive integer (booleans are not)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name}: {value!r} is not a positive integer")
    return value


def resolve(
    params: Sequence[Param], given: Mapping[str, Any]
) -> Dict[str, Any]:
    """Keyword arguments for a driver's ``run()`` from caller values.

    Each declared parameter is checked by its kind; a missing or None
    value takes the declared default, and is left out when that is
    None too.  Keywords the declaration does not name (the policy
    ladder, scaling's RunConfig overrides) pass through unchanged.
    """
    kwargs = dict(given)
    for param in params:
        value = kwargs.pop(param.name, None)
        if value is None:
            value = param.default
        if value is not None:
            kwargs[param.name] = param.check(value)
    return kwargs
