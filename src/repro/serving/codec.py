"""Request decoding and canonical result encoding for the server.

A request is a plain JSON object naming one experiment point::

    {"app": "sor", "variant": "csm_poll", "nprocs": 4,
     "scale": "tiny", "params": {...}, "warm_start": true,
     "options": {"debug_checks": true}, "overrides": {"network": "rdma"}}

Only ``app`` is required.  ``options`` and ``overrides`` both name
:class:`~repro.config.RunConfig` fields: ``options`` the five
context-wide knobs (:data:`~repro.config.CONTEXT_KNOBS`), ``overrides``
any knob (:data:`~repro.config.KNOBS`); an ``overrides`` entry wins.
Each value is checked by its knob's declaration when ``RunConfig`` is
built.  :func:`decode_request` funnels the request through
:func:`repro.harness.parallel.point_spec` — the exact builder behind
``api.run_point`` — so a served point and a direct call construct the
same :class:`~repro.harness.parallel.PointSpec`, and the deterministic
simulator does the rest: the served result is byte-for-byte the direct
result.

:func:`encode_result` is that byte-for-byte claim made concrete: a
canonical JSON encoding (sorted keys, no whitespace) of everything a
client consumes from a :class:`~repro.core.runtime.program.RunResult` —
simulated time, counters, breakdown, and the SHA-256 of the
application's return values.  It lives beside the cache entry that
stores it (``repro.harness.cache``) and is re-exported here.  Identity
tests and the load generator compare these bytes (or the SHA-256
:func:`result_digest` over them) between served payloads and direct
``api.run_point`` output.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.api import DRIVERS
from repro.config import CONTEXT_KNOBS, KNOBS
from repro.harness.cache import (  # noqa: F401  (re-exported)
    encode_result,
    encode_with_digest,
    result_digest,
    result_payload,
)
from repro.harness.declaration import resolve
from repro.harness.parallel import point_spec
from repro.harness.runner import ExperimentContext

#: The wire-schema version.  A request's ``"v"`` field may be absent
#: (meaning "current") or equal to this; anything else is a 400.
WIRE_VERSION = 2

#: Top-level request fields the decoder accepts.
REQUEST_FIELDS = (
    "v",
    "app",
    "variant",
    "nprocs",
    "scale",
    "params",
    "warm_start",
    "options",
    "overrides",
)


class ServingError(Exception):
    """A request the server refuses; ``status`` is the HTTP code.

    ``retry_after`` (seconds) is set on backpressure rejections (429)
    and becomes the HTTP ``Retry-After`` header.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _sub_object(request: Dict[str, Any], name: str, accepted) -> Dict:
    """``request[name]``, an object whose keys are all ``accepted``."""
    found = request.get(name) or {}
    if not isinstance(found, dict):
        raise ServingError(f"'{name}' must be an object")
    unknown = set(found) - set(accepted)
    if unknown:
        raise ServingError(
            f"unknown {name} field(s) {sorted(unknown)}; "
            f"accepted: {list(accepted)}"
        )
    return found


def request_kwargs(request: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a request and return ``api.run_point`` keyword args.

    Rejects unknown fields loudly (a typo like ``"procs"`` must not
    silently serve the default point).  ``options`` and ``overrides``
    become RunConfig keywords, ``overrides`` winning; a knob absent
    from both is RunConfig's default.  Knob values (``warm_start``
    included) are checked where :func:`decode_request` builds the
    ``RunConfig``.
    """
    if not isinstance(request, dict):
        raise ServingError("request must be a JSON object")
    if request.get("v", WIRE_VERSION) != WIRE_VERSION:
        raise ServingError(
            f"unsupported wire version {request['v']!r}; "
            f"this server speaks v{WIRE_VERSION}"
        )
    unknown = set(request) - set(REQUEST_FIELDS)
    if unknown:
        raise ServingError(
            f"unknown request field(s) {sorted(unknown)}; "
            f"accepted: {list(REQUEST_FIELDS)}"
        )
    app = request.get("app")
    if not isinstance(app, str) or not app:
        raise ServingError("request needs an 'app' (string)")
    from repro.apps import registry

    if app not in registry.ALL_APP_NAMES:
        raise ServingError(
            f"unknown app {app!r}; known: {list(registry.ALL_APP_NAMES)}"
        )
    variant = request.get("variant")
    if variant is not None:
        from repro.config import variant_by_name

        try:
            variant_by_name(variant)
        except (KeyError, ValueError) as exc:
            raise ServingError(f"unknown variant {variant!r}") from exc
    nprocs = request.get("nprocs", 1)
    if isinstance(nprocs, bool) or not isinstance(nprocs, int) or nprocs < 1:
        raise ServingError("'nprocs' must be a positive integer")
    overrides = {
        **_sub_object(request, "options", CONTEXT_KNOBS),
        **_sub_object(request, "overrides", KNOBS),
    }
    kwargs: Dict[str, Any] = {
        "app": app,
        "variant": variant,
        "nprocs": nprocs,
        "scale": request.get("scale", "small"),
        "warm_start": request.get("warm_start", True),
    }
    params = request.get("params")
    if params is not None:
        if not isinstance(params, dict):
            raise ServingError("'params' must be an object")
        kwargs["params"] = params
    kwargs.update(overrides)
    return kwargs


def decode_request(request: Dict[str, Any]):
    """A validated request, as the :class:`PointSpec` it names."""
    kwargs = request_kwargs(request)
    try:
        return point_spec(**kwargs)
    except (TypeError, ValueError, KeyError) as exc:
        raise ServingError(f"bad request: {exc}") from exc


# -- negative-result cache ---------------------------------------------


def negative_key(request: Any) -> Optional[str]:
    """Canonical fingerprint of a request *body* (not its spec).

    Spec fingerprints (``key_for_spec``) exist only for requests that
    validate; the negative cache needs a key for requests that do
    *not*, so it hashes the canonical JSON of the body itself.  Returns
    None for bodies that cannot be canonicalised (unhashable request
    shapes are not worth caching).
    """
    try:
        encoded = json.dumps(
            request, sort_keys=True, separators=(",", ":"), default=repr
        )
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(encoded.encode()).hexdigest()


class NegativeCache:
    """Bounded TTL memo of request bodies known to be invalid.

    Validation is pure CPU, but not free: unknown-app and
    unknown-variant checks import registry modules, and a client stuck
    in a retry loop re-pays that on every attempt.  The serving layer
    stores each validation failure (HTTP 400) here, keyed by
    :func:`negative_key`, and rejects repeats from memory — no
    decoding, no registry, and definitely no worker pool.

    Entries expire after ``ttl_s`` (code and registry state are static
    per process, but a bounded lifetime keeps the contract honest) and
    the oldest entries are dropped past ``max_entries``.  All clocks
    are ``time.monotonic`` — wall-clock jumps cannot mass-expire or
    immortalise entries.
    """

    def __init__(self, ttl_s: float = 60.0, max_entries: int = 1024):
        self.ttl_s = ttl_s
        self.max_entries = max(1, max_entries)
        self._entries: Dict[str, Tuple[float, str, int]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.expired = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Optional[str]) -> Optional[Tuple[str, int]]:
        """The memoised ``(message, status)`` for ``key``, or None."""
        if key is None:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stamp, message, status = entry
        if time.monotonic() - stamp > self.ttl_s:
            del self._entries[key]
            self.expired += 1
            self.misses += 1
            return None
        self.hits += 1
        return message, status

    def put(self, key: Optional[str], message: str, status: int) -> None:
        if key is None:
            return
        while len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = (time.monotonic(), message, status)
        self.stores += 1

    def as_dict(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "expired": self.expired,
        }


# -- server-side sweep expansion ---------------------------------------

#: Sweep kinds ``POST /v1/sweep`` accepts: the drivers that export their
#: point enumeration (``points``).
SWEEP_KINDS = tuple(
    name for name, module in DRIVERS.items() if hasattr(module, "points")
)

#: Top-level fields a sweep request accepts (superset; each kind reads
#: the ones its driver declares).
SWEEP_FIELDS = (
    "v",
    "kind",
    "apps",
    "app",
    "variants",
    "counts",
    "mode",
    "scale",
    "baselines",
    "warm_start",
    "options",
    "overrides",
)


def expand_sweep(
    request: Dict[str, Any], max_points: int = 4096
) -> List[Dict[str, Any]]:
    """Expand one sweep request into its v2 point-request list.

    Expansion *is* the driver's own enumeration: the request's fields
    are checked against the driver's declared parameters, and its
    ``points`` function lists the points — the ones the driver runs,
    in the order it enumerates them, with ``baselines: false``
    dropping the sequential ones.  Each becomes a wire request that
    then flows through the ordinary ``request_kwargs`` → cache →
    coalesce → batch path.
    """
    if not isinstance(request, dict):
        raise ServingError("request must be a JSON object")
    if request.get("v", WIRE_VERSION) != WIRE_VERSION:
        raise ServingError(
            f"unsupported wire version {request['v']!r}; "
            f"this server speaks v{WIRE_VERSION}"
        )
    unknown = set(request) - set(SWEEP_FIELDS)
    if unknown:
        raise ServingError(
            f"unknown sweep field(s) {sorted(unknown)}; "
            f"accepted: {list(SWEEP_FIELDS)}"
        )
    kind = request.get("kind")
    if kind not in SWEEP_KINDS:
        raise ServingError(
            f"sweep needs a 'kind' in {list(SWEEP_KINDS)}, got {kind!r}"
        )
    driver = DRIVERS[kind]
    scale = request.get("scale", "small")
    given = {
        param.name: request[param.name]
        for param in driver.PARAMS
        if param.name in request
    }
    try:
        batch = driver.points(
            ExperimentContext(scale=scale), **resolve(driver.PARAMS, given)
        )
    except ValueError as exc:
        raise ServingError(str(exc)) from exc
    if not request.get("baselines", True):
        batch = [point for point in batch if point.variant is not None]

    common: Dict[str, Any] = {"v": WIRE_VERSION, "scale": scale}
    for passthrough in ("warm_start", "options", "overrides"):
        if passthrough in request:
            common[passthrough] = request[passthrough]
    points = [_wire_point(point, common) for point in batch]
    if not points:
        raise ServingError("sweep expands to zero points")
    if len(points) > max_points:
        raise ServingError(
            f"sweep expands to {len(points)} points, over the server's "
            f"max_sweep_points={max_points}",
            status=413,
        )
    return points


def _wire_point(point, common: Dict[str, Any]) -> Dict[str, Any]:
    """One driver :class:`~repro.harness.runner.BatchPoint` as a point
    request.  Its cluster and costs are not sent: ``point_spec``
    derives the same ones from the processor count and params."""
    wire = dict(common, app=point.app)
    if point.variant is not None:
        wire["variant"] = point.variant.name
    wire["nprocs"] = point.nprocs
    if point.params is not None:
        wire["params"] = dict(point.params)
    return wire
