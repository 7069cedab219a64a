"""Multi-tenant experiment-serving layer (PR 8).

``repro.serving`` turns the content-addressed result cache (PR 2), the
parallel harness (PR 2/PR 5), and the ``repro.api`` facade (PR 4) into
an asyncio front end that serves experiment points to many concurrent
clients.  Every request resolves through a three-tier fast path:

1. **Sharded on-disk cache** — a prior run of the identical point
   (same app, params, ``RunConfig``, code fingerprint) is served from
   the encoded bytes stored with it, without simulating or unpickling
   anything.
2. **Singleflight coalescing** — an identical point already in flight
   gains one more awaiter instead of one more simulation
   (:mod:`repro.serving.singleflight`).
3. **Cold-point batching** — genuinely new points are grouped inside a
   small arrival window and fanned across one long-lived worker pool
   (:mod:`repro.serving.batcher` over
   :func:`repro.harness.parallel.persistent_pool`), streaming back as
   each point completes.

Served results are byte-for-byte identical to direct
:func:`repro.api.run_point` calls: requests are decoded through the
same :func:`repro.harness.parallel.point_spec` builder the facade uses,
and the simulator is deterministic.  See ``docs/SERVING.md`` for the
protocol, semantics, and deployment knobs.
"""

from repro.serving.batcher import ColdPointBatcher
from repro.serving.client import ServingClient
from repro.serving.codec import (
    WIRE_VERSION,
    NegativeCache,
    ServingError,
    decode_request,
    encode_result,
    encode_with_digest,
    expand_sweep,
    request_kwargs,
    result_digest,
    result_payload,
)
from repro.serving.server import (
    ExperimentServer,
    ExperimentService,
    ServeStats,
    ServerConfig,
)
from repro.serving.singleflight import SingleFlight

__all__ = [
    "ColdPointBatcher",
    "ExperimentServer",
    "ExperimentService",
    "NegativeCache",
    "ServeStats",
    "ServerConfig",
    "ServingClient",
    "ServingError",
    "SingleFlight",
    "WIRE_VERSION",
    "decode_request",
    "encode_result",
    "encode_with_digest",
    "expand_sweep",
    "request_kwargs",
    "result_digest",
    "result_payload",
]
