"""The differential harness: production against the implementations it
replaced.

Each host-side speedup is licensed by a bit-identical differential
against the implementation it retired.  That implementation survives
only as a test-only oracle, selected by a context manager; ``ORACLES``
is the one registry of them:

======  ==================  ============================  ================
layer   oracle              licenses                      CI points
======  ==================  ============================  ================
engine  heap_engine()       the calendar queue, its       the five
                            same-time ring and drain      share_64p points
                            shortcuts (sim/engine.py)     (small)
merge   per_occupancy()     one engine wake per write-    the five
                            notice merge (busy_run)       share_64p points
                                                          (small)
warm    eager_warm()        copy-on-write warm frames     --
                            (LrcProtocolBase.prewarm)
access  per_page_access()   the bitmap hit path and span  sor, water x
                            faults (runtime/shared.py)    csm_poll,
                                                          tmk_mc_poll x
                                                          1p, 4p (tiny)
walks   all_scalar_walks()  batched Barnes-Hut walks      --
                            (kernels.barnes_forces)
======  ==================  ============================  ================

Each oracle's module (``tests/*_oracle.py``) says what the reference
is.  The contract is the same for every layer: a run under the oracle
has the production run's ``result_digest`` (times, counters, breakdown,
values) and, when traced, every processor's timeline, event for event.
:func:`assert_differential` checks it.  ``python -m tests.oracles`` is
the CI gate: each CI point's production digest is computed once and
compared with every oracle that names the point.

The run-tuple diff (``diff_oracle.py``) and the scalar app helpers
(``app_oracle.py``) are unit-level references, pinned in
``test_diff.py`` and ``test_app_kernels.py``.
"""

from __future__ import annotations

import contextlib
import functools
import sys

from repro import api
from repro.harness.cache import key_for_spec
from repro.harness.parallel import execute_point
from repro.serving.codec import result_digest
from tests.access_oracle import per_page_access
from tests.app_oracle import all_scalar_walks
from tests.eager_warm_oracle import eager_warm
from tests.heap_oracle import heap_engine
from tests.lrc_oracle import per_occupancy

ORACLES = {
    "engine": heap_engine,
    "merge": per_occupancy,
    "warm": eager_warm,
    "access": per_page_access,
    "walks": all_scalar_walks,
}

ENTERED = set()  # layers entered this session


@contextlib.contextmanager
def oracle(*layers):
    """Systems built and accesses made inside the block use the named
    layers' references."""
    with contextlib.ExitStack() as stack:
        for layer in layers:
            stack.enter_context(ORACLES[layer]())
            ENTERED.add(layer)
        yield


def point(app, variant=None, nprocs=1, **kwargs):
    """``api.run_point(app, variant, nprocs, **kwargs)`` as a run whose
    key is the point's cache fingerprint, so every spelling of one point
    is one run."""
    spec = api.point_spec(app, variant, nprocs, **kwargs)
    run = functools.partial(execute_point, spec)
    run.key = key_for_spec(spec)
    return run


def timelines(result):
    """Every processor's trace timeline, event for event (``None`` for
    an untraced run)."""
    if result.trace is None:
        return None
    by_pid = {}
    for event in result.trace.timeline():
        by_pid.setdefault(event.pid, []).append(event)
    return by_pid


# Per session.  Traced production runs are not kept: their events would
# stay on the heap and slow every later garbage collection.
_production = {}  # key -> (result, digest, None) of an untraced run
_matched = set()  # (layer, key) pairs already compared


def _outcome(run, layers=()):
    with oracle(*layers):
        result = run()
    return result, result_digest(result), timelines(result)


def assert_differential(run, *layers, key=None):
    """Run ``run()`` on production and under each named oracle, and
    assert equal ``result_digest`` and per-processor timelines.

    Runs with a key (``key=``, or a :func:`point`'s) are shared per
    session: each (layer, key) is compared once, and an untraced
    production run runs once per key.  Returns the production result.
    """
    key = getattr(run, "key", None) if key is None else key
    if key in _production:
        outcome = _production[key]
    else:
        outcome = _outcome(run)
        if key is not None and outcome[2] is None:
            _production[key] = outcome
    result, digest, lines = outcome
    for layer in layers:
        if (layer, key) in _matched:
            continue
        _oracle, oracle_digest, oracle_lines = _outcome(run, (layer,))
        assert oracle_digest == digest, f"{layer} oracle digest differs"
        assert oracle_lines == lines, f"{layer} oracle timelines differ"
        if key is not None:
            _matched.add((layer, key))
    return result


def ci_points():
    """``{layer: [point, ...]}``: what ``python -m tests.oracles``
    compares."""
    from benchmarks.suite.simwork import points_of

    share_64p = [point(*p) for p in points_of("share_64p")]
    return {
        "engine": share_64p,
        "merge": share_64p,
        "access": [
            point(app, variant, nprocs, scale="tiny")
            for app in ("sor", "water")
            for variant in ("csm_poll", "tmk_mc_poll")
            for nprocs in (1, 4)
        ],
    }


def main() -> int:
    layers_of = {}  # key -> (run, [layer, ...]), in declaration order
    for layer, runs in ci_points().items():
        for run in runs:
            layers_of.setdefault(run.key, (run, []))[1].append(layer)
    status = 0
    for run, layers in layers_of.values():
        spec = run.args[0]
        digest = _outcome(run)[1]
        config = spec.config
        line = (
            f"{spec.app}/{config.variant.name}/{config.nprocs}p"
            f" {digest[:16]}"
        )
        for layer in layers:
            oracle_digest = _outcome(run, (layer,))[1]
            same = oracle_digest == digest
            line += f" {'==' if same else '!='} {layer} {oracle_digest[:16]}"
            status |= not same
        print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
