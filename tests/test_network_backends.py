"""Per-backend goldens and NetworkModel interface conformance.

Two layers of pinning for the pluggable network backends:

* ``tests/golden_networks.json`` holds exec times, counters, and
  breakdowns for a protocol spread under every backend.  Production
  must reproduce each *exactly*, and equal the access and engine
  oracles (``tests/conftest.py`` ``replay``) — the backends are
  simulated semantics, the oracles are not.
* ``tests/golden_cross_era_<backend>.txt`` pins the rendered cross-era
  study per backend at the same invocation CI diffs against.

Plus property tests (hypothesis) checking the interface contract every
backend promises: visibility times never precede issue time plus wire
latency, per-link completion times are monotone, and byte accounting is
conserved between ``usage`` and ``aggregate_bytes``.

Regenerate the goldens only when simulated semantics change
intentionally:

    PYTHONPATH=src python tests/regen_golden_networks.py
"""

import json
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import api
from repro.config import ClusterConfig, CostModel, NETWORK_BACKENDS, Transport
from repro.cluster.network import NETWORK_MODELS, build_network
from repro.harness import cross_era
from repro.harness.runner import ExperimentContext
from tests.helpers import replay_ids

HERE = pathlib.Path(__file__).parent
GOLDENS = json.loads((HERE / "golden_networks.json").read_text())

N_NODES = 4


# --- golden replay on production and the oracles ------------------------


@pytest.mark.parametrize(
    "golden",
    GOLDENS,
    ids=[
        f"{g['network']}-{g['app']}-{g['variant']}-{g['nprocs']}p"
        for g in GOLDENS
    ],
)
@pytest.mark.parametrize(
    "replay", replay_ids(["calqueue", "heap"]), indirect=True
)
def test_backend_golden_over_mode_matrix(golden, replay):
    result = replay(
        json.dumps(golden, sort_keys=True),
        lambda: api.run_point(
            golden["app"],
            golden["variant"],
            golden["nprocs"],
            scale=golden["scale"],
            network=golden["network"],
        ),
    )
    assert result.exec_time == golden["exec_time"]
    assert result.network_bytes == golden["network_bytes"]
    agg = result.stats.aggregate_counters()
    for name, value in golden["counters"].items():
        assert agg[name] == value, f"counter {name}"
    breakdown = result.breakdown.as_dict()
    for category, value in golden["breakdown"].items():
        assert breakdown[category] == value, f"breakdown {category}"


def test_goldens_cover_every_backend():
    assert {g["network"] for g in GOLDENS} == set(NETWORK_BACKENDS)


def test_backends_disagree_on_simulated_time():
    # The backends are *different* networks: the same run must not
    # produce identical exec times across them (if it did, the goldens
    # would be pinning nothing).
    by_net = {}
    for g in GOLDENS:
        key = (g["app"], g["variant"], g["nprocs"])
        by_net.setdefault(key, set()).add(g["exec_time"])
    for key, times in by_net.items():
        assert len(times) == len(NETWORK_BACKENDS), key


# --- rendered cross-era study, one golden per backend -------------------


@pytest.mark.parametrize("network", NETWORK_BACKENDS)
def test_cross_era_rendered_output_matches_golden(network):
    ctx = ExperimentContext(scale="tiny")
    result = cross_era.run(
        ctx, apps=("sor", "water"), counts=(1, 2, 4, 8), networks=[network]
    )
    golden = (HERE / f"golden_cross_era_{network}.txt").read_text()
    assert result.text + "\n" == golden


# --- NetworkModel interface conformance (property-based) ----------------


class _Clock:
    """Minimal engine stand-in: the network models only read ``now``."""

    def __init__(self):
        self.now = 0.0


def _fresh(name):
    clock = _Clock()
    net = build_network(
        name, clock, ClusterConfig(n_nodes=N_NODES), CostModel()
    )
    return clock, net


# One operation: (kind, src, other, nbytes, dt) where dt advances the
# clock before issuing.  Reads are silently turned into writes on
# backends without remote_reads.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "broadcast", "read"]),
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.integers(min_value=0, max_value=65536),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def _issue(net, clock, kind, src, other, nbytes):
    """Issue one op; return (transmit_link, completion_time, latency).

    ``latency`` is the op's constant post-wire latency term (reads pay
    the round-trip read latency where it exists), so callers can
    recover the wire-drain time as ``completion - latency``.
    """
    described = net.describe()
    latency = float(described["latency_us"])
    if kind == "read" and net.remote_reads:
        read_latency = float(described.get("read_latency_us", latency))
        return other, net.read(src, other, nbytes), read_latency
    if kind == "broadcast":
        return src, net.write(src, nbytes, broadcast=True), latency
    return src, net.write(src, nbytes, dst_node=other), latency


@pytest.mark.parametrize("name", NETWORK_BACKENDS)
@given(ops=_OPS)
def test_visibility_never_precedes_issue_plus_latency(name, ops):
    clock, net = _fresh(name)
    for kind, src, other, nbytes, dt in ops:
        clock.now += dt
        _, done, latency = _issue(net, clock, kind, src, other, nbytes)
        # Data cannot be visible remotely before the wire latency has
        # elapsed, however idle the fabric is.
        assert done >= clock.now + latency - 1e-9


@pytest.mark.parametrize("name", NETWORK_BACKENDS)
@given(ops=_OPS)
def test_visibility_monotonic_per_link(name, ops):
    clock, net = _fresh(name)
    last_drain = {}
    for kind, src, other, nbytes, dt in ops:
        clock.now += dt
        link, done, latency = _issue(net, clock, kind, src, other, nbytes)
        # Transfers serialize on their transmit link: a later op's wire
        # drain (completion minus its constant latency term) can never
        # precede an earlier one's on the same link.
        drain = done - latency
        assert drain >= last_drain.get(link, 0.0) - 1e-9
        last_drain[link] = drain


@pytest.mark.parametrize("name", NETWORK_BACKENDS)
@given(ops=_OPS)
def test_occupancy_byte_conservation(name, ops):
    clock, net = _fresh(name)
    transfers = 0
    for kind, src, other, nbytes, dt in ops:
        clock.now += dt
        _issue(net, clock, kind, src, other, nbytes)
        transfers += 1
    # Every byte charged to a link is visible in the aggregate, and
    # vice versa — no traffic is dropped or double-counted between the
    # per-link and total accounting.
    assert sum(u.bytes_sent for u in net.usage) == net.aggregate_bytes
    assert sum(u.transfers for u in net.usage) == transfers


@pytest.mark.parametrize("name", NETWORK_BACKENDS)
@given(ops=_OPS)
def test_flush_time_covers_issued_writes(name, ops):
    clock, net = _fresh(name)
    for kind, src, other, nbytes, dt in ops:
        clock.now += dt
        _issue(net, clock, "write", src, other, nbytes)
        # A release that waits for flush_time must not observe a drain
        # time earlier than the moment the last write was issued.
        assert net.flush_time(src) >= clock.now - 1e-9


@pytest.mark.parametrize("name", NETWORK_BACKENDS)
def test_negative_sizes_rejected(name):
    clock, net = _fresh(name)
    with pytest.raises(ValueError):
        net.write(0, -1)
    if net.remote_reads:
        with pytest.raises(ValueError):
            net.read(0, 1, -1)


@pytest.mark.parametrize("name", NETWORK_BACKENDS)
def test_read_raises_unless_remote_reads(name):
    clock, net = _fresh(name)
    if net.remote_reads:
        assert net.read(0, 1, 8192) > 0.0
    else:
        with pytest.raises(RuntimeError):
            net.read(0, 1, 8192)


@pytest.mark.parametrize("name", NETWORK_BACKENDS)
def test_msg_cpus_nonnegative_for_every_transport(name):
    clock, net = _fresh(name)
    for transport in Transport:
        send, recv = net.msg_cpus(transport)
        assert send >= 0.0 and recv >= 0.0


def test_registry_matches_config_backends():
    assert tuple(NETWORK_MODELS) == NETWORK_BACKENDS
    for name, model in NETWORK_MODELS.items():
        assert model.name == name
        described = model.describe()
        assert described, name
        assert all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in described.items()
        )
        assert described["remote_reads"] == (
            "yes" if model.remote_reads else "no"
        )


def test_build_network_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown network backend"):
        build_network("myrinet", _Clock(), ClusterConfig(), CostModel())
