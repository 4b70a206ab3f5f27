"""Gray failure wedges every shard variant.

``gray_fail()`` stops the ingest thread while the process, NIC and QPs
stay up: requests land in the buffers and rot, nothing is answered and
nothing parked is released until ``gray_recover()``.  The gate sits in
the one polling loop all three ingest threads run
(``Shard._ingest_loop``).
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.core.errors import ShardUnavailable
from repro.protocol import Status
from tests.core.test_shard_variants import VARIANTS, variants

_US, _MS = 1_000, 1_000_000


def make_cluster(variant, **overrides):
    cfg = SimConfig().with_overrides(
        hydra=VARIANTS[variant],
        client={"rptr_cache_enabled": False, "op_timeout_ns": 5 * _MS},
        traversal={"enabled": False}, **overrides)
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    return cluster, cluster.shards()[0]


@variants
def test_requests_rot_while_gray_and_are_served_after_recovery(variant):
    cluster, shard = make_cluster(variant)
    sim = cluster.sim
    impatient = cluster.client(deadline_us=300)
    patient = cluster.client()
    requests = cluster.metrics.counter("shard.requests")
    got = {}

    def app():
        assert (yield from patient.put(b"k", b"v")) is Status.OK
        shard.gray_fail()
        served = requests.value
        with pytest.raises(ShardUnavailable):
            yield from impatient.get(b"k")
        assert requests.value == served      # landed, never swept
        sim.timeout(500 * _US).callbacks.append(
            lambda _ev: shard.gray_recover())
        got["value"] = yield from patient.get(b"k")
        got["at"] = sim.now
        assert requests.value > served

    t0 = sim.now
    cluster.run(app())
    assert got["value"] == b"v"
    assert got["at"] - t0 >= 800 * _US       # answered only after recovery


@variants
def test_parked_responses_stay_deferred_while_gray(variant):
    # 200 us PM writes: the PUT is swept and parked behind its flush,
    # the shard wedges, the flush lands — and still nothing is posted.
    cluster, shard = make_cluster(
        variant, durability={"enabled": True, "ack_mode": "ack_on_flush",
                             "pm_write_latency_ns": 200 * _US})
    sim = cluster.sim
    dlog = cluster.durable_logs[cluster.routing.shard_ids()[0]]
    client = cluster.client()
    done = []

    def app():
        done.append(((yield from client.put(b"k", b"v")), sim.now))

    def gray():
        yield sim.timeout(50 * _US)
        shard.gray_fail()
        yield sim.timeout(950 * _US)
        assert dlog.released_seq == 1 and len(shard._parked) == 1
        assert not done
        shard.gray_recover()
        assert not shard._parked

    sim.process(gray())
    cluster.run(app())
    assert done[0][0] is Status.OK and done[0][1] >= 1 * _MS
    assert cluster.metrics.counter("shard.parked_dropped").value == 0
