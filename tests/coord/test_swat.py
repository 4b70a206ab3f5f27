"""SWAT: leader election, failover promotion, node join, no data loss."""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import RequestTimeout
from repro.protocol import Status


def ha_cluster(replicas=1, shards_per_server=1):
    cfg = SimConfig().with_overrides(
        replication={"replicas": replicas},
        client={"op_timeout_ns": 5_000_000},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=shards_per_server)
    ha = cluster.enable_ha()
    cluster.start()
    return cluster, ha


def settle(cluster, ns=100_000_000):
    cluster.sim.run(until=cluster.sim.now + ns)


def test_leader_elected():
    cluster, ha = ha_cluster()
    settle(cluster, 20_000_000)
    assert ha.swat.leader_id is not None


def test_every_primary_is_registered():
    cluster, ha = ha_cluster(shards_per_server=2)
    settle(cluster, 20_000_000)
    for shard_id in cluster.routing.shard_ids():
        assert ha.zk.node_exists(f"/shards/{shard_id}")


def test_failover_promotes_secondary_without_data_loss():
    cluster, ha = ha_cluster()
    client = cluster.client()
    shard_id = cluster.routing.shard_ids()[0]
    old_shard = cluster.routing.resolve(shard_id)
    acked = {}

    def phase1():
        for i in range(30):
            key = f"k{i}".encode()
            status = yield from client.put(key, f"v{i}".encode())
            if status is Status.OK:
                acked[key] = f"v{i}".encode()

    cluster.run(phase1())
    settle(cluster, 10_000_000)  # let replication drain
    cluster.servers[0].kill()
    # Probe verdict + reaction time.
    settle(cluster, 4_000_000_000)
    new_shard = cluster.routing.resolve(shard_id)
    assert new_shard is not old_shard and new_shard.alive
    assert ha.swat.failovers == 1
    # Every acknowledged write survived the failure.
    promoted = new_shard.store.dump()
    for key, value in acked.items():
        assert promoted[key] == value

    def phase2():
        # Clients route to the promoted shard transparently.
        for key, value in list(acked.items())[:5]:
            got = yield from client.get(key)
            assert got == value
        assert (yield from client.put(b"post-failover", b"ok")) is Status.OK

    cluster.run(phase2())


def test_failover_with_two_replicas_rewires_remaining():
    cluster, ha = ha_cluster(replicas=2)
    client = cluster.client()
    shard_id = cluster.routing.shard_ids()[0]

    def load():
        for i in range(20):
            yield from client.put(f"k{i}".encode(), b"x" * 16)

    cluster.run(load())
    settle(cluster, 10_000_000)
    cluster.servers[0].kill()
    settle(cluster, 4_000_000_000)
    assert ha.swat.failovers == 1
    assert len(cluster.secondaries[shard_id]) == 1
    assert shard_id in cluster.replicators
    new_shard = cluster.routing.resolve(shard_id)

    def write_more():
        for i in range(10):
            yield from client.put(f"post{i}".encode(), b"y" * 8)

    cluster.run(write_more())
    settle(cluster, 20_000_000)
    # The re-attached secondary tracks the new primary.
    sec = cluster.secondaries[shard_id][0]
    assert sec.store.dump() == new_shard.store.dump()


def test_client_times_out_then_recovers():
    # Single-attempt mode (deadline_us=0) preserves the pre-retry
    # contract: one attempt, one RequestTimeout, no replay.
    cluster, ha = ha_cluster()
    client = cluster.client(deadline_us=0)

    def before():
        yield from client.put(b"k", b"v")

    cluster.run(before())
    settle(cluster, 10_000_000)
    cluster.servers[0].kill()

    def during():
        with pytest.raises(RequestTimeout):
            yield from client.get(b"k")

    cluster.run(during())
    settle(cluster, 4_000_000_000)

    def after():
        assert (yield from client.get(b"k")) == b"v"

    cluster.run(after())


def test_client_rides_through_failover():
    # Default deadline budget: a GET issued mid-blackout replays across
    # the SWAT promotion and completes without any client-visible error.
    cluster, ha = ha_cluster()
    client = cluster.client()

    def before():
        yield from client.put(b"k", b"v")

    cluster.run(before())
    settle(cluster, 10_000_000)
    cluster.servers[0].kill()

    def during():
        assert (yield from client.get(b"k")) == b"v"

    cluster.run(during())
    settle(cluster, 20_000_000)  # let SWAT finish republishing
    assert ha.swat.failovers == 1
    assert cluster.routing.generation >= 1
    assert cluster.metrics.counter("client.retries").value >= 1
    assert cluster.metrics.counter("client.failovers").value >= 1
    assert cluster.metrics.tally("client.failover_latency_ns").count >= 1


def test_promoted_primary_is_a_plain_shard_whatever_the_variant():
    """Stated limit: SWAT promotes a secondary into a plain ``Shard``, so
    a pipelined cluster serves from one core after failover."""
    cfg = SimConfig().with_overrides(
        hydra={"pipelined_shards": True}, replication={"replicas": 1},
        client={"op_timeout_ns": 5_000_000})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    ha = cluster.enable_ha()
    cluster.start()
    client = cluster.client()
    shard_id = cluster.routing.shard_ids()[0]
    old_shard = cluster.routing.resolve(shard_id)
    assert old_shard.cores_used == 4 and old_shard.lanes

    cluster.run(client.put(b"k", b"v"))
    settle(cluster, 10_000_000)
    cluster.servers[0].kill()
    settle(cluster, 4_000_000_000)
    new_shard = cluster.routing.resolve(shard_id)
    assert ha.swat.failovers == 1 and new_shard is not old_shard
    assert new_shard.cores_used == 1 and not new_shard.lanes
    assert new_shard.io_cores == [new_shard.core]

    def after():
        assert (yield from client.get(b"k")) == b"v"

    cluster.run(after())


def test_failure_without_replica_counts_data_loss():
    cluster, ha = ha_cluster(replicas=0)
    settle(cluster, 20_000_000)
    cluster.servers[0].kill()
    settle(cluster, 4_000_000_000)
    assert cluster.metrics.counter("swat.data_loss").value >= 1
    assert ha.swat.failovers == 0


def test_leader_death_triggers_reelection_and_failover_still_works():
    cluster, ha = ha_cluster()
    client = cluster.client()

    def load():
        for i in range(10):
            yield from client.put(f"k{i}".encode(), b"v")

    cluster.run(load())
    settle(cluster, 20_000_000)
    first_leader = ha.swat.leader_id
    ha.swat.kill_member(first_leader)
    settle(cluster, 4_000_000_000)
    assert ha.swat.leader_id != first_leader
    cluster.servers[0].kill()
    settle(cluster, 4_000_000_000)
    assert ha.swat.failovers == 1


def test_node_join_migrates_keys():
    cluster, ha = ha_cluster(replicas=0, shards_per_server=2)
    client = cluster.client()
    n = 200
    expected = {}

    def load():
        for i in range(n):
            key, value = f"k{i}".encode(), f"v{i}".encode()
            yield from client.put(key, value)
            expected[key] = value

    cluster.run(load())
    before_ids = set(cluster.ring.members)
    join = cluster.sim.process(ha.swat.join_server(n_shards=2))
    cluster.sim.run(until=join)
    assert len(cluster.ring.members) == 4
    new_ids = set(cluster.ring.members) - before_ids
    moved = sum(len(cluster.routing.resolve(sid).store)
                for sid in new_ids)
    assert moved > 0  # some arcs moved to the new server
    total = sum(len(cluster.routing.resolve(sid).store)
                for sid in cluster.ring.members)
    assert total == n

    def verify():
        for key, value in expected.items():
            assert (yield from client.get(key)) == value

    cluster.run(verify())
