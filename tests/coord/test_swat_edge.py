"""SWAT edge cases: session flaps, join+failover interplay, agent retry."""


from repro import HydraCluster, SimConfig
from repro.coord.swat import SHARDS_PATH, ShardAgent
from repro.protocol import Status

MS = 1_000_000
S = 1_000_000_000


def ha_cluster(replicas=1, shards=1):
    cfg = SimConfig().with_overrides(
        replication={"replicas": replicas},
        client={"op_timeout_ns": 5 * MS},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=shards)
    ha = cluster.enable_ha()
    cluster.start()
    return cluster, ha


def test_transient_session_flap_reregisters_without_promotion():
    """An agent session expiry with a healthy shard must NOT promote."""
    cluster, ha = ha_cluster()
    cluster.sim.run(until=30 * MS)
    shard_id = cluster.routing.shard_ids()[0]
    original = cluster.routing.resolve(shard_id)
    # Kill only the agent's ZK session (simulate a GC pause / flap).
    agent = ha.agents[0]
    ha.zk._expire_session(ha.zk._sessions[agent.session.session_id])
    cluster.sim.run(until=cluster.sim.now + 4 * S)
    # Same shard object still routes; no failover counted.
    assert cluster.routing.resolve(shard_id) is original
    assert ha.swat.failovers == 0
    assert ha.zk.node_exists(f"{SHARDS_PATH}/{shard_id}")

    # And the shard still serves.
    client = cluster.client()

    def app():
        assert (yield from client.put(b"k", b"v")) is Status.OK

    cluster.run(app())


def test_agent_waits_out_lingering_ephemeral():
    """A replacement agent must wait for the stale znode, then register."""
    cluster, ha = ha_cluster()
    cluster.sim.run(until=30 * MS)
    shard = cluster.routing.resolve(cluster.routing.shard_ids()[0])
    # Start a second agent while the first one's znode still exists.
    dup = ShardAgent(cluster.sim, ha.zk, shard)
    cluster.sim.run(until=cluster.sim.now + 100 * MS)
    assert dup.proc.is_alive  # parked on the deletion watch, no crash
    # Expire the first agent's session: the duplicate takes over.
    first = ha.agents[0]
    ha.zk._expire_session(ha.zk._sessions[first.session.session_id])
    cluster.sim.run(until=cluster.sim.now + 4 * S)
    assert ha.zk.node_exists(f"{SHARDS_PATH}/{shard.shard_id}")


def test_join_then_failover_of_original_server():
    """Grow the cluster, then lose the original server: the promoted shard
    plus the joined server keep the whole keyspace available."""
    cluster, ha = ha_cluster(replicas=1, shards=2)
    client = cluster.client()
    expected = {}

    def load():
        for i in range(120):
            key, value = f"k{i}".encode(), f"v{i}".encode()
            yield from client.put(key, value)
            expected[key] = value

    cluster.run(load())
    cluster.sim.run(until=cluster.sim.now + 20 * MS)
    join = cluster.sim.process(ha.swat.join_server(n_shards=2))
    cluster.sim.run(until=join)
    assert len(cluster.ring.members) == 4
    # Let replication of any migrated-away state settle, then fail server 0.
    cluster.sim.run(until=cluster.sim.now + 50 * MS)
    snapshot_old_shards = {
        sid: cluster.routing.resolve(sid).store.dump()
        for sid in cluster.ring.members
    }
    del snapshot_old_shards
    cluster.servers[0].kill()
    cluster.sim.run(until=cluster.sim.now + 4 * S)
    assert ha.swat.failovers == 2  # both original shards promoted

    def verify():
        for key, value in expected.items():
            got = yield from client.get(key)
            assert got == value, key

    cluster.run(verify())


def test_join_server_starts_agents_for_new_shards():
    cluster, ha = ha_cluster(replicas=0, shards=1)
    cluster.sim.run(until=30 * MS)
    join = cluster.sim.process(ha.swat.join_server(n_shards=1))
    cluster.sim.run(until=join)
    cluster.sim.run(until=cluster.sim.now + 50 * MS)
    for sid in cluster.ring.members:
        assert ha.zk.node_exists(f"{SHARDS_PATH}/{sid}"), sid


def test_swat_member_count_and_kill_all_but_one():
    cluster, ha = ha_cluster()
    cluster.sim.run(until=30 * MS)
    # Kill two members; the survivor must lead.
    for mid in range(2):
        if ha.swat.leader_id == 2:
            break
        ha.swat.kill_member(mid if ha.swat.leader_id != mid
                            else ha.swat.leader_id)
    ha.swat.kill_member(ha.swat.leader_id)
    cluster.sim.run(until=cluster.sim.now + 4 * S)
    assert ha.swat.leader_id is not None
    # Failover still functions with a single surviving member.
    cluster.servers[0].kill()
    cluster.sim.run(until=cluster.sim.now + 4 * S)
    assert ha.swat.failovers == 1


def test_migration_deletes_propagate_to_secondaries():
    """Keys migrated away must also leave the donor's replicas."""
    cluster, ha = ha_cluster(replicas=1, shards=2)
    client = cluster.client()

    def load():
        for i in range(100):
            yield from client.put(f"k{i}".encode(), b"v")

    cluster.run(load())
    cluster.sim.run(until=cluster.sim.now + 20 * MS)
    join = cluster.sim.process(ha.swat.join_server(n_shards=2))
    cluster.sim.run(until=join)
    cluster.sim.run(until=cluster.sim.now + 50 * MS)
    for sid, secs in cluster.secondaries.items():
        primary = cluster.routing.resolve(sid)
        for sec in secs:
            assert sec.store.dump() == primary.store.dump(), sid
