"""SWAT edge cases: persistent registrations, leader churn after a
promotion, join+failover interplay."""


from repro import HydraCluster, SimConfig
from repro.coord.swat import SHARDS_PATH, _decode_word, verdict_bound_ns

MS = 1_000_000
S = 1_000_000_000

#: Room for probe round trips (about 1.5 us each) in the verdict bound.
RTT_SLACK_NS = 10_000


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


def registration(ha, shard_id):
    """The znode advertising ``shard_id``'s heartbeat word."""
    return ha.zk._nodes[f"{SHARDS_PATH}/{shard_id}"]


def test_registrations_are_persistent():
    """A shard's ``/shards`` znode belongs to no ZK session: expiring
    sessions by its id finds none, and nothing about the shard changes."""
    cluster, ha = ha_cluster(shards=2)
    cluster.sim.run(until=30 * MS)
    shard_ids = cluster.routing.shard_ids()
    originals = [cluster.routing.resolve(sid) for sid in shard_ids]
    for shard_id in shard_ids:
        assert registration(ha, shard_id).ephemeral_session is None
        assert ha.zk.expire_sessions_of(shard_id) == 0
    cluster.sim.run(until=cluster.sim.now + 4 * S)
    assert [cluster.routing.resolve(sid) for sid in shard_ids] == originals
    assert ha.swat.failovers == 0
    assert ha.swat.prober.watched() == set(shard_ids)


def test_promotion_rewrites_the_registration_and_probes_the_new_word():
    """After a promotion ``/shards/<id>`` advertises the new primary's
    word, and the leader probes that word straight from the reaction,
    without a children round or a read of the znode."""
    cluster, ha = ha_cluster()
    cluster.sim.run(until=30 * MS)
    swat = ha.swat
    shard_id = cluster.routing.shard_ids()[0]
    reads = []
    watch_word = swat._watch_word

    def counted(session, sid):
        reads.append(sid)
        return (yield from watch_word(session, sid))

    swat._watch_word = counted
    cluster.servers[0].kill()
    cluster.sim.run(until=cluster.sim.now + 100 * MS)
    assert swat.failovers == 1
    promoted = cluster.routing.resolve(shard_id)
    nic_id, rptr = _decode_word(registration(ha, shard_id).data)
    assert nic_id == promoted.nic.nic_id
    assert registration(ha, shard_id).ephemeral_session is None
    target = swat.prober._targets[shard_id]
    assert (target.nic, target.rptr) == (promoted.nic, rptr)
    assert reads == []
    assert target.alive_seq > 0  # the new word proves life


def test_churned_leader_probes_the_promoted_primary():
    """A leader elected after a promotion reads the rewritten znode and
    probes the promoted primary, so a second machine kill (replicas 2)
    fails over within the verdict bound too."""
    cluster, ha = ha_cluster(replicas=2)
    cluster.sim.run(until=30 * MS)
    swat = ha.swat
    shard_id = cluster.routing.shard_ids()[0]
    cluster.servers[0].kill()
    cluster.sim.run(until=cluster.sim.now + 100 * MS)
    assert swat.failovers == 1
    promoted = cluster.routing.resolve(shard_id)
    # swat_churn, as the chaos injector applies it.
    old_leader = swat.leader_id
    swat.kill_member(old_leader)
    ha.zk.expire_sessions_of(f"swat.m{old_leader}")
    swat.spawn_member()
    cluster.sim.run(until=cluster.sim.now + 100 * MS)
    assert swat.leader_id not in (None, old_leader)
    target = swat.prober._targets[shard_id]
    assert target.nic is promoted.nic and target.alive_seq > 0
    verdicts = []
    swat.prober.condemnation().callbacks.append(
        lambda _ev: verdicts.append(cluster.sim.now))
    killed_at = cluster.sim.now
    promoted.kill()
    promoted.machine.nic.fail()
    cluster.sim.run(until=killed_at + 100 * MS)
    assert len(verdicts) == 1
    assert verdicts[0] - killed_at <= verdict_bound_ns(cluster.config) \
        + RTT_SLACK_NS
    assert swat.failovers == 2
    third = cluster.routing.resolve(shard_id)
    assert third is not promoted and third.alive


def test_leader_dying_between_route_swap_and_rewrite_fences_nothing_live():
    """A leader churned right after the route swap dies in the
    ``/shards`` rewrite, leaving the deposed primary's word advertised.
    Its successor condemns that stale word, but the routed primary is the
    promoted one: it re-advertises and probes that primary instead of
    fencing it, so with one replica no data is lost, and the verdict
    hooks are not handed the live primary for the stale word."""
    cluster, ha = ha_cluster(replicas=1)
    swat = ha.swat
    shard_id = cluster.routing.shard_ids()[0]
    live_verdicts = []

    def judge(primary):
        # The chaos harness's false-verdict score.
        if primary.alive and primary.nic.alive:
            live_verdicts.append(primary.shard_id)

    swat.verdict_hooks.append(judge)

    def churn(_ev):
        # swat_churn, as the chaos injector applies it.
        leader = swat.leader_id
        swat.kill_member(leader)
        ha.zk.expire_sessions_of(f"swat.m{leader}")
        swat.spawn_member()

    cluster.sim.run(until=30 * MS)
    cluster.routing.route_change.wait().callbacks.append(churn)
    cluster.servers[0].kill()
    cluster.sim.run(until=cluster.sim.now + 100 * MS)
    metrics = cluster.metrics
    assert metrics.counter("swat.fenced").value == 1
    assert metrics.counter("swat.data_loss").value == 0
    assert metrics.counter("swat.failovers").value == 1
    assert live_verdicts == []
    promoted = cluster.routing.resolve(shard_id)
    assert promoted.alive
    nic_id, rptr = _decode_word(registration(ha, shard_id).data)
    assert nic_id == promoted.nic.nic_id
    target = swat.prober._targets[shard_id]
    assert (target.nic, target.rptr) == (promoted.nic, rptr)
    client = cluster.client()

    def roundtrip():
        yield from client.put(b"after", b"churn")
        return (yield from client.get(b"after"))

    assert cluster.run(roundtrip()) == b"churn"


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


def test_join_server_registers_new_shards():
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
