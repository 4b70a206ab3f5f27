"""Failover while a workload is running: liveness + zero acked-write loss."""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import RequestTimeout
from repro.protocol import Status

MS = 1_000_000


#: ZooKeeper timing of the short twins (50 ms heartbeats, 200 ms
#: sessions), which only SWAT members' sessions follow.  The kill itself
#: is detected by heartbeat probes in a few ms either way.
FAST_HA = {"heartbeat_ns": 50 * MS, "session_timeout_ns": 200 * MS}

#: Writers stop this long after the kill if no promotion is observed
#: (the test then fails on its failover count instead of hanging).
NO_PROMOTION_CAP_MS = 5_000


def _write_storm_through_failover(after_promotion_ms, coord=None):
    """Four single-attempt writers hammer one replicated shard whose
    primary dies at 30 ms; they keep writing until ``after_promotion_ms``
    after the observed promotion (the first route swap).  No acknowledged
    write may be missing afterwards."""
    cfg = SimConfig().with_overrides(
        replication={"replicas": 1},
        client={"op_timeout_ns": 5 * MS},
        coord=coord or {},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=2)
    ha = cluster.enable_ha()
    cluster.start()
    sim = cluster.sim
    acked: dict[bytes, bytes] = {}
    timeouts = {"n": 0}
    kill_at = 30 * MS

    promoted_at = []

    def killer():
        yield sim.timeout(kill_at)
        cluster.servers[0].kill()
        yield cluster.route_change.wait()
        promoted_at.append(sim.now)

    def writing() -> bool:
        if not promoted_at:
            return sim.now < kill_at + NO_PROMOTION_CAP_MS * MS
        return sim.now < promoted_at[0] + after_promotion_ms * MS

    def writer(cid, client):
        i = 0
        # Write until well after failover has completed.
        while writing():
            key = f"c{cid}-k{i:06d}".encode()
            value = f"v{cid}-{i}".encode()
            try:
                status = yield from client.put(key, value)
                if status is Status.OK:
                    acked[key] = value
            except RequestTimeout:
                timeouts["n"] += 1
                # Back off briefly and retry through (possibly new) routing.
                yield sim.timeout(50 * MS)
                continue
            i += 1

    # Single-attempt clients: this test exercises the hand-rolled
    # retry-on-timeout loop above, not the built-in replay engine.
    clients = [cluster.client(i % 2, deadline_us=0) for i in range(4)]
    sim.process(killer())
    cluster.run(*[writer(i, c) for i, c in enumerate(clients)])
    assert ha.swat.failovers == 1
    assert timeouts["n"] >= 1  # the crash was actually observed
    shard_id = cluster.routing.shard_ids()[0]
    survivor = cluster.routing.resolve(shard_id).store.dump()
    lost = {k: v for k, v in acked.items() if survivor.get(k) != v}
    assert lost == {}, f"{len(lost)} acknowledged writes lost"
    # Plenty of writes landed both before and after the failover.
    assert len(acked) > 100


@pytest.mark.soak
def test_failover_during_write_storm_loses_no_acked_write():
    # 2,023.8 ms: what followed the promotion when this soak still wrote
    # to a fixed kill + 4.5 s and detection waited out the 2 s ZK
    # session (promotion at kill + 2,476.2 ms).
    _write_storm_through_failover(2_024)


def test_failover_during_short_write_storm_loses_no_acked_write():
    """Tier-1 twin of the soak above: same storm, same assertions, cut
    274 ms after the promotion (what followed it when the twin wrote to a
    fixed kill + 500 ms and detection took 226 ms) — without the ~790k
    inserts whose ever-longer bucket chains make the soak slow."""
    _write_storm_through_failover(274, coord=FAST_HA)


def test_reads_resume_after_failover_with_stale_pointers():
    """Cached remote pointers into the dead machine fail cleanly (RC retry
    exhaustion) and reads recover via the promoted shard."""
    cfg = SimConfig().with_overrides(
        replication={"replicas": 1},
        client={"op_timeout_ns": 5 * MS},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.enable_ha()
    cluster.start()
    sim = cluster.sim
    client = cluster.client()

    def load():
        for i in range(10):
            yield from client.put(f"k{i}".encode(), f"v{i}".encode())
        # Prime pointers AND popularity: explicit lease renewals stretch
        # the lease well past the failover window, so the stale pointers
        # are still trusted and the dead-NIC path is what detects them.
        for _ in range(8):
            for i in range(10):
                yield from client.lease_renew(f"k{i}".encode())

    cluster.run(load())
    sim.run(until=sim.now + 20 * MS)
    cluster.servers[0].kill()
    sim.run(until=sim.now + 4_000 * MS)

    def verify():
        for i in range(10):
            value = yield from client.get(f"k{i}".encode())
            assert value == f"v{i}".encode()

    cluster.run(verify())
    # The stale pointers were detected as invalid (dead NIC / RETRY_EXC).
    assert client.cache.invalid_hits >= 1


def test_double_failure_without_remaining_replica_is_detected():
    cfg = SimConfig().with_overrides(
        replication={"replicas": 1},
        client={"op_timeout_ns": 5 * MS},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    ha = cluster.enable_ha()
    cluster.start()
    sim = cluster.sim
    client = cluster.client()

    def load():
        yield from client.put(b"k", b"v")

    cluster.run(load())
    sim.run(until=sim.now + 20 * MS)
    # First failure: promoted onto the replica machine.
    cluster.servers[0].kill()
    sim.run(until=sim.now + 4_000 * MS)
    assert ha.swat.failovers == 1
    # Second failure: the promoted primary has no secondary left.
    shard_id = cluster.routing.shard_ids()[0]
    promoted = cluster.routing.resolve(shard_id)
    promoted.kill()
    promoted.machine.nic.fail()
    sim.run(until=sim.now + 4_000 * MS)
    # The loss is counted once: the lost shard's registration is deleted,
    # so no leader probes (and condemns, fences, counts) it again.
    assert cluster.metrics.counter("swat.data_loss").value == 1
    assert cluster.metrics.counter("swat.fenced").value == 2
    assert shard_id not in ha.swat.prober.watched()
    assert not ha.zk.node_exists(f"/shards/{shard_id}")


def test_failover_with_pytest_marker_sanity():
    # Guard: enable_ha registers every primary's heartbeat word, and
    # the elected leader probes each of them.
    cluster = HydraCluster(
        config=SimConfig().with_overrides(replication={"replicas": 1}),
        n_server_machines=1, shards_per_server=2)
    ha = cluster.enable_ha()
    cluster.start()
    cluster.sim.run(until=20 * MS)
    shard_ids = cluster.routing.shard_ids()
    assert len(shard_ids) == 2
    for shard_id in shard_ids:
        assert ha.zk.node_exists(f"/shards/{shard_id}")
    assert ha.swat.prober.watched() == set(shard_ids)
    with pytest.raises(RuntimeError):
        cluster.start()  # double start rejected
