"""Failover while a workload is running: liveness + zero acked-write loss."""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import RequestTimeout
from repro.protocol import Status

MS = 1_000_000


#: Coordination timing that detects the kill in ~200 ms instead of ~2 s,
#: so the short twins reach promotion well inside their horizon.
FAST_HA = {"heartbeat_ns": 50 * MS, "session_timeout_ns": 200 * MS}


def _write_storm_through_failover(horizon_ms, coord=None):
    """Four single-attempt writers hammer one replicated shard whose
    primary dies at 30 ms; they keep writing until ``horizon_ms`` after
    the kill.  No acknowledged write may be missing afterwards."""
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

    def killer():
        yield sim.timeout(kill_at)
        cluster.servers[0].kill()

    def writer(cid, client):
        i = 0
        # Write until well after failover has completed.
        while sim.now < kill_at + horizon_ms * MS:
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
    _write_storm_through_failover(4_500)


def test_failover_during_short_write_storm_loses_no_acked_write():
    """Tier-1 twin of the soak above: same storm, same assertions, cut at
    kill + 500 ms with ~200 ms failure detection — past promotion, but
    without the ~790k inserts whose ever-longer bucket chains make the
    soak slow."""
    _write_storm_through_failover(500, coord=FAST_HA)


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
    assert cluster.metrics.counter("swat.data_loss").value >= 1


def test_failover_with_pytest_marker_sanity():
    # Guard: enable_ha on a started cluster still registers agents.
    cluster = HydraCluster(
        config=SimConfig().with_overrides(replication={"replicas": 1}),
        n_server_machines=1, shards_per_server=2)
    ha = cluster.enable_ha()
    cluster.start()
    cluster.sim.run(until=20 * MS)
    assert len(ha.agents) == 2
    with pytest.raises(RuntimeError):
        cluster.start()  # double start rejected
