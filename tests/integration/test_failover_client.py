"""Failover-aware client: retries, deadlines, and the HydraError taxonomy.

The tentpole contract under test: with the default deadline budget, a
primary crash mid-workload is invisible to applications — every public
operation replays through the versioned routing table onto the promoted
secondary, no acked write is lost, and the blackout is bounded by
detection (ZK session expiry) + promotion, not by anything the client
adds on top.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import (BadStatus, HydraError, LifecycleError,
                        RequestTimeout, RoutingTable, ShardUnavailable,
                        SlotOverflow)
from repro.core.api import HydraCluster as _ApiCluster
from repro.protocol import Status

MS = 1_000_000


def ha_cluster(n_client_machines=1, coord=None):
    cfg = SimConfig().with_overrides(
        replication={"replicas": 1},
        client={"op_timeout_ns": 5 * MS},
        coord=coord or {},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1,
                           n_client_machines=n_client_machines)
    ha = cluster.enable_ha()
    cluster.start()
    return cluster, ha


# -- the tentpole: ride-through under load --------------------------------
def _ride_through_failover(horizon_ms, coord=None):
    """Kill the primary mid-write-storm (writers run until ``horizon_ms``
    after the kill): zero client-visible exceptions, zero lost acked
    writes, bounded blackout, failover metrics recorded."""
    cluster, ha = ha_cluster(n_client_machines=2, coord=coord)
    sim = cluster.sim
    acked: dict[bytes, bytes] = {}
    exceptions: list[BaseException] = []
    completions: list[int] = []
    kill_at = 30 * MS

    def killer():
        yield sim.timeout(kill_at)
        cluster.servers[0].kill()

    def writer(cid, client):
        i = 0
        while sim.now < kill_at + horizon_ms * MS:
            key = f"c{cid}-k{i:06d}".encode()
            value = f"v{cid}-{i}".encode()
            try:
                status = yield from client.put(key, value)
            except HydraError as exc:  # pragma: no cover - must not happen
                exceptions.append(exc)
                return
            if status is Status.OK:
                acked[key] = value
                completions.append(sim.now)
            i += 1

    clients = [cluster.client(i % 2) for i in range(4)]
    sim.process(killer())
    cluster.run(*[writer(i, c) for i, c in enumerate(clients)])
    assert exceptions == []
    assert ha.swat.failovers == 1
    # No acked write may be missing from the promoted store.
    shard_id = cluster.routing.shard_ids()[0]
    survivor = cluster.routing.resolve(shard_id).store.dump()
    lost = {k: v for k, v in acked.items() if survivor.get(k) != v}
    assert lost == {}, f"{len(lost)} acknowledged writes lost"
    assert len(acked) > 100
    # The client-side failover machinery fired and recorded its latency.
    assert cluster.metrics.counter("client.retries").value >= 1
    assert cluster.metrics.counter("client.failovers").value >= 1
    assert cluster.metrics.tally("client.failover_latency_ns").count >= 1
    # Blackout (largest inter-completion gap straddling the kill) is
    # bounded by detection + promotion, with headroom for backoff: well
    # under the 4s deadline budget and over in time for more traffic.
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    blackout = max(gaps)
    assert blackout < 3_500 * MS
    after = [t for t in completions if t > kill_at + blackout]
    assert len(after) > 50  # service genuinely resumed


@pytest.mark.soak
def test_failover_under_load_is_invisible_to_clients():
    _ride_through_failover(4_000)


def test_failover_under_short_load_is_invisible_to_clients():
    """Tier-1 twin of the soak above: same contract, writers stop at
    kill + 500 ms with ~200 ms failure detection, so the blackout ends
    well inside the run."""
    _ride_through_failover(
        500, coord={"heartbeat_ns": 50 * MS, "session_timeout_ns": 200 * MS})


def test_get_and_get_many_ride_through_failover():
    cluster, ha = ha_cluster()
    client = cluster.client()
    keys = [f"k{i}".encode() for i in range(8)]

    def load():
        for k in keys:
            yield from client.put(k, b"v-" + k)

    cluster.run(load())
    cluster.sim.run(until=cluster.sim.now + 20 * MS)
    cluster.servers[0].kill()

    def during():
        # Single-key and batched GETs issued mid-blackout both complete.
        assert (yield from client.get(keys[0])) == b"v-" + keys[0]
        values = yield from client.get_many(keys + [b"missing"])
        assert values == [b"v-" + k for k in keys] + [None]

    cluster.run(during())
    assert ha.swat.failovers == 1 or cluster.routing.generation >= 1


def test_put_many_rides_through_failover():
    cluster, ha = ha_cluster()
    client = cluster.client()
    pairs = [(f"pm{i}".encode(), f"w{i}".encode()) for i in range(8)]

    def before():
        yield from client.put(b"warm", b"up")

    cluster.run(before())
    cluster.sim.run(until=cluster.sim.now + 20 * MS)
    cluster.servers[0].kill()

    def during():
        statuses = yield from client.put_many(pairs)
        assert statuses == [Status.OK] * len(pairs)

    cluster.run(during())
    shard_id = cluster.routing.shard_ids()[0]
    survivor = cluster.routing.resolve(shard_id).store.dump()
    for key, value in pairs:
        assert survivor[key] == value


def test_deadline_exhaustion_raises_shard_unavailable():
    # No replicas: nothing can be promoted, so the budget must lapse.
    cfg = SimConfig().with_overrides(
        client={"op_timeout_ns": 5 * MS, "op_deadline_us": 100_000})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    client = cluster.client()
    sim = cluster.sim

    def app():
        yield from client.put(b"k", b"v")
        cluster.servers[0].kill()
        t0 = sim.now
        with pytest.raises(ShardUnavailable):
            yield from client.get(b"k")
        # The budget bounds the stall: deadline plus at most one attempt.
        assert sim.now - t0 <= 2 * 100 * MS
        # ShardUnavailable still satisfies legacy RequestTimeout handlers.
        cluster.servers[0].machine.nic.recover()

    cluster.run(app())
    assert cluster.metrics.counter("client.retries").value >= 1
    assert cluster.metrics.counter("client.failovers").value == 0


# -- error taxonomy -------------------------------------------------------
def test_error_hierarchy_relationships():
    assert issubclass(RequestTimeout, HydraError)
    assert issubclass(ShardUnavailable, RequestTimeout)
    assert issubclass(BadStatus, HydraError)
    # Back-compat: pre-taxonomy handlers caught ValueError/RuntimeError.
    assert issubclass(SlotOverflow, HydraError)
    assert issubclass(SlotOverflow, ValueError)
    assert issubclass(LifecycleError, HydraError)
    assert issubclass(LifecycleError, RuntimeError)
    exc = BadStatus(Status.ERROR, "GET b'k'")
    assert exc.status is Status.ERROR
    assert "ERROR" in str(exc)


def test_public_ops_raise_only_hydra_errors():
    # Grep-level guarantee, enforced structurally: no bare RuntimeError /
    # ValueError raises are left in the client module.
    import inspect

    import repro.core.client as client_mod
    src = inspect.getsource(client_mod)
    assert "raise RuntimeError" not in src
    assert "raise ValueError" not in src or "StaticRouter" in src


# -- routing-table generations --------------------------------------------
def test_routing_generation_bumps_on_swap_only():
    table = RoutingTable()
    table.set("s0", "shard-a")  # initial install: no bump
    assert table.generation == 0
    table.set("s0", "shard-a")  # idempotent republish: no bump
    assert table.generation == 0
    table.set("s0", "shard-b")  # swap: bump
    assert table.generation == 1
    table.set("s1", "other")
    assert table.generation == 1


def test_routing_generation_visible_through_cluster_and_fires_gate():
    cluster, ha = ha_cluster()
    fired = []
    cluster.route_change.wait().callbacks.append(
        lambda ev: fired.append(ev._value))
    assert cluster.generation == 0
    cluster.sim.run(until=cluster.sim.now + 20 * MS)
    cluster.servers[0].kill()
    cluster.sim.run(until=cluster.sim.now + 4_000 * MS)
    assert cluster.generation == 1
    assert fired == [cluster.routing.shard_ids()[0]]


# -- satellite: drop_connection eviction ----------------------------------
def test_drop_connection_evicts_pipeline_state():
    cluster, _ha = ha_cluster()
    client = cluster.client()
    shard = cluster.shards()[0]
    conn = client.connection_to(shard)
    client._pipe(conn).free_slots.clear()  # dirty slot state
    client.drop_connection(shard)
    assert shard not in client.conns
    assert conn.conn_id not in client._pipes
    assert conn not in shard.conns  # the shard stops sweeping it
    # Reconnect starts from a clean slot map.
    conn2 = client.connection_to(shard)
    assert conn2.conn_id != conn.conn_id
    assert client._pipe(conn2).free_slots == list(range(conn2.n_slots))


def test_stale_connection_is_replaced_up_front():
    cluster, _ha = ha_cluster()
    client = cluster.client()
    shard = cluster.shards()[0]
    conn = client.connection_to(shard)
    conn.close()  # QPs destroyed: no longer usable
    assert not conn.client_qp.usable
    conn2 = client.connection_to(shard)
    assert conn2 is not conn
    assert conn2.client_qp.usable


# -- satellite: lifecycle --------------------------------------------------
def test_cluster_context_manager_and_deadline_override():
    with HydraCluster(n_server_machines=1, shards_per_server=1) as cluster:
        assert isinstance(cluster, _ApiCluster)
        client = cluster.client(deadline_us=123)
        assert client.deadline_us == 123
        legacy = cluster.client(deadline_us=0)
        assert legacy.deadline_us == 0
        default = cluster.client()
        assert default.deadline_us == cluster.config.client.op_deadline_us

        def app():
            assert (yield from client.put(b"k", b"v")) is Status.OK
            assert (yield from client.get(b"k")) == b"v"

        cluster.run(app())
        with pytest.raises(LifecycleError):
            cluster.start()
    # __exit__ stopped everything; stop() is idempotent.
    assert all(not s.alive for s in cluster.shards())
    cluster.stop()


def test_get_many_returns_none_per_miss_not_raise():
    with HydraCluster(n_server_machines=1, shards_per_server=2) as cluster:
        client = cluster.client()

        def app():
            yield from client.put(b"present", b"yes")
            values = yield from client.get_many(
                [b"absent0", b"present", b"absent1"])
            assert values == [None, b"yes", None]

        cluster.run(app())
