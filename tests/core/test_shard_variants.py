"""The shard's three execution strategies, and the contract each keeps.

``@variants`` runs a test once per strategy of the one ``Shard`` class —
plain, sub-sharded (``subshards``) and pipelined (``pipelined_shards``);
``VARIANTS[variant]`` is the ``hydra`` override that selects it.  The
tests below hold every strategy to the same request-path contract: one
``shard.op.*`` count per request by type, tenant admission and shedding,
the age-bounded response flush, counted hand-off drops on a kill, and
the cores it pins.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.protocol import Op, Status

VARIANTS = {
    "plain": {},
    "subshard": {"subshards": 2},
    "pipelined": {"pipelined_shards": True},
}
variants = pytest.mark.parametrize("variant", list(VARIANTS))

#: Cores one instance of each variant pins (sub-shards: one ingest
#: thread + two lanes; pipelined: two I/O threads + two workers).
CORES = {"plain": 1, "subshard": 3, "pipelined": 4}


def make_cluster(variant, hydra=None, **sections):
    cfg = SimConfig().with_overrides(
        hydra=dict(VARIANTS[variant], msg_slots_per_conn=8, **(hydra or {})),
        client={"rptr_cache_enabled": False, "max_inflight_per_conn": 8},
        **sections)
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.start()
    return cluster, cluster.shards()[0]


def counter(cluster, name):
    return cluster.metrics.counter(name).value


@variants
def test_op_counters_equal_the_issued_ops(variant):
    # No pointer cache and no traversal: every op is one request message.
    cluster, _shard = make_cluster(variant, traversal={"enabled": False})
    client = cluster.client()

    def app():
        for i in range(12):
            assert (yield from client.put(b"k%d" % i, b"v")) is Status.OK
        for i in range(12):
            assert (yield from client.get(b"k%d" % i)) == b"v"
        for i in range(5):
            yield from client.update(b"k%d" % i, b"u")
        for i in range(3):
            yield from client.insert(b"n%d" % i, b"i")
        for i in range(4):
            yield from client.delete(b"k%d" % i)

    cluster.run(app())
    issued = {Op.PUT: 12, Op.GET: 12, Op.UPDATE: 5, Op.INSERT: 3,
              Op.DELETE: 4, Op.LEASE_RENEW: 0}
    for op, n in issued.items():
        assert counter(cluster, f"shard.op.{op.name}") == n, op
    assert counter(cluster, "shard.requests") == sum(issued.values())


@variants
def test_versioned_index_mutations_are_counted_where_exported(variant):
    cluster, shard = make_cluster(variant)
    client = cluster.client()

    def app():
        for i in range(10):
            assert (yield from client.put(b"k%d" % i, b"v")) is Status.OK

    cluster.run(app())
    # A sub-sharded store does not export its index.
    assert shard.store.exported == (variant != "subshard")
    assert counter(cluster, "shard.index_mutations_versioned") == (
        10 if shard.store.exported else 0)


@variants
def test_a_tenant_burst_is_shed(variant):
    cluster, _shard = make_cluster(variant, qos={"server_shed_slots": 1})
    gold = cluster.client(tenant="gold")
    pairs = [(b"burst%d" % i, b"v%d" % i) for i in range(32)]

    def app():
        assert (yield from gold.put_many(pairs)) == [Status.OK] * 32

    cluster.run(app())
    assert counter(cluster, "shard.shed_ops") > 0
    assert counter(cluster, "shard.tenant.gold.shed") == counter(
        cluster, "shard.shed_ops")
    assert cluster.routing.resolve(
        cluster.routing.shard_ids()[0]).dump_all() == dict(pairs)


@variants
@pytest.mark.parametrize("flush_max_ns", [0, 500])
def test_resp_flush_max_ns_triggers_an_age_flush(variant, flush_max_ns):
    cluster, _shard = make_cluster(
        variant, hydra={"resp_flush_max_ns": flush_max_ns})
    clients = [cluster.client() for _ in range(4)]

    def burst(w, client):
        for r in range(4):
            pairs = [(b"w%d.%d.%d" % (w, r, j), b"v") for j in range(8)]
            assert (yield from client.put_many(pairs)) == [Status.OK] * 8

    cluster.run(*(burst(w, c) for w, c in enumerate(clients)))
    assert (counter(cluster, "shard.age_flushes") > 0) == bool(flush_max_ns)


@variants
def test_a_kill_drops_and_counts_queued_handoffs(variant):
    # Executors slower than the ingest thread, so hand-offs queue up.
    cluster, shard = make_cluster(variant, cpu={"build_response_ns": 5_000})
    sim = cluster.sim
    for w in range(4):
        client = cluster.client()
        sim.process(client.put_many([(b"w%d.%d" % (w, j), b"v")
                                     for j in range(8)]))
    queued = 0
    while not (queued if shard.lanes
               else counter(cluster, "shard.requests")):
        sim.step()
        queued = sum(len(q.items) for q in shard._queues)
    shard.kill()
    assert counter(cluster, "shard.dropped_handoffs") == queued
    assert (queued > 0) == bool(shard.lanes)
    assert not any(q.items for q in shard._queues)


@variants
def test_cores_used(variant):
    cluster, shard = make_cluster(variant)
    assert shard.cores_used == CORES[variant]
    assert sum(1 for c in cluster.server_machines[0].cores
               if c.pinned) == CORES[variant]
    assert len(shard.substores) == VARIANTS[variant].get("subshards", 1)


def test_sub_sharded_and_pipelined_together_are_rejected():
    cfg = SimConfig().with_overrides(
        hydra={"subshards": 2, "pipelined_shards": True})
    with pytest.raises(ValueError, match="not both"):
        HydraCluster(config=cfg, n_server_machines=1, shards_per_server=1)
