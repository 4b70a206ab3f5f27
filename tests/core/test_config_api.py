"""SimConfig plumbing and the HydraCluster facade."""

import pytest

from repro import HydraCluster, SimConfig
from repro.config import NicConfig
from repro.core import RoutingTable, StaticRouter
from repro.protocol import Status


def test_with_overrides_is_nondestructive():
    base = SimConfig()
    derived = base.with_overrides(client={"rptr_cache_enabled": False},
                                  replication={"replicas": 2})
    assert base.client.rptr_cache_enabled is True
    assert derived.client.rptr_cache_enabled is False
    assert derived.replication.replicas == 2
    assert base.replication.replicas == 0
    # Untouched sections are shared values, equal configuration.
    assert derived.fabric.propagation_ns == base.fabric.propagation_ns


def test_with_overrides_unknown_field_rejected():
    with pytest.raises(TypeError):
        SimConfig().with_overrides(hydra={"bogus_field": 1})


def test_with_overrides_unknown_section_rejected():
    with pytest.raises(AttributeError):
        SimConfig().with_overrides(nonexistent={"x": 1})


def test_qp_penalty_monotonic():
    nic = NicConfig()
    values = [nic.qp_penalty_ns(n) for n in (1, 256, 300, 400, 600, 1000)]
    assert values[0] == values[1] == 0
    assert all(a <= b for a, b in zip(values[1:], values[2:]))


def test_serialization_helpers():
    cfg = SimConfig()
    assert cfg.fabric.serialization_ns(5000) == 1000  # 5 B/ns
    assert cfg.tcp.serialization_ns(1500) == 1000     # 1.5 B/ns
    assert cfg.cpu.memcpy_ns(120) == 10               # 12 B/ns
    assert cfg.cpu.cacheline_ns(2) == 2 * cfg.cpu.cacheline_local_ns
    assert cfg.cpu.cacheline_ns(2, remote=True) == \
        2 * cfg.cpu.cacheline_remote_ns


def test_routing_table():
    rt = RoutingTable()

    class FakeShard:
        pass

    a, b = FakeShard(), FakeShard()
    rt.set("s0", a)
    rt.set("s1", b)
    assert rt.resolve("s0") is a
    assert set(rt.shard_ids()) == {"s0", "s1"}
    assert set(rt.live_shards()) == {a, b}
    rt.set("s0", b)  # failover swap
    assert rt.resolve("s0") is b
    with pytest.raises(KeyError):
        rt.resolve("ghost")


def test_static_router():
    from repro.core import Shard  # noqa: F401 - type only

    class FakeShard:
        def __init__(self, name):
            self.shard_id = name

    with pytest.raises(ValueError):
        StaticRouter([])
    one = StaticRouter([FakeShard("a")])
    assert one.route(b"k").shard_id == "a"
    many = StaticRouter([FakeShard("a"), FakeShard("b")])
    owners = {many.route(f"key-{i}".encode()).shard_id for i in range(50)}
    assert owners == {"a", "b"}


def test_cluster_topology_and_ring():
    cluster = HydraCluster(n_server_machines=2, shards_per_server=3,
                           n_client_machines=2)
    assert len(cluster.server_machines) == 2
    assert len(cluster.client_machines) == 2
    assert len(cluster.ring) == 6
    assert len(cluster.shards()) == 6
    # Every machine is cabled to both networks.
    for m in cluster.server_machines + cluster.client_machines:
        assert m.nic is not None and m.tcp is not None
    # Routing covers the ring.
    for sid in cluster.ring.members:
        assert cluster.routing.resolve(sid).shard_id == sid


def test_cluster_route_is_consistent_with_ring():
    cluster = HydraCluster(n_server_machines=1, shards_per_server=4)
    for i in range(100):
        key = f"key-{i}".encode()
        assert cluster.route(key).shard_id == cluster.ring.owner_of_key(key)


def test_cluster_double_start_rejected():
    cluster = HydraCluster(n_server_machines=1, shards_per_server=1)
    cluster.start()
    with pytest.raises(RuntimeError):
        cluster.start()


def test_cluster_run_multiple_processes():
    cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
    cluster.start()
    c1, c2 = cluster.client(), cluster.client()
    done = []

    def w(c, tag):
        yield from c.put(tag, b"v")
        done.append(tag)

    cluster.run(w(c1, b"a"), w(c2, b"b"))
    assert sorted(done) == [b"a", b"b"]


def test_rptr_stats_aggregation():
    cluster = HydraCluster(n_server_machines=1, shards_per_server=1,
                           n_client_machines=2)
    cluster.start()
    c1, c2 = cluster.client(0), cluster.client(1)

    def app(c):
        yield from c.put(b"k", b"v")
        yield from c.get(b"k")
        yield from c.get(b"k")

    cluster.run(app(c1), app(c2))
    stats = cluster.rptr_stats()
    assert stats["successful_hits"] >= 2
    assert stats["entries"] >= 1


def test_client_on_server_machine_colocated():
    cluster = HydraCluster(n_server_machines=1, shards_per_server=2,
                           n_client_machines=1)
    cluster.start()
    colo = cluster.client_on(cluster.server_machines[0])

    def app():
        assert (yield from colo.put(b"k", b"v")) is Status.OK
        assert (yield from colo.get(b"k")) == b"v"

    cluster.run(app())
