"""Client <-> shard protocol: message path, RDMA-Read path, consistency."""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import RequestTimeout
from repro.protocol import Status


def mini_cluster(config=None, **kw):
    kw.setdefault("n_server_machines", 1)
    kw.setdefault("shards_per_server", 2)
    cluster = HydraCluster(config=config, **kw)
    cluster.start()
    return cluster


def run(cluster, gen):
    return cluster.run(gen)


def test_put_get_roundtrip():
    cluster = mini_cluster()
    client = cluster.client()

    def app():
        assert (yield from client.put(b"k", b"v")) is Status.OK
        assert (yield from client.get(b"k")) == b"v"
        assert (yield from client.get(b"missing")) is None

    run(cluster, app())


def test_insert_update_delete_statuses():
    cluster = mini_cluster()
    client = cluster.client()

    def app():
        assert (yield from client.insert(b"k", b"v")) is Status.OK
        assert (yield from client.insert(b"k", b"w")) is Status.EXISTS
        assert (yield from client.update(b"k", b"w")) is Status.OK
        assert (yield from client.update(b"no", b"x")) is Status.NOT_FOUND
        assert (yield from client.delete(b"k")) is Status.OK
        assert (yield from client.delete(b"k")) is Status.NOT_FOUND

    run(cluster, app())


def test_second_get_uses_rdma_read():
    cluster = mini_cluster()
    client = cluster.client()

    def app():
        yield from client.put(b"k", b"v")
        yield from client.get(b"k")   # message path; caches pointer
        msgs_before = cluster.metrics.counter("client.messages").value
        reads_before = cluster.metrics.counter("client.rdma_reads").value
        assert (yield from client.get(b"k")) == b"v"
        assert cluster.metrics.counter("client.messages").value == msgs_before
        assert cluster.metrics.counter("client.rdma_reads").value == \
            reads_before + 1
        assert client.cache.successful_hits == 1

    run(cluster, app())


def test_rdma_read_latency_below_message_get():
    cluster = mini_cluster()
    client = cluster.client()
    times = {}

    def app():
        yield from client.put(b"k", b"v" * 32)
        t0 = cluster.sim.now
        yield from client.get(b"k")
        times["message"] = cluster.sim.now - t0
        t0 = cluster.sim.now
        yield from client.get(b"k")
        times["rdma"] = cluster.sim.now - t0

    run(cluster, app())
    assert times["rdma"] < times["message"]
    assert times["rdma"] < 5_000  # one-sided read in a few microseconds


def test_stale_pointer_detected_after_update():
    """§4.2.3: guardian word turns a stale read into a clean retry."""
    cluster = mini_cluster()
    client = cluster.client()
    other = cluster.client()  # separate machine-0 client shares the cache

    def app():
        yield from client.put(b"k", b"v1")
        yield from client.get(b"k")  # cache pointer
        # Another client's update retires the item out-of-place.
        yield from other.update(b"k", b"v2")
        # Shared cache invalidated by other's own update; force staleness by
        # re-priming then updating via a non-sharing path below.
        value = yield from client.get(b"k")
        assert value == b"v2"

    run(cluster, app())


def test_stale_pointer_invalid_hit_without_sharing():
    cfg = SimConfig().with_overrides(client={"rptr_sharing": False})
    cluster = mini_cluster(cfg, n_client_machines=2)
    c1 = cluster.client(0)
    c2 = cluster.client(1)

    def app():
        yield from c1.put(b"k", b"v1")
        yield from c1.get(b"k")       # c1 caches pointer
        yield from c2.update(b"k", b"v2")  # c2 cannot see c1's cache
        value = yield from c1.get(b"k")    # stale read -> fallback
        assert value == b"v2"
        assert c1.cache.invalid_hits == 1

    run(cluster, app())


def test_shared_cache_prevents_cascading_invalidation():
    """§4.2.4: co-located clients share pointers; one update = one miss."""
    cluster = mini_cluster()
    writer = cluster.client()
    readers = [cluster.client() for _ in range(4)]
    shared = readers[0].cache
    assert all(r.cache is shared for r in readers)
    assert writer.cache is shared

    def app():
        yield from writer.put(b"hot", b"v1")
        for r in readers:
            yield from r.get(b"hot")
        yield from writer.update(b"hot", b"v2")  # invalidates shared entry
        before = shared.invalid_hits
        for r in readers:
            assert (yield from r.get(b"hot")) == b"v2"
        # No reader ever performed an invalid RDMA read.
        assert shared.invalid_hits == before

    run(cluster, app())


def test_delete_invalidates_pointer():
    cluster = mini_cluster()
    client = cluster.client()

    def app():
        yield from client.put(b"k", b"v")
        yield from client.get(b"k")
        yield from client.delete(b"k")
        assert (yield from client.get(b"k")) is None

    run(cluster, app())


def test_rptr_cache_disabled_all_gets_are_messages():
    cfg = SimConfig().with_overrides(client={"rptr_cache_enabled": False})
    cluster = mini_cluster(cfg)
    client = cluster.client()
    assert client.cache is None

    def app():
        yield from client.put(b"k", b"v")
        for _ in range(3):
            assert (yield from client.get(b"k")) == b"v"
        assert cluster.metrics.counter("client.rdma_reads").value == 0

    run(cluster, app())


def test_send_recv_mode_roundtrip():
    cfg = SimConfig().with_overrides(hydra={"rdma_write_messaging": False},
                                     client={"rptr_cache_enabled": False})
    cluster = mini_cluster(cfg)
    client = cluster.client()
    times = {}

    def app():
        assert (yield from client.put(b"k", b"v")) is Status.OK
        t0 = cluster.sim.now
        assert (yield from client.get(b"k")) == b"v"
        times["get"] = cluster.sim.now - t0

    run(cluster, app())
    assert times["get"] > 0


def test_send_recv_slower_than_rdma_write_messaging():
    def measure(cfg):
        cluster = mini_cluster(cfg)
        client = cluster.client()
        out = {}

        def app():
            yield from client.put(b"k", b"v")
            t0 = cluster.sim.now
            for _ in range(20):
                yield from client.get(b"k")
            out["t"] = cluster.sim.now - t0

        run(cluster, app())
        return out["t"]

    base = SimConfig().with_overrides(client={"rptr_cache_enabled": False})
    t_write = measure(base)
    t_sr = measure(base.with_overrides(hydra={"rdma_write_messaging": False}))
    assert t_sr > t_write


def test_request_timeout_on_dead_server():
    cfg = SimConfig().with_overrides(client={"op_timeout_ns": 5_000_000})
    cluster = mini_cluster(cfg)
    client = cluster.client()

    def app():
        yield from client.put(b"k", b"v")
        cluster.servers[0].kill()
        with pytest.raises(RequestTimeout):
            yield from client.put(b"k", b"v2")

    run(cluster, app())


def test_large_values_roundtrip():
    cluster = mini_cluster()
    client = cluster.client()
    big = bytes(range(256)) * 16  # 4 KiB

    def app():
        assert (yield from client.put(b"big", big)) is Status.OK
        assert (yield from client.get(b"big")) == big
        assert (yield from client.get(b"big")) == big  # RDMA read path

    run(cluster, app())


def test_many_keys_route_across_shards():
    cluster = mini_cluster(shards_per_server=4)
    client = cluster.client()
    n = 64

    def app():
        for i in range(n):
            yield from client.put(f"key-{i}".encode(), f"v{i}".encode())
        for i in range(n):
            assert (yield from client.get(f"key-{i}".encode())) == \
                f"v{i}".encode()

    run(cluster, app())
    sizes = [len(s.store) for s in cluster.shards()]
    assert sum(sizes) == n
    assert sum(1 for s in sizes if s > 0) >= 3  # spread over shards


def test_concurrent_clients_consistent_counters():
    cluster = mini_cluster()
    clients = [cluster.client() for _ in range(4)]

    def worker(c, wid):
        for i in range(10):
            key = f"w{wid}-k{i}".encode()
            yield from c.put(key, b"x" * 16)
            assert (yield from c.get(key)) == b"x" * 16

    cluster.run(*[worker(c, i) for i, c in enumerate(clients)])
    assert cluster.metrics.counter("shard.requests").value >= 40


def test_lease_renew_op():
    cluster = mini_cluster()
    client = cluster.client()

    def app():
        yield from client.put(b"k", b"v")
        assert (yield from client.lease_renew(b"k")) is Status.OK
        assert (yield from client.lease_renew(b"nope")) is Status.NOT_FOUND

    run(cluster, app())


def test_sleep_backoff_disabled_busy_polls():
    cfg = SimConfig().with_overrides(cpu={"sleep_backoff": False})
    cluster = mini_cluster(cfg, shards_per_server=1)
    client = cluster.client()

    def app():
        yield from client.put(b"k", b"v")
        yield cluster.sim.timeout(5_000_000)  # idle gap
        assert (yield from client.get(b"k")) == b"v"

    run(cluster, app())
    # The shard core was (nearly) fully busy across the idle window.
    assert cluster.shards()[0].core.utilization() > 0.9
