"""HydraDB's TCP/IP transport mode (§6: 'HydraDB also supports TCP/IP')."""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import ShardUnavailable
from repro.protocol import Status


def tcp_cluster(**kw):
    cfg = SimConfig().with_overrides(hydra={"transport": "tcp"})
    kw.setdefault("n_server_machines", 1)
    kw.setdefault("shards_per_server", 2)
    cluster = HydraCluster(config=cfg, **kw)
    cluster.start()
    return cluster


def test_full_op_set_over_tcp():
    cluster = tcp_cluster()
    client = cluster.client()
    assert client.cache is None  # no one-sided reads over TCP

    def app():
        assert (yield from client.put(b"k", b"v1")) is Status.OK
        assert (yield from client.get(b"k")) == b"v1"
        assert (yield from client.insert(b"k", b"x")) is Status.EXISTS
        assert (yield from client.update(b"k", b"v2")) is Status.OK
        assert (yield from client.get(b"k")) == b"v2"
        assert (yield from client.delete(b"k")) is Status.OK
        assert (yield from client.get(b"k")) is None

    cluster.run(app())


def test_each_shard_gets_its_own_port():
    cluster = tcp_cluster(shards_per_server=4)
    ports = [s.tcp_port for s in cluster.shards()]
    assert len(set(ports)) == 4
    assert all(p >= 7100 for p in ports)


def test_tcp_mode_consistency_storm():
    cluster = tcp_cluster()
    model = {}

    def worker(cid, client):
        for i in range(25):
            key, value = f"c{cid}-{i % 6}".encode(), f"v{cid}-{i}".encode()
            assert (yield from client.put(key, value)) is Status.OK
            model[key] = value
            assert (yield from client.get(key)) == value

    cluster.run(*[worker(cid, cluster.client()) for cid in range(4)])
    final = {}
    for shard in cluster.shards():
        final.update(shard.store.dump())
    assert final == model


def test_tcp_latency_order_of_magnitude_above_rdma():
    def one_get(cfg):
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=1)
        cluster.start()
        client = cluster.client()
        out = {}

        def app():
            yield from client.put(b"k", b"v" * 32)
            t0 = cluster.sim.now
            yield from client.get(b"k")
            out["lat"] = cluster.sim.now - t0

        cluster.run(app())
        return out["lat"]

    lat_rdma = one_get(SimConfig())
    lat_tcp = one_get(SimConfig().with_overrides(
        hydra={"transport": "tcp"}))
    assert lat_tcp > 10 * lat_rdma


def test_tcp_transport_with_replication():
    cfg = SimConfig().with_overrides(hydra={"transport": "tcp"},
                                     replication={"replicas": 1})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    client = cluster.client()

    def app():
        for i in range(10):
            yield from client.put(f"k{i}".encode(), b"v" * 8)

    cluster.run(app())
    cluster.sim.run(until=cluster.sim.now + 10_000_000)
    shard = cluster.shards()[0]
    sec = cluster.secondaries[shard.shard_id][0]
    assert sec.store.dump() == shard.store.dump()


def test_pipelined_connection_drains_queue_and_batches_responses():
    """One connection with several requests in flight: a single epoll
    wake drains the ready queue and the responses flush as one batched
    syscall (the TCP analogue of doorbell coalescing)."""
    from repro.protocol import Op, Request, Response

    cluster = tcp_cluster(shards_per_server=1)
    shard = cluster.shards()[0]
    machine = cluster.client().machine
    done = []

    def pipelined():
        conn = yield machine.tcp.connect(shard.machine.tcp, shard.tcp_port)
        # A 1 MiB PUT pins the single shard thread long enough for the
        # small requests behind it to pile onto the epoll ready queue.
        big = Request(op=Op.PUT, key=b"big", value=b"B" * (1 << 20),
                      req_id=99)
        reqs = [Request(op=Op.PUT, key=f"p{i}".encode(), value=b"v",
                        req_id=i) for i in range(8)]
        yield conn.send_many([(big.encode(), big.wire_len + 40)] +
                             [(r.encode(), r.wire_len + 40) for r in reqs])
        got = {}
        while len(got) < len(reqs) + 1:
            payload, _n = yield conn.recv()
            resp = Response.decode(payload)
            got[resp.req_id] = resp.status
        assert all(s is Status.OK for s in got.values())
        done.append(True)

    cluster.run(pipelined())
    assert done == [True]
    assert cluster.metrics.counter("shard.tcp_drained").value > 0
    assert cluster.metrics.counter("shard.tcp_resp_batched").value > 0


def test_request_before_start_rejected():
    cfg = SimConfig().with_overrides(hydra={"transport": "tcp"})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    client = cluster.client()

    def app():
        with pytest.raises(ShardUnavailable):
            yield from client.get(b"k")

    cluster.sim.run(until=cluster.sim.process(app()))


def test_tcp_with_shard_variants_rejected():
    for overrides in ({"transport": "tcp", "pipelined_shards": True},
                      {"transport": "tcp", "subshards": 4}):
        cfg = SimConfig().with_overrides(hydra=overrides)
        with pytest.raises(ValueError, match="TCP transport"):
            HydraCluster(config=cfg, n_server_machines=1,
                         shards_per_server=1)


def test_tcp_mode_failover_recovers():
    """SWAT promotion works in TCP mode: the promoted shard opens its own
    listener and clients reconnect lazily."""
    MS = 1_000_000
    cfg = SimConfig().with_overrides(
        hydra={"transport": "tcp"}, client={"op_timeout_ns": 5 * MS},
        replication={"replicas": 1})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.enable_ha()
    cluster.start()
    client = cluster.client()

    def load():
        for i in range(10):
            yield from client.put(f"k{i}".encode(), f"v{i}".encode())

    cluster.run(load())
    cluster.sim.run(until=cluster.sim.now + 20 * MS)
    cluster.servers[0].kill()
    cluster.servers[0].machine.tcp.fail()
    cluster.sim.run(until=cluster.sim.now + 4_000 * MS)

    def verify():
        for i in range(10):
            assert (yield from client.get(f"k{i}".encode())) == \
                f"v{i}".encode()

    cluster.run(verify())
