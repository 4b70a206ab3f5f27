"""Sub-sharded shard instances (§6.3 future-work feature)."""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import Shard
from repro.protocol import Status


def subsharded_config(k=4, **extra):
    overrides = {"subshards": k}
    overrides.update(extra)
    return SimConfig().with_overrides(hydra=overrides)


def make_cluster(k=4, shards_per_server=1, **extra):
    cluster = HydraCluster(config=subsharded_config(k, **extra),
                           n_server_machines=1,
                           shards_per_server=shards_per_server)
    cluster.start()
    return cluster


def test_basic_correctness_across_subshards():
    cluster = make_cluster(k=4)
    shard = cluster.shards()[0]
    assert len(shard.substores) == 4 and len(shard.lanes) == 4
    client = cluster.client()
    model = {}

    def app():
        for i in range(60):
            key, value = f"k{i}".encode(), f"v{i}".encode()
            assert (yield from client.put(key, value)) is Status.OK
            model[key] = value
        for i in range(60):
            assert (yield from client.get(f"k{i}".encode())) == \
                model[f"k{i}".encode()]
        assert (yield from client.delete(b"k0")) is Status.OK
        assert (yield from client.get(b"k0")) is None
        assert (yield from client.insert(b"k1", b"x")) is Status.EXISTS

    cluster.run(app())
    # Keys actually spread over the sub-stores.
    sizes = [len(s) for s in shard.substores]
    assert sum(sizes) == 59
    assert sum(1 for s in sizes if s > 0) >= 3
    assert shard.dump_all() == {k: v for k, v in model.items() if k != b"k0"}


def test_rdma_read_fast_path_works_on_substores():
    cluster = make_cluster(k=2)
    client = cluster.client()

    def app():
        yield from client.put(b"a", b"1")
        yield from client.put(b"b", b"2")
        for key, want in ((b"a", b"1"), (b"b", b"2")):
            yield from client.get(key)          # prime pointer
            assert (yield from client.get(key)) == want  # RDMA read

    cluster.run(app())
    assert client.cache.successful_hits == 2


def test_qp_count_stays_per_instance():
    # 8 regular shards x 6 clients = 48 client QPs on the server NIC;
    # 1 instance x 8 sub-shards x 6 clients = only 6.
    regular = HydraCluster(n_server_machines=1, shards_per_server=8)
    regular.start()
    for _ in range(6):
        regular.client()
    sub = make_cluster(k=8, shards_per_server=1)
    for _ in range(6):
        sub.client()
    # Each connection is a QP pair; count QPs on the server NICs.
    reg_qps = regular.server_machines[0].nic.active_qps
    sub_qps = sub.server_machines[0].nic.active_qps
    assert sub_qps * 8 == reg_qps


def test_cores_used():
    cluster = make_cluster(k=4)
    shard = cluster.shards()[0]
    assert shard.cores_used == 5  # dispatcher + 4 executors


def test_replication_hook_rejected():
    cfg = subsharded_config(k=2)
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.shards()[0].replicator = object()
    with pytest.raises(RuntimeError):
        cluster.start()


def test_invalid_subshard_count():
    from repro.hardware import Machine
    from repro.rdma import Fabric
    from repro.sim import Simulator
    cfg = SimConfig()
    sim = Simulator()
    fabric = Fabric(sim, cfg)
    machine = Machine(sim, 0, cfg)
    fabric.attach(machine)
    core = machine.allocate_core("s")
    with pytest.raises(ValueError):
        Shard(sim, cfg, "s0", machine, core, subshards=-1)
    # Zero sub-shards is a plain shard: no lanes, one store, one core.
    plain = Shard(sim, cfg, "s1", machine, machine.allocate_core("s1"),
                  subshards=0)
    assert not plain.lanes and plain.substores == [plain.store]
    assert plain.cores_used == 1


def test_kill_stops_everything():
    cluster = make_cluster(k=3)
    shard = cluster.shards()[0]
    client = cluster.client()

    def app():
        yield from client.put(b"k", b"v")
        shard.kill()
        yield cluster.sim.timeout(1000)

    cluster.run(app())
    assert not shard.alive
    assert all(not p.is_alive for p in shard._procs)


def test_subsharding_beats_many_shards_past_qp_wall():
    """The §6.3 claim: when the QP count is what saturates the device
    (read-heavy, pointer-cached traffic hitting the NIC), collapsing
    ``shards x clients`` connections down to ``clients`` wins."""
    from repro.bench.runner import run_hydra_ycsb
    from repro.workloads.ycsb import YcsbSpec, YcsbWorkload

    def throughput(cfg, shards, get_fraction, n_records, n_ops):
        wl = YcsbWorkload(YcsbSpec(name="t", n_records=n_records,
                                   n_ops=n_ops, get_fraction=get_fraction,
                                   distribution="zipfian"))
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=shards,
                               n_client_machines=6)
        res = run_hydra_ycsb(cluster, wl, n_clients=60,
                             clients_per_machine=10)
        return res.throughput_mops

    # Read-heavy cached regime: 480 QPs vs 60 QPs.
    plain = throughput(SimConfig(), 8, 1.0, 500, 6000)
    sub = throughput(subsharded_config(k=8), 1, 1.0, 500, 6000)
    assert sub > 1.2 * plain
    # Honest flip side: on message-heavy mixes the single dispatcher
    # serializes and plain sharding keeps the edge.
    plain_w = throughput(SimConfig(), 8, 0.5, 3000, 3000)
    sub_w = throughput(subsharded_config(k=8), 1, 0.5, 3000, 3000)
    assert plain_w > sub_w
