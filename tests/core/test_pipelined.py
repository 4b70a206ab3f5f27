"""Pipelined-execution ablation shard (§6.2.1)."""

import pytest

from repro import HydraCluster, SimConfig
from repro.protocol import Status


def pipelined_config(**extra):
    return SimConfig().with_overrides(
        hydra={"pipelined_shards": True, **extra},
        client={"rptr_cache_enabled": False})


def test_pipelined_shard_correctness():
    cluster = HydraCluster(config=pipelined_config(), shards_per_server=2)
    cluster.start()
    for shard in cluster.shards():
        # Two I/O threads hand off to two worker lanes on the one store.
        assert len(shard.io_cores) == 2 and len(shard.lanes) == 2
        assert {store for *_, store in shard.lanes} == {shard.store}
    client = cluster.client()

    def app():
        for i in range(30):
            key = f"k{i}".encode()
            assert (yield from client.put(key, b"v" * 16)) is Status.OK
        for i in range(30):
            assert (yield from client.get(f"k{i}".encode())) == b"v" * 16
        assert (yield from client.delete(b"k0")) is Status.OK
        assert (yield from client.get(b"k0")) is None

    cluster.run(app())


def test_pipelined_uses_4x_cores():
    cluster = HydraCluster(config=pipelined_config(), shards_per_server=2)
    shard = cluster.shards()[0]
    assert shard.cores_used == 4
    used = sum(1 for c in cluster.server_machines[0].cores if c.pinned)
    assert used == 8  # 2 instances x (2 io + 2 worker)


def test_pipelined_slower_than_single_threaded():
    """The paper's headline §6.2.1 result, at smoke-test scale."""

    def run_once(cfg):
        cluster = HydraCluster(config=cfg, shards_per_server=1)
        cluster.start()
        clients = [cluster.client() for _ in range(4)]
        done = {}

        def worker(c, wid):
            for i in range(40):
                key = f"w{wid}-{i % 10}".encode()
                yield from c.put(key, b"x" * 32)
                yield from c.get(key)
            done[wid] = cluster.sim.now

        cluster.run(*[worker(c, i) for i, c in enumerate(clients)])
        return max(done.values())

    t_single = run_once(SimConfig().with_overrides(
        client={"rptr_cache_enabled": False}))
    t_pipe = run_once(pipelined_config())
    assert t_pipe > t_single


def test_pipelined_kill_stops_all_threads():
    cluster = HydraCluster(config=pipelined_config(), shards_per_server=1)
    cluster.start()
    shard = cluster.shards()[0]
    client = cluster.client()

    def app():
        yield from client.put(b"k", b"v")
        shard.kill()
        yield cluster.sim.timeout(1000)

    cluster.run(app())
    assert not shard.alive
    assert all(not p.is_alive for p in shard._procs)


def test_pipelined_double_start_rejected():
    cluster = HydraCluster(config=pipelined_config(), shards_per_server=1)
    cluster.start()
    with pytest.raises(RuntimeError):
        cluster.shards()[0].start()
