"""End-to-end consistency: storms, races, reclamation, determinism."""

import numpy as np

from repro import HydraCluster, SimConfig
from repro.kvmem import POISON_BYTE, parse_item
from repro.protocol import Status
from repro.rdma import RemotePointer


def test_mixed_op_storm_matches_model():
    """Many clients hammer the cluster; the final state must equal a
    sequential model (per-key ops are issued by a single owner client, so
    the model is deterministic)."""
    cluster = HydraCluster(n_server_machines=1, shards_per_server=4,
                           n_client_machines=2)
    cluster.start()
    n_clients, keys_per_client, rounds = 8, 10, 12
    model: dict[bytes, bytes] = {}

    def worker(cid, client, rng):
        for r in range(rounds):
            for k in range(keys_per_client):
                key = f"c{cid}-k{k}".encode()
                roll = rng.random()
                if roll < 0.5:
                    value = f"v{cid}-{r}-{k}".encode()
                    status = yield from client.put(key, value)
                    assert status is Status.OK
                    model[key] = value
                elif roll < 0.65:
                    status = yield from client.delete(key)
                    expected = (Status.OK if key in model
                                else Status.NOT_FOUND)
                    assert status is expected
                    model.pop(key, None)
                else:
                    got = yield from client.get(key)
                    assert got == model.get(key)

    procs = []
    for cid in range(n_clients):
        client = cluster.client(cid % 2)
        rng = np.random.default_rng(100 + cid)
        procs.append(worker(cid, client, rng))
    cluster.run(*procs)
    final = {}
    for shard in cluster.shards():
        final.update(shard.store.dump())
    assert final == model


def test_stale_read_detected_never_garbage():
    """A stale remote pointer within the lease window returns the *dead*
    old item (detected via the guardian); the client falls back and gets
    the new value — garbage is never returned."""
    cfg = SimConfig()
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=2,
                           scribble_on_reclaim=True)
    cluster.start()
    c1, c2 = cluster.client(0), cluster.client(1)
    observed = {}

    def app():
        yield from c1.put(b"hot", b"version-1")
        yield from c1.get(b"hot")  # c1 caches the pointer
        stale = c1.cache.lookup(b"hot", cluster.sim.now)
        assert stale is not None
        yield from c2.update(b"hot", b"version-2")
        # Raw RDMA read of the stale pointer: item present but DEAD.
        conn = c1.connection_to(cluster.shards()[0])
        wc = yield conn.client_qp.post_read(stale.rptr)
        item = parse_item(wc.data)
        observed["raw"] = item
        # The client library detects and falls back transparently.
        value = yield from c1.get(b"hot")
        observed["value"] = value

    cluster.run(app())
    assert observed["raw"] is not None
    assert not observed["raw"].live
    assert observed["raw"].value == b"version-1"  # intact until lease ends
    assert observed["value"] == b"version-2"
    assert c1.cache.invalid_hits == 1


def test_lease_protects_extent_until_expiry_then_poison():
    """The retired extent stays parseable for the whole lease, and only
    after expiry is it reclaimed (scribbled) — the lease contract."""
    lease_ms = 2_000_000  # 2 ms lease for a fast test
    cfg = SimConfig().with_overrides(
        hydra={"lease_min_ns": lease_ms, "lease_max_ns": lease_ms * 4},
        memory={"reclaim_period_ns": 100_000},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, scribble_on_reclaim=True)
    cluster.start()
    client = cluster.client()
    shard = cluster.shards()[0]
    state = {}

    def app():
        yield from client.put(b"k", b"old-value")
        yield from client.get(b"k")
        entry = client.cache.lookup(b"k", cluster.sim.now)
        state["rptr"] = entry.rptr
        yield from client.update(b"k", b"new-value")
        # Within the lease: dead but intact.
        conn = client.connection_to(shard)
        wc = yield conn.client_qp.post_read(state["rptr"])
        item = parse_item(wc.data)
        assert item is not None and not item.live
        assert item.value == b"old-value"
        # Wait out the lease + a reclaim sweep.
        yield cluster.sim.timeout(lease_ms * 5)
        wc = yield conn.client_qp.post_read(state["rptr"])
        state["after"] = bytes(wc.data)

    cluster.run(app())
    # After reclamation the extent is poison: parse must reject it.
    assert parse_item(state["after"]) is None
    assert POISON_BYTE in state["after"]


def test_expired_lease_entry_not_used_by_client():
    lease = 1_000_000  # 1 ms
    cfg = SimConfig().with_overrides(
        hydra={"lease_min_ns": lease, "lease_max_ns": lease})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    client = cluster.client()

    def app():
        yield from client.put(b"k", b"v")
        yield from client.get(b"k")
        assert b"k" in client.cache._map
        yield cluster.sim.timeout(lease * 3)
        reads_before = cluster.metrics.counter("client.rdma_reads").value
        value = yield from client.get(b"k")  # lease gone: message path
        assert value == b"v"
        assert cluster.metrics.counter("client.rdma_reads").value == \
            reads_before
        assert client.cache.expired == 1

    cluster.run(app())


def test_arena_stays_bounded_under_update_churn():
    """Updates retire extents; after leases lapse and sweeps run, the
    arena's live extents return to ~one per key (no leak)."""
    lease = 500_000
    cfg = SimConfig().with_overrides(
        hydra={"lease_min_ns": lease, "lease_max_ns": lease},
        memory={"reclaim_period_ns": 200_000},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    client = cluster.client()
    shard = cluster.shards()[0]

    def app():
        for r in range(30):
            for k in range(5):
                yield from client.put(f"k{k}".encode(), f"v{r}".encode())
        yield cluster.sim.timeout(lease * 10)

    cluster.run(app())
    assert len(shard.store) == 5
    assert shard.store.alloc.live_extents == 5
    assert shard.store.reclaimer.pending == 0


def test_rdma_read_of_unrelated_region_offset_rejected_or_detected():
    """A (buggy/malicious) pointer into the arena at a wrong offset must
    parse as garbage, not as a value."""
    cluster = HydraCluster(n_server_machines=1, shards_per_server=1)
    cluster.start()
    client = cluster.client()
    shard = cluster.shards()[0]
    out = {}

    def app():
        yield from client.put(b"k", b"value")
        conn = client.connection_to(shard)
        bogus = RemotePointer(shard.store.region.rkey, 8, 48)  # misaligned
        wc = yield conn.client_qp.post_read(bogus)
        out["item"] = parse_item(wc.data)

    cluster.run(app())
    assert out["item"] is None


def test_deterministic_across_runs():
    def run_once():
        from repro.bench.runner import run_hydra_ycsb
        from repro.workloads.ycsb import YcsbSpec, YcsbWorkload
        wl = YcsbWorkload(YcsbSpec(name="det", n_records=800, n_ops=800,
                                   get_fraction=0.8, seed=5))
        cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
        res = run_hydra_ycsb(cluster, wl, n_clients=6)
        return (res.measured_ops, res.duration_ns,
                res.get_latency.mean_us, cluster.sim.now)

    assert run_once() == run_once()


def test_send_recv_mode_full_storm():
    cfg = SimConfig().with_overrides(
        hydra={"rdma_write_messaging": False},
        client={"rptr_cache_enabled": False})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=2)
    cluster.start()
    model = {}

    def worker(cid, client):
        for i in range(40):
            key = f"c{cid}-{i % 8}".encode()
            value = f"v{cid}-{i}".encode()
            assert (yield from client.put(key, value)) is Status.OK
            model[key] = value
            assert (yield from client.get(key)) == value

    cluster.run(*[worker(cid, cluster.client()) for cid in range(4)])
    final = {}
    for shard in cluster.shards():
        final.update(shard.store.dump())
    assert final == model
