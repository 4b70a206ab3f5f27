"""Server-side sweep scalability: occupancy probing, ready hints,
doorbell-batched responses (Send/Recv's one Send per response), and
connection teardown on kill."""

from repro import HydraCluster, SimConfig
from repro.protocol import Status

KEYS = [f"sw-{i:03d}".encode() for i in range(48)]


def sweep_config(**hydra):
    return SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 16, **hydra},
        client={"max_inflight_per_conn": 16, "rptr_cache_enabled": False})


def run_batch_workload(config, n_clients=1):
    cluster = HydraCluster(config=config, n_server_machines=1,
                           shards_per_server=1,
                           n_client_machines=max(1, n_clients // 4))
    cluster.start()
    clients = [cluster.client(i % max(1, n_clients // 4))
               for i in range(n_clients)]

    def app(client, cid):
        keys = [k + str(cid).encode() for k in KEYS]
        statuses = yield from client.put_many([(k, b"v" * 24) for k in keys])
        assert all(s is Status.OK for s in statuses)
        values = yield from client.get_many(keys)
        assert values == [b"v" * 24] * len(keys)

    cluster.run(*(app(c, i) for i, c in enumerate(clients)))
    return cluster


def test_occupancy_word_skips_idle_slots():
    cluster = run_batch_workload(sweep_config(), n_clients=4)
    m = cluster.metrics
    requests = m.counter("shard.requests").value
    assert m.counter("shard.sweeps").value > 0
    # Every request buffer carries the word; a sweep probes only the
    # slots it announces, so probes track requests, not swept slots.
    assert all(c.layout.occupancy and c.req_occ_rptr is not None
               for c in cluster.shards()[0].conns)
    assert m.counter("shard.probes_skipped").value > 0
    assert requests <= m.counter("shard.probes").value <= 1.5 * requests


def test_ready_hints_avoid_sweeping_clean_connections():
    # 8 connections, but the workload phases mean most sweeps find only
    # a subset dirty; with hints the safety-net full sweeps are rare.
    cluster = run_batch_workload(sweep_config(), n_clients=8)
    sweeps = cluster.metrics.counter("shard.sweeps").value
    full = cluster.metrics.counter("shard.full_sweeps").value
    assert sweeps > 0
    # Most sweeps are hint-driven; safety-net full sweeps are the rare
    # 1-in-FULL_SWEEP_EVERY backstop.
    assert full < sweeps / 2


def test_batched_responses_coalesce_doorbells():
    cluster = run_batch_workload(sweep_config())
    coalesced = cluster.metrics.counter("shard.resp_coalesced").value
    doorbells = cluster.metrics.counter("shard.resp_doorbells").value
    requests = cluster.metrics.counter("shard.requests").value
    assert coalesced > 0
    # Coalescing means strictly fewer doorbells than responses.
    assert doorbells + coalesced == requests
    assert doorbells < requests


def test_sendrecv_answers_each_request_with_its_own_send():
    cluster = run_batch_workload(sweep_config(rdma_write_messaging=False))
    m = cluster.metrics
    assert m.counter("shard.resp_doorbells").value == 0
    assert m.counter("shard.resp_coalesced").value == 0
    # Client request Sends plus one response Send per request.
    assert m.counter("rdma.send.ops").value == \
        2 * m.counter("shard.requests").value


def test_kill_tears_down_connections():
    cluster = run_batch_workload(sweep_config())
    shard = cluster.shards()[0]
    conns = list(shard.conns)
    assert conns and all(c.shard_qp.connected for c in conns)
    shard.kill()
    # The dead process's QPs no longer linger in the fabric.
    for conn in conns:
        assert not conn.shard_qp.connected
        assert not conn.client_qp.usable
    assert not shard.nic.qps


def test_seed_defaults_still_behave_stop_and_wait():
    # Window-1 default config: plain roundtrip.
    cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
    cluster.start()
    client = cluster.client()

    def app():
        assert (yield from client.put(b"k", b"v")) is Status.OK
        assert (yield from client.get(b"k")) == b"v"

    cluster.run(app())
