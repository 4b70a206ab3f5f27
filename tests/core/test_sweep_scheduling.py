"""Server-side sweep scalability: occupancy probing, ready hints,
doorbell-batched responses, and connection teardown on kill."""

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
    on = run_batch_workload(sweep_config())
    off = run_batch_workload(sweep_config(occupancy_word=False))
    assert on.metrics.counter("shard.sweeps").value > 0
    # The word saves per-slot probes whenever a swept buffer is not
    # fully announced; with it off every swept slot is probed.
    assert on.metrics.counter("shard.probes_skipped").value > 0
    probed_on = on.metrics.counter("shard.probes").value
    skipped_on = on.metrics.counter("shard.probes_skipped").value
    assert probed_on > 0
    # Same workload, same 16-slot buffers: swept slots split into probed
    # + skipped only when the occupancy word is present.
    assert probed_on < probed_on + skipped_on
    assert off.metrics.counter("shard.probes_skipped").value == 0


def test_occupancy_off_probes_every_slot():
    cluster = run_batch_workload(sweep_config(occupancy_word=False))
    assert cluster.metrics.counter("shard.probes_skipped").value == 0
    assert cluster.metrics.counter("shard.probes").value > 0
    conn = cluster.shards()[0].conns[0]
    assert conn.layout.occupancy is False
    assert conn.req_occ_rptr is None


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


def test_ready_hints_off_keeps_full_sweeps():
    cluster = run_batch_workload(sweep_config(ready_hints=False))
    # Every sweep is a full sweep; the separate safety-net counter stays
    # untouched because there is no ready set to backstop.
    assert cluster.metrics.counter("shard.full_sweeps").value == 0
    assert cluster.metrics.counter("shard.sweeps").value > 0


def test_batched_responses_coalesce_doorbells():
    cluster = run_batch_workload(sweep_config())
    coalesced = cluster.metrics.counter("shard.resp_coalesced").value
    doorbells = cluster.metrics.counter("shard.resp_doorbells").value
    requests = cluster.metrics.counter("shard.requests").value
    assert coalesced > 0
    # Coalescing means strictly fewer doorbells than responses.
    assert doorbells + coalesced == requests
    assert doorbells < requests


def test_batching_off_rings_per_response():
    cluster = run_batch_workload(sweep_config(resp_doorbell_batch=0))
    assert cluster.metrics.counter("shard.resp_coalesced").value == 0
    assert cluster.metrics.counter("shard.resp_doorbells").value == \
        cluster.metrics.counter("shard.requests").value


def test_drain_budget_defers_hot_connections():
    # Budget 2 on a 48-op batch per sweep: the sweep must hand the rest
    # of the snapshot back (re-announced, connection re-marked ready) and
    # still complete every operation.
    cluster = run_batch_workload(sweep_config(sweep_drain_budget=2),
                                 n_clients=4)
    deferred = cluster.metrics.counter("shard.drain_deferred").value
    assert deferred > 0
    # Nothing deferred was lost: run_batch_workload asserted every PUT
    # and GET completed.


def test_drain_budget_zero_drains_everything():
    cluster = run_batch_workload(sweep_config(), n_clients=4)
    assert cluster.metrics.counter("shard.drain_deferred").value == 0


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
    # Window-1 default config with all three layers on: plain roundtrip.
    cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
    cluster.start()
    client = cluster.client()

    def app():
        assert (yield from client.put(b"k", b"v")) is Status.OK
        assert (yield from client.get(b"k")) == b"v"

    cluster.run(app())
