"""Age-bounded response flushes + the occupancy announce mask.

Two latency/CPU refinements of the sweep:

* ``hydra.resp_flush_max_ns`` caps how long a buffered response batch
  may age before its doorbell fires, bounding the latency a long sweep
  can add under steady load;
* the announce mask prunes slots already confirmed-consumed from the
  client's occupancy word, and the shard skips re-announced bits of
  slots whose response it has not posted yet — probes per request stay
  near 1 with a deep in-flight window.
"""

from repro import HydraCluster, SimConfig
from repro.protocol import Op, occ_announce

KEYS = [f"af-{i:03d}".encode() for i in range(64)]


def _cluster(**hydra):
    cfg = SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 8, **hydra},
        client={"max_inflight_per_conn": 8, "rptr_cache_enabled": False})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    for key in KEYS:
        cluster.route(key).store_for_key(key).upsert(key, b"v" * 32, Op.PUT)
    cluster.start()
    return cluster


def _sustained_gets(cluster, n_clients=8, ops=40):
    """Keep the shard continuously busy with overlapping pipelined GETs."""
    checked = [0]

    def worker(w, client):
        for i in range(ops):
            value = yield from client.get(KEYS[(w * 13 + i) % len(KEYS)])
            assert value == b"v" * 32
            checked[0] += 1

    clients = [cluster.client() for _ in range(n_clients)]
    cluster.run(*(worker(w, c) for w, c in enumerate(clients)))
    assert checked[0] == n_clients * ops
    return cluster.metrics


def _burst_gets(cluster, n_clients=8, rounds=8, burst=8):
    """Deep per-sweep backlogs: every client fires a full-window burst,
    so single sweeps run long enough for buffered responses to age."""
    def worker(w, client):
        for r in range(rounds):
            picks = [KEYS[(w * 13 + r * 7 + j) % len(KEYS)]
                     for j in range(burst)]
            values = yield from client.get_many(picks)
            assert values == [b"v" * 32] * burst

    clients = [cluster.client() for _ in range(n_clients)]
    cluster.run(*(worker(w, c) for w, c in enumerate(clients)))
    return cluster.metrics


def _age_flush_run(flush_max_ns):
    return _burst_gets(_cluster(resp_flush_max_ns=flush_max_ns))


def test_aged_batches_flush_before_the_cap():
    metrics = _age_flush_run(10_000)
    assert metrics.counter("shard.age_flushes").value > 0


def test_age_flush_disabled_when_zero():
    metrics = _age_flush_run(0)
    assert metrics.counter("shard.age_flushes").value == 0


def test_age_flush_improves_mean_burst_latency():
    """The age bound must cut the average time responses sit buffered
    (client-visible burst completion time)."""
    def mean_op_ns(flush_max_ns):
        cluster = _cluster(resp_flush_max_ns=flush_max_ns)
        lat = []

        def worker(w, client):
            for r in range(6):
                picks = [KEYS[(w * 13 + r * 7 + j) % len(KEYS)]
                         for j in range(8)]
                t0 = cluster.sim.now
                yield from client.get_many(picks)
                lat.append(cluster.sim.now - t0)

        clients = [cluster.client() for _ in range(8)]
        cluster.run(*(worker(w, c) for w, c in enumerate(clients)))
        return sum(lat) / len(lat)

    bounded = mean_op_ns(10_000)
    unbounded = mean_op_ns(0)
    assert bounded < unbounded, (bounded, unbounded)


def test_announce_mask_prunes_consumed_slots():
    # A pipelined server with a deep in-flight window: the poller
    # consumes frames well ahead of the worker pool's responses, so every
    # occupancy write from the still-issuing clients would re-announce
    # slots the shard consumed sweeps ago.  The mask skips those.
    cluster = _cluster(pipelined_shards=True)
    client = cluster.client()

    def worker(w):
        for i in range(40):
            value = yield from client.get(KEYS[(w * 13 + i) % len(KEYS)])
            assert value == b"v" * 32

    cluster.run(*(worker(w) for w in range(8)))
    probes = cluster.metrics.counter("shard.probes").value
    requests = cluster.metrics.counter("shard.requests").value
    assert requests == 8 * 40
    # Probes track requests (small slack for re-announces of slots whose
    # response is already on the wire).
    assert requests <= probes <= 1.1 * requests


def test_shard_skips_a_reannounce_of_a_slot_awaiting_its_response():
    cluster = _cluster()
    client = cluster.client()
    cluster.run(client.get(KEYS[0]))
    shard = cluster.shards()[0]
    conn = shard.conns[0]
    probes = cluster.metrics.counter("shard.probes")
    before = probes.value
    # Slot 3 was consumed and its response is still unposted: the client
    # cannot have reused it, so a set bit for it is a stale re-announce.
    conn.consumed_pending.add(3)
    conn.req_region.write(conn.layout.occ_offset,
                          occ_announce([3], conn.layout.n_slots))
    assert shard._poll_conn(conn) == ([], 0)
    assert probes.value == before
