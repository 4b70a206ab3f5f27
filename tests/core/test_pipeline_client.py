"""Pipelined client: slotted buffers, in-flight windows, batch ops."""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import BadStatus, RequestTimeout
from repro.protocol import Op, Status


def pipelined_config(window, **client):
    return SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": window},
        client={"max_inflight_per_conn": window, "rptr_cache_enabled": False,
                **client})


def make_cluster(config=None, **kw):
    kw.setdefault("n_server_machines", 1)
    kw.setdefault("shards_per_server", 1)
    cluster = HydraCluster(config=config, **kw)
    cluster.start()
    return cluster


KEYS = [f"pk-{i:03d}".encode() for i in range(64)]


def _measure(window, op):
    """ns spent moving 64 ops through one shard at the given window."""
    cluster = make_cluster(pipelined_config(window))
    client = cluster.client()
    out = {}

    def app():
        for k in KEYS:
            yield from client.put(k, b"v" * 32)
        t0 = cluster.sim.now
        if op == "get":
            values = yield from client.get_many(KEYS)
            assert values == [b"v" * 32] * len(KEYS)
        else:
            statuses = yield from client.put_many(
                [(k, b"w" * 32) for k in KEYS])
            assert all(s is Status.OK for s in statuses)
        out["t"] = cluster.sim.now - t0

    cluster.run(app())
    return out["t"]


def test_window16_get_throughput_at_least_2x_window1():
    t1, t16 = _measure(1, "get"), _measure(16, "get")
    assert t1 / t16 >= 2.0, f"GET speedup only {t1 / t16:.2f}x"


def test_window16_put_throughput_improves():
    # PUT is server-CPU-bound (update_extra_ns dominates), so pipelining
    # buys less than for GET — but it must still overlap fabric latency.
    t1, t16 = _measure(1, "put"), _measure(16, "put")
    assert t1 / t16 >= 1.4, f"PUT speedup only {t1 / t16:.2f}x"


def test_window1_defaults_match_stop_and_wait():
    """Default config is depth-1: the pipeline must not change behavior."""
    cfg = SimConfig()
    assert cfg.hydra.msg_slots_per_conn == 1
    assert cfg.client.max_inflight_per_conn == 1
    cluster = make_cluster(shards_per_server=2)
    client = cluster.client()

    def app():
        assert (yield from client.put(b"k", b"v")) is Status.OK
        assert (yield from client.get(b"k")) == b"v"

    cluster.run(app())


def test_get_many_across_shards_overlaps_requests():
    """ISSUE acceptance: get_many over 2+ shards completes faster than the
    sum of serial round trips."""
    cluster = make_cluster(pipelined_config(8), shards_per_server=2)
    client = cluster.client()
    keys = KEYS[:32]
    times = {}

    def app():
        for k in keys:
            yield from client.put(k, b"v" * 16)
        # Serial round trips, one at a time.
        t0 = cluster.sim.now
        for k in keys:
            assert (yield from client.get(k)) == b"v" * 16
        times["serial"] = cluster.sim.now - t0
        # Batched: all 32 in flight across both shards' connections.
        t0 = cluster.sim.now
        values = yield from client.get_many(keys)
        assert values == [b"v" * 16] * len(keys)
        times["batch"] = cluster.sim.now - t0

    cluster.run(app())
    # Keys spread over 2 shards; batch must beat the serial total.
    shards_hit = sum(1 for s in cluster.shards() if len(s.store) > 0)
    assert shards_hit >= 2
    assert times["batch"] < times["serial"], times


def test_get_many_mixed_hits_and_misses_preserve_order():
    cluster = make_cluster(pipelined_config(4), shards_per_server=2)
    client = cluster.client()

    def app():
        yield from client.put(b"a", b"1")
        yield from client.put(b"c", b"3")
        values = yield from client.get_many([b"a", b"missing", b"c"])
        assert values == [b"1", None, b"3"]

    cluster.run(app())


def test_put_many_returns_per_key_statuses():
    cluster = make_cluster(pipelined_config(4), shards_per_server=2)
    client = cluster.client()

    def app():
        statuses = yield from client.put_many(
            [(k, b"x") for k in KEYS[:8]])
        assert statuses == [Status.OK] * 8
        assert (yield from client.get_many(KEYS[:8])) == [b"x"] * 8

    cluster.run(app())


def test_stale_response_discarded_not_fatal():
    """Satellite: a late response from a timed-out request must be counted
    and discarded, not poison the next call on the connection."""
    cfg = pipelined_config(1, op_timeout_ns=2_000)
    cluster = make_cluster(cfg)
    # Single-attempt mode: a retrying client would drop the connection,
    # so the late response could never land on this client.
    client = cluster.client(deadline_us=0)

    def app():
        with pytest.raises(RequestTimeout):
            yield from client.put(b"k", b"v")  # shard replies after ~4us
        # Restore a sane deadline and let the stale response land.
        cluster.config.client.op_timeout_ns = 50_000_000
        yield cluster.sim.timeout(1_000_000)
        assert (yield from client.put(b"k", b"v2")) is Status.OK
        assert (yield from client.get(b"k")) == b"v2"

    cluster.run(app())
    assert cluster.metrics.counter("client.stale_responses").value >= 1


def test_window_full_and_dead_shard_times_out_cleanly():
    cfg = pipelined_config(2, op_timeout_ns=5_000_000)
    cluster = make_cluster(cfg)
    client = cluster.client()

    def app():
        yield from client.put(b"k", b"v")
        cluster.servers[0].kill()
        with pytest.raises(RequestTimeout):
            yield from client.get_many([b"k"] * 8)

    cluster.run(app())


def test_oversized_request_names_the_knobs():
    cfg = pipelined_config(16)  # 16 KiB buffer / 16 slots = 1 KiB slots
    cluster = make_cluster(cfg)
    client = cluster.client()

    def app():
        with pytest.raises(ValueError, match="conn_buf_bytes"):
            yield from client.put(b"big", b"x" * 4096)

    cluster.run(app())


def test_resp_overflow_degrades_to_clean_error():
    """Satellite: a response that outgrows its slot becomes Status.ERROR
    plus a shard.resp_overflow metric — never a silent drop/timeout."""
    cfg = pipelined_config(16)  # 1 KiB response slots
    cluster = make_cluster(cfg)
    client = cluster.client()
    shard = cluster.route(b"big")
    # Plant an item larger than a response slot directly in the store —
    # it arrived via a fatter-buffered connection in a real deployment.
    shard.store_for_key(b"big").upsert(b"big", b"x" * 2048, Op.PUT)

    def app():
        with pytest.raises(BadStatus, match="ERROR"):
            yield from client.get(b"big")

    cluster.run(app())
    assert cluster.metrics.counter("shard.resp_overflow").value >= 1


def test_numa_placement_of_connection_buffers():
    """Satellite: req buffer lives on the shard's domain, resp buffer on
    the client's domain."""
    cluster = make_cluster(shards_per_server=2)
    client = cluster.client()
    for shard in cluster.shards():
        conn = client.connection_to(shard)
        assert conn.req_region.numa_domain == shard.core.numa_domain
        assert conn.resp_region.numa_domain == client.numa_domain
