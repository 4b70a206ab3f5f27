"""Batched one-sided GET fan-out: hits, demotions, windows, drain rules."""

from repro import HydraCluster, SimConfig
from repro.core import BadStatus
from repro.protocol import Op, Status


def fanout_config(window=8, reads=8, **client):
    return SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": window},
        client={"max_inflight_per_conn": window, "max_inflight_reads": reads,
                "rptr_cache_enabled": True, "rptr_sharing": False, **client})


def make_cluster(config=None, **kw):
    kw.setdefault("n_server_machines", 1)
    kw.setdefault("shards_per_server", 1)
    cluster = HydraCluster(config=config, **kw)
    cluster.start()
    return cluster


KEYS = [f"fk-{i:03d}".encode() for i in range(8)]


def test_mixed_hit_miss_batch_reads_hits_and_demotes_misses():
    """Warm half the batch: hits ride Reads, misses demote to messages,
    and the demoted keys' responses re-prime the cache."""
    cluster = make_cluster(fanout_config())
    client = cluster.client()
    out = {}

    def app():
        for k in KEYS:
            yield from client.put(k, b"v-" + k)
        for k in KEYS[:4]:  # warm half through the message path
            yield from client.get(k)
        out["stats0"] = client.cache.stats()
        out["values"] = yield from client.get_many(KEYS)
        out["stats1"] = client.cache.stats()

    cluster.run(app())
    assert out["values"] == [b"v-" + k for k in KEYS]
    d = {k: out["stats1"][k] - out["stats0"][k] for k in out["stats0"]}
    assert d["batch_hits"] == 4          # only the warm half had pointers
    assert d["successful_hits"] == 4     # ...and every Read validated
    assert d["invalid_hits"] == 0
    assert d["misses"] == 4
    # The demoted half came back via messages and re-primed the cache.
    assert all(k in client.cache for k in KEYS)


def test_stale_pointer_is_demoted_by_guardian_and_still_correct():
    """A pointer left stale by another client's update must come back as
    an invalid hit (DEAD guardian), demote to the message path, and
    return the fresh value."""
    cluster = make_cluster(fanout_config(), n_client_machines=2)
    alice = cluster.client(0)
    bob = cluster.client(1)
    out = {}

    def app():
        for k in KEYS:
            yield from alice.put(k, b"old-" + k)
        for k in KEYS:  # alice warms her private cache
            yield from alice.get(k)
        # bob updates one key out of band: its extent flips to DEAD.
        yield from bob.put(KEYS[3], b"new-" + KEYS[3])
        out["stats0"] = alice.cache.stats()
        out["values"] = yield from alice.get_many(KEYS)
        out["stats1"] = alice.cache.stats()

    cluster.run(app())
    expected = [b"old-" + k for k in KEYS]
    expected[3] = b"new-" + KEYS[3]
    assert out["values"] == expected
    d = {k: out["stats1"][k] - out["stats0"][k] for k in out["stats0"]}
    assert d["batch_hits"] == 8          # alice's cache was fully warm
    assert d["invalid_hits"] == 1        # the updated key failed validation
    assert d["successful_hits"] == 7
    # Reconciliation invariant: every pointer became exactly one Read.
    assert d["successful_hits"] + d["invalid_hits"] == d["batch_hits"]


def test_max_inflight_reads_clamps_batch_and_doorbells():
    """The Read window bounds each doorbell-coalesced batch: 8 warm keys
    post as 4 batches at window 2 but a single chain at window 8."""
    doorbells = {}
    for reads in (2, 8):
        cluster = make_cluster(fanout_config(reads=reads))
        client = cluster.client()

        def app():
            for k in KEYS:
                yield from client.put(k, b"v" * 16)
            for k in KEYS:
                yield from client.get(k)
            rung0 = cluster.metrics.counter("rdma.read.doorbells").value
            values = yield from client.get_many(KEYS)
            assert values == [b"v" * 16] * len(KEYS)
            doorbells[reads] = (
                cluster.metrics.counter("rdma.read.doorbells").value - rung0,
                cluster.metrics.counter("rdma.read.coalesced").value)

        cluster.run(app())
    assert doorbells[2] == (4, 4)   # 4 batches of 2: one ring each
    assert doorbells[8] == (1, 7)   # one chain: one ring, 7 coalesced WQEs


def test_get_many_failure_drains_batch_before_raising():
    """Satellite: a failing key must not leak in-flight slots — the error
    surfaces only after every pending response is gathered, and the
    connection stays usable."""
    cfg = fanout_config(window=16, rptr_cache_enabled=False)
    cluster = make_cluster(cfg)  # 16 slots -> 1 KiB response slots
    client = cluster.client()
    shard = cluster.route(b"big")
    # An item too large for a response slot: GET returns Status.ERROR.
    shard.store_for_key(b"big").upsert(b"big", b"x" * 2048, Op.PUT)
    out = {}

    def app():
        for k in KEYS:
            yield from client.put(k, b"v" * 8)
        try:
            yield from client.get_many(KEYS[:4] + [b"big"] + KEYS[4:])
        except BadStatus as exc:
            out["error"] = str(exc)
        # No leaked slots: the very next full-width batch must succeed.
        out["after"] = yield from client.get_many(KEYS)

    cluster.run(app())
    assert "ERROR" in out["error"]
    assert out["after"] == [b"v" * 8] * len(KEYS)


def test_not_found_mutation_invalidates_cached_pointer():
    """Satellite: a DELETE that races to NOT_FOUND still drops the cached
    pointer — the extent it names was retired by the concurrent writer."""
    cluster = make_cluster(fanout_config())
    alice = cluster.client()
    bob = cluster.client()  # rptr_sharing off: private caches
    key = KEYS[0]
    out = {}

    def app():
        yield from alice.put(key, b"v")
        yield from alice.get(key)           # alice caches the pointer
        assert key in alice.cache
        yield from bob.delete(key)          # bob wins the race
        out["status"] = yield from alice.delete(key)

    cluster.run(app())
    assert out["status"] is Status.NOT_FOUND
    assert key not in alice.cache
