"""Client-side index traversal: cold GETs served one-sidedly, optimistic
retry under churn, bounded demotion, and cache re-priming."""

from repro import HydraCluster, SimConfig
from repro.chaos import FaultInjector
from repro.chaos.schedule import FaultSchedule, FaultWindow
from repro.protocol import Status

KEYS = [f"trav-{i:03d}".encode() for i in range(24)]


def traversal_config(traversal=None, **hydra):
    return SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 16, **hydra},
        client={"max_inflight_per_conn": 16},
        traversal={"min_fanout": 1, **(traversal or {})})


def make_cluster(config=None, **kw):
    kw.setdefault("n_server_machines", 1)
    kw.setdefault("shards_per_server", 1)
    cluster = HydraCluster(config=config or traversal_config(), **kw)
    cluster.start()
    return cluster


def chill(client, keys=KEYS):
    """Forget the cached pointers so the next GETs are cold."""
    for k in keys:
        client.cache.invalidate(k)


def test_cold_get_many_is_fully_one_sided():
    cluster = make_cluster()
    client = cluster.client()
    counters = cluster.metrics.counter

    def app():
        statuses = yield from client.put_many(
            [(k, b"v:" + k) for k in KEYS])
        assert all(s is Status.OK for s in statuses)
        chill(client)
        messages_before = counters("client.messages").value
        values = yield from client.get_many(KEYS + [b"trav-ghost"])
        assert values[:-1] == [b"v:" + k for k in KEYS]
        assert values[-1] is None  # one-sided NOT_FOUND, no message
        # Every key — hits and the miss — resolved without a single
        # message-path request reaching the shard.
        assert counters("client.messages").value == messages_before
        assert counters("client.bucket_reads").value >= len(KEYS) + 1
        assert counters("client.demotions").value == 0
        assert counters("client.traversal_races").value == 0
        # Every PUT versioned the exported index exactly once.
        assert (counters("shard.index_mutations_versioned").value
                == len(KEYS))

    cluster.run(app())


def test_traversal_reprimes_the_pointer_cache():
    cluster = make_cluster()
    client = cluster.client()
    counters = cluster.metrics.counter

    def app():
        yield from client.put_many([(k, b"w" * 32) for k in KEYS])
        chill(client)
        yield from client.get_many(KEYS)
        buckets_cold = counters("client.bucket_reads").value
        assert buckets_cold >= len(KEYS)
        # Traversal hits primed the rptr cache: the second round runs on
        # direct item Reads, no index walk, still no messages.
        messages_before = counters("client.messages").value
        values = yield from client.get_many(KEYS)
        assert values == [b"w" * 32] * len(KEYS)
        assert counters("client.bucket_reads").value == buckets_cold
        assert counters("client.messages").value == messages_before

    cluster.run(app())


def test_min_fanout_gate_keeps_single_cold_gets_on_messages():
    cluster = make_cluster(traversal_config(traversal={"min_fanout": 2}))
    client = cluster.client()
    counters = cluster.metrics.counter

    def app():
        yield from client.put(KEYS[0], b"solo")
        chill(client)
        assert (yield from client.get(KEYS[0])) == b"solo"
        # One cold key is below the gate: message path, no bucket Read.
        assert counters("client.bucket_reads").value == 0
        chill(client)
        values = yield from client.get_many(KEYS[:1] + [b"nope"])
        assert values == [b"solo", None]
        assert counters("client.bucket_reads").value > 0

    cluster.run(app())


def _storm(read_delay_until_ns: int) -> FaultSchedule:
    """Every one-sided Read delayed 20 us until the given instant."""
    return FaultSchedule(
        name="stale", seed=7,
        windows=(FaultWindow("read_delay", 0, read_delay_until_ns, p=1.0,
                             min_delay_ns=20_000, max_delay_ns=20_000),))


def churn_cluster(**traversal):
    # One main bucket forces multi-frame chains, so an absent key's
    # NOT_FOUND needs the head-confirm read — the raceable step.
    cfg = traversal_config(traversal, buckets_per_shard=1)
    return make_cluster(cfg)


def test_race_retries_until_churn_subsides():
    cluster = churn_cluster(max_retries=50)
    injector = FaultInjector(cluster.sim, _storm(400_000))
    injector.attach(cluster)
    client = cluster.client()
    writer = cluster.client()
    counters = cluster.metrics.counter

    def churner():
        # Mutate the (single) chain continuously, then stop: the walk
        # must race while this runs and succeed once it subsides.
        i = 0
        while cluster.sim.now < 300_000:
            i += 1
            yield from writer.put(f"churn-{i % 9}".encode(),
                                  f"c{i}".encode())

    def reader():
        yield from client.put_many([(k, b"r" * 16) for k in KEYS[:10]])
        chill(client)
        values = yield from client.get_many(KEYS[:10] + [b"absent-one"])
        assert values == [b"r" * 16] * 10 + [None]
        # Churn + delayed Reads raced the absent key's walk, yet with a
        # generous retry budget nothing demoted to the message path.
        assert counters("client.traversal_races").value >= 1
        assert counters("client.demotions").value == 0

    cluster.run(reader(), churner())


def test_races_demote_after_bounded_retries():
    cluster = churn_cluster(max_retries=1)
    # Reads stay delayed for the whole test: every walk races while the
    # churner runs, so the bounded retry must give up and demote.
    injector = FaultInjector(cluster.sim, _storm(50_000_000))
    injector.attach(cluster)
    client = cluster.client()
    writer = cluster.client()
    counters = cluster.metrics.counter
    stop = {"churn": False}

    def churner():
        i = 0
        while not stop["churn"]:
            i += 1
            yield from writer.put(f"churn-{i % 9}".encode(),
                                  f"c{i}".encode())

    def reader():
        yield from client.put_many([(k, b"d" * 16) for k in KEYS[:8]])
        chill(client)
        values = yield from client.get_many([b"absent-one", b"absent-two"])
        # Demotion is a *fallback*, not a failure: the message path
        # still answers correctly.
        assert values == [None, None]
        assert counters("client.traversal_races").value >= 2
        assert counters("client.demotions").value >= 1
        stop["churn"] = True

    cluster.run(reader(), churner())


def test_cold_get_many_of_small_items_is_one_read_per_key():
    cluster = make_cluster()
    client = cluster.client()
    counters = cluster.metrics.counter
    keys = KEYS[:16]

    def app():
        yield from client.put_many([(k, b"s:" + k) for k in keys])
        chill(client, keys)
        reads_before = counters("client.rdma_reads").value
        messages_before = counters("client.messages").value
        values = yield from client.get_many(keys)
        assert values == [b"s:" + k for k in keys]
        # Each key is its bucket frame's inline item: the frame Read
        # carries the value, no item Read follows.
        assert counters("client.rdma_reads").value - reads_before == 16
        assert counters("client.messages").value == messages_before

    cluster.run(app())


def test_value_past_the_inline_line_costs_frame_plus_item_read():
    cluster = make_cluster()
    client = cluster.client()
    counters = cluster.metrics.counter
    big = b"B" * 64

    def app():
        yield from client.put(KEYS[0], big)
        chill(client, KEYS[:1])
        reads_before = counters("client.rdma_reads").value
        assert (yield from client.get_many(KEYS[:1])) == [big]
        assert counters("client.rdma_reads").value - reads_before == 2
        assert counters("client.bucket_reads").value == 1

    cluster.run(app())


def test_update_racing_the_frame_read_returns_old_or_new():
    # One bucket: both keys share a frame, so the inline line flips
    # between them (foreign lines) and is cleared whenever a key takes a
    # value too big for it, all while delayed frame Reads are in flight.
    cluster = churn_cluster(max_retries=50)
    injector = FaultInjector(cluster.sim, _storm(400_000))
    injector.attach(cluster)
    client = cluster.client()
    writer = cluster.client()
    counters = cluster.metrics.counter
    keys = (b"race-hot", b"race-other")
    #: key -> [(value, write start ns, write ack ns)] in write order.
    history = {k: [] for k in keys}

    def value_for(key, i):
        body = b"%s:%d:" % (key, i)
        return body + (b"L" * 64 if i % 3 == 0 else b"")

    def allowed(key, t0, t1):
        """Values a read issued at t0 and done at t1 may return."""
        writes = history[key]
        first = 0
        for j, (_v, _start, ack) in enumerate(writes):
            if ack <= t0:
                first = j
        return {v for v, start, _ack in writes[first:] if start <= t1}

    def put(key, i):
        v = value_for(key, i)
        start = cluster.sim.now
        assert (yield from writer.put(key, v)) is Status.OK
        history[key].append((v, start, cluster.sim.now))

    def churner():
        i = 0
        while cluster.sim.now < 300_000:
            i += 1
            for key in keys:
                yield from put(key, i)

    def reader():
        for key in keys:
            yield from put(key, 0)
        served = 0
        while cluster.sim.now < 350_000:
            chill(client, list(keys))
            t0 = cluster.sim.now
            values = yield from client.get_many(list(keys))
            t1 = cluster.sim.now
            for key, v in zip(keys, values):
                assert v in allowed(key, t0, t1), (key, v)
            served += 1
        assert served >= 5
        assert counters("client.demotions").value == 0

    cluster.run(reader(), churner())
