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
