"""Client-side index traversal: cold GETs served one-sidedly, optimistic
retry under churn, bounded demotion, and cache re-priming."""

from repro import HydraCluster, SimConfig
from repro.chaos import FaultInjector
from repro.chaos.schedule import FaultSchedule, FaultWindow
from repro.core.rptr import ReadPath
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
        # The primed entry expires half a read horizon after the walk, not
        # after a lease (the stated "Lone cold GET" limit): once that much
        # idle time passes, every key walks its frame again.
        yield cluster.sim.timeout(cluster.config.traversal.read_horizon_ns
                                  // 2)
        values = yield from client.get_many(KEYS)
        assert values == [b"w" * 32] * len(KEYS)
        assert (counters("client.bucket_reads").value - buckets_cold
                >= len(KEYS))
        assert counters("client.messages").value == messages_before

    cluster.run(app())


def lone_cluster():
    """The default gate: a lone cold GET is below ``min_fanout``."""
    return make_cluster(traversal_config(traversal={"min_fanout": 2}))


def path_of(cluster, client, key=KEYS[0]):
    """The client machine's estimators for ``key``'s server machine."""
    return client.cache.path_to(cluster.route(key).machine.machine_id)


class Tally:
    """Message, Read and frame-Read counts since the last :meth:`take`."""

    def __init__(self, cluster):
        self.counter = cluster.metrics.counter
        self.last = self._now()

    def _now(self):
        return {n: self.counter(f"client.{n}").value
                for n in ("messages", "rdma_reads", "bucket_reads")}

    def take(self):
        now = self._now()
        delta = {n: now[n] - self.last[n] for n in now}
        self.last = now
        return delta


def prime(client, key):
    """One cold GET (message: a message RTT and a value sample), then a
    cached-pointer GET (one Read chain: a Read RTT sample)."""
    chill(client, [key])
    yield from client.get(key)
    yield from client.get(key)


def test_lone_cold_get_takes_messages_before_any_sample():
    cluster = lone_cluster()
    client = cluster.client()
    tally = Tally(cluster)

    def app():
        yield from client.put(KEYS[0], b"solo")
        chill(client)
        tally.take()
        assert not path_of(cluster, client).walk()
        assert (yield from client.get(KEYS[0])) == b"solo"
        assert tally.take() == {"messages": 1, "rdma_reads": 0,
                                "bucket_reads": 0}

    cluster.run(app())


def test_lone_cold_get_with_idle_nic_and_inline_value_is_one_read():
    cluster = lone_cluster()
    client = cluster.client()
    tally = Tally(cluster)

    def app():
        yield from client.put(KEYS[0], b"solo")
        yield from prime(client, KEYS[0])
        path = path_of(cluster, client)
        assert path.inline_share == 1.0
        assert path.srtt < path.min_msg
        chill(client)
        tally.take()
        assert (yield from client.get(KEYS[0])) == b"solo"
        assert tally.take() == {"messages": 0, "rdma_reads": 1,
                                "bucket_reads": 1}

    cluster.run(app())


def test_lone_cold_gets_of_64_byte_values_stay_on_messages():
    cluster = lone_cluster()
    client = cluster.client()
    tally = Tally(cluster)
    big = b"B" * 64

    def app():
        yield from client.put(KEYS[0], big)
        yield from prime(client, KEYS[0])
        assert path_of(cluster, client).inline_share == 0.0
        tally.take()
        for _ in range(4):
            chill(client)
            assert (yield from client.get(KEYS[0])) == big
        # No value fits the frame's inline line: a walk could only add a
        # Read in front of the message it would still need.
        assert tally.take() == {"messages": 4, "rdma_reads": 0,
                                "bucket_reads": 0}

    cluster.run(app())


def test_read_delay_sends_lone_cold_gets_back_to_messages():
    window = (200_000, 400_000)
    cluster = lone_cluster()
    FaultInjector(cluster.sim, _storm(window[1], window[0])).attach(cluster)
    client = cluster.client()
    tally = Tally(cluster)

    def app():
        yield from client.put(KEYS[0], b"solo")
        yield from prime(client, KEYS[0])
        assert path_of(cluster, client).walk()
        assert cluster.sim.now < window[0]
        yield cluster.sim.timeout(window[0] - cluster.sim.now)
        # Cached-pointer Reads now take 20 us: the smoothed Read RTT
        # climbs past the message round trip.
        yield from client.get(KEYS[0])
        tally.take()
        chill(client)
        assert (yield from client.get(KEYS[0])) == b"solo"
        assert tally.take() == {"messages": 1, "rdma_reads": 0,
                                "bucket_reads": 0}
        # Past the window, fast Reads bring the estimate back down.
        yield cluster.sim.timeout(window[1] - cluster.sim.now)
        for _ in range(32):
            if path_of(cluster, client).walk():
                break
            yield from client.get(KEYS[0])
        chill(client)
        tally.take()
        assert (yield from client.get(KEYS[0])) == b"solo"
        assert tally.take()["bucket_reads"] == 1

    cluster.run(app())


def test_walk_that_misses_the_inline_line_costs_one_read_then_a_lease():
    cluster = lone_cluster()
    client = cluster.client()
    tally = Tally(cluster)
    big = b"B" * 64

    def app():
        yield from client.put(KEYS[0], b"solo")
        yield from client.put(KEYS[1], big)
        yield from prime(client, KEYS[0])
        assert path_of(cluster, client, KEYS[1]).walk()
        chill(client)
        tally.take()
        # The frame cannot carry a 64 B value inline: the walk stops at
        # its one frame Read and the key takes the message path.
        assert (yield from client.get(KEYS[1])) == big
        assert tally.take() == {"messages": 1, "rdma_reads": 1,
                                "bucket_reads": 1}
        # The message granted a lease: the next GET is a cached-pointer
        # Read, no frame Read and no message.
        assert (yield from client.get(KEYS[1])) == big
        assert tally.take() == {"messages": 0, "rdma_reads": 1,
                                "bucket_reads": 0}

    cluster.run(app())


def test_read_path_estimators():
    path = ReadPath()
    assert not path.walk()
    path.on_read(1_000)
    path.on_message(3_000)
    assert not path.walk()  # no GET result yet: no inline share
    path.on_value(8, 16)
    assert path.inline_share == 1.0 and path.walk()
    # SRTT: the first sample sets it, later ones move it by 1/8.
    path.on_read(1_800)
    assert path.srtt == 1_100
    # Min filter: only a faster round trip moves it.
    path.on_message(2_000)
    path.on_message(5_000)
    assert path.min_msg == 2_000
    path.on_value(8, 64)  # past the inline line
    assert path.inline_share == 0.875
    assert path.walk()  # 1,100 < 0.875 * 2,000
    path.on_read(20_000)  # a queued responder
    assert path.srtt == 1_100 + 18_900 / 8
    assert not path.walk()


def _storm(read_delay_until_ns: int, from_ns: int = 0) -> FaultSchedule:
    """Every one-sided Read delayed 20 us from ``from_ns`` until the given
    instant."""
    return FaultSchedule(
        name="stale", seed=7,
        windows=(FaultWindow("read_delay", from_ns, read_delay_until_ns,
                             p=1.0,
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
