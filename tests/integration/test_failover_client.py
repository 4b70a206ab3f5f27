"""Failover-aware client: retries, deadlines, and the HydraError taxonomy.

The tentpole contract under test: with the default deadline budget, a
primary crash mid-workload is invisible to applications — every public
operation replays through the versioned routing table onto the promoted
secondary, no acked write is lost, and the blackout is bounded by
detection (K missed heartbeat probes) + reaction + the route swap, not
by anything the client adds on top: a request waiting on the dead
primary at the swap cuts over within microseconds.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import (BadStatus, HydraError, LifecycleError,
                        RequestTimeout, RoutingTable, ShardUnavailable,
                        SlotOverflow)
from repro.core.api import HydraCluster as _ApiCluster
from repro.core.shard import Shard
from repro.coord.swat import SwatTeam, revoke_bound_ns, verdict_bound_ns
from repro.protocol import Status
from repro.replication import SecondaryShard

MS = 1_000_000

#: Writers stop this long after the kill if no promotion is observed
#: (the test then fails on its failover count instead of hanging).
NO_PROMOTION_CAP_MS = 5_000

#: How long past the swap a request stuck on the killed primary may take
#: to complete on the promoted one: a few round trips, far below any
#: backoff step (1 ms) or attempt timeout.
CUTOVER_SLACK_NS = 100_000


def ha_cluster(n_client_machines=1, coord=None):
    cfg = SimConfig().with_overrides(
        replication={"replicas": 1},
        client={"op_timeout_ns": 5 * MS},
        coord=coord or {},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1,
                           n_client_machines=n_client_machines)
    ha = cluster.enable_ha()
    cluster.start()
    return cluster, ha


# -- the tentpole: ride-through under load --------------------------------
def _ride_through_failover(after_promotion_ms, coord=None):
    """Kill the primary mid-write-storm (writers run until
    ``after_promotion_ms`` after the observed promotion, the first route
    swap): zero client-visible exceptions, zero lost acked writes,
    bounded blackout, failover metrics recorded."""
    cluster, ha = ha_cluster(n_client_machines=2, coord=coord)
    sim = cluster.sim
    acked: dict[bytes, bytes] = {}
    exceptions: list[BaseException] = []
    completions: list[int] = []
    kill_at = 30 * MS
    promoted_at = []

    def killer():
        yield sim.timeout(kill_at)
        cluster.servers[0].kill()
        yield cluster.route_change.wait()
        promoted_at.append(sim.now)

    def writing() -> bool:
        if not promoted_at:
            return sim.now < kill_at + NO_PROMOTION_CAP_MS * MS
        return sim.now < promoted_at[0] + after_promotion_ms * MS

    def writer(cid, client):
        i = 0
        while writing():
            key = f"c{cid}-k{i:06d}".encode()
            value = f"v{cid}-{i}".encode()
            try:
                status = yield from client.put(key, value)
            except HydraError as exc:  # pragma: no cover - must not happen
                exceptions.append(exc)
                return
            if status is Status.OK:
                acked[key] = value
                completions.append(sim.now)
            i += 1

    clients = [cluster.client(i % 2) for i in range(4)]
    sim.process(killer())
    cluster.run(*[writer(i, c) for i, c in enumerate(clients)])
    assert exceptions == []
    assert ha.swat.failovers == 1
    # No acked write may be missing from the promoted store.
    shard_id = cluster.routing.shard_ids()[0]
    survivor = cluster.routing.resolve(shard_id).store.dump()
    lost = {k: v for k, v in acked.items() if survivor.get(k) != v}
    assert lost == {}, f"{len(lost)} acknowledged writes lost"
    assert len(acked) > 100
    # The client-side failover machinery fired and recorded its latency.
    assert cluster.metrics.counter("client.retries").value >= 1
    assert cluster.metrics.counter("client.failovers").value >= 1
    assert cluster.metrics.tally("client.failover_latency_ns").count >= 1
    # Blackout (largest inter-completion gap straddling the kill) is
    # bounded by what the detector guarantees: the verdict lands within
    # one probe period plus K probe deadlines of the kill, the reaction
    # (fence, then one revocation round before the drain) adds at most
    # the revoke bound, and a write posted to the dead primary just
    # before the route swap is woken by the swap and replays within
    # microseconds.
    cfg = cluster.config
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    blackout = max(gaps)
    assert blackout < verdict_bound_ns(cfg) + revoke_bound_ns(cfg) \
        + CUTOVER_SLACK_NS
    after = [t for t in completions if t > kill_at + blackout]
    assert len(after) > 50  # service genuinely resumed


@pytest.mark.soak
def test_failover_under_load_is_invisible_to_clients():
    # 1,523.8 ms: what followed the promotion when this soak still wrote
    # to a fixed kill + 4 s and detection waited out the 2 s ZK session
    # (promotion at kill + 2,476.2 ms).
    _ride_through_failover(1_524)


def test_failover_under_short_load_is_invisible_to_clients():
    """Tier-1 twin of the soak above: same contract, with 200 ms ZK
    sessions, writers stop 274 ms after the promotion (what followed it
    when the twin wrote to a fixed kill + 500 ms and detection took
    226 ms)."""
    _ride_through_failover(
        274, coord={"heartbeat_ns": 50 * MS, "session_timeout_ns": 200 * MS})


def test_get_and_get_many_ride_through_failover():
    cluster, ha = ha_cluster()
    client = cluster.client()
    keys = [f"k{i}".encode() for i in range(8)]

    def load():
        for k in keys:
            yield from client.put(k, b"v-" + k)

    cluster.run(load())
    cluster.sim.run(until=cluster.sim.now + 20 * MS)
    cluster.servers[0].kill()

    def during():
        # Single-key and batched GETs issued mid-blackout both complete.
        assert (yield from client.get(keys[0])) == b"v-" + keys[0]
        values = yield from client.get_many(keys + [b"missing"])
        assert values == [b"v-" + k for k in keys] + [None]

    cluster.run(during())
    assert ha.swat.failovers == 1 or cluster.routing.generation >= 1


def test_put_many_rides_through_failover():
    cluster, ha = ha_cluster()
    client = cluster.client()
    pairs = [(f"pm{i}".encode(), f"w{i}".encode()) for i in range(8)]

    def before():
        yield from client.put(b"warm", b"up")

    cluster.run(before())
    cluster.sim.run(until=cluster.sim.now + 20 * MS)
    cluster.servers[0].kill()

    def during():
        statuses = yield from client.put_many(pairs)
        assert statuses == [Status.OK] * len(pairs)

    cluster.run(during())
    shard_id = cluster.routing.shard_ids()[0]
    survivor = cluster.routing.resolve(shard_id).store.dump()
    for key, value in pairs:
        assert survivor[key] == value


def test_deadline_exhaustion_raises_shard_unavailable():
    # No replicas: nothing can be promoted, so the budget must lapse.
    cfg = SimConfig().with_overrides(
        client={"op_timeout_ns": 5 * MS, "op_deadline_us": 100_000})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    client = cluster.client()
    sim = cluster.sim

    def app():
        yield from client.put(b"k", b"v")
        cluster.servers[0].kill()
        t0 = sim.now
        with pytest.raises(ShardUnavailable):
            yield from client.get(b"k")
        # The budget bounds the stall: deadline plus at most one attempt.
        assert sim.now - t0 <= 2 * 100 * MS
        # ShardUnavailable still satisfies legacy RequestTimeout handlers.
        cluster.servers[0].machine.nic.recover()

    cluster.run(app())
    assert cluster.metrics.counter("client.retries").value >= 1
    assert cluster.metrics.counter("client.failovers").value == 0


# -- error taxonomy -------------------------------------------------------
def test_error_hierarchy_relationships():
    assert issubclass(RequestTimeout, HydraError)
    assert issubclass(ShardUnavailable, RequestTimeout)
    assert issubclass(BadStatus, HydraError)
    # Back-compat: pre-taxonomy handlers caught ValueError/RuntimeError.
    assert issubclass(SlotOverflow, HydraError)
    assert issubclass(SlotOverflow, ValueError)
    assert issubclass(LifecycleError, HydraError)
    assert issubclass(LifecycleError, RuntimeError)
    exc = BadStatus(Status.ERROR, "GET b'k'")
    assert exc.status is Status.ERROR
    assert "ERROR" in str(exc)


def test_public_ops_raise_only_hydra_errors():
    # Grep-level guarantee, enforced structurally: no bare RuntimeError /
    # ValueError raises are left in the client module.
    import inspect

    import repro.core.client as client_mod
    src = inspect.getsource(client_mod)
    assert "raise RuntimeError" not in src
    assert "raise ValueError" not in src or "StaticRouter" in src


# -- routing-table generations --------------------------------------------
def test_routing_generation_bumps_on_swap_only():
    table = RoutingTable()
    table.set("s0", "shard-a")  # initial install: no bump
    assert table.generation == 0
    table.set("s0", "shard-a")  # idempotent republish: no bump
    assert table.generation == 0
    table.set("s0", "shard-b")  # swap: bump
    assert table.generation == 1
    table.set("s1", "other")
    assert table.generation == 1


def test_routing_generation_visible_through_cluster_and_fires_gate():
    cluster, ha = ha_cluster()
    fired = []
    cluster.route_change.wait().callbacks.append(
        lambda ev: fired.append(ev._value))
    assert cluster.generation == 0
    cluster.sim.run(until=cluster.sim.now + 20 * MS)
    cluster.servers[0].kill()
    cluster.sim.run(until=cluster.sim.now + 4_000 * MS)
    assert cluster.generation == 1
    assert fired == [cluster.routing.shard_ids()[0]]


# -- satellite: drop_connection eviction ----------------------------------
def test_drop_connection_evicts_pipeline_state():
    cluster, _ha = ha_cluster()
    client = cluster.client()
    shard = cluster.shards()[0]
    conn = client.connection_to(shard)
    client._pipe(conn).free_slots.clear()  # dirty slot state
    client.drop_connection(shard)
    assert shard not in client.conns
    assert conn.conn_id not in client._pipes
    assert conn not in shard.conns  # the shard stops sweeping it
    # Reconnect starts from a clean slot map.
    conn2 = client.connection_to(shard)
    assert conn2.conn_id != conn.conn_id
    assert client._pipe(conn2).free_slots == list(range(conn2.n_slots))


def test_stale_connection_is_replaced_up_front():
    cluster, _ha = ha_cluster()
    client = cluster.client()
    shard = cluster.shards()[0]
    conn = client.connection_to(shard)
    conn.close()  # QPs destroyed: no longer usable
    assert not conn.client_qp.usable
    conn2 = client.connection_to(shard)
    assert conn2 is not conn
    assert conn2.client_qp.usable


# -- satellite: lifecycle --------------------------------------------------
def test_cluster_context_manager_and_deadline_override():
    with HydraCluster(n_server_machines=1, shards_per_server=1) as cluster:
        assert isinstance(cluster, _ApiCluster)
        client = cluster.client(deadline_us=123)
        assert client.deadline_us == 123
        legacy = cluster.client(deadline_us=0)
        assert legacy.deadline_us == 0
        default = cluster.client()
        assert default.deadline_us == cluster.config.client.op_deadline_us

        def app():
            assert (yield from client.put(b"k", b"v")) is Status.OK
            assert (yield from client.get(b"k")) == b"v"

        cluster.run(app())
        with pytest.raises(LifecycleError):
            cluster.start()
    # __exit__ stopped everything; stop() is idempotent.
    assert all(not s.alive for s in cluster.shards())
    cluster.stop()


def test_get_many_returns_none_per_miss_not_raise():
    with HydraCluster(n_server_machines=1, shards_per_server=2) as cluster:
        client = cluster.client()

        def app():
            yield from client.put(b"present", b"yes")
            values = yield from client.get_many(
                [b"absent0", b"present", b"absent1"])
            assert values == [None, b"yes", None]

        cluster.run(app())


# -- cut-over at the route swap --------------------------------------------
def _cutover_cluster(client=None, replication=None, hydra=None):
    """One replicated shard at the *default* ``op_timeout_ns`` (50 ms),
    message path only, so a request posted to the killed primary waits
    on its response buffer until something wakes it."""
    cfg = SimConfig().with_overrides(
        hydra=hydra or {},
        replication={"replicas": 1, **(replication or {})},
        client={"rptr_cache_enabled": False, **(client or {})},
        traversal={"enabled": False})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.enable_ha()
    cluster.start()
    return cluster


def _swap_watch(cluster, swaps: list):
    def watch():
        yield cluster.route_change.wait()
        swaps.append(cluster.sim.now)
    cluster.sim.process(watch())


def _get_and_update_across_a_kill(update_first: bool):
    """A GET and an UPDATE run concurrently on one client at the default
    window of 1, posted right after the primary's machine is killed.
    Returns ``(cluster, completion instant per op, swap instants)``."""
    cluster = _cutover_cluster()
    sim = cluster.sim
    assert cluster.config.client.op_timeout_ns == 50 * MS
    assert cluster.config.client.max_inflight_per_conn == 1
    client = cluster.client()
    done: dict[str, int] = {}
    swaps: list[int] = []

    def load():
        yield from client.put(b"g", b"v0")
        yield from client.put(b"u", b"w0")

    def get():
        assert (yield from client.get(b"g")) == b"v0"
        done["get"] = sim.now

    def update():
        assert (yield from client.update(b"u", b"w1")) is Status.OK
        done["update"] = sim.now

    cluster.run(load())
    sim.run(until=sim.now + 20 * MS)
    cluster.servers[0].kill()
    _swap_watch(cluster, swaps)
    cluster.run(*((update(), get()) if update_first else (get(), update())))
    return cluster, done, swaps


def test_requests_on_a_killed_primary_cut_over_at_the_swap():
    """A GET and an UPDATE posted to the killed primary complete within
    microseconds of the route swap, not an attempt timeout after it.

    Both run on one client at the default window of 1: the UPDATE waits
    for the window on the connection the GET was posted on, and the swap
    must reach both waits."""
    cluster, done, swaps = _get_and_update_across_a_kill(False)
    assert len(swaps) == 1
    assert cluster.metrics.counter("client.retries").value == 2
    assert set(done) == {"get", "update"}
    for op, t in done.items():
        assert 0 <= t - swaps[0] <= CUTOVER_SLACK_NS, (op, t - swaps[0])
    promoted = cluster.routing.resolve(cluster.routing.shard_ids()[0])
    assert promoted.store.dump()[b"u"] == b"w1"


@pytest.mark.parametrize("update_first", [False, True],
                         ids=["get-first", "update-first"])
def test_replayed_requests_sharing_one_slot_both_cut_over(update_first):
    """Both requests replay at the swap onto one connection to the
    promoted shard, whose one slot they take in turn.  Whichever drains
    the first response frees the slot while the other may already be back
    asleep in the window wait, having found the frame consumed: the
    process that frees the slot must wake it, or it sleeps out its 50 ms
    deadline."""
    cluster, done, swaps = _get_and_update_across_a_kill(update_first)
    promoted = cluster.routing.resolve(cluster.routing.shard_ids()[0])
    assert len(promoted.conns) == 1
    assert set(done) == {"get", "update"}
    for op, t in done.items():
        assert 0 <= t - swaps[0] <= CUTOVER_SLACK_NS, (op, t - swaps[0])


def test_a_dead_nic_costs_a_client_one_connection_per_generation(
        monkeypatch):
    """Two requests of one client posted to a primary whose machine died
    share one connection to it, and replay onto one connection to the
    promoted shard: no post replaces the connection its sibling waits on,
    and no retry round builds another to the dead NIC."""
    cluster = _cutover_cluster()
    sim = cluster.sim
    client = cluster.client()
    old = cluster.routing.resolve(cluster.routing.shard_ids()[0])
    connects: dict = {}
    connect = Shard.connect

    def counted(shard, *args, **kwargs):
        key = (shard, cluster.routing.generation)
        connects[key] = connects.get(key, 0) + 1
        return connect(shard, *args, **kwargs)

    monkeypatch.setattr(Shard, "connect", counted)

    def get():
        assert (yield from client.get(b"g")) is None

    def update():
        assert (yield from client.update(b"u", b"w1")) is Status.NOT_FOUND

    sim.run(until=20 * MS)
    generation = cluster.routing.generation
    cluster.servers[0].kill()
    cluster.run(get(), update())
    new = cluster.routing.resolve(old.shard_id)
    assert new is not old
    assert connects == {(old, generation): 1, (new, generation + 1): 1}


def test_insert_on_a_killed_primary_fails_at_the_swap():
    """An INSERT is never replayed: it raises ShardUnavailable at the
    swap instant instead of when its attempt times out."""
    cluster = _cutover_cluster()
    sim = cluster.sim
    client = cluster.client()
    swaps: list[int] = []
    raised: list[int] = []

    def insert():
        with pytest.raises(ShardUnavailable):
            yield from client.insert(b"fresh", b"v")
        raised.append(sim.now)

    sim.run(until=20 * MS)
    cluster.servers[0].kill()
    _swap_watch(cluster, swaps)
    cluster.run(insert())
    assert raised == swaps


def test_promotion_drains_acked_writes_the_secondary_had_not_merged():
    """A slow merge thread (it re-polls its ring 100 ms after a doorbell,
    past the promotion) leaves acked writes unmerged when the primary
    dies: the promotion folds them in, none is lost, and the first reads
    after the cut-over return them."""
    cluster = _cutover_cluster(client={"op_timeout_ns": 5 * MS},
                               replication={"merge_poll_ns": 100 * MS})
    sim = cluster.sim
    shard_id = cluster.routing.shard_ids()[0]
    secondary = cluster.secondaries[shard_id][0]
    client, reader = cluster.client(), cluster.client()
    kill_at = 30 * MS
    acked: dict[bytes, bytes] = {}
    unmerged: dict[bytes, bytes] = {}
    read_back: dict[bytes, bytes] = {}

    def writer():
        i = 0
        while sim.now < kill_at:
            key, value = b"k%05d" % i, b"v%05d" % i
            assert (yield from client.put(key, value)) is Status.OK
            acked[key] = value
            i += 1

    def killer():
        yield sim.timeout(kill_at - sim.now)
        merged = secondary.store.dump()
        unmerged.update((k, v) for k, v in acked.items()
                        if merged.get(k) != v)
        cluster.servers[0].kill()
        yield cluster.route_change.wait()
        for key in unmerged:
            read_back[key] = yield from reader.get(key)

    cluster.run(writer(), killer())
    assert len(unmerged) >= 1
    assert read_back == unmerged
    survivor = cluster.routing.resolve(shard_id).store.dump()
    assert {k: v for k, v in acked.items() if survivor.get(k) != v} == {}
    assert cluster.metrics.counter("replica.drained").value >= len(unmerged)


def test_promotion_drains_acked_records_a_failing_secondary_discarded(
        monkeypatch):
    """A merge fault on the secondary 10 us before the primary's machine
    dies leaves it failing: it discarded the faulted record and every
    one after it, each landed in its ring -- so acked -- and only
    unprocessed, and no resend came before the kill.  The promotion folds
    them in, in sequence with the ring suffix, so no acked write is
    missing from the promoted store."""
    cluster = _cutover_cluster(client={"op_timeout_ns": 5 * MS})
    sim = cluster.sim
    shard_id = cluster.routing.shard_ids()[0]
    secondary = cluster.secondaries[shard_id][0]
    fault_at = 30 * MS
    acked: dict[bytes, bytes] = {}
    failing_at_drain: list[bool] = []
    drain = SecondaryShard.promote_drain

    def watched_drain(sec):
        failing_at_drain.append(sec.failing)
        return drain(sec)

    monkeypatch.setattr(SecondaryShard, "promote_drain", watched_drain)

    def kill():
        yield sim.timeout(10_000)
        cluster.servers[0].kill()

    class FaultThenKill:
        fired = False

        def replication_fault(self, _sec):
            if self.fired or sim.now < fault_at:
                return False
            self.fired = True
            sim.process(kill())
            return True

    secondary.fault_injector = FaultThenKill()

    def writer(cid, client):
        i = 0
        while sim.now < fault_at + 20 * MS:
            key, value = b"c%d-%05d" % (cid, i), b"v%05d" % i
            if (yield from client.put(key, value)) is Status.OK:
                acked[key] = value
            i += 1

    cluster.run(*[writer(c, cluster.client()) for c in range(2)])
    assert failing_at_drain == [True]
    assert cluster.metrics.counter("replica.discarded").value >= 2
    survivor = cluster.routing.resolve(shard_id).store.dump()
    assert {k: v for k, v in acked.items() if survivor.get(k) != v} == {}


def test_a_dead_secondary_stalls_acks_for_at_most_one_retry_timeout(
        monkeypatch):
    """The replica machine dies under write load.  Acks wait for each
    ring record to land, so the writes in flight stall -- until their
    ring Write fails at the RC retry timeout, which detaches the
    secondary: acks no longer wait for it, and it leaves the shard's
    roster, so the failover after the primary's death later has no
    candidate to try."""
    cluster = _cutover_cluster(client={"op_timeout_ns": 5 * MS})
    sim = cluster.sim
    shard_id = cluster.routing.shard_ids()[0]
    secondary = cluster.secondaries[shard_id][0]
    revoked: list = []
    revoke = SwatTeam._revoke

    def watched_revoke(team, secondaries):
        revoked.append(list(secondaries))
        return (yield from revoke(team, secondaries))

    monkeypatch.setattr(SwatTeam, "_revoke", watched_revoke)
    kill_at, end_at = 30 * MS, 40 * MS
    latencies: list[tuple[int, int]] = []  # (issued, took)

    def writer(cid, client):
        i = 0
        while sim.now < end_at:
            t0 = sim.now
            key = b"c%d-%05d" % (cid, i)
            assert (yield from client.put(key, b"v")) is Status.OK
            latencies.append((t0, sim.now - t0))
            i += 1

    def killer():
        yield sim.timeout(kill_at - sim.now)
        secondary.kill()
        secondary.machine.nic.fail()

    sim.process(killer())
    cluster.run(*[writer(c, cluster.client()) for c in range(2)])
    retry_ns = cluster.config.fabric.retry_timeout_ns
    stalled = max(took for t0, took in latencies if t0 < kill_at + retry_ns)
    assert retry_ns <= stalled <= retry_ns + CUTOVER_SLACK_NS
    # Past the detach, acks no longer wait for the dead secondary.
    assert max(took for t0, took in latencies
               if t0 > kill_at + retry_ns + CUTOVER_SLACK_NS) < 50_000
    assert cluster.secondaries[shard_id] == []
    assert cluster.replicators[shard_id].links == []
    assert cluster.metrics.counter("repl.detached").value == 1
    cluster.servers[0].kill()
    sim.run(until=sim.now + 20 * MS)
    assert revoked == []  # no revocation round: no candidate at all
    assert cluster.metrics.counter("swat.data_loss").value >= 1
    assert cluster.metrics.counter("swat.failovers").value == 0


@pytest.mark.parametrize("cached", [True, False], ids=["pointer", "frame"])
def test_a_read_in_flight_to_the_killed_primary_is_flushed_at_the_swap(
        cached):
    """A GET whose one-sided Read -- through a cached remote pointer, or
    of the key's bucket frame -- is posted just after the primary's
    machine dies never gets an answer.  The route swap flushes it
    (``WR_FLUSH_ERR``) instead of leaving it to the RC retry timeout, so
    the key demotes to the message path and completes on the promoted
    shard within microseconds of the swap."""
    cfg = SimConfig().with_overrides(
        replication={"replicas": 1},
        client={"rptr_cache_enabled": True},
        traversal={"enabled": True, "min_fanout": 1})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.enable_ha()
    cluster.start()
    sim = cluster.sim
    client = cluster.client()
    swaps: list[int] = []
    done: list[int] = []

    def cache():
        assert (yield from client.get(b"g")) == b"v0"
        assert client.cache.lookup_batch([b"g"], sim.now)[0] is not None

    def get():
        demotions = cluster.metrics.counter("client.demotions").value
        assert (yield from client.get(b"g")) == b"v0"
        assert cluster.metrics.counter("client.demotions").value > demotions
        done.append(sim.now)

    cluster.run(client.put(b"g", b"v0"))
    sim.run(until=sim.now + 20 * MS)
    if cached:
        cluster.run(cache())
    cluster.servers[0].kill()
    _swap_watch(cluster, swaps)
    cluster.run(get())
    assert len(swaps) == 1
    assert 0 <= done[0] - swaps[0] <= CUTOVER_SLACK_NS, done[0] - swaps[0]


def test_healthy_run_leaves_no_waiter_on_the_route_gate():
    """No wait subscribes to ``route_change`` unless its round failed, so
    10k healthy operations leave the gate with no pending event."""
    cfg = SimConfig().with_overrides(replication={"replicas": 1})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=2)
    cluster.enable_ha()
    cluster.start()
    clients = [cluster.client() for _ in range(4)]

    def ops(cid, client):
        for i in range(2_500):
            key = b"c%d-%03d" % (cid, i % 200)
            if i % 2:
                yield from client.get(key)
            else:
                yield from client.put(key, b"v%d" % i)

    cluster.run(*[ops(i, c) for i, c in enumerate(clients)])
    assert cluster.metrics.counter("client.retries").value == 0
    gate = cluster.route_change
    assert not gate.waiting
