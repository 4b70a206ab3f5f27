"""One ring doorbell per sweep (docs/PROTOCOLS.md, replication).

A sweep's replication records are staged in seq order and posted, when
the sweep ends and before any of its responses leaves, to each
secondary as one doorbell chain; the primary pays ``post_cost_ns`` per
chain and secondary.  Pinned here:

* a sweep serving k writes posts one chain per secondary holding its k
  records in seq order, one WQE, for ``post_cost_ns`` per secondary;
* pipelined lanes keep ring order equal to seq order;
* under HA no response leaves before its chain completes, and a failed
  chain detaches the link and retires none of its seqs;
* a ring that fills mid-chain places the rest in order;
* the stated limit of acks on post: no response is flushed before its
  record's ring Write is posted.
"""

import struct

from repro import HydraCluster, SimConfig
from repro.protocol import Status
from repro.protocol.indicator import HEAD_MAGIC
from repro.protocol.ringbuf import WRAP_MAGIC
from repro.replication import LogRecord, RecordType

_U64 = struct.Struct("<Q")
_MS = 1_000_000


def make_cluster(ha=False, replicas=1, replication=None, hydra=None):
    cfg = SimConfig().with_overrides(
        replication={"replicas": replicas, **(replication or {})},
        hydra={"msg_slots_per_conn": 8, **(hydra or {})},
        client={"rptr_cache_enabled": False, "max_inflight_per_conn": 8},
        traversal={"enabled": False})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    if ha:
        cluster.enable_ha()
    cluster.start()
    shard = cluster.shards()[0]
    return cluster, shard, cluster.replicators[shard.shard_id]


def decode(data: bytes) -> list[tuple[RecordType, int]]:
    """The (type, seq) of every record framed in one ring Write."""
    out, off = [], 0
    while off < len(data):
        head = _U64.unpack_from(data, off)[0]
        if head >> 32 == WRAP_MAGIC:
            break
        assert head >> 32 == HEAD_MAGIC
        size = head & 0xFFFFFFFF
        rec = LogRecord.decode(data[off + 8:off + 8 + size])
        out.append((rec.rtype, rec.seq))
        off += (8 + size + 8 + 7) & ~7
    return out


def spy_chains(rep, log: list) -> None:
    """Append ``("post", link index, [WQE bytes...])`` to ``log`` for
    every chain posted to a secondary."""
    for i, link in enumerate(rep.links):
        post = link.qp.post_write_batch

        def spy(wqes, signaled=True, i=i, post=post):
            log.append(("post", i, [data for _rptr, data in wqes]))
            return post(wqes, signaled=signaled)

        link.qp.post_write_batch = spy


def data_seqs(wqes) -> list[int]:
    return [seq for data in wqes for rtype, seq in decode(data)
            if rtype is RecordType.DATA]


def test_a_sweep_posts_one_ring_chain_per_secondary():
    cluster, shard, rep = make_cluster(replicas=2)
    chains: list = []
    spy_chains(rep, chains)
    posts = []  # (data records staged, cost charged, chains of the call)
    post_staged = rep.post_staged

    def spy_post():
        staged = [seq for seq, _p in rep.staged if seq]
        before = len(chains)
        cost, ev = post_staged()
        posts.append((staged, cost, chains[before:]))
        return cost, ev

    rep.post_staged = spy_post
    client = cluster.client()

    def app():
        for r in range(4):
            items = [(b"k%d-%d" % (r, i), b"v" * 32) for i in range(8)]
            assert (yield from client.put_many(items)) \
                == [Status.OK] * len(items)

    cluster.run(app())
    post_ns = cluster.config.replication.post_cost_ns
    assert sum(len(staged) for staged, _c, _ch in posts) == 32
    assert max(len(staged) for staged, _c, _ch in posts) >= 2
    for staged, cost, calls in posts:
        # k records in seq order, one chain per secondary, each one WQE
        # holding all k, for post_cost_ns per secondary.
        assert staged == list(range(staged[0], staged[0] + len(staged)))
        assert [i for _op, i, _w in calls] == [0, 1]
        for _op, _i, wqes in calls:
            assert len(wqes) == 1
            assert data_seqs(wqes) == staged
        assert cost == 2 * post_ns
    assert counter(cluster, "repl.records") == 32


def test_pipelined_lanes_keep_ring_order_equal_to_seq_order():
    cluster, shard, rep = make_cluster(hydra={"pipelined_shards": True})
    chains: list = []
    spy_chains(rep, chains)
    clients = [cluster.client() for _ in range(4)]

    def app(c, client):
        for r in range(6):
            items = [(b"c%d-%d-%d" % (c, r, i), b"v%d" % r)
                     for i in range(8)]
            yield from client.put_many(items)

    cluster.run(*[app(c, client) for c, client in enumerate(clients)])
    cluster.sim.run(until=cluster.sim.now + 2 * _MS)
    posted = [seq for _op, _i, wqes in chains for seq in data_seqs(wqes)]
    assert posted == list(range(1, 4 * 6 * 8 + 1))
    assert counter(cluster, "repl.resends") == 0
    assert counter(cluster, "replica.discarded") == 0
    sec = cluster.secondaries[shard.shard_id][0]
    assert sec.store.dump() == shard.store.dump()


def test_under_ha_no_response_leaves_before_its_chain_completes():
    cluster, shard, rep = make_cluster(ha=True)
    sim = cluster.sim
    landed: dict[int, int] = {}  # seq -> when its chain completed
    link = rep.links[0]
    post = link.qp.post_write_batch

    def spy(wqes, signaled=True):
        ev = post(wqes, signaled=signaled)
        if signaled:
            seqs = data_seqs([data for _rptr, data in wqes])
            ev.callbacks.append(
                lambda _ev: landed.update((s, sim.now) for s in seqs))
        return ev

    link.qp.post_write_batch = spy
    client = cluster.client()
    acked: list[tuple[int, int]] = []  # (seq, when the client saw it)

    def app():
        for i in range(20):
            assert (yield from client.put(b"k%d" % i, b"v")) is Status.OK
            acked.append((i + 1, sim.now))

    cluster.run(app())
    assert len(acked) == 20
    for seq, at in acked:
        assert landed[seq] < at


def test_a_failed_chain_detaches_the_link_and_retires_none_of_its_seqs():
    """Two secondaries; one's ring rkey is revoked, so its next chain
    fails.  Until that failure completes, the writes the chain carries
    stay unanswered; it then detaches that link alone, with the chain's
    seqs never counted as landed on it."""
    cluster, shard, rep = make_cluster(ha=True, replicas=2)
    sim = cluster.sim
    dead, live = rep.links
    client = cluster.client()
    retired: list = []  # (when, seqs, ok) of each chain of ``dead``
    completed = rep._completed

    def spy(link, seqs, ev):
        if link is dead:
            retired.append((sim.now, list(seqs),
                            all(wc.ok for wc in ev.value)))
        completed(link, seqs, ev)

    rep._completed = spy
    acked: list[int] = []

    def app():
        yield from client.put(b"warm", b"v")
        dead.secondary.ring_region.revoke()
        items = [(b"k%d" % i, b"v") for i in range(8)]
        assert (yield from client.put_many(items)) == [Status.OK] * 8
        acked.append(sim.now)

    cluster.run(app())
    ok = [r for r in retired if r[2]]
    failed = [r for r in retired if not r[2]]
    assert [seqs for _t, seqs, _ok in ok] == [[1]]
    assert failed and failed[0][1][0] == 2
    assert acked[0] > failed[0][0]  # no ack before the failure detached
    assert rep.links == [live]
    assert dead.secondary not in cluster.secondaries[shard.shard_id]
    assert counter(cluster, "repl.detached") == 1
    assert not dead.unlanded


def test_a_ring_full_mid_chain_places_the_rest_in_order():
    cluster, shard, rep = make_cluster(
        replication={"log_bytes": 1024, "ack_interval": 4})
    chains: list = []
    spy_chains(rep, chains)
    deferred = []
    link = rep.links[0]
    post_chain = link.post_chain

    def spy(records):
        blocked = post_chain(records)
        deferred.append(len(link.backlog))
        return blocked

    link.post_chain = spy
    client = cluster.client()

    def app():
        for r in range(6):
            items = [(b"k%d-%d" % (r, i), b"x" * 64) for i in range(8)]
            assert (yield from client.put_many(items)) == [Status.OK] * 8

    cluster.run(app())
    cluster.sim.run(until=cluster.sim.now + 2 * _MS)
    assert max(deferred) > 0  # some chain found the ring full part-way
    posted = [seq for _op, _i, wqes in chains for seq in data_seqs(wqes)]
    assert posted == list(range(1, 49))
    assert counter(cluster, "repl.resends") == 0
    assert counter(cluster, "replica.discarded") == 0
    sec = cluster.secondaries[shard.shard_id][0]
    assert sec.applied_seq == 48
    assert sec.store.dump() == shard.store.dump()


def test_no_response_is_flushed_before_its_ring_write_is_posted():
    """The stated limit of acks on post (no HA, ``ack_on_replicate``):
    a response may leave once its record's ring Write is posted, never
    before -- so a response can precede its record's landing, and that
    window is the exposure PROTOCOLS.md states."""
    cluster, shard, rep = make_cluster()
    events: list = []
    spy_chains(rep, events)
    flush_conn = shard._flush_conn

    def spy_flush(conn, entries):
        events.append(("flush", len(entries), rep.seq))
        flush_conn(conn, entries)

    shard._flush_conn = spy_flush
    client = cluster.client()

    def app():
        for r in range(4):
            items = [(b"k%d-%d" % (r, i), b"v") for i in range(8)]
            yield from client.put_many(items)

    cluster.run(app())
    posted = 0
    for event in events:
        if event[0] == "post":
            posted = max([posted] + data_seqs(event[2]))
        else:
            # Every write answered so far has its record on the wire.
            assert posted == event[2]
    assert posted == 32


def counter(cluster, name):
    return cluster.metrics.counter(name).value
