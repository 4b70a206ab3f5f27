"""The asynchronous commit pipeline: parked responses behind the log.

Under ``ack_on_flush`` a sweep that staged durable-log records does not
block on the flush: ``Shard._finish_sweep`` parks the sweep's responses
on a FIFO commit queue keyed by the highest log seq it staged and keeps
sweeping; the log's commit callback releases them once every frame of
their group is on media.  Pinned here (docs/PROTOCOLS.md, durability):

* a later sweep's responses go out while an earlier batch is parked —
  including a GET that already sees the parked PUT's value;
* parked batches release in seq order, never before their frames land;
* a killed shard / crashed log sends none of its parked responses and
  counts them, and the client's retry lands on the recovered shard with
  no acked write lost;
* a gray-wedged shard defers release until it recovers;
* a full log stays fail-soft through the parked path.

The PM device is slowed to 200 us per write so "parked" is a window the
tests can stand in.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.core.errors import HydraError
from repro.durable import scan_log
from repro.protocol import Status

_US = 1_000
_MS = 1_000_000
_PM_NS = 200 * _US


def make_cluster(ha=False, **overrides):
    durability = {"enabled": True, "ack_mode": "ack_on_flush",
                  "pm_write_latency_ns": _PM_NS,
                  **overrides.pop("durability", {})}
    cfg = SimConfig().with_overrides(durability=durability, **overrides)
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    if ha:
        cluster.enable_ha()
    cluster.start()
    sid = cluster.routing.shard_ids()[0]
    return cluster, cluster.routing.resolve(sid), cluster.durable_logs[sid]


def counter(cluster, name):
    return cluster.metrics.counter(name).value


def test_later_sweep_is_answered_while_an_earlier_batch_is_parked():
    cluster, shard, _dlog = make_cluster()
    sim = cluster.sim
    writer, reader = cluster.client(), cluster.client()
    done = {}

    def put():
        status = yield from writer.put(b"k", b"new")
        done["put"] = (sim.now, status)

    def get():
        yield sim.timeout(30 * _US)
        assert len(shard._parked) == 1  # the PUT's sweep is parked
        value = yield from reader.get(b"k")
        done["get"] = (sim.now, value, len(shard._parked))

    cluster.run(put(), get())
    # The GET was swept after the parked PUT and answered before the
    # PUT's ack — and it already observes the PUT's value (the same
    # visibility one-sided Reads have always had).
    assert done["get"][1] == b"new" and done["get"][2] == 1
    assert done["get"][0] < _PM_NS < done["put"][0]
    assert done["put"][1] is Status.OK
    assert counter(cluster, "shard.parked_batches") == 1
    assert counter(cluster, "shard.parked_peak") == 1
    assert not shard._parked


def test_parked_batches_release_in_seq_order_once_their_frames_land():
    cluster, shard, dlog = make_cluster()
    sim = cluster.sim
    clients = [cluster.client() for _ in range(3)]
    acked = []
    releases = []
    flush_conn = shard._flush_conn

    def spy(conn, entries):
        scan = scan_log(dlog.device)
        releases.append((sim.now, scan.next_seq))
        flush_conn(conn, entries)

    shard._flush_conn = spy

    def put(i):
        # One sweep each, 30 us apart: the first write starts at once,
        # the other two arrive while it is in flight and share group 2.
        yield sim.timeout(i * 30 * _US)
        yield from clients[i].put(f"k{i}".encode(), b"v")
        acked.append(i)

    cluster.run(*[put(i) for i in range(3)])
    assert acked == [0, 1, 2]
    # Every release saw its group's records on media, one PM write each.
    assert [r[1] for r in releases] == [1, 3, 3]
    assert releases[0][0] >= _PM_NS
    assert releases[1][0] >= 2 * _PM_NS
    assert counter(cluster, "shard.parked_batches") == 3
    assert counter(cluster, "shard.parked_peak") == 3
    assert counter(cluster, "durable.flushes") == 2
    wait = cluster.metrics.tally("durable.commit_wait_ns")
    assert wait.count == 2 and wait.min >= _PM_NS


def test_killed_shard_acks_no_parked_write_and_recovers_without_loss():
    cluster, shard, _dlog = make_cluster(
        ha=True,
        coord={"heartbeat_ns": 50 * _MS, "session_timeout_ns": 200 * _MS},
        client={"op_timeout_ns": 5 * _MS})
    sim = cluster.sim
    client = cluster.client()
    acked = {}

    def app():
        for i in range(4):
            key = f"a{i}".encode()
            yield from client.put(key, b"old")
            acked[key] = b"old"
        sim.process(killer())
        # Parked when the server dies: its response must never be sent;
        # the failover-aware retry replays it on the recovered shard.
        status = yield from client.put(b"a0", b"new")
        assert status is Status.OK
        acked[b"a0"] = b"new"
        # The ack came from the recovered shard: the replay waited out the
        # SWAT verdict and the log recovery.
        assert counter(cluster, "durable.recoveries") == 1
        for key, value in acked.items():
            assert (yield from client.get(key)) == value

    def killer():
        yield sim.timeout(100 * _US)
        assert len(shard._parked) == 1
        cluster.servers[0].kill()
        assert not shard._parked

    doorbells = cluster.metrics.counter("shard.resp_doorbells")
    cluster.run(app())
    assert counter(cluster, "shard.parked_dropped") == 1
    assert counter(cluster, "durable.recoveries") == 1
    # 4 preload acks + the replayed PUT + 4 read-backs; nothing from the
    # dropped batch.
    assert doorbells.value == 9


def test_crashed_log_drops_parked_responses_instead_of_acking():
    cluster, shard, dlog = make_cluster(client={"op_timeout_ns": 1 * _MS})
    sim = cluster.sim
    client = cluster.client(deadline_us=3_000)

    def app():
        with pytest.raises(HydraError):
            yield from client.put(b"k", b"v")

    def crasher():
        yield sim.timeout(100 * _US)
        assert len(shard._parked) == 1
        dlog.crash()

    sim.process(crasher())
    cluster.run(app())
    # The flush never landed, so no attempt of the write was ever acked.
    assert counter(cluster, "shard.parked_dropped") >= 1
    assert counter(cluster, "shard.resp_doorbells") == 0
    assert not shard._parked


def test_gray_failure_defers_release_until_recovery():
    cluster, shard, dlog = make_cluster(client={"op_timeout_ns": 5 * _MS})
    sim = cluster.sim
    client = cluster.client()
    done = []

    def app():
        status = yield from client.put(b"k", b"v")
        done.append((sim.now, status))

    def gray():
        yield sim.timeout(50 * _US)
        shard.gray_fail()
        yield sim.timeout(950 * _US)
        # The flush landed long ago, but a wedged shard posts nothing.
        assert dlog.released_seq == 1 and len(shard._parked) == 1
        assert not done
        shard.gray_recover()
        assert not shard._parked

    sim.process(gray())
    cluster.run(app())
    assert done[0][0] >= 1 * _MS and done[0][1] is Status.OK
    assert counter(cluster, "shard.parked_dropped") == 0


def test_log_full_is_fail_soft_through_the_parked_path():
    # Room for two 64 B-value frames (106 B each), not three.
    cluster, shard, dlog = make_cluster(durability={"log_bytes": 250})
    sim = cluster.sim
    clients = [cluster.client() for _ in range(2)]
    statuses = []

    def put(c, key, delay=0):
        yield sim.timeout(delay)
        statuses.append((yield from clients[c].put(key, b"v" * 64)))

    cluster.run(put(0, b"k0"))
    # k1 takes the last free frame; k2 is staged while that write is in
    # flight, so its sweep is parked behind a group the full log drops.
    cluster.run(put(0, b"k1"), put(1, b"k2", delay=30 * _US))
    # k3 overflows on an idle device: dropped before its sweep finishes.
    cluster.run(put(0, b"k3"))
    # Stated limit of ack_on_flush: overflowing groups are dropped and
    # counted, and their parked acks are still released.
    assert statuses == [Status.OK] * 4
    assert counter(cluster, "durable.log_full") == 2
    assert counter(cluster, "shard.parked_batches") == 3
    assert dlog.flushed_seq == 2 and dlog.released_seq == 4
    assert not shard._parked
