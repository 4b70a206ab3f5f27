"""A one-slot request is one RDMA Write: the shard polls the frame's own
head indicator, so the buffer carries no occupancy word (§4.2.1).

Multi-slot buffers keep the word, chained behind the frame.  A fault
hook that tears nothing records every request-buffer Write in post
order, and a spy on the shard's doorbell counts its rings.
"""

from repro import HydraCluster, SimConfig
from repro.protocol import OCC_WORD_BYTES, Op, frame_len
from repro.protocol.messages import _REQ

KEY, VALUE = b"one-write", b"v" * 24
#: Wire frame of a default handle's GET of KEY (no tenant, no value).
FRAME = frame_len(_REQ.size + len(KEY))


class _ReqWrites:
    """Fault hook: records ``(offset, length)`` of every Write into a
    request buffer, and tears the first one to ``tear`` bytes."""

    def __init__(self, tear=0):
        self.tear = tear
        self.writes: list[tuple[int, int]] = []

    def rdma_write_fault(self, nic, qp, region, offset, data):
        if not region.name.endswith(".req"):
            return None
        self.writes.append((offset, len(data)))
        if self.tear and len(self.writes) == 1:
            return {"torn_bytes": self.tear}
        return None

    def rdma_read_fault(self, nic, qp, region, offset, length):
        return None


def _cluster(slots):
    cfg = SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": slots},
        client={"rptr_cache_enabled": False},
        traversal={"enabled": False})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.route(KEY).store_for_key(KEY).upsert(KEY, VALUE, Op.PUT)
    cluster.start()
    shard = cluster.shards()[0]
    client = cluster.client()
    assert cluster.run(client.get(KEY)) == VALUE  # connects
    rings = []
    ring = shard._mark_ready
    shard._mark_ready = lambda conn: (rings.append(conn), ring(conn))
    return cluster, shard, client, rings


def _counter(cluster, name):
    return cluster.metrics.counter(name).value


def _get(cluster, client, hook):
    """One GET with ``hook`` on the fabric; returns the Writes it cost."""
    cluster.fabric.fault_injector = hook
    writes = _counter(cluster, "rdma.write.ops")
    assert cluster.run(client.get(KEY)) == VALUE
    return _counter(cluster, "rdma.write.ops") - writes


def test_one_slot_get_is_two_writes_and_one_ring():
    cluster, shard, client, rings = _cluster(slots=1)
    conn = shard.conns[0]
    assert not conn.layout.occupancy and conn.req_occ_rptr is None
    assert conn.layout.offset(0) == 0
    hook = _ReqWrites()
    # The request frame and the response frame, nothing else.
    assert _get(cluster, client, hook) == 2
    assert hook.writes == [(0, FRAME)]
    assert rings == [conn]


def test_torn_one_slot_request_is_never_served_and_the_retry_is_answered_once():
    cluster, shard, client, rings = _cluster(slots=1)
    conn = shard.conns[0]
    requests = _counter(cluster, "shard.requests")
    retries = _counter(cluster, "client.retries")
    # Everything but the tail word lands; the indicator rejects the frame.
    hook = _ReqWrites(tear=8 * ((FRAME - 1) // 8))
    _get(cluster, client, hook)
    assert len(hook.writes) == 2           # the torn frame, then the retry
    assert rings[0] is conn                # the torn landing was swept...
    assert _counter(cluster, "shard.bad_requests") == 0
    assert _counter(cluster, "shard.requests") - requests == 1  # ...unserved
    assert _counter(cluster, "client.retries") - retries == 1
    assert _counter(cluster, "client.stale_responses") == 0


def test_two_slot_request_chains_the_frame_then_the_word():
    cluster, shard, client, rings = _cluster(slots=2)
    conn = shard.conns[0]
    assert conn.layout.occupancy and conn.req_occ_rptr is not None
    hook = _ReqWrites()
    # Frame, occupancy word, response frame.
    assert _get(cluster, client, hook) == 3
    assert hook.writes == [(OCC_WORD_BYTES, FRAME), (0, OCC_WORD_BYTES)]
    # Each landing rings the shard: the frame's ring finds no bit set.
    assert rings == [conn, conn]
