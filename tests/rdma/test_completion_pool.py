"""Freelist recycling for pooled CQE records (doorbell-chain completions).

The invariant under test: a :class:`Completion` record handed out by
``CompletionPool.acquire`` is never visible in two completion chains at
once — records only return to the freelist through an explicit
``release``, a second release raises instead of aliasing two in-flight
chains, and an unreleased record is simply never recycled.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.rdma import CompletionPool
from repro.rdma.verbs import Opcode, WcStatus


def _acquire(pool, wr_id=0):
    return pool.acquire(Opcode.RDMA_WRITE, WcStatus.SUCCESS, wr_id=wr_id,
                        byte_len=8, data=b"x" * 8)


def test_acquired_records_are_distinct_until_released():
    pool = CompletionPool()
    chain_a = [_acquire(pool, i) for i in range(4)]
    chain_b = [_acquire(pool, 10 + i) for i in range(4)]
    # No record sits in two chains: all eight are distinct objects and
    # all are live.
    assert len({id(wc) for wc in chain_a + chain_b}) == 8
    assert all(wc._live for wc in chain_a + chain_b)
    assert pool.allocated == 8 and pool.recycled == 0


def test_release_recycles_identity_and_resets_state():
    pool = CompletionPool()
    first = [_acquire(pool, i) for i in range(3)]
    ids = {id(wc) for wc in first}
    pool.release_all(first)
    assert len(pool) == 3
    assert all(not wc._live for wc in first)
    assert all(wc.data is None for wc in first)  # payload refs dropped
    second = [_acquire(pool, 20 + i) for i in range(3)]
    # The freelist reuses the same objects rather than allocating.
    assert {id(wc) for wc in second} == ids
    assert pool.allocated == 3 and pool.recycled == 3
    # Recycled records carry only the new chain's fields.
    assert sorted(wc.wr_id for wc in second) == [20, 21, 22]


def test_double_release_raises_instead_of_aliasing():
    pool = CompletionPool()
    wc = _acquire(pool)
    pool.release(wc)
    with pytest.raises(ValueError):
        pool.release(wc)
    # The failed release did not duplicate the record on the freelist.
    assert len(pool) == 1


def test_foreign_record_release_raises():
    from repro.rdma.verbs import Completion
    pool = CompletionPool()
    stray = Completion(Opcode.RDMA_WRITE, WcStatus.SUCCESS, 0, 0, None)
    with pytest.raises(ValueError):
        pool.release(stray)


def test_cq_poll_into_passes_pooled_records_through():
    """Pooled records traverse a CompletionQueue by reference; the
    scratch-list drain neither copies nor releases them."""
    from repro.rdma.cq import CompletionQueue
    from repro.sim import Simulator

    pool = CompletionPool()
    cq = CompletionQueue(Simulator())
    pushed = [_acquire(pool, i) for i in range(5)]
    for wc in pushed:
        cq.push(wc)
    scratch: list = []
    assert cq.poll_into(scratch, max_entries=3) == 3
    assert cq.poll_into(scratch) == 2 and len(cq) == 0
    assert [id(wc) for wc in scratch] == [id(wc) for wc in pushed]
    assert all(wc._live for wc in scratch)  # release stays with consumer
    pool.release_all(scratch)
    assert len(pool) == 5


def test_unreleased_records_are_not_recycled():
    pool = CompletionPool()
    held = _acquire(pool, 1)
    fresh = _acquire(pool, 2)
    assert fresh is not held
    assert pool.recycled == 0 and pool.allocated == 2


class _PoolProxy:
    """Wraps a CompletionPool, asserting no record is re-acquired while
    it is still live in another chain (pool call sites resolve
    ``nic.wc_pool`` at call time, so swapping the attribute intercepts
    every acquire/release)."""

    def __init__(self, pool, live: set):
        self._pool = pool
        self._live = live

    def acquire(self, *args, **kwargs):
        wc = self._pool.acquire(*args, **kwargs)
        assert id(wc) not in self._live, \
            "completion record recycled while still live in another chain"
        self._live.add(id(wc))
        return wc

    def release(self, wc):
        self._pool.release(wc)
        self._live.discard(id(wc))

    def release_all(self, wcs):
        for wc in wcs:
            self.release(wc)

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def __len__(self):
        return len(self._pool)


def one_sided_traffic(cluster, client):
    """Pooled CQEs flow only on one-sided Read chains (message-path Writes
    are unsignaled): rptr-hit GETs of cached keys interleaved with cold
    ``get_many`` fan-outs that traverse the exported index."""
    from repro.protocol import Op
    for i in range(16):
        key = b"cold%d" % i
        cluster.route(key).store_for_key(key).upsert(key, b"c%d" % i, Op.PUT)

    def app():
        for i in range(8):
            yield from client.put(b"k%d" % i, b"v%d" % i)
        for i in range(40):
            if i % 4 == 0:
                yield from client.get_many(
                    [b"cold%d" % ((i + j) % 16) for j in range(4)])
            else:
                assert (yield from client.get(b"k%d" % (i % 8))) \
                    == b"v%d" % (i % 8)

    return app()


def test_live_flag_holds_under_cluster_traffic():
    """End to end: while a cluster runs one-sided traffic, every record
    any NIC pool hands out must have been released first —
    acquire-while-live would mean one CQE aliased into two chains — and
    once the traffic is done every record is back on its freelist."""
    cfg = SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 4},
        client={"max_inflight_per_conn": 4})
    cluster = HydraCluster(cfg, n_server_machines=1, shards_per_server=2)
    cluster.start()
    live: set[int] = set()
    pools = []
    for machine in cluster.server_machines + cluster.client_machines:
        pools.append(machine.nic.wc_pool)
        machine.nic.wc_pool = _PoolProxy(machine.nic.wc_pool, live)
    client = cluster.client()
    cluster.run(one_sided_traffic(cluster, client))
    assert sum(p.recycled for p in pools) > 0, \
        "no record was ever recycled"
    # The gather hands every chain's records back: each pool ends up
    # holding every record it ever allocated.
    assert all(len(p) == p.allocated for p in pools)
