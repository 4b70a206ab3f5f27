"""NIC engine costing, pinned against hand-computed timelines.

A job on a NIC's serial TX or RX engine costs its per-verb work plus the
QP-cache penalty of the NIC's live QP count *at the instant the job's
service starts* — not when it was posted.  A WQE queued behind a busy
engine therefore sees a QP that connects (or leaves) while it waits.
The pooled WQE record recycles only after every hop it scheduled has run,
and its hops never rearm a timer that is still in flight.
"""

from repro.config import SimConfig
from repro.rdma import RemotePointer, WcStatus

from .conftest import Rig

#: Two cached QP contexts per NIC: the sixth QP already pays a penalty.
_CFG = SimConfig().with_overrides(nic={"qp_cache_entries": 2})
_MANY = 6
_PAYLOAD = b"p" * 32


def _rig():
    rig = Rig(_CFG)
    log = []
    region = rig.region(1)
    region.subscribe(lambda r: log.append(rig.sim.now))
    return rig, region, log


def _costs(rig):
    """``(tx(n), rx(n), prop)``: a 32-byte Write's TX and RX engine
    costs with ``n`` live QPs on the engine's NIC, and the wire delay."""
    cfg = rig.config

    def tx(n):
        return (cfg.nic.tx_op_ns + cfg.nic.qp_penalty_ns(n)
                + cfg.fabric.serialization_ns(len(_PAYLOAD)))

    def rx(n):
        return cfg.nic.rx_op_ns + cfg.nic.qp_penalty_ns(n)

    return tx, rx, cfg.fabric.propagation_ns


def _two_queued_writes(rig, qp, region, t0, change):
    """Post two Writes at ``t0`` (the second queues behind the first on
    the TX engine), apply ``change`` at ``t0 + 1`` while it waits."""
    sim = rig.sim
    sim.run(until=t0)
    for off in (0, 32):
        assert qp.post_write(RemotePointer(region.rkey, off, 32), _PAYLOAD,
                             signaled=False)
    sim.run(until=t0 + 1)
    change()
    sim.run()


def _expected(rig, t0, n_before, n_after):
    """Delivery times of the two queued Writes: the first starts TX at
    ``t0`` with ``n_before`` QPs; everything later starts after the
    change, with ``n_after`` on both NICs."""
    tx, rx, prop = _costs(rig)
    tx1_done = t0 + tx(n_before)
    tx2_done = tx1_done + tx(n_after)
    rx1_done = tx1_done + prop + rx(n_after)
    rx2_done = max(tx2_done + prop, rx1_done) + rx(n_after)
    return [rx1_done, rx2_done]


def test_queued_wqe_pays_the_penalty_of_a_qp_that_connected_while_it_waited():
    rig, region, log = _rig()
    qa, _qb = rig.connect()
    nic = rig.machines[0].nic
    _two_queued_writes(rig, qa, region, 100,
                       lambda: [rig.connect() for _ in range(_MANY - 1)])
    assert len(nic.qps) == _MANY
    assert rig.config.nic.qp_penalty_ns(_MANY) > 0
    assert log == _expected(rig, 100, 1, _MANY)


def test_queued_wqe_sheds_the_penalty_of_a_qp_destroyed_while_it_waited():
    rig, region, log = _rig()
    qa, _qb = rig.connect()
    extra = [rig.connect() for _ in range(_MANY - 1)]
    nic = rig.machines[0].nic

    def destroy():
        for a, b in extra:
            a.destroy()
            b.destroy()

    _two_queued_writes(rig, qa, region, 100, destroy)
    assert len(nic.qps) == 1
    assert log == _expected(rig, 100, _MANY, 1)


def test_charged_penalty_tracks_every_qp_join_and_leave():
    rig, region, log = _rig()
    qa, _qb = rig.connect()
    nics = [m.nic for m in rig.machines]
    cfg = rig.config.nic
    tx, rx, prop = _costs(rig)
    sim = rig.sim

    def check():
        """A lone Write on the idle NIC pair pays the penalty of the live
        QP count twice (TX and RX; both NICs hold the same count)."""
        n = len(nics[0].qps)
        assert len(nics[1].qps) == n
        sim.run(until=sim.now + 10_000)
        start = sim.now
        qa.post_write(RemotePointer(region.rkey, 0, 32), _PAYLOAD,
                      signaled=False)
        sim.run()
        assert log[-1] - start == tx(n) + prop + rx(n)

    check()
    extra = [rig.connect() for _ in range(_MANY)]
    check()
    assert cfg.qp_penalty_ns(len(nics[0].qps)) > 0
    a, b = extra.pop()
    a.destroy()
    b.destroy()
    check()
    a.destroy()  # double destroy: a no-op
    b.destroy()
    check()
    a, _b = extra.pop()
    a.force_error()  # tears down both endpoints
    check()


def test_cached_penalty_is_repriced_at_every_qp_join_and_leave():
    rig, _region, _log = _rig()
    nics = [m.nic for m in rig.machines]
    cfg = rig.config.nic

    def check():
        for nic in nics:
            assert nic.pen == cfg.qp_penalty_ns(len(nic.qps))

    check()
    pairs = [rig.connect() for _ in range(_MANY)]
    check()
    assert nics[0].pen > 0
    a, b = pairs.pop()
    a.destroy()
    check()
    a.destroy()  # double destroy
    check()
    b.destroy()
    check()
    a, _b = pairs.pop()
    a.force_error()
    check()
    assert len(nics[0].qps) == _MANY - 2


# -- duplicate delivery and record recycling ----------------------------------

class _Duplicate:
    def rdma_write_fault(self, *_a):
        return {"duplicate": True}

    def rdma_read_fault(self, *_a):
        return None


def test_duplicate_delivers_twice_acks_once_and_recycles_after_both_hops():
    rig, region, log = _rig()
    qa, _qb = rig.connect()
    nic = rig.machines[0].nic
    rig.fabric.fault_injector = _Duplicate()
    sim = rig.sim
    acked = []

    def on_ack(ev):
        # The ack beats the redelivery: the record must still be live.
        acked.append((sim.now, ev.value.status, len(nic._write_ops)))

    ev = qa.post_write(RemotePointer(region.rkey, 0, 32), _PAYLOAD)
    ev.callbacks.append(on_ack)
    sim.run()
    tx, rx, prop = _costs(rig)
    first = tx(1) + prop + rx(1)
    assert log == [first, first + 2 * prop + rx(1)]
    assert acked == [(first + prop, WcStatus.SUCCESS, 0)]
    assert len(nic._write_ops) == 1  # recycled once both hops ran


def test_back_to_back_duplicates_never_rearm_a_timer_in_flight():
    """Records recycle through many duplicated Writes and Reads; a hop
    that rearmed a pooled timer still in flight would raise
    (``PooledTimer.rearm``'s contract)."""
    rig, region, log = _rig()
    qa, _qb = rig.connect()
    rig.fabric.fault_injector = _Duplicate()
    sim = rig.sim

    def worker():
        for i in range(50):
            rptr = RemotePointer(region.rkey, 32 * (i % 4), 32)
            evs = [qa.post_write(rptr, _PAYLOAD), qa.post_read(rptr),
                   qa.post_write(rptr, _PAYLOAD, signaled=False)]
            for ev in evs[:2]:
                wc = yield ev
                assert wc.status is WcStatus.SUCCESS

    sim.run(until=sim.process(worker()))
    sim.run()
    assert len(log) == 50 * 2 * 2
