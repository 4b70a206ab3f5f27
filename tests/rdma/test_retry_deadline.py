"""The per-NIC RC transport-retry deadline queue (``Nic._watch``).

One FIFO of ``(deadline, completion event, ...)`` per NIC with a single
timer armed for its head replaces a 2 ms ``Timeout`` per WQE.  What must
hold, whether the kernel dispatches whole timestamps (``flat``) or one
event per ``step()`` (``scalar``): an op that is never acked completes
with ``RETRY_EXC`` at exactly ``post + retry_timeout_ns`` in post order,
an acked op is never touched again, and nothing the NIC or the kernel
holds grows with the number of ops acked in the last 2 ms.
"""

import gc

import pytest

from repro.rdma import RemotePointer, WcStatus
from repro.rdma.nic import _WriteOp
from repro.sim import kernel_snapshot

from tests.dispatch import dispatching, granularities

from .conftest import Rig

both_granularities = granularities("flat", "scalar")


def _rig(per_event):
    rig = Rig()
    dispatching(rig.sim, per_event)
    return rig


class _Faults:
    """Stand-in for ``repro.chaos.FaultInjector``: a fixed verdict for
    every Write and another for every Read."""

    def __init__(self, write=None, read=None):
        self.write, self.read = write, read

    def rdma_write_fault(self, *_a):
        return self.write

    def rdma_read_fault(self, *_a):
        return self.read


def _stamp(sim, ev, log, tag=None):
    """Record (time, tag, status) when ``ev`` is processed."""
    ev.callbacks.append(
        lambda e: log.append((sim.now, tag, e.value.status)))
    return ev


def _expected(rig, posted_at):
    return posted_at + rig.config.fabric.retry_timeout_ns


# -- RETRY_EXC at exactly post + retry_timeout_ns ------------------------------

@both_granularities
@pytest.mark.parametrize("case", ["dropped_write", "torn_write",
                                  "dead_peer_write", "dropped_read",
                                  "dead_peer_send"])
def test_unacked_op_expires_at_exactly_post_plus_timeout(per_event, case):
    rig = _rig(per_event)
    qa, _qb = rig.connect()
    region = rig.region(1)
    rptr = RemotePointer(region.rkey, 0, 64)
    # Some acked traffic first, so the post under test is not at t=0 and
    # the timer is already armed for an older (completed) head.
    for _ in range(3):
        rig.sim.run(until=qa.post_write(rptr, b"w" * 64))
    if case == "dropped_write":
        rig.fabric.fault_injector = _Faults(write={"drop": True})
    elif case == "torn_write":
        rig.fabric.fault_injector = _Faults(write={"torn_bytes": 8})
    elif case == "dropped_read":
        rig.fabric.fault_injector = _Faults(read={"drop": True})
    else:
        rig.machines[1].nic.fail()
    posted_at = rig.sim.now
    if case.endswith("write"):
        ev = qa.post_write(rptr, b"x" * 64)
    elif case.endswith("read"):
        ev = qa.post_read(rptr)
    else:
        ev = qa.post_send(b"hello")
    log = []
    _stamp(rig.sim, ev, log)
    rig.sim.run()
    assert log == [(_expected(rig, posted_at), None, WcStatus.RETRY_EXC)]
    if case == "torn_write":
        assert region.read(0, 16) == b"x" * 8 + b"w" * 8
    assert not rig.machines[0].nic._retry_q


@both_granularities
def test_same_nanosecond_posts_expire_in_post_order(per_event):
    rig = _rig(per_event)
    qa, _qb = rig.connect()
    qc, _qd = rig.connect()
    region = rig.region(1)
    rptr = RemotePointer(region.rkey, 0, 8)
    rig.machines[1].nic.fail()
    log = []
    # Two QPs, three verbs, one nanosecond: the order they were posted in
    # is the order they fail in.
    _stamp(rig.sim, qc.post_write(rptr, b"1" * 8), log, "c-write")
    _stamp(rig.sim, qa.post_read(rptr), log, "a-read")
    _stamp(rig.sim, qa.post_write(rptr, b"2" * 8), log, "a-write")
    rig.sim.run(until=rig.sim.timeout(1_000))
    _stamp(rig.sim, qc.post_write(rptr, b"3" * 8), log, "later")
    rig.sim.run()
    t = rig.config.fabric.retry_timeout_ns
    assert log == [(t, "c-write", WcStatus.RETRY_EXC),
                   (t, "a-read", WcStatus.RETRY_EXC),
                   (t, "a-write", WcStatus.RETRY_EXC),
                   (t + 1_000, "later", WcStatus.RETRY_EXC)]


@both_granularities
def test_unacked_op_behind_acked_ones_still_expires_on_time(per_event):
    """The timer is armed for a head that then completes; the fire at that
    stale deadline must re-arm for the op actually still in flight."""
    rig = _rig(per_event)
    qa, _qb = rig.connect()
    region = rig.region(1)
    rptr = RemotePointer(region.rkey, 0, 8)
    first = qa.post_write(rptr, b"a" * 8)        # arms the timer, t=0
    rig.sim.run(until=rig.sim.timeout(700))
    rig.fabric.fault_injector = _Faults(write={"drop": True})
    lost = qa.post_write(rptr, b"b" * 8)         # t=700, never acked
    rig.fabric.fault_injector = None
    log = []
    _stamp(rig.sim, lost, log)
    rig.sim.run()
    assert first.value.status is WcStatus.SUCCESS
    assert log == [(_expected(rig, 700), None, WcStatus.RETRY_EXC)]


# -- acked ops are left alone ---------------------------------------------------

@both_granularities
def test_acked_op_is_never_failed_later(per_event):
    rig = _rig(per_event)
    qa, qb = rig.connect()
    region = rig.region(1)
    rptr = RemotePointer(region.rkey, 0, 32)
    qb.post_recv()
    evs = [qa.post_write(rptr, b"x" * 32), qa.post_read(rptr),
           qa.post_send(b"two-sided")]
    values = [rig.sim.run(until=ev) for ev in evs]
    assert all(wc.status is WcStatus.SUCCESS for wc in values)
    # Run far past every deadline: the timer fires, sheds the completed
    # entries, and leaves the completions exactly as they were.
    rig.sim.run(until=rig.sim.now + 3 * rig.config.fabric.retry_timeout_ns)
    assert [ev.value for ev in evs] == values
    assert all(wc.status is WcStatus.SUCCESS for wc in values)
    nic = rig.machines[0].nic
    assert not nic._retry_q and nic._retry_timer.idle


@both_granularities
def test_fire_over_completed_entries_touches_no_completion(per_event):
    rig = _rig(per_event)
    qa, _qb = rig.connect()
    nic = rig.machines[0].nic
    region = rig.region(1)
    rptr = RemotePointer(region.rkey, 0, 8)
    touched = []
    real = nic._fail_completion
    nic._fail_completion = lambda *a, **k: (touched.append(a), real(*a, **k))
    half = rig.config.fabric.retry_timeout_ns // 2
    # A burst posted back to back, so acked entries sit *behind* the head
    # (a post only sheds completed heads) until the timer fires.
    burst = [qa.post_write(rptr, b"a" * 8) for _ in range(4)]
    rig.sim.run(until=half)
    assert all(ev.triggered for ev in burst) and len(nic._retry_q) == 4
    second = qa.post_write(rptr, b"b" * 8)       # sheds the burst
    assert len(nic._retry_q) == 1
    rig.sim.run(until=second)
    # The fire at t = timeout finds one entry, acked, its own deadline
    # still ahead: shed it and disarm, completing nothing.
    rig.sim.run(until=rig.config.fabric.retry_timeout_ns + 1)
    assert not nic._retry_q and nic._retry_timer.idle
    # Re-armed by the next post; a fire that finds a live entry re-arms.
    rig.fabric.fault_injector = _Faults(write={"drop": True})
    t_lost = rig.sim.now
    lost = qa.post_write(rptr, b"c" * 8)
    assert not nic._retry_timer.idle
    rig.sim.run(until=lost)
    assert rig.sim.now == _expected(rig, t_lost)
    assert [a[2] for a in touched] == [WcStatus.RETRY_EXC]
    assert touched[0][0] is lost


# -- footprint tracks the in-flight window --------------------------------------

@both_granularities
def test_closed_loop_footprint_is_bounded_by_the_window(per_event):
    """20,000 acked writes, 4 in flight: before, each left a 2 ms timer
    (and its pooled record) behind — ~6,900 of each at any instant at
    this rate."""
    window, total = 4, 20_000
    rig = _rig(per_event)
    qa, _qb = rig.connect()
    nic = rig.machines[0].nic
    region = rig.region(1)
    rptr = RemotePointer(region.rkey, 0, 32)
    peak_q = 0

    def worker(n):
        nonlocal peak_q
        for _ in range(n):
            wc = yield qa.post_write(rptr, b"p" * 32)
            assert wc.status is WcStatus.SUCCESS
            peak_q = max(peak_q, len(nic._retry_q))

    procs = [rig.sim.process(worker(total // window)) for _ in range(window)]
    rig.sim.run(until=rig.sim.all_of(procs))
    assert rig.sim.now > 2 * rig.config.fabric.retry_timeout_ns
    assert peak_q <= window
    assert kernel_snapshot(rig.sim)["peak_calendar"] <= 4 * window + 8
    gc.collect()
    live = sum(isinstance(o, _WriteOp) for o in gc.get_objects())
    assert live <= window
    assert len(nic._write_ops) == live   # all back on the freelist


# -- own-NIC fail() / recover() mid-flight --------------------------------------

@both_granularities
def test_own_nic_fail_and_recover_mid_flight(per_event):
    rig = _rig(per_event)
    qa, _qb = rig.connect()
    nic = rig.machines[0].nic
    region = rig.region(1)
    region.write(0, b"r" * 8)
    rptr = RemotePointer(region.rkey, 0, 8)
    log = []
    # A Write already on the wire is acked regardless; a Read's response
    # is dropped at the dead initiator and only the deadline ends it.
    _stamp(rig.sim, qa.post_write(rptr, b"w" * 8), log, "write")
    _stamp(rig.sim, qa.post_read(rptr), log, "read")
    rig.sim.run(until=rig.sim.timeout(300))
    nic.fail()
    _stamp(rig.sim, qa.post_write(rptr, b"n" * 8), log, "while-down")
    rig.sim.run(until=rig.sim.timeout(20_000))
    nic.recover()
    t_up = rig.sim.now
    _stamp(rig.sim, qa.post_read(rptr), log, "after")
    rig.sim.run()
    assert [(tag, status) for _t, tag, status in log] == [
        ("while-down", WcStatus.LOCAL_QP_ERR),
        ("write", WcStatus.SUCCESS),
        ("after", WcStatus.SUCCESS),
        ("read", WcStatus.RETRY_EXC),
    ]
    times = {tag: t for t, tag, _s in log}
    assert times["while-down"] == 300
    assert t_up < times["after"] < t_up + 10_000
    assert times["read"] == rig.config.fabric.retry_timeout_ns
    assert not nic._retry_q and nic._retry_timer.idle
