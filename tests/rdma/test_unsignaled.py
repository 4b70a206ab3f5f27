"""Unsignaled RDMA Writes and inline chain completions.

An unsignaled Write (verbs: ``IBV_SEND_SIGNALED`` clear) runs the same
tx -> fly -> rx -> deliver hops as a signaled one and lands the same bytes
at the same instant under every fault, then stops: no ack, no CQE, no
retry deadline, and its pooled record is back on the freelist at
delivery.  Only a post-time failure (``LOCAL_QP_ERR``) is reported, and
synchronously.  A successful WQE of a signaled doorbell chain runs the
chain collector inline at its completing hop; the chain's one batch event
still fires at the same instant with the same CQE stamps.  Each of these
holds whether the kernel dispatches whole timestamps (``flat``) or one
event per ``step()`` (``scalar``).
"""

import gc

import pytest

from repro import HydraCluster, SimConfig
from repro.rdma import RemotePointer, WcStatus
from repro.rdma.nic import _ChainWqe, _WriteOp
from repro.sim import kernel_snapshot
from repro.sim.events import Event

from tests.dispatch import dispatching, granularities

from .conftest import Rig

both_granularities = granularities("flat", "scalar")


def _rig(per_event):
    rig = Rig()
    dispatching(rig.sim, per_event)
    return rig


class _Faults:
    """Stand-in for ``repro.chaos.FaultInjector``: a fixed verdict for
    every Write, and a per-offset one for Reads."""

    def __init__(self, write=None, read=lambda _offset: None):
        self.write, self.read = write, read

    def rdma_write_fault(self, *_a):
        return self.write

    def rdma_read_fault(self, _nic, _qp, _region, offset, _length):
        return self.read(offset)


def _landings(rig, region):
    """(time, first 32 bytes) at every write that reaches ``region``."""
    log = []
    region.subscribe(lambda r: log.append((rig.sim.now, r.read(0, 32))))
    return log


def _idle(nic):
    return not nic._retry_q and nic._retry_timer.idle


# -- same landing, nothing left behind -----------------------------------------

@both_granularities
def test_unsignaled_write_lands_like_a_signaled_one(per_event):
    logs = {}
    for signaled in (True, False):
        rig = _rig(per_event)
        qa, _qb = rig.connect()
        nic = rig.machines[0].nic
        region = rig.region(1)
        log = _landings(rig, region)
        rig.sim.run(until=rig.sim.timeout(100))  # post off t=0
        out = qa.post_write(RemotePointer(region.rkey, 0, 32), b"u" * 32,
                            signaled=signaled)
        if signaled:
            assert rig.sim.run(until=out).status is WcStatus.SUCCESS
            rig.sim.run()  # the retry timer fires once, over an acked head
        else:
            assert out is True
            rig.sim.run()
            # Delivery was the last event: no ack, CQE or deadline after it.
            assert rig.sim.now == log[-1][0]
            assert rig.sim.peek() is None
        assert _idle(nic)
        assert len(nic._write_ops) == 1  # back on the freelist
        logs[signaled] = log
    assert logs[False] == logs[True] == [(logs[True][0][0], b"u" * 32)]


# -- post-time failures are returned, not completed ------------------------------

@both_granularities
def test_local_qp_err_is_returned_at_post(per_event):
    rig = _rig(per_event)
    qa, _qb = rig.connect()
    nic = rig.machines[0].nic
    region = rig.region(1)
    log = _landings(rig, region)

    def at(off):
        return RemotePointer(region.rkey, off, 8)

    # A stale rkey inside a chain fails alone; the rest of the chain lands.
    assert qa.post_write_batch([(at(0), b"a" * 8),
                                (RemotePointer(999_999, 0, 8), b"b" * 8),
                                (at(8), b"c" * 8)], signaled=False) == 1
    rig.sim.run()
    assert region.read(0, 16) == b"a" * 8 + b"c" * 8 and len(log) == 2
    # A dead local NIC fails every WQE at post and schedules nothing.
    nic.fail()
    assert qa.post_write(at(16), b"d" * 8, signaled=False) is False
    assert qa.post_write_batch([(at(16), b"d" * 8), (at(24), b"e" * 8)],
                               signaled=False) == 2
    assert rig.sim.peek() is None
    assert region.read(16, 16) == bytes(16) and len(log) == 2
    assert _idle(nic)
    assert len(nic._write_ops) == 2


# -- fault injection behaves as before ------------------------------------------

@both_granularities
@pytest.mark.parametrize("case", ["drop", "torn", "duplicate", "delay",
                                  "dead_peer"])
def test_faults_land_the_same_bytes_and_leave_no_deadline(per_event, case):
    fault = {"drop": {"drop": True}, "torn": {"torn_bytes": 8},
             "duplicate": {"duplicate": True},
             "delay": {"delay_ns": 700}}.get(case)
    logs = {}
    for signaled in (True, False):
        rig = _rig(per_event)
        qa, _qb = rig.connect()
        nic = rig.machines[0].nic
        region = rig.region(1)
        region.write(0, b"w" * 32)
        log = _landings(rig, region)
        rig.fabric.fault_injector = _Faults(write=fault)
        if case == "dead_peer":
            rig.machines[1].nic.fail()
        out = qa.post_write(RemotePointer(region.rkey, 0, 32), b"f" * 32,
                            signaled=signaled)
        rig.sim.run()
        if signaled:
            lost = case in ("drop", "torn", "dead_peer")
            assert out.value.status is (WcStatus.RETRY_EXC if lost
                                        else WcStatus.SUCCESS)
        else:
            assert out is True
            # Whatever happened on the wire, nothing fires 2 ms later.
            assert rig.sim.now < rig.config.fabric.retry_timeout_ns
            assert not log or rig.sim.now == log[-1][0]
        assert _idle(nic)
        assert len(nic._write_ops) == 1
        logs[signaled] = log
    assert logs[False] == logs[True]
    expect = {"drop": 0, "dead_peer": 0, "torn": 1, "delay": 1,
              "duplicate": 2}[case]
    assert len(logs[False]) == expect
    if case == "torn":
        assert logs[False][0][1] == b"f" * 8 + b"w" * 24


# -- pooled records recycle at delivery -----------------------------------------

def test_write_records_recycle_at_delivery_and_stay_bounded():
    """20,000 unsignaled writes, 4 in flight: every record is back on the
    freelist the moment its write lands, so the pool never grows past the
    window and no retry state accumulates."""
    window, total = 4, 20_000
    rig = Rig()
    sim = rig.sim
    qa, _qb = rig.connect()
    nic = rig.machines[0].nic
    region = rig.region(1)
    landed = {"n": 0, "ev": None}

    def on_write(_r):
        landed["n"] += 1
        if landed["n"] % window == 0:
            landed["ev"].succeed()

    region.subscribe(on_write)

    def worker():
        for _ in range(total // window):
            landed["ev"] = sim.event()
            for i in range(window):
                assert qa.post_write(RemotePointer(region.rkey, 8 * i, 8),
                                     b"p" * 8, signaled=False)
            yield landed["ev"]
            assert len(nic._write_ops) == window

    sim.run(until=sim.process(worker()))
    assert landed["n"] == total
    assert sim.now > 2 * rig.config.fabric.retry_timeout_ns
    assert _idle(nic)
    assert kernel_snapshot(sim)["peak_calendar"] <= 2 * window + 4
    gc.collect()
    assert sum(isinstance(o, _WriteOp) for o in gc.get_objects()) == window


# -- inline chain completions ---------------------------------------------------

@both_granularities
def test_mixed_read_chain_fires_at_the_event_path_instant(per_event,
                                                          monkeypatch):
    """Successful WQEs complete inline, failed ones through their event;
    either way the batch fires when and with the stamps it did when every
    WQE took the event path."""

    def run():
        rig = _rig(per_event)
        qa, _qb = rig.connect()
        region = rig.region(1)
        region.write(0, bytes(range(64)))
        rig.fabric.fault_injector = _Faults(
            read=lambda off: {"drop": True} if off == 48 else None)

        def at(off, n=16):
            return RemotePointer(region.rkey, off, n)

        chains = [qa.post_read_batch([at(0), at(4090), at(16),
                                      RemotePointer(999_999, 0, 8)]),
                  qa.post_read_batch([at(32), at(48)])]
        fired = []
        for batch in chains:
            batch.callbacks.append(lambda _e: fired.append(rig.sim.now))
        rig.sim.run()
        stamps = [[(wc.status, wc.ns, wc.data) for wc in batch.value]
                  for batch in chains]
        return fired, stamps, rig.sim.k_dispatched

    fired, stamps, events = run()
    monkeypatch.setattr(_ChainWqe, "succeed", Event.succeed)
    assert run() == (fired, stamps, events + 3)  # + one per successful WQE
    S, ok = WcStatus, WcStatus.SUCCESS
    assert [[s for s, _ns, _d in chain] for chain in stamps] == [
        [ok, S.REM_ACCESS_ERR, ok, S.LOCAL_QP_ERR], [ok, S.RETRY_EXC]]
    assert stamps[0][0][2] == bytes(range(16))
    assert fired[1] == stamps[1][1][1] == \
        SimConfig().fabric.retry_timeout_ns


# -- event budget ---------------------------------------------------------------

def test_message_path_get_event_budget():
    """Request and response Writes are unsignaled, so a message-path GET
    pays no ack hops, CQE events or chain collectors (28.0 events per op
    when every Write completed; ~20 without)."""
    cfg = SimConfig().with_overrides(
        client={"rptr_cache_enabled": False}, traversal={"enabled": False})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    client, sim = cluster.client(), cluster.sim

    def app(n):
        for _ in range(n):
            assert (yield from client.get(b"k")) == b"v"
            yield sim.timeout(10_000)

    cluster.run(client.put(b"k", b"v"))
    before = kernel_snapshot(sim)["events_dispatched"]
    cluster.run(app(100))
    per_op = (kernel_snapshot(sim)["events_dispatched"] - before) / 100
    assert per_op <= 22
