"""The wire digest: what the modelled fabric delivered, and when.

With schedule tracing on, every byte the fabric moves is folded into
``Simulator.wire_digest()`` as ``(ns, landing site, offset, length,
bytes)``: each Write landing (torn prefixes and duplicate redeliveries
included), each Read responder snapshot, each Send or UD datagram that
consumes a receive, and each TCP message handed to a socket inbox.  It
pins observable behaviour while staying blind to how many kernel events
a hop took, so a host-only change can re-pin a schedule digest and still
prove, byte for byte and nanosecond for nanosecond, that the cluster did
the same thing.
"""

import pytest

from repro.rdma import RemotePointer
from repro.rdma.ud import UdQueuePair
from repro.sim.events import SimulationError

from .conftest import Rig


class _Faults:
    """A fixed verdict for every RDMA Write."""

    def __init__(self, write):
        self.write = write

    def rdma_write_fault(self, *_a):
        return self.write

    def rdma_read_fault(self, *_a):
        return None


def _traced():
    rig = Rig()
    rig.sim.trace_schedule()
    return rig


def _write_at(post_ns, fault=None, noise=False):
    """One 32-byte RDMA Write posted at ``post_ns``; ``noise`` adds a
    timer nobody listens to (kernel bookkeeping, no delivery)."""
    rig = _traced()
    qa, _qb = rig.connect()
    region = rig.region(1)
    if fault is not None:
        rig.fabric.fault_injector = _Faults(fault)
    sim = rig.sim
    if noise:
        sim.timeout(7)
    sim.run(until=post_ns)
    qa.post_write(RemotePointer(region.rkey, 0, 32), b"w" * 32)
    sim.run()
    return sim


def test_delaying_one_delivery_by_one_ns_changes_the_digest():
    base = _write_at(100).wire_digest()
    assert _write_at(100).wire_digest() == base
    assert _write_at(101).wire_digest() != base


def test_digest_ignores_kernel_bookkeeping():
    quiet, noisy = _write_at(100), _write_at(100, noise=True)
    assert noisy.schedule_digest() != quiet.schedule_digest()
    assert noisy.wire_digest() == quiet.wire_digest()


@pytest.mark.parametrize("fault", [{"torn_bytes": 8}, {"duplicate": True}])
def test_torn_and_duplicate_landings_are_folded(fault):
    clean = _write_at(100).wire_digest()
    dropped = _write_at(100, {"drop": True}).wire_digest()
    assert len({clean, dropped, _write_at(100, fault).wire_digest()}) == 3


def test_read_snapshots_are_folded():
    digests = []
    for fill in (b"a", b"b"):
        rig = _traced()
        qa, _qb = rig.connect()
        region = rig.region(1)
        region.write(0, fill * 16)  # host-side store: not a delivery
        rig.sim.run(until=rig.sim.process(_read(qa, region)))
        digests.append(rig.sim.wire_digest())
    assert digests[0] != digests[1]


def _read(qa, region):
    wc = yield qa.post_read(RemotePointer(region.rkey, 0, 16))
    return wc.data


def _two_sided(kind, payload):
    rig = _traced()
    sim = rig.sim
    if kind == "send":
        qa, qb = rig.connect()
        qb.post_recv()
        qa.post_send(payload)
    elif kind == "ud":
        src = UdQueuePair(sim, rig.machines[0].nic)
        dst = UdQueuePair(sim, rig.machines[1].nic)
        dst.post_recv()
        src.post_send(dst, payload)
    else:
        a, b = (m.tcp for m in rig.machines)
        b.listen(7)

        def client():
            conn = yield a.connect(b, 7)
            yield conn.send(payload, len(payload))

        sim.process(client())
    sim.run()
    return sim.wire_digest()


@pytest.mark.parametrize("kind", ["send", "ud", "tcp"])
def test_two_sided_deliveries_are_folded(kind):
    empty = _traced().sim.wire_digest()
    one, other = _two_sided(kind, b"x" * 24), _two_sided(kind, b"y" * 24)
    assert len({empty, one, other}) == 3


def test_digest_needs_tracing():
    with pytest.raises(SimulationError):
        Rig().sim.wire_digest()
