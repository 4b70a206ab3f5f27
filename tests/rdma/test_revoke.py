"""Landing-time permissions: ``MemoryRegion.revoke()``.

A Write resolves its region when it is posted but is checked again where
its bytes land, and a Read where the responder snapshots memory: a verb
that reaches a revoked region completes ``REM_ACCESS_ERR`` and changes
no byte, even one posted while the key was still valid.  Registering the
region again gives it a fresh rkey."""

import pytest

from repro.rdma import QpError, RemotePointer, WcStatus
from repro.rdma.memory import AccessViolation


def _in_flight(rig, ev):
    """Run until ``ev``'s WQE has left the initiator but not landed."""
    rig.sim.run(until=rig.sim.now + rig.config.fabric.propagation_ns // 2)
    assert not ev.triggered


def test_write_in_flight_across_revoke_never_lands(rig):
    qa, _ = rig.connect()
    region = rig.region(1)
    rptr = RemotePointer(region.rkey, 0, 8)
    ev = qa.post_write(rptr, b"deposed!")
    _in_flight(rig, ev)
    region.revoke()
    rig.sim.run(until=ev)
    assert ev.value.status is WcStatus.REM_ACCESS_ERR
    assert region.read(0, 8) == bytes(8)
    assert rig.fabric.metrics.counter("rdma.rem_access_err").value == 1


def test_unsignaled_write_in_flight_across_revoke_never_lands(rig):
    qa, _ = rig.connect()
    region = rig.region(1)
    rings: list = []
    region.subscribe(rings.append)
    assert qa.post_write(RemotePointer(region.rkey, 0, 8), b"deposed!",
                         signaled=False)
    rig.sim.run(until=rig.config.fabric.propagation_ns // 2)
    region.revoke()
    rig.sim.run()
    assert region.read(0, 8) == bytes(8)
    assert rings == []  # no doorbell for bytes that never landed
    assert rig.fabric.metrics.counter("rdma.rem_access_err").value == 1


def test_read_snapshotting_a_revoked_region_gets_rem_access_err(rig):
    qa, _ = rig.connect()
    region = rig.region(1)
    region.write(0, b"secret!!")
    ev = qa.post_read(RemotePointer(region.rkey, 0, 8))
    _in_flight(rig, ev)
    region.revoke()
    rig.sim.run(until=ev)
    assert ev.value.status is WcStatus.REM_ACCESS_ERR
    assert ev.value.data is None


def test_reregistration_gives_a_fresh_rkey_that_writes_land_through(rig):
    qa, _ = rig.connect()
    region = rig.region(1)
    old_rkey = region.rkey
    stale = qa.post_write(RemotePointer(old_rkey, 0, 8), b"old-key!")
    _in_flight(rig, stale)
    region.revoke()
    rig.machines[1].nic.register(region)
    assert region.rkey is not None and region.rkey != old_rkey
    fresh = qa.post_write(RemotePointer(region.rkey, 8, 8), b"new-key!")
    rig.sim.run(until=fresh)
    # The Write posted under the old key fails even though the region is
    # registered again by the time it lands; the new key works.
    assert stale.value.status is WcStatus.REM_ACCESS_ERR
    assert fresh.value.status is WcStatus.SUCCESS
    assert region.read(0, 16) == bytes(8) + b"new-key!"
    # A post under the old key no longer resolves at all.
    with pytest.raises(QpError):
        qa.post_write(RemotePointer(old_rkey, 0, 8), b"old-key!")


def test_deregister_revokes(rig):
    qa, _ = rig.connect()
    region = rig.region(1)
    ev = qa.post_write(RemotePointer(region.rkey, 0, 8), b"too late")
    _in_flight(rig, ev)
    rig.fabric.deregister(region)
    rig.sim.run(until=ev)
    assert ev.value.status is WcStatus.REM_ACCESS_ERR
    assert region.read(0, 8) == bytes(8)


def test_revoke_leaves_local_access_alone(rig):
    region = rig.region(1)
    rkey = region.rkey
    region.revoke()
    region.write(0, b"local")
    assert region.read(0, 5) == b"local"
    with pytest.raises(AccessViolation, match="denied"):
        region.dma_write(rkey, 0, b"x")
