"""Durable write-behind log: framing, group commit, crash, replay.

The contract under test (docs/PROTOCOLS.md, durability section): every
flushed frame is indicator-headed and guardian-summed; a crash lands an
8-byte-aligned prefix whose scan classifies as a *torn tail* (truncate)
while non-zero media past a bad frame is *corruption* (stop, report);
replay force-applies logged versions so running it twice is idempotent;
group commit is self-clocked (an idle device commits at once, appends
during an in-flight write form the next group) and is one device write;
and ``released_seq`` advances — and ``on_commit`` runs — only once every
frame of the group is on media.
"""

import mmap

import pytest

from repro.config import SimConfig
from repro.core import ShardStore
from repro.durable import (
    DurableLog,
    LOG_BASE,
    PMDevice,
    replay_into,
    scan_log,
)
from repro.hardware import Machine
from repro.protocol import Op
from repro.rdma import Fabric
from repro.sim import MetricSet, Simulator


def make_env(capacity=1 << 20, **dur):
    config = SimConfig().with_overrides(
        durability={"enabled": True, **dur})
    sim = Simulator()
    metrics = MetricSet(sim)
    device = PMDevice(sim, capacity)
    dlog = DurableLog(sim, config, device, metrics=metrics)
    return sim, config, device, dlog, metrics


def make_store(sim, config):
    fabric = Fabric(sim, config)
    machine = Machine(sim, 0, config)
    fabric.attach(machine)
    return ShardStore(sim, config, machine.nic, 0, "s0")


def append_n(dlog, n, start=0, value=b"v" * 24):
    seqs = []
    for i in range(start, start + n):
        _cost, seq = dlog.append(Op.PUT, f"k{i:04d}".encode(), value, i + 1)
        seqs.append(seq)
    return seqs


def replay(sim, device, scan, store, config):
    out = []

    def proc():
        applied = yield from replay_into(sim, device, scan, store, config)
        out.append(applied)

    sim.process(proc())
    sim.run()
    return out[0]


# -- clean path ---------------------------------------------------------------

def test_flush_scan_roundtrip_clean_end():
    sim, _cfg, device, dlog, metrics = make_env()
    dlog.start()
    assert append_n(dlog, 6) == [1, 2, 3, 4, 5, 6]
    sim.run(until=10_000_000)
    assert dlog.flushed_seq == dlog.released_seq == 6
    scan = scan_log(device)
    assert scan.stop_reason == "clean_end"
    assert [r.seq for r in scan.records] == [1, 2, 3, 4, 5, 6]
    assert [r.version for r in scan.records] == [1, 2, 3, 4, 5, 6]
    assert scan.torn_bytes == 0 and scan.guardian_mismatches == 0
    assert scan.next_seq == 6
    assert metrics.counter("durable.flushes").value >= 1
    assert metrics.counter("durable.records").value == 6


def test_self_clocked_groups_released_once_every_frame_is_on_media():
    sim, _cfg, device, dlog, metrics = make_env(ack_mode="ack_on_flush")
    dlog.start()
    commits = []

    def on_commit():
        # At release time every frame of the group must already be on
        # media: durable means replayable *now*.
        scan = scan_log(device)
        commits.append((sim.now, dlog.released_seq,
                        [r.seq for r in scan.records]))

    dlog.on_commit = on_commit
    append_n(dlog, 1)
    frame = 8 + 24 + 5 + 24 + 8
    blob_cost = device.write_cost(frame)
    # Idle device: the lone record's write starts at once (no aging
    # window); two more arrive while it is in flight.
    sim.run(until=blob_cost // 2)
    assert device._inflight is not None
    append_n(dlog, 2, start=1)
    # The group's one write still in flight: nothing is released yet.
    assert dlog.released_seq == 0 and not commits
    sim.run(until=10_000_000)
    # Group 1 = the lone record, group 2 = what arrived during its write;
    # each is released the instant its one device write lands.
    assert commits == [(blob_cost, 1, [1]),
                       (blob_cost + device.write_cost(2 * frame), 3,
                        [1, 2, 3])]
    assert metrics.counter("durable.flushes").value == 2
    assert device.writes == 2  # one PM write per group commit
    group = metrics.tally("durable.group_records")
    assert (group.min, group.max) == (1, 2)
    wait = metrics.tally("durable.commit_wait_ns")
    assert wait.count == 2 and wait.min == blob_cost


def test_wait_released_blocks_only_under_ack_on_flush():
    for ack_mode, blocks in (("ack_on_replicate", False),
                             ("ack_on_flush", True)):
        sim, _cfg, _device, dlog, _m = make_env(ack_mode=ack_mode)
        dlog.start()
        cost, seq = dlog.append(Op.PUT, b"k", b"v", 1)
        assert cost > 0 and seq == 1
        done = []

        def waiter():
            yield from dlog.wait_released()
            done.append(sim.now)

        sim.process(waiter())
        sim.run(until=10_000_000)
        assert done and (done[0] > 0) is blocks


def test_removed_group_commit_knobs_are_rejected_loudly():
    for knob in ("group_commit_ns", "group_commit_records"):
        with pytest.raises(TypeError, match=knob):
            SimConfig().with_overrides(durability={knob: 1})


# -- crash artifacts ----------------------------------------------------------

def test_crash_mid_flush_leaves_truncatable_torn_tail():
    sim, cfg, device, dlog, _m = make_env()
    dlog.start()
    append_n(dlog, 3, value=b"v" * 96)
    # The blob write begins at once; crash partway through so only a
    # word-aligned prefix lands.
    cost = device.write_cost(3 * (8 + 24 + 5 + 96 + 8))
    sim.run(until=cost // 2)
    dlog.crash()
    assert device.torn_writes == 1
    scan = scan_log(device)
    assert scan.stop_reason == "torn_tail"
    assert scan.torn_bytes > 0
    assert len(scan.records) < 3
    # Recovery truncates the tail and replays what survived, cleanly.
    device.zero(LOG_BASE + scan.valid_bytes,
                device.hiwater - (LOG_BASE + scan.valid_bytes))
    store = make_store(sim, cfg)
    assert replay(sim, device, scan, store, cfg) == len(scan.records)
    rescan = scan_log(device)
    assert rescan.stop_reason == "clean_end"
    assert [r.seq for r in rescan.records] == [r.seq for r in scan.records]


def test_crash_with_no_inflight_write_is_harmless():
    sim, _cfg, device, dlog, metrics = make_env()
    dlog.start()
    append_n(dlog, 2)
    sim.run(until=10_000_000)
    dlog.crash()
    assert device.torn_writes == 0
    assert scan_log(device).stop_reason == "clean_end"
    # Unflushed staging is counted as lost write-behind exposure.
    dlog2 = DurableLog(sim, _cfg, device, metrics=metrics,
                       start_seq=2, tail=dlog.tail)
    dlog2.append(Op.PUT, b"k", b"v", 3)
    dlog2.crash()
    assert metrics.counter("durable.lost_pending").value == 1


def test_mid_log_corruption_reported_as_guardian_mismatch():
    sim, _cfg, device, dlog, _m = make_env()
    dlog.start()
    append_n(dlog, 3, value=b"v" * 8)
    sim.run(until=10_000_000)
    assert scan_log(device).stop_reason == "clean_end"
    # Flip one payload byte inside frame 2: its guardian fails while
    # frame 3 keeps the suffix non-zero, so this is corruption, not a
    # torn tail — replay must stop and say so.
    frame = 8 + (24 + 5 + 8) + 8
    device.media[LOG_BASE + frame + 8 + 1] ^= 0xFF
    scan = scan_log(device)
    assert scan.stop_reason == "guardian_mismatch"
    assert scan.guardian_mismatches == 1
    assert [r.seq for r in scan.records] == [1]


@pytest.mark.parametrize("capacity, backing", [(64 << 10, bytearray),
                                               (1 << 20, mmap.mmap)])
def test_scan_pokes_raw_media_on_either_backing(capacity, backing):
    """``scan_log`` walks ``device.media`` directly and the tests above
    damage it with ``media[i] ^= 0xFF``; the default 1 MiB device is
    demand-paged, a small one is heap-backed, and the scan must classify
    the same damage the same way on both."""
    sim, _cfg, device, dlog, _m = make_env(capacity=capacity)
    assert type(device.media.obj) is backing
    dlog.start()
    append_n(dlog, 3, value=b"v" * 8)
    sim.run(until=10_000_000)
    frame = 8 + (24 + 5 + 8) + 8
    last = LOG_BASE + 2 * frame
    device.media[last + 8 + 1] ^= 0xFF            # damage the final frame
    scan = scan_log(device)
    assert scan.stop_reason == "torn_tail"        # nothing non-zero after it
    assert [r.seq for r in scan.records] == [1, 2]
    assert scan.torn_bytes == device.hiwater - last
    device.media[LOG_BASE + 8 + 1] ^= 0xFF        # and now the first one
    scan = scan_log(device)
    assert scan.stop_reason == "guardian_mismatch" and not scan.records
    device.zero(LOG_BASE, device.hiwater - LOG_BASE)
    assert scan_log(device).stop_reason == "clean_end"
    assert not any(device.media[LOG_BASE:])


# -- replay semantics ---------------------------------------------------------

def test_double_replay_is_idempotent_and_versions_monotonic():
    sim, cfg, device, dlog, _m = make_env()
    dlog.start()
    dlog.append(Op.PUT, b"a", b"v1", 1)
    dlog.append(Op.PUT, b"a", b"v2", 2)
    dlog.append(Op.PUT, b"b", b"w1", 1)
    dlog.append(Op.DELETE, b"b", b"", 0)
    sim.run(until=10_000_000)
    scan = scan_log(device)
    store = make_store(sim, cfg)
    assert replay(sim, device, scan, store, cfg) == 4
    assert store.dump() == {b"a": b"v2"}
    assert store.get(b"a").version == 2
    # Replaying the same log again rewrites the same forced versions:
    # nothing regresses, nothing double-bumps.
    assert replay(sim, device, scan, store, cfg) == 4
    assert store.dump() == {b"a": b"v2"}
    assert store.get(b"a").version == 2


def test_a_group_torn_mid_write_is_never_released():
    """A crash while a group's one write is in flight lands only a
    prefix of its frames: the scan truncates the torn suffix, and no
    record of the group was released, so none of them was acked."""
    sim, _cfg, device, dlog, _m = make_env(ack_mode="ack_on_flush")
    dlog.start()
    append_n(dlog, 1)
    sim.run(until=1)  # the lone record's write is in flight
    append_n(dlog, 3, start=1)
    sim.run(until=device.write_cost(8 + 24 + 5 + 24 + 8))
    assert dlog.released_seq == 1 and device._inflight is not None
    sim.run(until=sim.now + device.write_cost(3 * (8 + 24 + 5 + 24 + 8))
            // 2)
    dlog.crash()
    scan = scan_log(device)
    assert scan.stop_reason == "torn_tail" and scan.torn_bytes > 0
    assert [r.seq for r in scan.records][:1] == [1]
    assert len(scan.records) < 4
    assert dlog.released_seq == 1


def test_log_full_is_fail_soft_and_still_releases_the_ack():
    sim, _cfg, device, dlog, metrics = make_env(
        capacity=128, ack_mode="ack_on_flush")
    dlog.start()
    commits = []
    dlog.on_commit = lambda: commits.append(dlog.released_seq)
    dlog.append(Op.PUT, b"k", b"v" * 200, 1)
    sim.run(until=10_000_000)
    # A stated limit of ack_on_flush, not a silent one: the group is
    # dropped and counted, nothing claims to be persisted, but the acks
    # parked behind it are released so the shard cannot deadlock.
    assert metrics.counter("durable.log_full").value == 1
    assert commits == [1]
    assert dlog.flushed_seq == 0 and device.writes == 0


# -- device model -------------------------------------------------------------

def test_device_write_protocol_guards():
    sim = Simulator()
    device = PMDevice(sim, 256)
    device.begin_write(0, b"x" * 64)
    with pytest.raises(RuntimeError):
        device.begin_write(64, b"y" * 8)
    device.commit_write()
    assert device.read(0, 64) == b"x" * 64 and device.hiwater == 64
    with pytest.raises(ValueError):
        device.begin_write(250, b"z" * 16)
    device.crash()  # no write in flight: a no-op
    assert device.torn_writes == 0
