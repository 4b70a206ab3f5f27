"""Simulated memory is demand-paged above a size threshold.

``zeroed_buffer`` backs large buffers with an anonymous private mapping
and small ones with a ``bytearray``; ``MemoryRegion`` and ``PMDevice``
see a flat ``memoryview`` either way.  The contract: nothing a caller can
do through the region API tells the two backings apart, and an untouched
gigabyte costs the host (next to) nothing.
"""

import mmap
import resource

import pytest
from hypothesis import given, settings, strategies as st

from repro.durable import PMDevice
from repro.rdma import AccessViolation, MemoryRegion, memory
from repro.sim import Simulator

#: Not a page multiple, so the last page of the mapping is partial.
SIZE = 2 * mmap.PAGESIZE + 123


def _region(monkeypatch, backing, nbytes=SIZE):
    """A region of ``nbytes`` forced onto one backing."""
    cut = 1 if backing is mmap.mmap else nbytes + 1
    monkeypatch.setattr(memory, "_MMAP_MIN_BYTES", cut)
    region = MemoryRegion(nbytes, name="r")
    assert type(region.buf.obj) is backing
    return region


# Offsets and lengths reach past both ends so AccessViolation is exercised,
# and cluster around the page and region boundaries.
_edges = st.sampled_from([0, 1, 7, 8, mmap.PAGESIZE - 1, mmap.PAGESIZE,
                          mmap.PAGESIZE + 1, SIZE - 9, SIZE - 8, SIZE - 4,
                          SIZE - 1, SIZE, SIZE + 1, -1])
_offset = _edges | st.integers(-8, SIZE + 8)
_length = st.sampled_from([0, 1, 4, 8, 64, mmap.PAGESIZE, SIZE]) \
    | st.integers(0, SIZE + 8)
_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _offset, st.binary(max_size=96)),
    st.tuples(st.just("write_view"), _offset, st.binary(max_size=96)),
    st.tuples(st.just("read"), _offset, _length),
    st.tuples(st.just("zero"), _offset, _length),
    st.tuples(st.just("write_u64"), _offset, st.integers(0, 2 ** 70)),
    st.tuples(st.just("read_u64"), _offset),
    st.tuples(st.just("write_u32"), _offset, st.integers(0, 2 ** 40)),
    st.tuples(st.just("read_u32"), _offset),
), max_size=40)


def _apply(region, op):
    """One op against ``region``: (result | exception type, message)."""
    name, *args = op
    if name == "write_view":
        name, args = "write", [args[0], memoryview(bytearray(args[1]))]
    try:
        return getattr(region, name)(*args)
    except AccessViolation as exc:
        return AccessViolation, str(exc)


@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_both_backings_behave_identically(ops):
    with pytest.MonkeyPatch.context() as mp:
        heap = _region(mp, bytearray)
        mapped = _region(mp, mmap.mmap)
    rang = []   # which region's doorbell watcher fired, in order
    heap.subscribe(rang.append)
    mapped.subscribe(rang.append)
    for op in ops:
        got = _apply(heap, op)
        assert _apply(mapped, op) == got
        if op[0] == "read" and got.__class__ is bytes:
            assert len(got) == op[2]
    assert rang.count(heap) == rang.count(mapped) == len(rang) // 2
    assert heap.read(0, SIZE) == mapped.read(0, SIZE)
    assert len(heap) == len(mapped) == SIZE


def test_backing_switches_at_the_threshold():
    cut = memory._MMAP_MIN_BYTES
    below, at = MemoryRegion(cut - 1), MemoryRegion(cut)
    assert type(below.buf.obj) is bytearray and type(at.buf.obj) is mmap.mmap
    for region in (below, at):
        n = len(region)
        assert region.read(n - 8, 8) == bytes(8)      # born zeroed
        region.write(n - 3, b"end")
        assert region.read(n - 4, 4) == b"\x00end"
        with pytest.raises(AccessViolation):
            region.write(n - 2, b"end")
        with pytest.raises(AccessViolation):
            region.read(n - 7, 8)
        with pytest.raises(AccessViolation):
            region.read_u64(n - 7)
        region.write_u32(n - 4, 0x1_DEADBEEF)         # masked to 32 bits
        assert region.read_u32(n - 4) == 0xDEADBEEF


@pytest.mark.parametrize("backing", [bytearray, mmap.mmap])
def test_read_is_a_snapshot_and_writes_cannot_resize(monkeypatch, backing):
    region = _region(monkeypatch, backing)
    region.write(10, b"before")
    snap = region.read(10, 6)
    region.write(10, b"after!")
    assert type(snap) is bytes and snap == b"before"
    # A fixed-size view: no slice assignment, however wrong, can change
    # the length of the region under a registered rkey.
    with pytest.raises(ValueError):
        region.buf[0:4] = b"toolong"
    assert len(region.buf) == SIZE


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_an_untouched_gigabyte_costs_the_host_nothing():
    before = _maxrss_mb()
    region = MemoryRegion(1 << 30, name="arena")
    device = PMDevice(Simulator(), capacity_bytes=1 << 30)
    # Touch both ends of each: four pages, not two gigabytes.
    region.write((1 << 30) - 8, b"tail-end")
    region.zero(0, 64)
    device.begin_write((1 << 30) - 16, b"x" * 16)
    device.commit_write()
    assert region.read((1 << 30) - 8, 8) == b"tail-end"
    assert device.read((1 << 30) - 16, 16) == b"x" * 16
    assert device.read(0, 8) == bytes(8)
    assert _maxrss_mb() - before < 16
