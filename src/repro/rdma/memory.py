"""Registered memory regions.

A :class:`MemoryRegion` is real addressable storage (see
:func:`zeroed_buffer`): RDMA Reads return the bytes that are actually there
at the simulated instant the NIC's DMA engine runs.  This is what lets the
guardian-word / lease machinery be *tested* rather than assumed — a
reclaimed-and-reused extent really does serve stale bytes to a stale remote
pointer.
"""

from __future__ import annotations

import mmap
import struct

__all__ = ["MemoryRegion", "AccessViolation", "zeroed_buffer"]

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

#: Buffers at least this large are demand-paged.  It is glibc's own
#: malloc-to-mmap cut-over, so a mapping here replaces one the allocator
#: would have made anyway, and the many small per-connection buffers stay
#: on the heap.
_MMAP_MIN_BYTES = 128 << 10


def zeroed_buffer(nbytes: int) -> memoryview:
    """``nbytes`` of zeroed, writable, fixed-size simulated memory.

    Large buffers are anonymous private mappings: untouched pages cost the
    host nothing, so a 64 MiB arena holding 1 MiB of items is 1 MiB
    resident.  Small ones are a ``bytearray``.  Either way the caller sees
    a flat ``memoryview`` — slices are views, ``bytes(view[a:b])`` is one
    copy, and a slice assignment of the wrong length raises instead of
    resizing.
    """
    if nbytes >= _MMAP_MIN_BYTES:
        return memoryview(mmap.mmap(
            -1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS))
    return memoryview(bytearray(nbytes))


class AccessViolation(Exception):
    """Out-of-bounds access through a registered region."""


class MemoryRegion:
    """A contiguous, registerable chunk of host memory."""

    __slots__ = ("buf", "nbytes", "numa_domain", "name", "rkey", "owner_nic",
                 "_watchers")

    def __init__(self, nbytes: int, numa_domain: int = 0, name: str = ""):
        if nbytes <= 0:
            raise ValueError("region size must be positive")
        self.buf = zeroed_buffer(nbytes)
        self.nbytes = nbytes
        self.numa_domain = numa_domain
        self.name = name
        #: Assigned when the region is registered with a NIC.
        self.rkey: int | None = None
        self.owner_nic = None  # type: ignore[var-annotated]
        #: Simulation-level doorbell: callbacks fired on every write().
        #: Pollers block on these instead of spinning the event loop, then
        #: charge the polling-latency penalty explicitly — the observable
        #: timing of sustained polling is preserved while the simulator
        #: skips the dead sweeps.  zero()/word-writes do NOT notify.
        self._watchers: list = []

    # -- bounds-checked raw access ---------------------------------------
    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise AccessViolation(
                f"[{self.name}] access {offset}+{length} outside region of "
                f"{self.nbytes} bytes"
            )

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return bytes(self.buf[offset:offset + length])

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        self._check(offset, len(data))
        self.buf[offset:offset + len(data)] = data
        for cb in self._watchers:
            cb(self)

    # -- remote access: what a NIC's DMA engine does for a one-sided verb --
    def dma_write(self, rkey: int | None, offset: int,
                  data: bytes | bytearray | memoryview) -> None:
        """Land a remote Write posted under ``rkey``: :meth:`write` with
        the permission check folded into the bounds check, so a key that
        is no longer this region's (revoked, or re-registered since the
        post) raises :class:`AccessViolation` and changes no byte."""
        end = offset + len(data)
        if rkey != self.rkey or offset < 0 or end > self.nbytes:
            raise AccessViolation(
                f"[{self.name}] access {offset}+{len(data)} under rkey "
                f"{rkey} denied (rkey {self.rkey}, {self.nbytes} bytes)")
        self.buf[offset:end] = data
        for cb in self._watchers:
            cb(self)

    def dma_read(self, rkey: int | None, offset: int, length: int) -> bytes:
        """Snapshot ``length`` bytes for a remote Read posted under
        ``rkey``; checked like :meth:`dma_write`."""
        end = offset + length
        if rkey != self.rkey or offset < 0 or length < 0 \
                or end > self.nbytes:
            raise AccessViolation(
                f"[{self.name}] access {offset}+{length} under rkey "
                f"{rkey} denied (rkey {self.rkey}, {self.nbytes} bytes)")
        return bytes(self.buf[offset:end])

    def revoke(self) -> None:
        """Withdraw every remote permission: each Write or Read that
        reaches this region from now on -- those already in flight
        included -- completes ``REM_ACCESS_ERR``.  Local access is
        unaffected; registering the region again gives it a fresh rkey."""
        if self.owner_nic is not None:
            self.owner_nic.fabric.deregister(self)

    def subscribe(self, callback) -> None:
        """Register a doorbell callback invoked after every write()."""
        self._watchers.append(callback)

    def zero(self, offset: int, length: int) -> None:
        self._check(offset, length)
        self.buf[offset:offset + length] = bytes(length)

    # -- word helpers (little-endian, as on the paper's x86_64 testbed) ---
    def read_u64(self, offset: int) -> int:
        self._check(offset, 8)
        return _U64.unpack_from(self.buf, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        self._check(offset, 8)
        _U64.pack_into(self.buf, offset, value & 0xFFFFFFFFFFFFFFFF)

    def read_u32(self, offset: int) -> int:
        self._check(offset, 4)
        return _U32.unpack_from(self.buf, offset)[0]

    def write_u32(self, offset: int, value: int) -> None:
        self._check(offset, 4)
        _U32.pack_into(self.buf, offset, value & 0xFFFFFFFF)

    def __len__(self) -> int:
        return self.nbytes

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MemoryRegion {self.name!r} {self.nbytes}B rkey={self.rkey}>"
        )
