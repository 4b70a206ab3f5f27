"""Simulated persistent-memory device with torn-write-at-crash semantics.

The device is plain zeroed media (demand-paged, see
:func:`repro.rdma.memory.zeroed_buffer`) owned by the *cluster*, not by
the shard process that writes it — so it survives ``Shard.kill()`` and
machine death, which is the whole point of the durable tier.

Write timing follows a latency + bandwidth model
(``write_latency_ns + nbytes / bandwidth_bpns``).  A write is a two-step
protocol mirroring how the NIC engines stage work:

* ``begin_write(offset, data)`` stakes the write and returns its cost;
  the caller yields that long before calling ``commit_write()``.
* ``commit_write()`` lands every byte.
* ``crash()`` before the commit lands only a *prefix* of the in-flight
  bytes, proportional to elapsed time and cut at 8-byte granularity —
  the torn-write hazard real PM gives you beyond the 8-byte atomic unit
  (cf. the indicator/guardian framing in ``protocol/indicator.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..rdma.memory import zeroed_buffer

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

__all__ = ["PMDevice"]


class PMDevice:
    """Byte-addressable simulated PM media for one shard's durable log."""

    def __init__(self, sim: "Simulator", capacity_bytes: int,
                 write_latency_ns: int = 3_000,
                 bandwidth_bpns: float = 2.0,
                 name: str = "pm") -> None:
        self.sim = sim
        self.name = name
        self.capacity = capacity_bytes
        self.media = zeroed_buffer(capacity_bytes)
        self.write_latency_ns = write_latency_ns
        self.bandwidth_bpns = bandwidth_bpns
        #: Highest byte offset ever landed (committed or torn); lets the
        #: log scanner distinguish "clean end" from "torn tail".
        self.hiwater = 0
        self.writes = 0
        self.bytes_written = 0
        self.torn_writes = 0
        self._inflight: Optional[tuple[int, bytes, int, int]] = None

    # -- cost model ----------------------------------------------------------
    def write_cost(self, nbytes: int) -> int:
        return self.write_latency_ns + int(nbytes / self.bandwidth_bpns)

    def read_cost(self, nbytes: int) -> int:
        # Reads on PM are cheaper than writes; model them at 2x bandwidth
        # with the same fixed latency.
        return self.write_latency_ns + int(nbytes / (2 * self.bandwidth_bpns))

    # -- write protocol ------------------------------------------------------
    def begin_write(self, offset: int, data: bytes) -> int:
        """Stake a write; returns its cost in ns.  One write in flight."""
        if self._inflight is not None:
            raise RuntimeError(f"{self.name}: overlapping PM writes")
        if offset < 0 or offset + len(data) > self.capacity:
            raise ValueError(
                f"{self.name}: write [{offset}, {offset + len(data)}) "
                f"outside capacity {self.capacity}")
        cost = self.write_cost(len(data))
        self._inflight = (offset, bytes(data), self.sim.now, cost)
        return cost

    def commit_write(self) -> None:
        """Land the in-flight write in full (no-op if already torn away)."""
        if self._inflight is None:
            return
        offset, data, _t0, _cost = self._inflight
        self._inflight = None
        self.media[offset:offset + len(data)] = data
        self.hiwater = max(self.hiwater, offset + len(data))
        self.writes += 1
        self.bytes_written += len(data)

    def crash(self) -> None:
        """Power-fail: land only an 8B-aligned prefix of any in-flight write.

        The landed fraction tracks how long the write had been in flight;
        a crash the instant after ``begin_write`` lands nothing, one just
        before the commit lands almost everything — but never the full
        payload (a full landing is what ``commit_write`` is for).
        """
        if self._inflight is None:
            return
        offset, data, t0, cost = self._inflight
        self._inflight = None
        elapsed = max(0, self.sim.now - t0)
        frac = min(elapsed, cost) / cost if cost else 0.0
        cut = (int(len(data) * frac) // 8) * 8
        cut = min(cut, (len(data) - 8) // 8 * 8) if len(data) > 8 else 0
        if cut <= 0:
            return
        self.media[offset:offset + cut] = data[:cut]
        self.hiwater = max(self.hiwater, offset + cut)
        self.torn_writes += 1
        self.bytes_written += cut

    # -- reads / maintenance -------------------------------------------------
    def read(self, offset: int, nbytes: int) -> bytes:
        return bytes(self.media[offset:offset + nbytes])

    def zero(self, offset: int, nbytes: int) -> None:
        """Scrub a range (torn-tail truncation during recovery)."""
        self.media[offset:offset + nbytes] = bytes(nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PMDevice {self.name} {self.hiwater}/{self.capacity}B "
                f"writes={self.writes}>")
