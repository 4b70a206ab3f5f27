"""Slotted connection-buffer layout (§4.2.1, generalized).

The paper pre-registers one request and one response buffer per
connection.  A stop-and-wait client only ever needs a single
indicator-framed message at offset 0, but keeping **multiple requests in
flight per connection** requires the buffer to be partitioned into a ring
of fixed-size *slots*, each independently framed with the indicator
format:

* slot ``i`` of the request buffer carries the i-th outstanding request;
* the shard writes the response for the request found in request-slot
  ``i`` into response-slot ``i`` — slot indices match, so concurrent
  responses never overwrite each other and the client can pair a landed
  response with its request by ``req_id`` without scanning.

Slots are 8-byte aligned so every head/tail indicator word is naturally
aligned.  ``n_slots=1`` degenerates to the original single-message layout
(one frame at offset 0 spanning the whole buffer).

Occupancy word (server-sweep scalability)
-----------------------------------------

The shard builds multi-slot RDMA-Write request buffers with
``occupancy=True``.  A one-slot buffer gets no header: the poller probes
the slot's own head indicator, which already says everything the word
would, and the writer posts one Write instead of a two-WQE chain.

With ``occupancy=True`` the first 8 bytes of the buffer hold a 64-bit
**occupancy bitmap** and the slots start after it.  The writer announces
slot ``i`` by setting bit ``i % 64`` (wraparound: layouts beyond 64 slots
map several slots onto one bit, so a set bit means "probe the whole
group").  The poller reads the word — one cacheline probe instead of
``n_slots`` indicator probes — snapshots it, zeroes it, and probes only
the indicated slots; this is the connection-buffer analogue of the
paper's 7-bit bucket occupancy filter (§4.1.3).

Race discipline (relies on RC in-order delivery, like the indicator
format itself):

* the writer posts the slot frame *first* and the occupancy word
  *second* on the same QP, so a set bit is always preceded by its frame;
* the writer writes the **full word**: the OR of the bits of every slot
  it still has in flight.  Bits for slots the poller already consumed
  are merely re-set, costing one spurious (empty) probe — never a lost
  message;
* the poller snapshots and zeroes the word in one step
  (:func:`occ_consume`); a bit set after the snapshot fires the region
  doorbell again and is picked up by the next sweep.  Periodic full
  sweeps remain as a safety net for hardware where snapshot+clear is not
  atomic.
"""

from __future__ import annotations

import struct

from ..rdma.memory import MemoryRegion
from .indicator import FRAME_OVERHEAD

__all__ = [
    "SlotLayout",
    "OCC_WORD_BYTES",
    "occ_bit",
    "occ_word",
    "occ_encode",
    "occ_consume",
    "occ_set",
    "occ_slots",
    "occ_header_bytes",
    "occ_announce",
    "occ_probe",
]

#: Size of the occupancy bitmap header (one 64-bit word).
OCC_WORD_BYTES = 8

_U64 = struct.Struct("<Q")
_WORD_MASK = 0xFFFFFFFFFFFFFFFF


def occ_header_bytes(n_slots: int) -> int:
    """Occupancy header size for a window of ``n_slots``.

    Up to 64 slots fit the original single word.  Wider windows get the
    **two-level** scheme: a summary word (bit ``g`` = "group ``g`` has
    announcements") followed by one exact sub-word per 64-slot group, so
    probing stays exact instead of group-aliased — the poller reads the
    summary, then only the indicated sub-words.
    """
    if n_slots <= 64:
        return OCC_WORD_BYTES
    groups = -(-n_slots // 64)
    return OCC_WORD_BYTES * (1 + groups)


def occ_bit(slot: int) -> int:
    """Bitmask announcing ``slot``.

    Slots beyond 63 wrap around onto the low bits (slot 64 shares bit 0
    with slot 0), so the word stays one probe wide at any window size;
    the poller treats a set bit as "probe every slot in this group".
    """
    if slot < 0:
        raise ValueError(f"slot {slot} cannot be announced")
    return 1 << (slot % 64)


def occ_word(slots) -> int:
    """The full occupancy word for a set of in-flight slots."""
    word = 0
    for slot in slots:
        word |= occ_bit(slot)
    return word


def occ_encode(word: int) -> bytes:
    """On-wire bytes of an occupancy word (little-endian u64)."""
    return _U64.pack(word & _WORD_MASK)


def occ_set(region: MemoryRegion, slots, offset: int = 0) -> None:
    """Writer-side announce: OR the in-flight set into the header word.

    Local (test/loopback) form of what a client does remotely with an
    RDMA Write of :func:`occ_encode`'s bytes.
    """
    region.write_u64(offset, region.read_u64(offset) | occ_word(slots))


def occ_consume(region: MemoryRegion, offset: int = 0) -> int:
    """Poller-side probe: snapshot the occupancy word and zero it.

    One step, so every bit set before the snapshot is captured and every
    bit set after it re-fires the region doorbell for the next sweep.
    """
    word = region.read_u64(offset)
    if word:
        region.write_u64(offset, 0)
    return word


def occ_slots(word: int, n_slots: int):
    """Candidate slots a snapshot indicates (group-expanded on wraparound)."""
    for slot in range(n_slots):
        if word & occ_bit(slot):
            yield slot


def occ_announce(slots, n_slots: int) -> bytes:
    """Full occupancy *header* bytes for a writer's in-flight set.

    Single-word form for windows up to 64 slots (byte-identical to
    :func:`occ_encode` of :func:`occ_word`); summary + exact sub-words
    beyond that.  The writer RDMA-Writes the whole header in the chained
    WQE after its frame, same race discipline as the single word.
    """
    if n_slots <= 64:
        return occ_encode(occ_word(slots))
    groups = -(-n_slots // 64)
    subs = [0] * groups
    summary = 0
    for slot in slots:
        if not 0 <= slot < n_slots:
            raise ValueError(f"slot {slot} outside 0..{n_slots - 1}")
        g = slot // 64
        subs[g] |= 1 << (slot % 64)
        summary |= 1 << g
    return b"".join([occ_encode(summary)] + [occ_encode(s) for s in subs])


def occ_probe(region: MemoryRegion, n_slots: int, offset: int = 0
              ) -> tuple[list[int], int]:
    """Poller-side probe of a (possibly two-level) occupancy header.

    Returns ``(slots, probes)``: the exact announced slots and how many
    word probes it took (1 for the single-word form; 1 + one per dirty
    group for the two-level form).  Each word is snapshot-and-zeroed like
    :func:`occ_consume`.
    """
    if n_slots <= 64:
        return list(occ_slots(occ_consume(region, offset), n_slots)), 1
    summary = occ_consume(region, offset)
    probes = 1
    slots: list[int] = []
    groups = -(-n_slots // 64)
    for g in range(groups):
        if not (summary >> g) & 1:
            continue
        probes += 1
        word = occ_consume(region, offset + OCC_WORD_BYTES * (1 + g))
        base = g * 64
        for b in range(64):
            if (word >> b) & 1:
                slot = base + b
                if slot < n_slots:
                    slots.append(slot)
    return slots, probes


class SlotLayout:
    """Partition of a connection buffer into equal indicator-framed slots."""

    __slots__ = ("buf_bytes", "n_slots", "slot_bytes", "occupancy",
                 "header_bytes")

    def __init__(self, buf_bytes: int, n_slots: int = 1,
                 occupancy: bool = False):
        if n_slots < 1:
            raise ValueError("need at least one slot")
        header = occ_header_bytes(n_slots) if occupancy else 0
        slot = ((buf_bytes - header) // n_slots) & ~7  # 8-byte aligned slots
        if slot < FRAME_OVERHEAD + 8:
            raise ValueError(
                f"{buf_bytes}B buffer cannot hold {n_slots} slots of at "
                f"least {FRAME_OVERHEAD + 8}B; raise hydra.conn_buf_bytes "
                f"or lower hydra.msg_slots_per_conn")
        self.buf_bytes = buf_bytes
        self.n_slots = n_slots
        self.slot_bytes = slot
        self.occupancy = occupancy
        self.header_bytes = header

    #: Byte offset of the occupancy word within the buffer.
    occ_offset = 0

    def offset(self, slot: int) -> int:
        """Byte offset of ``slot`` within the connection buffer."""
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} outside 0..{self.n_slots - 1}")
        return self.header_bytes + slot * self.slot_bytes

    @property
    def max_payload(self) -> int:
        """Largest message payload one slot can frame."""
        return self.slot_bytes - FRAME_OVERHEAD

    def __repr__(self) -> str:  # pragma: no cover
        occ = " +occ" if self.occupancy else ""
        return (f"<SlotLayout {self.n_slots}x{self.slot_bytes}B "
                f"of {self.buf_bytes}B{occ}>")
