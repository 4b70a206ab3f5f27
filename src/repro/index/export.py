"""The bucket frame format of the compact index, and its client decoder.

:class:`~repro.index.compact.CompactHashTable` keeps its buckets in this
format directly inside a :class:`~repro.rdma.memory.MemoryRegion`; when the
shard exports its index (``traversal.enabled``) that region is registered
with the NIC and clients traverse it with one-sided Reads.  There is no
second copy: the frame a client Reads is the bucket the server probes.

Frame layout — little-endian u64 words, atomic per simulated DMA instant
exactly like the real system's cacheline-granular PCIe reads.  The first
cacheline (the *index line*) is every table's bucket:

``word0``  bits 0-6   occupancy filter (which of the 7 slots hold entries)
           bit 7      demote flag — the chain continues into frames past
                      the exported region, clients must fall back to the
                      message path instead of concluding NOT_FOUND
           bits 8-31  24-bit seqlock version, even when stable; bumped on
                      every mutation that touches the bucket's chain
           bits 32-63 link: next *frame index* + 1, 0 terminates
``word1-7``            ``sig16 << 48 | class_idx << 44 | offset``; the
                      4-bit size-class index tells the client how many
                      bytes to Read at ``offset`` (items are written at
                      size-class granularity, parsed by prefix).

An exported frame is 128 B: its second cacheline is the **inline line**,
one small item of the frame stored beside its slot so a cold GET of it is
a single Read:

``word8``  bits 0-2   slot index + 1 (0 = no inline item)
           bits 3-8   klen;  bits 9-14  vlen
           bits 15-58 the 44-bit arena offset of the slot word it was
                      written beside
``word9``              the item's version
``bytes 80-127``       key then value (``klen + vlen <= 48``)

The last eligible item written to a frame owns its line.

Coherence contract (the part clients rely on):

* every mutation of a chain version-bumps **every** exported frame of that
  chain — ``_merge`` may move entries between any two buckets of a chain,
  so a multi-bucket NOT_FOUND is only believable if re-reading the *head*
  frame shows an unchanged version;
* a freed overflow frame is emptied and bumped before it can be reused by
  another chain, so a stale link lands on an empty frame with a moved
  version, never on another chain's entries presented as this one's;
* an inline line is valid only beside the exact slot word it was written
  for: a mutation that changes or frees that slot rewrites or clears the
  line in the same frame update, and a decoder accepts the line only when
  its slot is occupied and holds the recorded offset.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ExportedBucket", "IndexHandshake", "InlineItem", "parse_bucket",
    "fits_inline", "BUCKET_EXPORT_BYTES", "INDEX_LINE_BYTES",
    "INLINE_PAYLOAD_BYTES",
]

#: The index line: what every table's bucket is.
INDEX_LINE_BYTES = 64
#: An exported frame: index line + inline line.
BUCKET_EXPORT_BYTES = 128
#: Key + value bytes the inline line holds.
INLINE_PAYLOAD_BYTES = 48

SLOTS = 7
FILTER_MASK = 0x7F
DEMOTE_BIT = 0x80
VERSION_SHIFT = 8
VERSION_MASK = (1 << 24) - 1
VERSION_BITS = VERSION_MASK << VERSION_SHIFT
LINK_SHIFT = 32
MAX_LINK = (1 << 32) - 1
SIG_SHIFT = 48
CLASS_SHIFT = 44
CLASS_MASK = 0xF
OFFSET_MASK = (1 << 44) - 1

_INLINE_SLOT_MASK = 0x7
_INLINE_KLEN_SHIFT = 3
_INLINE_VLEN_SHIFT = 9
_INLINE_LEN_MASK = 0x3F
_INLINE_OFFSET_SHIFT = 15

_FRAME = struct.Struct("<10Q")
_INLINE_HEAD = struct.Struct("<QQ")


def fits_inline(klen: int, vlen: int) -> bool:
    """Whether an item of these lengths can live in an inline line."""
    return klen + vlen <= INLINE_PAYLOAD_BYTES


def encode_inline(slot: int, offset: int, key: bytes, value: bytes,
                  version: int) -> bytes:
    """The 64 B inline line for ``key`` living in ``slot`` at ``offset``."""
    meta = ((slot + 1)
            | len(key) << _INLINE_KLEN_SHIFT
            | len(value) << _INLINE_VLEN_SHIFT
            | offset << _INLINE_OFFSET_SHIFT)
    payload = key + value
    return (_INLINE_HEAD.pack(meta, version) + payload
            + bytes(INLINE_PAYLOAD_BYTES - len(payload)))


def inline_slot(meta: int) -> int:
    """Slot an inline line's meta word describes, -1 if the line is empty."""
    return (meta & _INLINE_SLOT_MASK) - 1


@dataclass(frozen=True)
class IndexHandshake:
    """Connection-handshake advertisement of a shard's readable index."""

    export_rkey: int
    n_buckets: int
    n_frames: int
    arena_rkey: int
    arena_nbytes: int
    size_classes: tuple[int, ...]


@dataclass(frozen=True)
class InlineItem:
    """A frame's inline item, already checked against its slot word."""

    slot: int
    offset: int
    version: int
    key: bytes
    value: bytes


@dataclass(frozen=True)
class ExportedBucket:
    """A decoded export frame, as seen by a traversing client."""

    version: int
    demote: bool
    #: Next export frame index, or None at end of chain.
    link: Optional[int]
    #: (slot_index, signature16, class_idx, arena_offset) per live slot.
    slots: tuple[tuple[int, int, int, int], ...]
    #: The inline item, None when the line is empty or does not describe
    #: the slot word beside it.
    inline: Optional[InlineItem] = None


def parse_bucket(data: bytes) -> ExportedBucket:
    """Decode a 128 B frame snapshot fetched by an RDMA Read."""
    if len(data) != BUCKET_EXPORT_BYTES:
        raise ValueError(
            f"bucket frame must be {BUCKET_EXPORT_BYTES}B, got {len(data)}"
        )
    words = _FRAME.unpack_from(data)
    header = words[0]
    filt = header & FILTER_MASK
    link_raw = header >> LINK_SHIFT
    slots = tuple(
        (
            i,
            words[1 + i] >> SIG_SHIFT,
            (words[1 + i] >> CLASS_SHIFT) & CLASS_MASK,
            words[1 + i] & OFFSET_MASK,
        )
        for i in range(SLOTS)
        if (filt >> i) & 1
    )
    inline = None
    meta = words[8]
    slot = inline_slot(meta)
    offset = meta >> _INLINE_OFFSET_SHIFT
    if (slot >= 0 and (filt >> slot) & 1
            and words[1 + slot] & OFFSET_MASK == offset):
        klen = (meta >> _INLINE_KLEN_SHIFT) & _INLINE_LEN_MASK
        vlen = (meta >> _INLINE_VLEN_SHIFT) & _INLINE_LEN_MASK
        if klen + vlen <= INLINE_PAYLOAD_BYTES:
            base = INDEX_LINE_BYTES + _INLINE_HEAD.size
            inline = InlineItem(
                slot=slot, offset=offset, version=words[9],
                key=bytes(data[base:base + klen]),
                value=bytes(data[base + klen:base + klen + vlen]))
    return ExportedBucket(
        version=(header >> VERSION_SHIFT) & VERSION_MASK,
        demote=bool(header & DEMOTE_BIT),
        link=(link_raw - 1) if link_raw else None,
        slots=slots,
        inline=inline,
    )
