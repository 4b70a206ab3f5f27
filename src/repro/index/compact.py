"""The compact cache-friendly hash table of §4.1.3.

The main branch is a contiguous array of bucket frames.  A frame's first
cacheline is the bucket: an 8-byte header (7 occupancy filter bits, a
seqlock version and a link to a dynamically allocated overflow frame)
followed by 7 slots of ``16-bit signature | size class | 44-bit item
offset`` (the layout is :mod:`repro.index.export`'s, which owns it).
Lookups read one cacheline, compare signatures, and only dereference the
arena for a full key compare when a signature matches.  After removals,
tail overflow buckets are merged back into earlier buckets of the chain
and freed.

The frames live in a :class:`~repro.rdma.memory.MemoryRegion` (a numpy
view over its buffer).  An *exported* table (``export_overflow`` given)
uses 128 B frames — the bucket plus one inline item line — for its main
buckets and its first ``export_overflow`` overflow buckets; the shard
registers the region and clients traverse it one-sidedly.  Every mutation
rewrites its frame in place and bumps the version of every exported frame
of the chain.  Overflow buckets past that cap live in a private array and
demote the chain for clients.  An unexported table uses 64 B frames.

The table stores *offsets into the shard arena*, never data; the caller
supplies ``key_at(offset)`` for full-key comparison.  Per-operation cost
observables (``last_lines``, ``last_keycmps``, ``last_frames``) feed the
shard's CPU model and the compact-vs-chained ablation bench.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from ..rdma.memory import MemoryRegion
from .export import (
    BUCKET_EXPORT_BYTES,
    CLASS_MASK,
    CLASS_SHIFT,
    DEMOTE_BIT,
    FILTER_MASK,
    INDEX_LINE_BYTES,
    LINK_SHIFT,
    MAX_LINK,
    OFFSET_MASK,
    SIG_SHIFT,
    SLOTS,
    VERSION_BITS,
    VERSION_MASK,
    VERSION_SHIFT,
    encode_inline,
    fits_inline,
    inline_slot,
)
from .hashing import bucket_index, signature16

__all__ = ["CompactHashTable"]

SLOTS_PER_BUCKET = SLOTS
_BUCKET_WORDS = INDEX_LINE_BYTES // 8
_INLINE_WORD = _BUCKET_WORDS
_LINK_BITS = MAX_LINK << LINK_SHIFT


class CompactHashTable:
    """Signature-filtered open hash table with cacheline bucket frames."""

    def __init__(self, n_buckets: int, key_at: Callable[[int], bytes],
                 export_overflow: Optional[int] = None,
                 numa_domain: int = 0, name: str = "index"):
        if n_buckets <= 0 or n_buckets & (n_buckets - 1):
            raise ValueError("n_buckets must be a positive power of two")
        if export_overflow is not None and export_overflow < 0:
            raise ValueError("export_overflow must be >= 0")
        self.n_buckets = n_buckets
        self.key_at = key_at
        self.exported = export_overflow is not None
        #: Overflow buckets that live in the region (and are exported).
        self._cap = export_overflow or 0
        self.n_frames = n_buckets + self._cap
        frame_bytes = BUCKET_EXPORT_BYTES if self.exported \
            else INDEX_LINE_BYTES
        self._stride = frame_bytes // 8
        self.region = MemoryRegion(
            self.n_frames * frame_bytes, numa_domain=numa_domain,
            name=f"{name}.export" if self.exported else f"{name}.index")
        self._frames = np.frombuffer(self.region.buf, dtype=np.uint64)
        # Overflow indices are handed out lowest first; index i lives in
        # frame n_buckets + i while i < _cap, else in the private spill
        # array (64 B buckets).  Link fields hold frame index + 1, so 0
        # means "no overflow".
        self._overflow_cap = 16
        self._overflow_free: list[int] = list(range(15, -1, -1))
        self._spill = np.zeros(self._spill_words(), dtype=np.uint64)
        self.entries = 0
        self.overflow_buckets = 0
        #: Cachelines touched / full key compares by the most recent op.
        self.last_lines = 0
        self.last_keycmps = 0
        #: Exported frames the most recent mutation rewrote (version
        #: bumps, inline line included) — one cacheline store each.
        self.last_frames = 0
        #: Lifetime counters for the ablation bench.
        self.total_lines = 0
        self.total_keycmps = 0

    def _spill_words(self) -> int:
        return max(0, self._overflow_cap - self._cap) * _BUCKET_WORDS

    # -- word access -------------------------------------------------------
    def _words(self, bucket_ref: int) -> tuple[np.ndarray, int]:
        """(array, base word index) for a bucket reference.

        Non-negative refs are main buckets, negative ones are
        ``-(overflow_index + 1)``.
        """
        if bucket_ref >= 0:
            return self._frames, bucket_ref * self._stride
        idx = -bucket_ref - 1
        if idx < self._cap:
            return self._frames, (self.n_buckets + idx) * self._stride
        return self._spill, (idx - self._cap) * _BUCKET_WORDS

    def _lined(self, ref: int) -> bool:
        """Whether bucket ``ref`` is an exported frame (with a line)."""
        return self.exported and (ref >= 0 or -ref - 1 < self._cap)

    def _header(self, ref: int) -> int:
        arr, base = self._words(ref)
        return int(arr[base])

    def _set_header(self, ref: int, value: int) -> None:
        arr, base = self._words(ref)
        arr[base] = value

    def _slot(self, ref: int, i: int) -> int:
        arr, base = self._words(ref)
        return int(arr[base + 1 + i])

    def _set_slot(self, ref: int, i: int, value: int) -> None:
        arr, base = self._words(ref)
        arr[base + 1 + i] = value

    def _link_of(self, header: int) -> int:
        """Next bucket ref encoded in a header (0 terminates)."""
        link = header >> LINK_SHIFT
        return self.n_buckets - link if link else 0

    def _link_to(self, ref: int) -> int:
        """Header link bits pointing at overflow bucket ``ref``."""
        return (self.n_buckets - ref) << LINK_SHIFT

    def _chain(self, main_bucket: int) -> Iterator[int]:
        ref = main_bucket
        while True:
            yield ref
            link = self._link_of(self._header(ref))
            if link == 0:
                return
            ref = link

    # -- the exported frame: inline line and seqlock ----------------------
    def _set_entry(self, ref: int, i: int, word: int, key: bytes,
                   value: Optional[bytes], version: int) -> None:
        """Store slot ``i``'s word and keep the frame's inline line valid:
        the entry takes the line when it fits (last writer wins), and a
        line describing the slot's previous entry is cleared."""
        arr, base = self._words(ref)
        arr[base + 1 + i] = word
        if not self._lined(ref):
            return
        if value is not None and fits_inline(len(key), len(value)):
            start = base * 8 + INDEX_LINE_BYTES
            self.region.buf[start:start + INDEX_LINE_BYTES] = encode_inline(
                i, word & OFFSET_MASK, key, value, version)
        elif inline_slot(int(arr[base + _INLINE_WORD])) == i:
            arr[base + _INLINE_WORD] = 0

    def _clear_slot(self, ref: int, i: int) -> None:
        arr, base = self._words(ref)
        arr[base] = int(arr[base]) & ~(1 << i)
        arr[base + 1 + i] = 0
        if (self._lined(ref)
                and inline_slot(int(arr[base + _INLINE_WORD])) == i):
            arr[base + _INLINE_WORD] = 0

    def _publish(self, main_bucket: int) -> None:
        """Bump the version of every exported frame of the chain, the
        seqlock clients validate against.  The frame that links past the
        region gets the demote flag; frames beyond it are unreachable to
        clients and left alone."""
        if not self.exported:
            return
        frames = self._frames
        ref = main_bucket
        while True:
            base = self._words(ref)[1]
            header = int(frames[base])
            nxt = self._link_of(header)
            demote = nxt != 0 and not self._lined(nxt)
            version = ((header >> VERSION_SHIFT) + 2) & VERSION_MASK
            frames[base] = ((header & ~(VERSION_BITS | DEMOTE_BIT))
                            | version << VERSION_SHIFT
                            | (DEMOTE_BIT if demote else 0))
            self.last_frames += 1
            if nxt == 0 or demote:
                return
            ref = nxt

    # -- overflow management ---------------------------------------------
    def _alloc_overflow(self) -> int:
        if not self._overflow_free:
            old_cap = self._overflow_cap
            self._overflow_cap *= 2
            grown = np.zeros(self._spill_words(), dtype=np.uint64)
            grown[:len(self._spill)] = self._spill
            self._spill = grown
            self._overflow_free.extend(
                range(self._overflow_cap - 1, old_cap - 1, -1)
            )
        idx = self._overflow_free.pop()
        if self.n_buckets + idx + 1 > MAX_LINK:  # pragma: no cover
            raise OverflowError("overflow link exceeds 32 bits")
        self.overflow_buckets += 1
        ref = -(idx + 1)
        arr, base = self._words(ref)
        # A reused exported frame keeps its version (the seqlock only
        # ever moves forward); its line was cleared when it was freed.
        arr[base] = int(arr[base]) & VERSION_BITS
        arr[base + 1:base + _BUCKET_WORDS] = 0
        return ref

    def _free_overflow(self, ref: int) -> None:
        assert ref < 0
        self._overflow_free.append(-ref - 1)
        self.overflow_buckets -= 1
        if self._lined(ref):
            # Empty + version-bump the frame *before* the index can be
            # reused by another chain, so stale links read as empty.
            arr, base = self._words(ref)
            version = ((int(arr[base]) >> VERSION_SHIFT) + 2) & VERSION_MASK
            arr[base] = version << VERSION_SHIFT
            arr[base + 1:base + _BUCKET_WORDS] = 0
            arr[base + _INLINE_WORD] = 0
            self.last_frames += 1

    # -- operations --------------------------------------------------------
    def _begin_op(self) -> None:
        self.last_lines = 0
        self.last_keycmps = 0
        self.last_frames = 0

    def _touch(self) -> None:
        self.last_lines += 1
        self.total_lines += 1

    def _keycmp(self) -> None:
        self.last_keycmps += 1
        self.total_keycmps += 1

    def _find(self, key: bytes, hashcode: int
              ) -> Optional[tuple[int, int, int]]:
        """Locate ``key``; returns (bucket_ref, slot_index, offset)."""
        sig = signature16(hashcode)
        for ref in self._chain(bucket_index(hashcode, self.n_buckets)):
            self._touch()
            header = self._header(ref)
            filt = header & FILTER_MASK
            if not filt:
                continue
            for i in range(SLOTS_PER_BUCKET):
                if not (filt >> i) & 1:
                    continue
                word = self._slot(ref, i)
                if (word >> SIG_SHIFT) != sig:
                    continue
                offset = word & OFFSET_MASK
                self._keycmp()
                if self.key_at(offset) == key:
                    return ref, i, offset
        return None

    def lookup(self, key: bytes, hashcode: int) -> Optional[int]:
        """Arena offset of ``key``, or None."""
        self._begin_op()
        found = self._find(key, hashcode)
        return found[2] if found else None

    def put(self, key: bytes, hashcode: int, offset: int, cls: int = 0,
            value: Optional[bytes] = None, version: int = 0
            ) -> Optional[int]:
        """Insert or replace; returns the previous offset if key existed.

        ``cls`` is the item's size-class index; ``value`` and ``version``
        describe the item for the frame's inline line (no line when
        ``value`` is None).
        """
        if offset > OFFSET_MASK:
            raise ValueError("offset exceeds 44 bits")
        if not 0 <= cls <= CLASS_MASK:
            raise ValueError("size-class index exceeds 4 bits")
        self._begin_op()
        word = (signature16(hashcode) << SIG_SHIFT) | (cls << CLASS_SHIFT) | offset
        main = bucket_index(hashcode, self.n_buckets)
        found = self._find(key, hashcode)
        if found is not None:
            ref, i, old = found
            self._set_entry(ref, i, word, key, value, version)
            self._publish(main)
            return old
        # Not present: first free slot along the chain, extending if needed.
        last_ref = main
        for ref in self._chain(last_ref):
            self._touch()
            header = self._header(ref)
            filt = header & FILTER_MASK
            for i in range(SLOTS_PER_BUCKET):
                if not (filt >> i) & 1:
                    self._set_entry(ref, i, word, key, value, version)
                    self._set_header(ref, header | (1 << i))
                    self.entries += 1
                    self._publish(main)
                    return None
            last_ref = ref
        new_ref = self._alloc_overflow()
        self._set_entry(new_ref, 0, word, key, value, version)
        self._set_header(new_ref, self._header(new_ref) | 0x01)
        tail_header = self._header(last_ref)
        self._set_header(last_ref,
                         (tail_header & ~_LINK_BITS) | self._link_to(new_ref))
        self.entries += 1
        self._publish(main)
        return None

    def remove(self, key: bytes, hashcode: int) -> Optional[int]:
        """Delete ``key``; returns its offset or None. Merges tail buckets."""
        self._begin_op()
        found = self._find(key, hashcode)
        if found is None:
            return None
        ref, i, offset = found
        self._clear_slot(ref, i)
        self.entries -= 1
        main = bucket_index(hashcode, self.n_buckets)
        self._merge(main)
        self._publish(main)
        return offset

    def _merge(self, main_bucket: int) -> None:
        """Fold tail overflow entries into free slots of earlier buckets.

        Repeats while the chain's last bucket can be emptied; this is the
        "merge multiple buckets after remove" behaviour from §4.1.3.  A
        moved entry leaves its inline line behind with the freed tail.
        """
        while True:
            chain = list(self._chain(main_bucket))
            if len(chain) < 2:
                return
            tail = chain[-1]
            tail_header = self._header(tail)
            tail_filt = tail_header & FILTER_MASK
            tail_slots = [i for i in range(SLOTS_PER_BUCKET)
                          if (tail_filt >> i) & 1]
            # Free slots available in the rest of the chain.
            homes: list[tuple[int, int]] = []
            for ref in chain[:-1]:
                filt = self._header(ref) & FILTER_MASK
                homes.extend(
                    (ref, i)
                    for i in range(SLOTS_PER_BUCKET)
                    if not (filt >> i) & 1
                )
            if len(homes) < len(tail_slots):
                return  # cannot empty the tail yet
            for slot_i, (home_ref, home_i) in zip(tail_slots, homes):
                self._set_slot(home_ref, home_i, self._slot(tail, slot_i))
                home_header = self._header(home_ref)
                self._set_header(home_ref, home_header | (1 << home_i))
            # Unlink and free the tail.
            prev = chain[-2]
            self._set_header(prev, self._header(prev) & ~_LINK_BITS)
            self._free_overflow(tail)

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield (signature, offset) of every entry — migration/debug."""
        for b in range(self.n_buckets):
            for ref in self._chain(b):
                header = self._header(ref)
                filt = header & FILTER_MASK
                for i in range(SLOTS_PER_BUCKET):
                    if (filt >> i) & 1:
                        word = self._slot(ref, i)
                        yield word >> SIG_SHIFT, word & OFFSET_MASK

    def __len__(self) -> int:
        return self.entries
