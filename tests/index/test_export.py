"""The exported bucket frame: layout, seqlock versioning, chain links,
invalidate-before-reuse, demotion flags and the inline item line."""

import pytest

from repro.index import (
    BUCKET_EXPORT_BYTES,
    CompactHashTable,
    SLOTS_PER_BUCKET,
    hash64,
    parse_bucket,
)
from repro.index.export import INLINE_PAYLOAD_BYTES
from repro.index.hashing import signature16


class Arena:
    """Minimal arena stub: offset -> key bytes, one 64 B class."""

    def __init__(self):
        self.keys: dict[int, bytes] = {}
        self._next = 0

    def store(self, key: bytes) -> int:
        off = self._next
        self._next += 64
        self.keys[off] = key
        return off

    def key_at(self, offset: int) -> bytes:
        return self.keys[offset]


def make_exported(n_buckets=1, overflow_frames=8):
    arena = Arena()
    table = CompactHashTable(n_buckets, arena.key_at,
                             export_overflow=overflow_frames)
    return table, arena


def frame(table, idx):
    return parse_bucket(table.region.read(
        idx * BUCKET_EXPORT_BYTES, BUCKET_EXPORT_BYTES))


def test_parse_rejects_wrong_length():
    with pytest.raises(ValueError):
        parse_bucket(b"\x00" * (BUCKET_EXPORT_BYTES - 1))
    with pytest.raises(ValueError):
        parse_bucket(b"\x00" * (BUCKET_EXPORT_BYTES + 1))


def test_empty_frame_is_all_zero_encoding():
    table, _a = make_exported()
    b = frame(table, 0)
    assert b.version == 0
    assert b.slots == ()
    assert b.link is None
    assert not b.demote
    assert b.inline is None


def test_put_exports_entry_and_bumps_version():
    table, arena = make_exported()
    h = hash64(b"alpha")
    off = arena.store(b"alpha")
    table.put(b"alpha", h, off, cls=3)
    b = frame(table, 0)
    assert b.version == 2  # seqlock stays even across stable states
    assert b.link is None
    [(slot_i, sig, cls, slot_off)] = b.slots
    assert sig == signature16(h)
    assert cls == 3
    assert slot_off == off
    # In-place replace (same key, new extent) rewrites the frame with a
    # new version: a concurrent walker must notice the chain moved.
    off2 = arena.store(b"alpha")
    table.put(b"alpha", h, off2)
    b2 = frame(table, 0)
    assert b2.version == 4
    assert b2.slots[0][3] == off2
    assert table.last_frames == 1


def test_remove_reexports_and_bumps():
    table, arena = make_exported()
    table.put(b"k", hash64(b"k"), arena.store(b"k"))
    v_after_put = frame(table, 0).version
    table.remove(b"k", hash64(b"k"))
    b = frame(table, 0)
    assert b.version == v_after_put + 2
    assert b.slots == ()


def test_overflow_chain_links_and_full_coverage():
    table, arena = make_exported(n_buckets=1)
    keys = [f"key-{i:02d}".encode() for i in range(2 * SLOTS_PER_BUCKET + 3)]
    offsets = {}
    for k in keys:
        offsets[k] = arena.store(k)
        table.put(k, hash64(k), offsets[k])
    # Walk the exported chain exactly as a client would.
    seen = {}
    idx, depth = 0, 0
    while idx is not None:
        b = frame(table, idx)
        assert not b.demote
        for _i, sig, cls, off in b.slots:
            seen[off] = (sig, cls)
        if b.link is not None:
            assert b.link >= table.n_buckets  # overflow frames follow main
        idx = b.link
        depth += 1
        assert depth <= 8
    assert depth >= 3  # the chain really did overflow twice
    for k in keys:
        assert seen[offsets[k]] == (signature16(hash64(k)), 0)


def test_mutation_bumps_every_frame_of_the_chain():
    table, arena = make_exported(n_buckets=1)
    keys = [f"key-{i:02d}".encode() for i in range(SLOTS_PER_BUCKET + 2)]
    for k in keys:
        table.put(k, hash64(k), arena.store(k))
    head_v = frame(table, 0).version
    tail_idx = frame(table, 0).link
    tail_v = frame(table, tail_idx).version
    # A put landing in the *tail* still bumps the head: multi-bucket
    # NOT_FOUND is confirmed by re-reading the head alone.
    extra = b"key-extra"
    table.put(extra, hash64(extra), arena.store(extra))
    assert frame(table, 0).version == head_v + 2
    assert frame(table, tail_idx).version == tail_v + 2
    assert table.last_frames == 2  # one cacheline store per frame


def test_merge_invalidates_freed_overflow_frame():
    table, arena = make_exported(n_buckets=1)
    keys = [f"key-{i:02d}".encode() for i in range(SLOTS_PER_BUCKET + 1)]
    for k in keys:
        table.put(k, hash64(k), arena.store(k), value=b"v")
    tail_idx = frame(table, 0).link
    assert tail_idx is not None
    stale_tail = frame(table, tail_idx)
    assert stale_tail.inline is not None
    # Removing one main-bucket entry lets the merge fold the tail back.
    table.remove(keys[0], hash64(keys[0]))
    assert frame(table, 0).link is None
    freed = frame(table, tail_idx)
    # The freed frame was emptied AND bumped before any reuse: a client
    # holding the stale link sees an empty bucket with a moved version,
    # never another chain's entries.
    assert freed.slots == ()
    assert freed.inline is None
    assert freed.version > stale_tail.version
    # Freed frame + the surviving head frame were rewritten.
    assert table.last_frames == 2


def test_chain_past_overflow_cap_demotes():
    table, arena = make_exported(n_buckets=1, overflow_frames=0)
    keys = [f"key-{i:02d}".encode() for i in range(SLOTS_PER_BUCKET + 1)]
    for k in keys:
        table.put(k, hash64(k), arena.store(k))
    b = frame(table, 0)
    assert b.demote
    # The link names a frame outside the exported region; clients stop
    # at the demote flag and never follow it.
    assert b.link >= table.n_frames
    for k in keys:  # the server still finds every key
        assert table.lookup(k, hash64(k)) is not None
    # Once the spilled tail folds back, the head stops demoting.
    table.remove(keys[0], hash64(keys[0]))
    assert not frame(table, 0).demote


def test_unexported_table_uses_bare_bucket_frames():
    arena = Arena()
    table = CompactHashTable(4, arena.key_at)
    assert not table.exported
    assert table.region.nbytes == 4 * 64
    table.put(b"k", hash64(b"k"), arena.store(b"k"), value=b"v")
    assert table.last_frames == 0


def test_inline_line_holds_the_last_small_item_written():
    table, arena = make_exported()
    off_a = arena.store(b"a")
    table.put(b"a", hash64(b"a"), off_a, value=b"va", version=7)
    inline = frame(table, 0).inline
    assert (inline.key, inline.value, inline.version) == (b"a", b"va", 7)
    assert inline.offset == off_a
    # Last writer wins: a second small item takes the line over.
    off_b = arena.store(b"b")
    table.put(b"b", hash64(b"b"), off_b, value=b"vb", version=1)
    inline = frame(table, 0).inline
    assert (inline.key, inline.value, inline.offset) == (b"b", b"vb", off_b)


def test_inline_line_cleared_when_its_slot_changes():
    table, arena = make_exported()
    table.put(b"a", hash64(b"a"), arena.store(b"a"), value=b"small")
    # Updated to a value that does not fit: the line would describe the
    # previous extent, so it is cleared in the same frame update.
    big = b"x" * INLINE_PAYLOAD_BYTES
    table.put(b"a", hash64(b"a"), arena.store(b"a"), value=big)
    assert frame(table, 0).inline is None
    table.put(b"a", hash64(b"a"), arena.store(b"a"), value=b"small")
    assert frame(table, 0).inline.value == b"small"
    table.remove(b"a", hash64(b"a"))
    assert frame(table, 0).inline is None


def test_inline_line_survives_other_slots_changing():
    table, arena = make_exported()
    table.put(b"b", hash64(b"b"), arena.store(b"b"))  # no line
    table.put(b"a", hash64(b"a"), arena.store(b"a"), value=b"va")
    table.remove(b"b", hash64(b"b"))
    assert frame(table, 0).inline.key == b"a"


def test_decoder_rejects_a_line_beside_a_different_slot_word():
    table, arena = make_exported()
    table.put(b"a", hash64(b"a"), arena.store(b"a"), value=b"va")
    raw = bytearray(table.region.read(0, BUCKET_EXPORT_BYTES))
    assert parse_bucket(bytes(raw)).inline is not None
    # Same line, slot word now naming another extent: not the item.
    slot = parse_bucket(bytes(raw)).inline.slot
    at = 8 * (1 + slot)
    raw[at] ^= 0x40
    assert parse_bucket(bytes(raw)).inline is None


def test_offset_past_the_slot_word_is_refused():
    # The slot word is the table's only copy of an entry: an offset it
    # cannot encode is refused rather than kept and demoted.
    table, arena = make_exported()
    wide = 1 << 44
    arena.keys[wide] = b"wide"
    with pytest.raises(ValueError):
        table.put(b"wide", hash64(b"wide"), wide)
    with pytest.raises(ValueError):
        table.put(b"k", hash64(b"k"), arena.store(b"k"), cls=16)
    assert len(table) == 0
