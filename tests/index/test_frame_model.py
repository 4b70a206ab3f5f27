"""Model check of the exported bucket frame against a dict.

A Hypothesis state machine runs insert/update/remove on a tiny exported
table — four buckets and two exported overflow frames, so chains cross
the export cap and ``_merge`` folds them back — and after every step
checks what a client could see in a byte snapshot of the region:

* the client's own walker (:class:`~repro.core.rptr.ColdWalk`), its
  Reads answered from the snapshot, returns the dict's value or
  NOT_FOUND, or demotes, and never races; a key that is its frame's
  inline item resolves in one Read;
* every inline line the decoder accepts is byte for byte its slot's
  live item;
* a mutation moved the version of every exported frame of its chain.

The arena stub frees a replaced extent at once and hands it out again
first, the harshest reclaim the seqlock and the inline rule must survive.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.rptr import (ColdWalk, DEMOTE, HIT, READ_FRAME,
                             READ_ITEM)
from repro.index import (BUCKET_EXPORT_BYTES, CompactHashTable, hash64,
                         parse_bucket)
from repro.index.export import IndexHandshake
from repro.index.hashing import bucket_index
from repro.kvmem import encode_item, item_size

N_BUCKETS = 4
EXPORT_OVERFLOW = 2
KEYS = [b"k%02d" % i for i in range(40)]
NOT_FOUND = object()
EXPORT_RKEY, ARENA_RKEY = 1, 2
#: Every item the rules write fits the one size class (class index 0).
SIZE_CLASSES = (item_size(3, 80),)


class Arena:
    """Offset -> (key, value, version); freed extents are reused LIFO."""

    def __init__(self):
        self.items: dict[int, tuple[bytes, bytes, int]] = {}
        self.free: list[int] = []
        self._next = 0

    def store(self, key: bytes, value: bytes, version: int) -> int:
        if self.free:
            off = self.free.pop()
        else:
            off = self._next
            self._next += 64
        self.items[off] = (key, value, version)
        return off

    def release(self, offset: int) -> None:
        del self.items[offset]
        self.free.append(offset)

    def key_at(self, offset: int) -> bytes:
        return self.items[offset][0]

    def item_bytes(self, offset: int, length: int) -> bytes:
        """What an item Read of ``length`` bytes at ``offset`` returns."""
        key, value, version = self.items[offset]
        return encode_item(key, value, version).ljust(length, b"\0")


def frame_at(snapshot: bytes, idx: int):
    return parse_bucket(snapshot[idx * BUCKET_EXPORT_BYTES:
                                 (idx + 1) * BUCKET_EXPORT_BYTES])


class FrameMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.arena = Arena()
        self.table = CompactHashTable(N_BUCKETS, self.arena.key_at,
                                      export_overflow=EXPORT_OVERFLOW)
        self.model: dict[bytes, bytes] = {}
        self.version: dict[bytes, int] = {}

    # -- helpers -----------------------------------------------------------
    def snapshot(self) -> bytes:
        return self.table.region.read(0, self.table.region.nbytes)

    def client_walk(self, snapshot: bytes, key: bytes):
        """The client's walk of ``key`` with every Read served from one
        consistent snapshot: (walker, final action, Reads posted)."""
        index = IndexHandshake(EXPORT_RKEY, N_BUCKETS, self.table.n_frames,
                               ARENA_RKEY, 1 << 20, SIZE_CLASSES)
        walk = ColdWalk(key, index, max_retries=0)
        act, reads = READ_FRAME, 0
        while act in (READ_FRAME, READ_ITEM):
            rptr = walk.rptr
            reads += 1
            if rptr.rkey == EXPORT_RKEY:
                assert rptr.offset + rptr.length <= len(snapshot), (
                    "a non-demoted frame linked past the region")
                data = snapshot[rptr.offset:rptr.offset + rptr.length]
            else:
                data = self.arena.item_bytes(rptr.offset, rptr.length)
            act = walk.step(True, data)
        return walk, act, reads

    def exported_chain(self, key: bytes) -> dict[int, int]:
        """frame index -> version along ``key``'s exported chain."""
        snap = self.snapshot()
        out = {}
        idx = bucket_index(hash64(key), N_BUCKETS)
        while idx is not None:
            b = frame_at(snap, idx)
            out[idx] = b.version
            if b.demote:
                break
            idx = b.link
        return out

    def check_versions_moved(self, before: dict[int, int],
                             key: bytes) -> None:
        after = self.exported_chain(key)
        snap = self.snapshot()
        for idx, v in before.items():
            now = frame_at(snap, idx).version
            assert now != v, f"frame {idx} kept version {v}"
        for idx in after:
            if idx in before:
                continue
            # A frame new to the chain was bumped by this mutation.
            assert after[idx] % 2 == 0 and after[idx] > 0

    # -- rules -------------------------------------------------------------
    @rule(key=st.sampled_from(KEYS),
          value=st.binary(max_size=48) | st.binary(min_size=40, max_size=80))
    def put(self, key, value):
        before = self.exported_chain(key)
        version = self.version.get(key, 0) + 1
        self.version[key] = version
        off = self.arena.store(key, value, version)
        old = self.table.put(key, hash64(key), off, value=value,
                             version=version)
        if old is not None:
            self.arena.release(old)
        self.model[key] = value
        self.check_versions_moved(before, key)

    @rule(key=st.sampled_from(KEYS))
    def remove(self, key):
        before = self.exported_chain(key)
        old = self.table.remove(key, hash64(key))
        assert (old is not None) == (key in self.model)
        if old is None:
            return
        self.arena.release(old)
        del self.model[key]
        self.check_versions_moved(before, key)

    # -- what a client can observe -----------------------------------------
    @invariant()
    def one_sided_walk_matches_the_dict(self):
        snap = self.snapshot()
        for key in KEYS:
            walk, act, reads = self.client_walk(snap, key)
            assert not walk.raced, "one consistent snapshot raced"
            if act == DEMOTE:
                continue
            got = walk.value if act == HIT else NOT_FOUND
            want = self.model.get(key, NOT_FOUND)
            assert got == want, key
            head = frame_at(snap, bucket_index(hash64(key), N_BUCKETS))
            if head.inline is not None and head.inline.key == key:
                assert reads == 1

    @invariant()
    def accepted_inline_lines_are_live_items(self):
        snap = self.snapshot()
        for idx in range(self.table.n_frames):
            line = frame_at(snap, idx).inline
            if line is None:
                continue  # empty, or detectably not beside its slot word
            assert self.arena.items.get(line.offset) == (
                line.key, line.value, line.version)
            assert self.model.get(line.key) == line.value
            assert self.version[line.key] == line.version


FrameMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None)
TestFrameModel = FrameMachine.TestCase
