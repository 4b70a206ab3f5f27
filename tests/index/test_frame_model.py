"""Model check of the exported bucket frame against a dict.

A Hypothesis state machine runs insert/update/remove on a tiny exported
table — four buckets and two exported overflow frames, so chains cross
the export cap and ``_merge`` folds them back — and after every step
checks what a client could see in a byte snapshot of the region:

* a one-sided walk returns the dict's value or NOT_FOUND, or demotes;
  a key that is its frame's inline item resolves in one Read;
* every inline line the decoder accepts is byte for byte its slot's
  live item;
* a mutation moved the version of every exported frame of its chain.

The arena stub frees a replaced extent at once and hands it out again
first, the harshest reclaim the seqlock and the inline rule must survive.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.index import (BUCKET_EXPORT_BYTES, CompactHashTable, hash64,
                         parse_bucket)
from repro.index.hashing import bucket_index, signature16

N_BUCKETS = 4
EXPORT_OVERFLOW = 2
KEYS = [b"k%02d" % i for i in range(40)]
NOT_FOUND = object()
DEMOTE = object()


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


def frame_at(snapshot: bytes, idx: int):
    return parse_bucket(snapshot[idx * BUCKET_EXPORT_BYTES:
                                 (idx + 1) * BUCKET_EXPORT_BYTES])


def walk(snapshot: bytes, arena: Arena, key: bytes):
    """A client's cold GET over one consistent snapshot of the region:
    (result, Reads posted)."""
    h = hash64(key)
    sig = signature16(h)
    n_frames = len(snapshot) // BUCKET_EXPORT_BYTES
    idx, reads = bucket_index(h, N_BUCKETS), 0
    while idx is not None:
        assert idx < n_frames, "a non-demoted frame linked past the region"
        reads += 1
        b = frame_at(snapshot, idx)
        if b.demote:
            return DEMOTE, reads
        if b.inline is not None and b.inline.key == key:
            return b.inline.value, reads
        for _i, s, _cls, off in b.slots:
            if s != sig:
                continue
            reads += 1
            item = arena.items.get(off)
            if item is not None and item[0] == key:
                return item[1], reads
        idx = b.link
    return NOT_FOUND, reads


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
            got, reads = walk(snap, self.arena, key)
            if got is DEMOTE:
                continue
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
