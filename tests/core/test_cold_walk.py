"""The cold-key walker, one branch per case, with no simulator.

Every frame a case feeds :class:`~repro.core.rptr.ColdWalk` is a real
bucket frame of a tiny exported :class:`CompactHashTable`, and every item
Read is answered with ``encode_item`` bytes, exactly what the client's
read engine hands the walker from a completion.
"""

from repro.core.rptr import (ABSENT, ColdWalk, DEMOTE, HIT, READ_FRAME,
                             READ_ITEM)
from repro.index import BUCKET_EXPORT_BYTES, CompactHashTable, hash64
from repro.index.export import IndexHandshake
from repro.index.hashing import signature16
from repro.kvmem import encode_item, item_size
from repro.rdma import RemotePointer

EXPORT_RKEY, ARENA_RKEY = 1, 2
BIG = b"V" * 60  # never inline: every hit needs an item Read
SIZE_CLASSES = (item_size(8, len(BIG)),)


class Server:
    """One exported main bucket, its overflow frames and the arena."""

    def __init__(self, export_overflow: int = 2):
        #: offset -> [key, value, version, live]
        self.items: dict[int, list] = {}
        self.table = CompactHashTable(1, lambda off: self.items[off][0],
                                      export_overflow=export_overflow)
        self.index = IndexHandshake(EXPORT_RKEY, 1, self.table.n_frames,
                                    ARENA_RKEY, 1 << 20, SIZE_CLASSES)

    def put(self, key: bytes, value: bytes = BIG, cls: int = 0) -> int:
        off = 256 * len(self.items)
        self.items[off] = [key, value, 1, True]
        self.table.put(key, hash64(key), off, cls=cls, value=value,
                       version=1)
        return off

    def read(self, rptr: RemotePointer) -> bytes:
        if rptr.rkey == EXPORT_RKEY:
            return self.table.region.read(rptr.offset, rptr.length)
        key, value, version, live = self.items[rptr.offset]
        return encode_item(key, value, version, live).ljust(rptr.length,
                                                            b"\0")

    def walk(self, key: bytes, max_retries: int = 3,
             single: bool = False) -> ColdWalk:
        return ColdWalk(key, self.index, max_retries, single)

    def serve(self, walk: ColdWalk) -> int:
        """Answer the walk's Reads until it concludes; its last action."""
        act = READ_FRAME
        while act in (READ_FRAME, READ_ITEM):
            act = walk.step(True, self.read(walk.rptr))
        return act


def keys(n: int, prefix: bytes = b"key") -> list[bytes]:
    return [b"%s%05d" % (prefix, i) for i in range(n)]


def colliding_pair() -> tuple[bytes, bytes]:
    """Two keys of equal 16-bit signature (one bucket: same chain)."""
    seen: dict[int, bytes] = {}
    for key in keys(100_000, b"sig"):
        other = seen.setdefault(signature16(hash64(key)), key)
        if other != key:
            return other, key
    raise AssertionError("no signature collision found")


def frame_at(idx: int) -> int:
    return idx * BUCKET_EXPORT_BYTES


def test_moved_head_on_the_confirm_read_races_and_restarts_from_the_head():
    server = Server()
    for key in keys(8):  # 7 slots per frame: the chain spills to frame 1
        server.put(key)
    walk = server.walk(b"absent")
    assert walk.step(True, server.read(walk.rptr)) == READ_FRAME
    assert walk.rptr.offset == frame_at(1)
    assert walk.step(True, server.read(walk.rptr)) == READ_FRAME
    assert walk.rptr.offset == frame_at(0)  # the head confirm
    server.put(b"writer")  # bumps every frame of the chain
    assert walk.step(True, server.read(walk.rptr)) == READ_FRAME
    assert walk.raced
    assert walk.rptr.offset == frame_at(0)
    assert server.serve(walk) == ABSENT
    assert not walk.raced


def test_the_race_after_max_retries_demotes():
    walk = Server().walk(b"k", max_retries=2)
    for _ in range(2):
        assert walk.step(False, None) == READ_FRAME
        assert walk.raced and walk.rptr.offset == frame_at(0)
    assert walk.step(False, None) == DEMOTE
    assert walk.raced


def test_a_race_of_a_single_read_walk_demotes_at_once():
    walk = Server().walk(b"k", single=True)
    assert walk.step(False, None) == DEMOTE
    assert not walk.raced  # no restart was counted


def test_a_link_cycle_is_a_race():
    server = Server()
    for key in keys(8):
        server.put(key)
    walk = server.walk(b"absent")
    head = server.read(walk.rptr)  # links to frame 1
    assert walk.step(True, head) == READ_FRAME
    # Stale bytes at frame 1 that link to frame 1 itself.
    assert walk.step(True, head) == READ_FRAME
    assert walk.rptr.offset == frame_at(1) and not walk.raced
    assert walk.step(True, head) == READ_FRAME
    assert walk.raced and walk.rptr.offset == frame_at(0)


def test_an_unadvertised_size_class_is_a_race():
    server = Server()
    server.put(b"k", cls=len(SIZE_CLASSES))
    walk = server.walk(b"k")
    assert walk.step(True, server.read(walk.rptr)) == READ_FRAME
    assert walk.raced and walk.rptr.offset == frame_at(0)


def test_a_signature_collision_moves_on_to_the_next_candidate():
    first, second = colliding_pair()
    server = Server()
    first_off = server.put(first)
    second_off = server.put(second, b"mine" * 15)
    walk = server.walk(second)
    assert walk.step(True, server.read(walk.rptr)) == READ_ITEM
    assert walk.rptr.offset == first_off
    assert walk.step(True, server.read(walk.rptr)) == READ_ITEM
    assert not walk.raced and walk.rptr.offset == second_off
    assert walk.step(True, server.read(walk.rptr)) == HIT
    assert walk.value == b"mine" * 15


def test_a_dead_guardian_item_hit_returns_the_value_without_priming():
    server = Server()
    off = server.put(b"k")
    live = server.walk(b"k")
    assert server.serve(live) == HIT
    assert live.prime == RemotePointer(ARENA_RKEY, off,
                                       item_size(1, len(BIG)))
    server.items[off][3] = False  # retired by an out-of-place update
    dead = server.walk(b"k")
    assert server.serve(dead) == HIT
    assert dead.value == BIG and dead.prime is None


def test_an_inline_item_answers_in_the_frame_read():
    server = Server()
    off = server.put(b"k", b"small")
    walk = server.walk(b"k", single=True)
    assert walk.step(True, server.read(walk.rptr)) == HIT
    assert walk.value == b"small" and walk.prime.offset == off


def test_the_demote_flag_demotes():
    server = Server(export_overflow=0)  # the chain cannot be exported
    for key in keys(8):
        server.put(key)
    walk = server.walk(keys(1)[0])
    assert walk.step(True, server.read(walk.rptr)) == DEMOTE
    assert not walk.raced
