"""Client-side remote-pointer cache (§4.2.2, §4.2.4).

Maps keys to :class:`CachedPointer` capabilities.  A lookup is only usable
while the lease has comfortably more life than one RDMA Read takes; entries
closer to expiry are treated as misses, which routes the GET through the
message path — implicitly renewing the lease and refreshing the pointer
(the paper additionally sends periodic renew messages; the effect is the
same: popular keys keep valid pointers).

One cache instance may be *shared* by all clients on a machine through the
lock-free map (§4.2.4), which both warms faster and converts what would be
N invalid reads after an update into one.  Counters feed Fig. 11.

Beside the pointers the cache keeps one :class:`ReadPath` per server
machine: what its clients have observed of that machine's Read and
message round trips, which decides the path of a lone cold GET.  The
estimators are machine-wide exactly when the cache is shared.

What one key's one-sided Reads *mean* lives here too, free of any
simulator: :class:`PointerRead` validates a cached pointer's item Read,
and :class:`ColdWalk` is the traversal protocol of a cold key.  Both
answer a completion's ``(ok, bytes)`` with the next action — Read
``rptr`` again (:data:`READ_FRAME` / :data:`READ_ITEM`), :data:`HIT`,
:data:`ABSENT` or :data:`DEMOTE` — and the client's read engine only
posts the Reads and carries the actions out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..index import LockFreeMap
from ..index.export import (BUCKET_EXPORT_BYTES, IndexHandshake, fits_inline,
                            parse_bucket)
from ..index.hashing import bucket_index, hash64, signature16
from ..kvmem import item_size, parse_item, parse_item_prefix
from ..rdma import RemotePointer

__all__ = ["ABSENT", "CachedPointer", "ColdWalk", "DEMOTE", "HIT",
           "PointerRead", "READ_FRAME", "READ_ITEM", "ReadPath",
           "RptrCache"]

#: Actions a :meth:`ColdWalk.step` / :meth:`PointerRead.step` returns.
#: Read a bucket frame at ``rptr``; Read an item at ``rptr``; the key's
#: value is ``value``; the key is provably absent; take the message path.
READ_FRAME, READ_ITEM, HIT, ABSENT, DEMOTE = range(5)

#: Frames one walk may visit before its chain counts as a race.
_MAX_FRAMES = 64

#: An entry must outlive ``now`` by at least this much to be used (covers
#: the RDMA Read round trip with margin).
LEASE_SAFETY_NS = 10_000


@dataclass(frozen=True)
class CachedPointer:
    """A cached remote pointer with its lease expiry and item version."""

    rptr: RemotePointer
    lease_expiry_ns: int
    version: int


class ReadPath:
    """What a client machine has observed of one server machine.

    A lone cold GET can walk the server's exported bucket frame — one
    RDMA Read that answers only if the frame carries the item inline — or
    take the message path.  A walk that misses the inline line pays its
    Read *and* the message, so it wins while ``srtt < inline_share *
    min_msg``, from three estimators:

    * ``srtt``: SRTT-style EWMA (gain 1/8, RFC 6298) of every Read chain's
      post -> last-CQE time — cached-pointer hits, walks and failed
      completions alike — so it climbs as the server NIC's Read responder
      queues up;
    * ``min_msg``: the smallest GET message round trip seen.  The
      *unloaded* price, not a smoothed one: cached-pointer Reads cannot
      leave a congested responder, so a message RTT inflated by the same
      load would keep sending walks into it;
    * ``inline_share``: EWMA (gain 1/8) of ``fits_inline(klen, vlen)``
      over GET results.

    Each starts at its first sample; until ``srtt``, ``min_msg`` and
    ``inline_share`` all have one, :meth:`walk` says no.
    """

    __slots__ = ("srtt", "min_msg", "inline_share")

    def __init__(self):
        self.srtt: Optional[float] = None
        self.min_msg: Optional[int] = None
        self.inline_share: Optional[float] = None

    def on_read(self, rtt_ns: int) -> None:
        """One Read chain's post -> last-CQE time."""
        s = self.srtt
        self.srtt = rtt_ns if s is None else s + (rtt_ns - s) / 8

    def on_message(self, rtt_ns: int) -> None:
        """One GET message's round trip."""
        if self.min_msg is None or rtt_ns < self.min_msg:
            self.min_msg = rtt_ns

    def on_value(self, klen: int, vlen: int) -> None:
        """One GET result of these key and value lengths."""
        x = 1.0 if fits_inline(klen, vlen) else 0.0
        s = self.inline_share
        self.inline_share = x if s is None else s + (x - s) / 8

    def walk(self) -> bool:
        """Whether a lone cold GET should walk the frame."""
        return (self.srtt is not None and self.min_msg is not None
                and self.inline_share is not None
                and self.srtt < self.inline_share * self.min_msg)


class PointerRead:
    """A cached pointer's item Read (§4.2.2): one Read and guardian
    validation.  A live item of the key is a :data:`HIT`; a dead or
    garbage item, a key mismatch or a failed completion is an outdated
    pointer, so the entry is dropped and the key demotes."""

    __slots__ = ("key", "rptr", "value", "_cache")
    #: Never a race, never primes: the :class:`ColdWalk` interface.
    raced = False
    prime = None

    def __init__(self, key: bytes, rptr: RemotePointer, cache: "RptrCache"):
        self.key = key
        self.rptr = rptr
        self._cache = cache

    def step(self, ok: bool, data) -> int:
        parsed = parse_item(data) if ok else None
        if parsed is not None and parsed.live and parsed.key == self.key:
            self._cache.record_successful()
            self.value = parsed.value
            return HIT
        self._cache.record_invalid(self.key)
        return DEMOTE

    def abandon(self) -> None:
        """The Read could not be posted (dead QP)."""
        self._cache.record_invalid(self.key)


class ColdWalk:
    """One cold key's one-sided walk of a server's exported index
    (§4.2.2 extended).

    The first Read is the key's head bucket frame (``rptr`` on
    construction).  A frame whose inline line holds the key answers in
    that one Read; otherwise each signature-matching slot is a candidate
    item Read, and a chain is followed link by link.  A multi-frame
    NOT_FOUND is only concluded after re-reading the *head* frame and
    seeing its version unchanged (every chain mutation bumps the head, so
    an unmoved head proves the walk saw one consistent chain).  Any sign
    the chain moved under the walk — a failed Read, garbage bytes, a
    moved head, a link cycle, a size class the handshake never advertised
    — is a *race*: the walk restarts from the head, and the race after
    ``max_retries`` restarts demotes the key to the message path.

    ``single`` is a rule-chosen walk of a lone cold key: exactly one
    frame Read, which answers only from the inline line (or a one-frame
    NOT_FOUND); a race or anything needing a dependent Read demotes.

    After each :meth:`step`, ``raced`` says whether that step counted a
    race; on :data:`HIT`, ``value`` is the value and ``prime`` the
    pointer to re-prime the cache with (None unless the item was live),
    at item ``version``.
    """

    __slots__ = ("key", "index", "single", "max_retries", "rptr", "raced",
                 "value", "prime", "version", "_sig", "_head", "_frames",
                 "_candidates", "_link", "_retries", "_pending", "_confirm")

    def __init__(self, key: bytes, index: IndexHandshake, max_retries: int,
                 single: bool = False):
        h = hash64(key)
        self.key = key
        self.index = index
        self.single = single
        self.max_retries = max_retries
        self.raced = False
        self._sig = signature16(h)
        self._head = bucket_index(h, index.n_buckets)
        #: frame index -> seqlock version, per frame visited this attempt.
        self._frames: dict[int, int] = {}
        #: Unread signature-matching (class_idx, offset) slots of the
        #: current frame, probed in slot order.
        self._candidates: list[tuple[int, int]] = []
        #: Link of the current frame (export frame index, None = end).
        self._link: Optional[int] = None
        self._retries = 0
        self._read_frame(self._head)

    def step(self, ok: bool, data) -> int:
        """Interpret the completion of ``rptr``: the next action."""
        self.raced = False
        if self._pending == READ_ITEM:
            return self._on_item(parse_item_prefix(data) if ok else None)
        if not ok:
            return self._race()
        try:
            bucket = parse_bucket(data)
        except ValueError:
            return self._race()
        if self._confirm:
            return (ABSENT if bucket.version == self._frames[self._head]
                    else self._race())
        if bucket.demote:
            # Chain not fully exportable: the server said don't trust
            # one-sided conclusions here.
            return DEMOTE
        frame_idx = self.rptr.offset // BUCKET_EXPORT_BYTES
        if frame_idx in self._frames or len(self._frames) >= _MAX_FRAMES:
            # Link cycle / absurd depth: stale frames mixed across
            # instants — a race by definition.
            return self._race()
        self._frames[frame_idx] = bucket.version
        inline = bucket.inline
        if inline is not None and inline.key == self.key:
            # The frame carried the item beside its slot word: one Read,
            # and the value linearizes to its DMA instant.
            return self._hit(inline.value, inline.version, inline.offset)
        # The inline slot's key is known not to be ours.
        skip = inline.slot if inline is not None else -1
        self._candidates = [(cls, off) for i, sig, cls, off in bucket.slots
                            if sig == self._sig and i != skip]
        if any(cls >= len(self.index.size_classes)
               for cls, _off in self._candidates):
            # A size-class index the handshake never advertised:
            # stale/foreign frame bytes.
            return self._race()
        self._link = bucket.link
        if self.single and (self._candidates or bucket.link is not None):
            # Not inline, and the answer is one dependent Read away: the
            # message path costs no more and grants a lease.
            return DEMOTE
        return self._advance()

    def abandon(self) -> None:
        """The Read could not be posted (dead QP): nothing to undo."""

    def _on_item(self, parsed) -> int:
        if parsed is None:
            # Garbage bytes: the frame walked was stale (failed Read, or
            # an offset whose meaning changed under the walk).
            return self._race()
        if parsed.key != self.key:
            # 16-bit signature collision: a *different* key answered.
            # Not a race — keep probing candidates.
            return self._advance()
        # A DEAD guardian is fine *here* (unlike the cached-pointer
        # path): the frame snapshot proved this was the key's current
        # extent at the frame Read's DMA instant, so its retirement
        # happened after that — and reclaim defers a full read horizon
        # past retirement, so the bytes are intact and the value
        # linearizes to the frame-read instant.  Without this, every GET
        # racing an update would retry and hot keys would demote,
        # re-serializing on the server the walk offloads.  Only a live
        # hit may prime the cache.
        return self._hit(parsed.value, parsed.version,
                         self.rptr.offset if parsed.live else None)

    def _hit(self, value: bytes, version: int,
             offset: Optional[int]) -> int:
        self.value = value
        self.version = version
        self.prime = None if offset is None else RemotePointer(
            self.index.arena_rkey, offset, item_size(len(self.key),
                                                     len(value)))
        return HIT

    def _advance(self) -> int:
        """Probe the next candidate, follow the link, or conclude
        NOT_FOUND."""
        if self._candidates:
            cls_idx, offset = self._candidates.pop(0)
            self.rptr = RemotePointer(self.index.arena_rkey, offset,
                                      self.index.size_classes[cls_idx])
            self._pending = READ_ITEM
            return READ_ITEM
        if self._link is not None:
            return self._read_frame(self._link)
        if len(self._frames) == 1:
            # One atomic frame snapshot held the whole chain: the key was
            # provably absent at the Read's DMA instant.
            return ABSENT
        # Multi-frame walk: only believable if the head never moved.
        return self._read_frame(self._head, confirm=True)

    def _race(self) -> int:
        """The chain moved under the walk: restart, bounded."""
        if self.single:
            return DEMOTE
        self.raced = True
        self._retries += 1
        if self._retries > self.max_retries:
            return DEMOTE
        self._frames.clear()
        self._candidates = []
        self._link = None
        return self._read_frame(self._head)

    def _read_frame(self, frame_idx: int, confirm: bool = False) -> int:
        self.rptr = RemotePointer(self.index.export_rkey,
                                  frame_idx * BUCKET_EXPORT_BYTES,
                                  BUCKET_EXPORT_BYTES)
        self._pending = READ_FRAME
        self._confirm = confirm
        return READ_FRAME


class RptrCache:
    """A (possibly shared) remote-pointer cache with hit accounting."""

    def __init__(self, capacity: int, mode: str = "lockfree"):
        self._map = LockFreeMap(capacity, mode=mode)
        #: RDMA Reads that returned a live, matching item.
        self.successful_hits = 0
        #: RDMA Reads that returned a dead/garbage item (outdated pointer).
        self.invalid_hits = 0
        #: Lookups skipped because the lease was (nearly) expired.
        self.expired = 0
        #: Lookups with no entry at all.
        self.misses = 0
        #: Batched fast-path accounting (the get_many read fan-out):
        #: number of batch lookups, keys they examined, and usable
        #: pointers they returned.  Every returned pointer is posted as
        #: exactly one RDMA Read, so ``successful_hits + invalid_hits``
        #: reconciles with ``batch_hits`` whenever the fan-out is the only
        #: fast-path user (single-key GETs go through batches of one).
        self.batches = 0
        self.batch_keys = 0
        self.batch_hits = 0
        #: Server machine id -> :class:`ReadPath`.
        self._paths: dict[int, ReadPath] = {}

    # -- sharing ---------------------------------------------------------
    def add_sharer(self) -> None:
        """Register another co-located client using this cache."""
        self._map.sharers += 1

    @property
    def sharers(self) -> int:
        return self._map.sharers

    def op_cost_ns(self) -> int:
        """CPU cost of one cache operation (lock-free vs locked model)."""
        return self._map.op_cost_ns()

    def batch_op_cost_ns(self, n: int) -> int:
        """CPU cost of one batched lookup sweep over ``n`` keys.

        The fixed per-operation overhead — the epoch announce/retire
        fences of the lock-free map, or the acquire/release (plus
        contention) of the locked ablation — is paid once per sweep;
        each additional key costs only the probe itself, modeled at half
        a standalone op.  A batch of one degenerates to ``op_cost_ns``.
        """
        if n <= 1:
            return self.op_cost_ns() * max(0, n)
        return self.op_cost_ns() + (n - 1) * (self.op_cost_ns() // 2)

    def path_to(self, machine_id: int) -> ReadPath:
        """The (lazily created) estimators for one server machine."""
        path = self._paths.get(machine_id)
        if path is None:
            path = self._paths[machine_id] = ReadPath()
        return path

    # -- cache ops ---------------------------------------------------------
    def lookup(self, key: bytes, now: int) -> Optional[CachedPointer]:
        """A usable entry for ``key``, or None (counts the miss kind)."""
        entry: Optional[CachedPointer] = self._map.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.lease_expiry_ns < now + LEASE_SAFETY_NS:
            # Too close to expiry to trust: drop and renew via message GET.
            self._map.remove(key)
            self.expired += 1
            return None
        return entry

    def lookup_batch(self, keys: list[bytes],
                     now: int) -> list[Optional[CachedPointer]]:
        """Usable entries for a whole batch of keys (None per miss).

        Per-key miss kinds are counted exactly as :meth:`lookup` does;
        the batch counters additionally record how many pointers each
        fan-out attempt had to work with (Fig. 11 analysis).
        """
        self.batches += 1
        self.batch_keys += len(keys)
        entries = [self.lookup(key, now) for key in keys]
        self.batch_hits += sum(1 for e in entries if e is not None)
        return entries

    def store(self, key: bytes, entry: CachedPointer) -> None:
        """Install/refresh the pointer for ``key``."""
        self._map.put(key, entry)

    def invalidate(self, key: bytes) -> None:
        """Drop ``key`` (out-of-place update made the pointer stale)."""
        self._map.remove(key)

    def record_successful(self) -> None:
        """Count a live, matching RDMA-Read result."""
        self.successful_hits += 1

    def record_invalid(self, key: bytes) -> None:
        """Count a dead/garbage read and drop the entry."""
        self.invalid_hits += 1
        self.invalidate(key)

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: bytes) -> bool:
        return key in self._map

    def stats(self) -> dict[str, int]:
        """Counter snapshot (feeds Fig. 11)."""
        return {
            "successful_hits": self.successful_hits,
            "invalid_hits": self.invalid_hits,
            "expired": self.expired,
            "misses": self.misses,
            "entries": len(self._map),
            "evictions": self._map.evictions,
            "batches": self.batches,
            "batch_keys": self.batch_keys,
            "batch_hits": self.batch_hits,
        }
