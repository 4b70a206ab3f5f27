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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..index import LockFreeMap
from ..index.export import fits_inline
from ..rdma import RemotePointer

__all__ = ["CachedPointer", "ReadPath", "RptrCache"]

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
