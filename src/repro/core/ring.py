"""Consistent hashing (§4, [Karger et al. STOC'97]).

Clients locate the shard owning a key from the 64-bit hashcode of the key,
with virtual nodes smoothing the load.  Membership changes (node join,
failover promotion) move only the neighbouring arcs — the monotonicity the
SWAT reconfiguration path relies on.
"""

from __future__ import annotations

import bisect
from typing import Hashable, Iterable, Optional

from ..index.hashing import hash64

__all__ = ["HashRing"]


class HashRing:
    """A consistent-hash ring over opaque shard identities."""

    def __init__(self, vnodes: int = 64):
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._points: list[int] = []          # sorted vnode hashes
        self._owners: dict[int, Hashable] = {}  # vnode hash -> shard id
        #: Members in insertion order (a dict, not a set: iterating a set
        #: of str ids follows PYTHONHASHSEED, and everything that walks
        #: the members — connection setup, scale-out — must not).
        self._members: dict[Hashable, None] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, shard_id: Hashable) -> bool:
        return shard_id in self._members

    @property
    def members(self) -> tuple:
        """Every member, in the order it joined the ring."""
        return tuple(self._members)

    def _vnode_hashes(self, shard_id: Hashable) -> Iterable[int]:
        for i in range(self.vnodes):
            yield hash64(f"{shard_id!r}#vn{i}".encode())

    def add(self, shard_id: Hashable) -> None:
        if shard_id in self._members:
            raise ValueError(f"{shard_id!r} already in ring")
        self._members[shard_id] = None
        for h in self._vnode_hashes(shard_id):
            if h in self._owners:
                # Astronomically unlikely 64-bit collision; skip the vnode
                # rather than corrupt the existing owner.
                continue
            bisect.insort(self._points, h)
            self._owners[h] = shard_id

    def remove(self, shard_id: Hashable) -> None:
        if shard_id not in self._members:
            raise ValueError(f"{shard_id!r} not in ring")
        del self._members[shard_id]
        for h in self._vnode_hashes(shard_id):
            if self._owners.get(h) == shard_id:
                del self._owners[h]
                idx = bisect.bisect_left(self._points, h)
                del self._points[idx]

    def owner(self, hashcode: int) -> Hashable:
        """Shard owning a 64-bit hashcode (clockwise successor vnode)."""
        if not self._points:
            raise LookupError("ring is empty")
        idx = bisect.bisect_right(self._points, hashcode)
        if idx == len(self._points):
            idx = 0
        return self._owners[self._points[idx]]

    def owner_of_key(self, key: bytes) -> Hashable:
        return self.owner(hash64(key))

    def successor(self, shard_id: Hashable) -> Optional[Hashable]:
        """Some other member (the first different owner clockwise of the
        shard's first vnode) — used as a migration target hint."""
        if shard_id not in self._members or len(self._members) < 2:
            return None
        start = next(iter(self._vnode_hashes(shard_id)))
        idx = bisect.bisect_right(self._points, start)
        for step in range(len(self._points)):
            owner = self._owners[self._points[(idx + step) % len(self._points)]]
            if owner != shard_id:
                return owner
        return None
