"""Shard-local storage engine: arena + compact table + leases + reclaim.

This is the state a shard owns exclusively (§4.1.1): no locks anywhere, by
construction.  Every operation returns a :class:`StoreResult` carrying a
``cost_ns`` figure computed from the CPU/NUMA cost model; the caller (the
shard's single thread, or the secondary's merge thread) charges it to its
core.  Splitting state from the event loop lets primaries and secondaries
share the exact same engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimConfig
from ..index import ChainedHashTable, CompactHashTable, hash64
from ..index.export import IndexHandshake
from ..kvmem import (
    HEADER_BYTES,
    LeaseReclaimer,
    OutOfMemory,
    SlabAllocator,
    item_size,
    kill_item,
    write_item,
)
from ..kvmem.layout import cachelines
from ..protocol import Op, Status
from ..rdma import MemoryRegion, Nic
from ..sim import Simulator
from .lease import LeaseManager

__all__ = ["ShardStore", "StoreResult"]


@dataclass
class StoreResult:
    status: Status
    value: bytes = b""
    offset: int = -1
    extent: int = 0
    version: int = 0
    lease_expiry_ns: int = 0
    cost_ns: int = 0
    #: Offset retired by this op (update/delete), for replication capture.
    retired_offset: int = -1


class ShardStore:
    """Exclusive single-owner key-value state for one shard."""

    def __init__(self, sim: Simulator, config: SimConfig, nic: Nic,
                 numa_domain: int, name: str,
                 table_kind: str = "compact",
                 numa_mode: str = "local",
                 scribble_on_reclaim: bool = False,
                 export_index: bool = True):
        self.sim = sim
        self.config = config
        self.cpu = config.cpu
        self.name = name
        self.numa_domain = numa_domain
        if numa_mode not in ("local", "remote", "interleaved"):
            raise ValueError(f"unknown numa_mode {numa_mode!r}")
        self.numa_mode = numa_mode
        self.region = MemoryRegion(config.memory.arena_bytes,
                                   numa_domain=numa_domain,
                                   name=f"{name}.arena")
        nic.register(self.region)
        self.alloc = SlabAllocator(self.region, config.memory.size_classes)
        table_cls = {"compact": CompactHashTable,
                     "chained": ChainedHashTable}.get(table_kind)
        if table_cls is None:
            raise ValueError(f"unknown table_kind {table_kind!r}")
        # Client-readable index (traversal path): only the compact table
        # has the bucket frame geometry, and its slot words name the item's
        # size class in 4 bits.  An exported table *is* the registered
        # region clients Read.
        self.exported = (export_index and config.traversal.enabled
                         and table_cls is CompactHashTable
                         and len(self.alloc.classes) <= 16)
        if self.exported:
            self.table = CompactHashTable(
                config.hydra.buckets_per_shard, self.key_at,
                export_overflow=config.traversal.export_overflow,
                numa_domain=numa_domain, name=name)
            nic.register(self.table.region)
            self._class_index = {c: i for i, c in enumerate(self.alloc.classes)}
        else:
            self.table = table_cls(config.hydra.buckets_per_shard,
                                   self.key_at)
        self.leases = LeaseManager(sim, config.hydra)
        self.reclaimer = LeaseReclaimer(
            sim, self.alloc, config.memory.reclaim_period_ns,
            scribble=scribble_on_reclaim,
            horizon_ns=(config.traversal.read_horizon_ns
                        if self.exported else 0),
        )

    # -- arena access helpers ------------------------------------------------
    def key_at(self, offset: int) -> bytes:
        klen = self.region.read_u32(offset) >> 16
        return self.region.read(offset + HEADER_BYTES, klen)

    def _header(self, offset: int) -> tuple[int, int, int]:
        """(klen, vlen, version) at an arena offset."""
        word = self.region.read_u32(offset)
        klen = word >> 16
        vlen = self.region.read_u32(offset + 4)
        version = self.region.read_u64(offset + 8)
        return klen, vlen, version

    # -- cost model ----------------------------------------------------------
    def _line_ns(self, lines: int) -> int:
        if self.numa_mode == "local":
            return self.cpu.cacheline_ns(lines, remote=False)
        if self.numa_mode == "remote":
            return self.cpu.cacheline_ns(lines, remote=True)
        # interleaved: average across the machine's 4 controllers.
        per = (self.cpu.cacheline_local_ns
               + 3 * self.cpu.cacheline_remote_ns) / 4
        return int(lines * per)

    def _index_cost(self, key: bytes) -> int:
        """Cost of the table op that just ran (lines + key compares)."""
        t = self.table
        return (self._line_ns(t.last_lines)
                + t.last_keycmps * (self.cpu.keycmp_word_ns * max(1, len(key) // 8)
                                    + self._line_ns(cachelines(len(key)))))

    # -- operations --------------------------------------------------------
    def get(self, key: bytes) -> StoreResult:
        h = hash64(key)
        cost = self.cpu.hash_key_ns
        offset = self.table.lookup(key, h)
        cost += self._index_cost(key)
        if offset is None:
            return StoreResult(status=Status.NOT_FOUND, cost_ns=cost)
        klen, vlen, version = self._header(offset)
        extent = item_size(klen, vlen)
        value = self.region.read(offset + HEADER_BYTES + klen, vlen)
        # Header + key lines are latency-bound fetches; the value itself
        # streams at memcpy rate (charging per-line there would double
        # count and penalize multi-MB items).
        cost += (self._line_ns(cachelines(HEADER_BYTES + klen))
                 + self.cpu.memcpy_ns(vlen))
        expiry = self.leases.on_get(offset)
        return StoreResult(status=Status.OK, value=value, offset=offset,
                           extent=extent, version=version,
                           lease_expiry_ns=expiry, cost_ns=cost)

    def upsert(self, key: bytes, value: bytes, op: Op,
               forced_version: int = 0) -> StoreResult:
        """INSERT / UPDATE / PUT with out-of-place allocation."""
        h = hash64(key)
        cost = self.cpu.hash_key_ns
        old_offset = self.table.lookup(key, h)
        cost += self._index_cost(key)
        if op is Op.INSERT and old_offset is not None:
            return StoreResult(status=Status.EXISTS, cost_ns=cost)
        if op is Op.UPDATE and old_offset is None:
            return StoreResult(status=Status.NOT_FOUND, cost_ns=cost)
        if forced_version:
            version = forced_version
        elif old_offset is not None:
            version = self._header(old_offset)[2] + 1
        else:
            version = 1
        extent = item_size(len(key), len(value))
        try:
            new_offset = self.alloc.alloc(extent)
        except OutOfMemory:
            return StoreResult(status=Status.ERROR, cost_ns=cost)
        write_item(self.region, new_offset, key, value, version)
        cost += (self.cpu.alloc_ns + self.cpu.memcpy_ns(extent)
                 + self.cpu.update_extra_ns)
        if self.exported:
            self.table.put(key, h, new_offset,
                           self._class_index[self.alloc.extent_class(new_offset)],
                           value, version)
            cost += self._line_ns(self.table.last_lines)
            # Each rewritten frame (inline line included) is one
            # cacheline store.
            cost += self._line_ns(self.table.last_frames)
        else:
            self.table.put(key, h, new_offset)
            cost += self._line_ns(self.table.last_lines)
        retired = -1
        if old_offset is not None:
            old_klen, old_vlen, _ = self._header(old_offset)
            kill_item(self.region, old_offset, old_klen, old_vlen)
            cost += self._line_ns(1)  # the guardian flip
            frozen = self.leases.freeze(old_offset)
            self.reclaimer.retire(old_offset, frozen)
            retired = old_offset
        expiry = self.leases.on_insert(new_offset)
        return StoreResult(status=Status.OK, offset=new_offset, extent=extent,
                           version=version, lease_expiry_ns=expiry,
                           cost_ns=cost, retired_offset=retired)

    def remove(self, key: bytes) -> StoreResult:
        h = hash64(key)
        cost = self.cpu.hash_key_ns
        offset = self.table.remove(key, h)
        cost += self._index_cost(key)
        if self.exported:
            cost += self._line_ns(self.table.last_frames)
        if offset is None:
            return StoreResult(status=Status.NOT_FOUND, cost_ns=cost)
        klen, vlen, version = self._header(offset)
        kill_item(self.region, offset, klen, vlen)
        cost += self._line_ns(1)
        frozen = self.leases.freeze(offset)
        self.reclaimer.retire(offset, frozen)
        return StoreResult(status=Status.OK, version=version, cost_ns=cost,
                           retired_offset=offset)

    def lease_renew(self, key: bytes) -> StoreResult:
        h = hash64(key)
        cost = self.cpu.hash_key_ns
        offset = self.table.lookup(key, h)
        cost += self._index_cost(key)
        if offset is None:
            return StoreResult(status=Status.NOT_FOUND, cost_ns=cost)
        klen, vlen, version = self._header(offset)
        expiry = self.leases.renew(offset)
        return StoreResult(status=Status.OK, offset=offset,
                           extent=item_size(klen, vlen), version=version,
                           lease_expiry_ns=expiry, cost_ns=cost)

    def apply(self, op: Op, key: bytes, value: bytes,
              version: int = 0) -> StoreResult:
        """Apply a replicated record (secondary merge path)."""
        if op in (Op.PUT, Op.INSERT, Op.UPDATE):
            return self.upsert(key, value, Op.PUT, forced_version=version)
        if op is Op.DELETE:
            return self.remove(key)
        raise ValueError(f"non-replicable op {op!r}")

    def index_handshake(self) -> IndexHandshake | None:
        """Traversal advertisement for new connections (None = no export)."""
        table = self.table
        if (not self.exported or table.region.rkey is None
                or self.region.rkey is None):
            return None
        return IndexHandshake(
            export_rkey=table.region.rkey,
            n_buckets=table.n_buckets,
            n_frames=table.n_frames,
            arena_rkey=self.region.rkey,
            arena_nbytes=self.region.nbytes,
            size_classes=self.alloc.classes,
        )

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.table)

    def dump(self) -> dict[bytes, bytes]:
        """Full contents (migration / verification); not cost-accounted."""
        out: dict[bytes, bytes] = {}
        for _sig, offset in self.table.items():
            klen, vlen, _ = self._header(offset)
            key = self.region.read(offset + HEADER_BYTES, klen)
            out[key] = self.region.read(offset + HEADER_BYTES + klen, vlen)
        return out
