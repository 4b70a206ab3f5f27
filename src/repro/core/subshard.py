"""Sub-sharded shard instance — the §6.3 proposal, implemented.

The scale-up experiment (Fig. 12c,d) shows HydraDB hitting a wall once
``shards x clients`` RDMA connections overflow the NIC's QP state cache.
The paper proposes sub-sharding as the mitigation: *"allow a single shard
instance to use multiple cores for independent sub-shards while the main
process maintains all the connections"*.

This class implements it: one instance owns all client connections (so
the QP count stays ``clients``, not ``clients x cores``) and a dispatcher
thread routes each request by key hash to one of ``n_subshards``
independent single-threaded executors.  Unlike the pipelined ablation,
sub-shards share *nothing* — each exclusively owns its own
:class:`~repro.core.store.ShardStore` — so the lock-free execution model
is preserved; the only added costs are the dispatch hand-off and a short
send-queue lock when executors post responses on shared QPs.

The ablation bench ``ablation_subsharding`` compares this against plain
multi-shard scale-up past the QP wall.
"""

from __future__ import annotations

from typing import Optional

from ..config import SimConfig
from ..hardware import Core, Machine
from ..index.hashing import hash64
from ..protocol import Status
from ..protocol.messages import _REQ
from ..sim import Interrupt, MetricSet, Simulator, Store
from .errors import LifecycleError
from .shard import _MAX_OP, _OP_BY_CODE, _WRITE_HI, _WRITE_LO, Shard, _run_op
from .store import ShardStore

__all__ = ["SubShardedShard"]

#: Serializing response posts from multiple executor cores onto one QP.
SEND_LOCK_NS = 60
#: Dispatcher hand-off (cheaper than the pipelined path: no shared store,
#: the request routes straight to its owning core's queue).
DISPATCH_NS = 250


class SubShardedShard(Shard):
    """One connection endpoint, ``n_subshards`` independent executors."""

    def __init__(self, sim: Simulator, config: SimConfig, shard_id: str,
                 machine: Machine, core: Core, n_subshards: int,
                 metrics: Optional[MetricSet] = None,
                 table_kind: str = "compact", numa_mode: str = "local",
                 scribble_on_reclaim: bool = False):
        if n_subshards < 1:
            raise ValueError("need at least one sub-shard")
        # No index export: one connection fronts many sub-tables here, so
        # a single traversable bucket region cannot be advertised.
        super().__init__(sim, config, shard_id, machine, core,
                         metrics=metrics, table_kind=table_kind,
                         numa_mode=numa_mode,
                         scribble_on_reclaim=scribble_on_reclaim,
                         export_index=False)
        # The base-class store becomes sub-shard 0; the rest get their own
        # stores and cores within the same NUMA domain where possible.
        self.subcores: list[Core] = []
        self._queues: list[Store] = [Store(sim) for _ in range(n_subshards)]
        for k in range(1, n_subshards):
            self.substores.append(ShardStore(
                sim, config, self.nic, core.numa_domain,
                f"{shard_id}.sub{k}", table_kind=table_kind,
                numa_mode=numa_mode,
                scribble_on_reclaim=scribble_on_reclaim,
                export_index=False))
        for k in range(n_subshards):
            self.subcores.append(machine.allocate_core(
                f"{shard_id}.sub{k}"))
        self.n_subshards = n_subshards

    @property
    def cores_used(self) -> int:
        return 1 + self.n_subshards

    def _substore_for(self, key: bytes) -> int:
        # Decorrelated from the cluster ring (which uses the low bits).
        return (hash64(key) >> 32) % self.n_subshards

    def store_for_key(self, key: bytes) -> ShardStore:
        return self.substores[self._substore_for(key)]

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self.replicator is not None:
            raise LifecycleError(
                "sub-sharded instances do not support replication hooks")
        super().start()

    def _threads(self) -> list[tuple]:
        return [(".dispatch", self._ingest_loop(self.core))] + [
            (f".sub{k}", self._executor_loop(k))
            for k in range(self.n_subshards)]

    # -- dispatcher (owns every connection) --------------------------------
    def _ingest(self, core, picked):
        """Hand each ready request to the executor owning its key: unpack
        the header in place and enqueue a raw ``(conn, slot, op, key,
        value, req_id)`` tuple — no Request objects.  Executors ignore
        tenant identity, so named-tenant requests take the same path."""
        unpack = _REQ.unpack_from
        base = _REQ.size
        handoff = self.cpu.parse_ns + DISPATCH_NS
        queues = self._queues
        processed = 0
        for conn in picked:
            ready, extra_ns = self._poll_conn(conn)
            if extra_ns:
                yield core.execute(extra_ns)
            for slot, payload in ready:
                self._c_requests.add()
                bad = len(payload) < base
                if not bad:
                    op, tlen, klen, vlen, rid = unpack(payload, 0)
                    bad = (len(payload) != base + klen + vlen + tlen
                           or not 1 <= op <= _MAX_OP)
                if bad:
                    self._c_bad_requests.add()
                    continue
                self._c_op[op].add()
                key = payload[base:base + klen]
                yield core.execute(handoff)
                queues[self._substore_for(key)].put(
                    (conn, slot, op, key,
                     payload[base + klen:base + klen + vlen], rid))
                processed += 1
        return processed

    # -- executors (exclusive sub-partition owners) ------------------------
    def _executor_loop(self, k: int):
        store = self.substores[k]
        core = self.subcores[k]
        queue = self._queues[k]
        lock_build = self.cpu.build_response_ns + SEND_LOCK_NS
        # Long-lived response batch: flushed when this executor's queue
        # drains or at the resp_doorbell_batch cap, whichever is sooner.
        batch = self._new_batch()
        try:
            while self.alive:
                conn, slot, op, key, value, rid = yield queue.get()
                result = _run_op(store, op, key, value)
                yield core.execute(result.cost_ns + lock_build)
                if result.status is Status.OK and _WRITE_LO <= op <= _WRITE_HI:
                    yield from self._commit_write(
                        core, batch, _OP_BY_CODE[op], key, value,
                        result.version)
                self._respond(conn, slot, op, rid, result, store, batch)
                if batch is not None and (not queue.items
                                          or self._batch_full(batch)
                                          or self._batch_aged(batch)):
                    yield from self._finish_sweep(batch)
        except Interrupt:
            self.alive = False

    # -- introspection (the facade sums sub-stores) --------------------------
    def total_items(self) -> int:
        return sum(len(s) for s in self.substores)

    def dump_all(self) -> dict[bytes, bytes]:
        out: dict[bytes, bytes] = {}
        for s in self.substores:
            out.update(s.dump())
        return out
