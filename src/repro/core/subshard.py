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
from ..protocol import Op, Request, Response, Status
from ..protocol.messages import _REQ
from ..sim import Interrupt, MetricSet, Simulator, Store
from .errors import LifecycleError
from .shard import _MAX_OP, _OP_BY_CODE, _WRITE_HI, _WRITE_LO, Shard
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
        #: Flat hand-off (hydra.flat_hot_paths): dispatcher and executors
        #: must agree on the queue item shape, so the mode is fixed here.
        #: Requires response batching — the flat executor responds through
        #: the sweep-batch buffer only.
        self._flat_sub = (self._flat and self.hydra.rdma_write_messaging
                          and self.hydra.resp_doorbell_batch > 0)

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
        processed = 0
        for conn in picked:
            ready, extra_ns = self._poll_conn(conn)
            if extra_ns:
                yield core.execute(extra_ns)
            if self._flat_sub:
                processed += yield from self._dispatch_flat(conn, ready)
                continue
            for slot, payload in ready:
                self.metrics.counter("shard.requests").add()
                try:
                    req = Request.decode(payload)
                except (ValueError, KeyError):
                    self.metrics.counter("shard.bad_requests").add()
                    continue
                self.metrics.counter(f"shard.op.{req.op.name}").add()
                yield core.execute(self.cpu.parse_ns + DISPATCH_NS)
                self._queues[self._substore_for(req.key)].put(
                    (conn, slot, req))
                processed += 1
        return processed

    def _dispatch_flat(self, conn, ready):
        """Flat-array hand-off: unpack each header in place and enqueue a
        raw ``(conn, slot, op, key, value, req_id)`` tuple — no Request
        objects.  Sub-shard executors ignore tenant identity (the scalar
        path runs no admission here either), so named-tenant requests
        ride the same fast path.  Yields exactly where the scalar
        dispatcher does, so the schedule digest is unchanged."""
        unpack = _REQ.unpack_from
        base = _REQ.size
        execute = self.core.execute
        handoff = self.cpu.parse_ns + DISPATCH_NS
        queues = self._queues
        processed = 0
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
            yield execute(handoff)
            queues[self._substore_for(key)].put(
                (conn, slot, op, key,
                 payload[base + klen:base + klen + vlen], rid))
            processed += 1
        return processed

    # -- executors (exclusive sub-partition owners) ------------------------
    def _execute_on(self, store: ShardStore, req: Request):
        if req.op is Op.GET:
            return store.get(req.key)
        if req.op in (Op.PUT, Op.INSERT, Op.UPDATE):
            return store.upsert(req.key, req.value, req.op)
        if req.op is Op.DELETE:
            return store.remove(req.key)
        if req.op is Op.LEASE_RENEW:
            return store.lease_renew(req.key)
        from .store import StoreResult
        return StoreResult(status=Status.ERROR, cost_ns=self.cpu.parse_ns)

    def _executor_flat(self, k: int, store: ShardStore, core, batch):
        """Flat twin of :meth:`_executor_loop`: dispatches on the raw
        opcode and packs responses straight to wire bytes.  Same yields,
        same flush points — bit-identical schedule."""
        queue = self._queues[k]
        lock_build = self.cpu.build_response_ns + SEND_LOCK_NS
        try:
            while self.alive:
                conn, slot, op, key, value, rid = yield queue.get()
                if op == 1:
                    result = store.get(key)
                elif op <= 4:
                    result = store.upsert(key, value, _OP_BY_CODE[op])
                elif op == 5:
                    result = store.remove(key)
                else:
                    result = store.lease_renew(key)
                yield core.execute(result.cost_ns + lock_build)
                if (self.durable is not None and result.status is Status.OK
                        and _WRITE_LO <= op <= _WRITE_HI):
                    yield core.execute(self._stage_durable(
                        batch, _OP_BY_CODE[op], key, value, result.version))
                self._respond_flat(conn, slot, op, rid, result, store,
                                   batch)
                if (not queue.items or self._batch_full(batch)
                        or self._batch_aged(batch)):
                    yield from self._finish_sweep(batch)
        except Interrupt:
            self.alive = False

    def _executor_loop(self, k: int):
        store = self.substores[k]
        core = self.subcores[k]
        # Long-lived response batch: flushed when this executor's queue
        # drains or at the resp_doorbell_batch cap, whichever is sooner.
        batch = self._new_batch()
        if self._flat_sub:
            yield from self._executor_flat(k, store, core, batch)
            return
        try:
            while self.alive:
                conn, slot, req = yield self._queues[k].get()
                result = self._execute_on(store, req)
                yield core.execute(result.cost_ns
                                   + self.cpu.build_response_ns
                                   + SEND_LOCK_NS)
                yield from self._commit_write(core, batch, req, result)
                resp = Response(
                    op=req.op, status=result.status, req_id=req.req_id,
                    value=result.value,
                    rkey=(store.region.rkey
                          if result.status is Status.OK
                          and result.offset >= 0 else 0),
                    roffset=max(result.offset, 0),
                    rlen=result.extent,
                    lease_expiry_ns=result.lease_expiry_ns,
                    version=result.version,
                )
                self._respond(conn, resp, slot, batch)
                if batch is not None and (not self._queues[k].items
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
