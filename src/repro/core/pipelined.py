"""Pipelined (decoupled I/O / compute) shard — the §6.2.1 ablation.

The design the paper argues *against* when RDMA is available (Fig. 5a):
dedicated I/O dispatcher threads detect requests and hand them over a
queue to worker threads that execute them.  Per request this pays a
hand-off (enqueue + wake-up + cacheline bounce) and, because two workers
now share one partition, a lock around the store.  It consumes
``io_threads + worker_threads`` cores per instance — 4x the single-
threaded design in the paper's configuration — yet delivers strictly
worse latency and throughput, which Fig. 10's "Pipeline + RDMA Write"
series quantifies.
"""

from __future__ import annotations

from typing import Optional

from ..config import SimConfig
from ..hardware import Core, Machine
from ..protocol import Request, Response, Status
from ..protocol.messages import _REQ
from ..sim import Interrupt, MetricSet, RwLock, Simulator, Store
from .shard import (_MAX_OP, _OP_BY_CODE, _WRITE_HI, _WRITE_LO, Connection,
                    Shard, WRITE_OPS)
from .store import ShardStore

__all__ = ["PipelinedShard"]


class PipelinedShard(Shard):
    """Shard with decoupled request detection and handling."""

    def __init__(self, sim: Simulator, config: SimConfig, shard_id: str,
                 machine: Machine, core: Core,
                 metrics: Optional[MetricSet] = None,
                 table_kind: str = "compact", numa_mode: str = "local",
                 scribble_on_reclaim: bool = False,
                 store: Optional[ShardStore] = None):
        super().__init__(sim, config, shard_id, machine, core,
                         metrics=metrics, table_kind=table_kind,
                         numa_mode=numa_mode,
                         scribble_on_reclaim=scribble_on_reclaim, store=store)
        h = self.hydra
        #: The base-class core is I/O dispatcher 0; allocate the rest in
        #: the same NUMA domain (the paper pins whole instances per domain).
        self.io_cores: list[Core] = [core]
        for i in range(1, h.pipeline_io_threads):
            self.io_cores.append(machine.allocate_core(
                f"{shard_id}.io{i}", numa_domain=core.numa_domain))
        self.worker_cores: list[Core] = [
            machine.allocate_core(f"{shard_id}.w{i}",
                                  numa_domain=core.numa_domain)
            for i in range(h.pipeline_worker_threads)
        ]
        self._queue = Store(sim)
        self._store_lock = RwLock(sim)
        #: Per-I/O-thread connection partitions, re-derived only when the
        #: connection set actually changes (``_conn_gen``) instead of
        #: rebuilt every sweep.
        self._conn_cache: dict[int, list[Connection]] = {}
        self._conn_cache_gen = -1
        #: Flat workers respond through the sweep-batch buffer only.
        self._flat_pipe = (self._flat and self.hydra.rdma_write_messaging
                           and self.hydra.resp_doorbell_batch > 0)

    @property
    def cores_used(self) -> int:
        return len(self.io_cores) + len(self.worker_cores)

    # -- lifecycle ---------------------------------------------------------
    def _threads(self) -> list[tuple]:
        return [(f".io{tid}", self._ingest_loop(core, tid))
                for tid, core in enumerate(self.io_cores)] + [
            (f".w{wid}", self._worker_loop(core))
            for wid, core in enumerate(self.worker_cores)]

    def kill(self) -> None:
        super().kill()
        # Requests handed off but never picked up by a worker die with the
        # process; count them so availability experiments can see how much
        # in-flight work a failover drops on the floor.
        dropped = len(self._queue.items)
        if dropped:
            self._queue.items.clear()
            self.metrics.counter("shard.dropped_handoffs").add(dropped)

    # -- I/O dispatchers ------------------------------------------------------
    def _pool(self, tid: int) -> list[Connection]:
        """This I/O thread's connection partition, cached until the
        connection set changes (``_conn_gen`` bumps on connect /
        disconnect).  The sweeps used to rebuild every partition from
        scratch on every pass."""
        if self._conn_cache_gen != self._conn_gen:
            self._conn_cache.clear()
            self._conn_cache_gen = self._conn_gen
        conns = self._conn_cache.get(tid)
        if conns is None:
            n = len(self.io_cores)
            conns = self._conn_cache[tid] = [
                c for c in self.conns if c.conn_id % n == tid]
        return conns

    def _ingest(self, core: Core, picked: list[Connection]):
        processed = 0
        for conn in picked:
            ready, extra_ns = self._poll_conn(conn)
            if extra_ns:
                yield core.execute(extra_ns)
            for slot, payload in ready:
                # Hand off to a worker: queueing + cacheline bounce.
                yield core.execute(self.hydra.pipeline_handoff_ns)
                self._queue.put((conn, slot, payload))
                processed += 1
        return processed

    # -- workers ---------------------------------------------------------
    def _worker_body(self, conn, slot: int, req: Request, batch,
                     core: Core):
        """Handle one decoded request end to end (admission, lock,
        execute, replicate, respond, flush check) — the scalar worker
        body, shared with the flat worker's named-tenant fallback."""
        h = self.hydra
        if req.tenant and batch is not None:
            shed = yield from self._tenant_admit(conn, slot, req,
                                                 batch, core)
            if shed:
                if (not self._queue.items or self._batch_full(batch)
                        or self._batch_aged(batch)):
                    yield from self._finish_sweep(batch)
                return
        # Workers share the partition: GETs take the lock shared,
        # mutations exclusive, and mutations bounce the partition's
        # cachelines between the worker cores.
        is_write = req.op in WRITE_OPS
        if is_write:
            yield self._store_lock.write_acquire()
            penalty = h.pipeline_write_penalty
        else:
            yield self._store_lock.read_acquire()
            penalty = h.pipeline_read_penalty
        yield core.execute(h.pipeline_lock_ns)
        result = self._execute(req)
        cost = (self.cpu.parse_ns + int(result.cost_ns * penalty)
                + self.cpu.build_response_ns)
        if not self.hydra.rdma_write_messaging:
            cost += self.cpu.sendrecv_server_extra_ns
        yield core.execute(cost)
        yield from self._commit_write(core, batch, req, result)
        if is_write:
            self._store_lock.write_release()
        else:
            self._store_lock.read_release()
        resp = Response(
            op=req.op, status=result.status, req_id=req.req_id,
            value=result.value,
            rkey=(self.store.region.rkey
                  if result.status is Status.OK and result.offset >= 0
                  else 0),
            roffset=max(result.offset, 0),
            rlen=result.extent,
            lease_expiry_ns=result.lease_expiry_ns,
            version=result.version,
        )
        self._respond(conn, resp, slot, batch)
        if batch is not None and (not self._queue.items
                                  or self._batch_full(batch)
                                  or self._batch_aged(batch)):
            yield from self._finish_sweep(batch)

    def _worker_flat(self, core: Core, batch):
        """Flat twin of the worker loop: headers unpacked in place, store
        dispatched on the raw opcode, responses packed straight to wire
        bytes.  Every lock/execute/replicate/flush yield mirrors
        :meth:`_worker_body` 1:1 (named tenants fall back to it — the
        admission path needs the decoded identity), so the schedule
        digest matches the scalar oracle.  Note the worker loops keep no
        per-op counters on either path."""
        h = self.hydra
        store = self.store
        queue = self._queue
        lock = self._store_lock
        replicator = self.replicator
        durable = self.durable
        unpack = _REQ.unpack_from
        base = _REQ.size
        lock_ns = h.pipeline_lock_ns
        w_pen = h.pipeline_write_penalty
        r_pen = h.pipeline_read_penalty
        parse_build = self.cpu.parse_ns + self.cpu.build_response_ns
        ok = Status.OK
        try:
            while self.alive:
                conn, slot, payload = yield queue.get()
                self._c_requests.add()
                bad = len(payload) < base
                if not bad:
                    op, tlen, klen, vlen, rid = unpack(payload, 0)
                    bad = (len(payload) != base + klen + vlen + tlen
                           or not 1 <= op <= _MAX_OP)
                if bad:
                    self._c_bad_requests.add()
                    continue
                if tlen:
                    yield from self._worker_body(
                        conn, slot, Request.decode(payload), batch, core)
                    continue
                key = payload[base:base + klen]
                value = payload[base + klen:base + klen + vlen]
                is_write = _WRITE_LO <= op <= _WRITE_HI
                if is_write:
                    yield lock.write_acquire()
                    penalty = w_pen
                else:
                    yield lock.read_acquire()
                    penalty = r_pen
                yield core.execute(lock_ns)
                if op == 1:
                    result = store.get(key)
                elif op <= 4:
                    result = store.upsert(key, value, _OP_BY_CODE[op])
                elif op == 5:
                    result = store.remove(key)
                else:
                    result = store.lease_renew(key)
                yield core.execute(parse_build
                                   + int(result.cost_ns * penalty))
                if (replicator is not None and is_write
                        and result.status is ok):
                    rep_cost, wait_ev = replicator.replicate(
                        _OP_BY_CODE[op], key, value, result.version)
                    yield core.execute(rep_cost)
                    if wait_ev is not None:
                        batch.rep_waits.append(wait_ev)
                if durable is not None and is_write and result.status is ok:
                    yield core.execute(self._stage_durable(
                        batch, _OP_BY_CODE[op], key, value, result.version))
                if is_write:
                    lock.write_release()
                else:
                    lock.read_release()
                self._respond_flat(conn, slot, op, rid, result, store,
                                   batch)
                if (not queue.items or self._batch_full(batch)
                        or self._batch_aged(batch)):
                    yield from self._finish_sweep(batch)
        except Interrupt:
            self.alive = False

    def _worker_loop(self, core: Core):
        # Long-lived response batch: flushed when the hand-off queue
        # drains or at the resp_doorbell_batch cap, whichever is sooner.
        batch = self._new_batch()
        if self._flat_pipe:
            yield from self._worker_flat(core, batch)
            return
        try:
            while self.alive:
                conn, slot, payload = yield self._queue.get()
                self.metrics.counter("shard.requests").add()
                try:
                    req = Request.decode(payload)
                except (ValueError, KeyError):
                    self.metrics.counter("shard.bad_requests").add()
                    continue
                yield from self._worker_body(conn, slot, req, batch, core)
        except Interrupt:
            self.alive = False
