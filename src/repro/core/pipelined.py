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
from ..protocol import Status
from ..protocol.messages import _REQ
from ..sim import Interrupt, MetricSet, RwLock, Simulator, Store
from .shard import (_MAX_OP, _OP_BY_CODE, _WRITE_HI, _WRITE_LO, Connection,
                    Shard, _run_op)
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
    def _worker_loop(self, core: Core):
        """Take hand-offs and run each request end to end: header unpacked
        in place, admission (named tenants, when there is a batch to
        account against), store lock, execute, replicate/durable, respond,
        flush check.  Workers share the partition: GETs take the lock
        shared, mutations exclusive, and mutations bounce the partition's
        cachelines between the worker cores.  The workers keep no per-op
        counters."""
        h = self.hydra
        store = self.store
        queue = self._queue
        lock = self._store_lock
        unpack = _REQ.unpack_from
        base = _REQ.size
        lock_ns = h.pipeline_lock_ns
        w_pen = h.pipeline_write_penalty
        r_pen = h.pipeline_read_penalty
        parse_build = self.cpu.parse_ns + self.cpu.build_response_ns
        if not h.rdma_write_messaging:
            parse_build += self.cpu.sendrecv_server_extra_ns
        # Long-lived response batch: flushed when the hand-off queue
        # drains or at the resp_doorbell_batch cap, whichever is sooner.
        batch = self._new_batch()
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
                if tlen and batch is not None:
                    shed = yield from self._tenant_admit(
                        conn, slot, op, rid, payload[base + klen + vlen:],
                        batch, core)
                    if shed:
                        if (not queue.items or self._batch_full(batch)
                                or self._batch_aged(batch)):
                            yield from self._finish_sweep(batch)
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
                result = _run_op(store, op, key, value)
                yield core.execute(parse_build
                                   + int(result.cost_ns * penalty))
                if is_write and result.status is Status.OK:
                    yield from self._commit_write(
                        core, batch, _OP_BY_CODE[op], key, value,
                        result.version)
                if is_write:
                    lock.write_release()
                else:
                    lock.read_release()
                self._respond(conn, slot, op, rid, result, store, batch)
                if batch is not None and (not queue.items
                                          or self._batch_full(batch)
                                          or self._batch_aged(batch)):
                    yield from self._finish_sweep(batch)
        except Interrupt:
            self.alive = False
