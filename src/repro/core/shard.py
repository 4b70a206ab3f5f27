"""The shard: HydraDB's server-side execution unit, one class with three
execution strategies.

* **Plain** (§4.1.1, the paper's design): one pinned core + one
  exclusively-owned :class:`ShardStore`.  The thread does *everything*:
  it sweeps its per-connection request buffers (or receive CQs in the
  Send/Recv ablation mode), executes the operation against the store,
  replicates mutations, and RDMA-Writes the response — no hand-offs, no
  locks, no context switches.
* **Sub-sharded** (§6.3's proposal, ``subshards=K``): one ingest thread
  owns every connection, so the QP count stays ``clients`` rather than
  ``clients x cores``, and routes each request by key hash to one of K
  executor lanes, each with its own core and its own store.  Sub-shards
  share nothing, so execution stays lock-free; the added costs are the
  hand-off and a short send-queue lock per response.  One connection
  fronts K tables here, so no index is exported.
* **Pipelined** (the §6.2.1 ablation the paper argues against,
  ``pipelined=True``): ``pipeline_io_threads`` ingest threads split the
  connections by ``conn_id`` and hand every request over one queue to
  ``pipeline_worker_threads`` executor lanes that share the one store
  behind a readers-writer lock, paying the hand-off, the lock and the
  cacheline bounce of a shared partition (Fig. 10's "Pipeline + RDMA
  Write" series).

Whatever the strategy or transport, a request is parsed by one
:meth:`Shard._parse` and executed by one request body,
:meth:`Shard._serve` — admission, [lock], store, CPU, write pipeline,
[unlock], response — called by the plain shard's inline sweep, by every
executor lane and by the (plain-only) TCP thread's epoll wake.  Only
:meth:`Shard._respond` tells the transports apart: an RDMA-Write response
joins the sweep's doorbell batch, a Send/Recv one is posted on its own,
and a TCP one joins the wake's outbox with no remote pointer.

Polling model: requests are detected by sustained polling with the
indicator format; after ``idle_polls_before_sleep`` empty probes the
thread enters high-resolution sleep (§4.2.1).  Neither phase schedules
per-probe events: an idle poller is one wait on its doorbell
(:meth:`Shard._idle`).  A doorbell at time ``t`` of a spin that began at
``t0`` is swept at the probe boundary a per-probe loop would have seen it
on, ``t0 + max(1, ceil((t - t0) / poll_probe_ns)) * poll_probe_ns``; one
that arrives after the spin window is swept at ``t + idle_sleep_ns // 2``
(the mean residual sleep).  The core is held busy for exactly the spin
window, so the latency/CPU trade-off of the real design is kept without
simulating dead probes.  The one place results can differ from a
per-probe model is the order of same-nanosecond events: the wake is
enqueued at doorbell time rather than one probe earlier, so two shards
that wake in the same nanosecond may reach their shared NIC in the other
order.

The sweep keeps server CPU per op flat as connections x slots grow:

* **Occupancy-word probing**: each multi-slot request buffer carries an
  occupancy bitmap the client sets with the same doorbell as its slot
  write; a sweep probes one word per connection instead of every slot
  (§4.1.3's bucket filter applied to messaging), and skips a
  re-announced bit for a slot it consumed whose response is not posted
  yet.  A one-slot buffer (the paper's layout) has no word: the sweep
  probes the slot's head indicator in its place, and a request is one
  Write and one doorbell.
* **Ready-connection scheduling**: the doorbell carries *which*
  connection fired and the shard keeps a ready set, so a sweep visits
  only dirty connections; every ``FULL_SWEEP_EVERY``-th sweep probes
  everything as a safety net, and the ready list is rotated so one hot
  connection cannot starve the rest.
* **Doorbell-batched responses + pipelined replication**: responses
  produced by one sweep are buffered per connection and flushed as
  chained RDMA-Write posts of at most ``RESP_BATCH`` WQEs (slot order,
  one doorbell each); the sweep's ring records go to each secondary as
  one chain posted before any of them, and its replication waits are
  awaited once as a batch instead of stalling per request.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..config import SimConfig
from ..hardware import Core, Machine
from ..index.export import IndexHandshake
from ..index.hashing import hash64
from ..protocol import (
    Op,
    SlotLayout,
    Status,
    clear,
    consume,
    frame,
    frame_len,
    occ_probe,
)
from ..protocol.messages import _REQ, _RESP
from ..rdma import MemoryRegion, Nic, QpError, QueuePair, RemotePointer
from ..rdma.tcp import TcpError
from ..sim import Gate, MetricSet, Interrupt, RwLock, Simulator, Store
from .errors import LifecycleError
from .store import ShardStore, StoreResult

__all__ = ["Shard", "Connection", "WRITE_OPS", "FULL_SWEEP_EVERY",
           "RESP_BATCH"]

WRITE_OPS = frozenset({Op.PUT, Op.INSERT, Op.UPDATE, Op.DELETE})
#: Every N-th working sweep probes all connections anyway — the safety
#: net that catches a connection whose ready hint was lost.
FULL_SWEEP_EVERY = 64
#: Most responses one doorbell carries: a connection's buffered responses
#: flush as chains of at most this many WQEs, an executor lane flushes its
#: long-lived batch at this many responses or replication waits, and one
#: TCP epoll wake drains at most this many queued payloads.
RESP_BATCH = 16
#: Doorbell value of a control wake (gray failure, disconnect): it makes a
#: poller still spinning look at what changed -- wedged or left without
#: connections, it stops at its next probe boundary -- and does not wake
#: one already asleep.
_HALT = object()

#: Wire opcode -> Op member: the request loops resolve opcodes with a
#: list index instead of the Op(...) enum call.
_OP_BY_CODE: list = [None] * (max(Op) + 1)
for _code_op in Op:
    _OP_BY_CODE[_code_op] = _code_op
_MAX_OP = int(max(Op))
#: The write opcodes are wire-contiguous (PUT..DELETE); the request loops
#: test membership with a range compare instead of a set lookup.
_WRITE_LO, _WRITE_HI = int(Op.PUT), int(Op.DELETE)
assert all(_WRITE_LO <= int(o) <= _WRITE_HI for o in WRITE_OPS)
_unpack_req = _REQ.unpack_from
_REQ_BASE = _REQ.size
#: Sub-shard hand-off on top of the parse (cheaper than the pipelined
#: one: no shared store, the request routes straight to its owner's queue).
_SUBSHARD_HANDOFF_NS = 250
#: Serializing response posts from several executor cores onto one QP.
_SEND_LOCK_NS = 60
#: The slots a one-slot buffer's sweep probes: its only one, directly.
_ONE_SLOT = (0,)


def _probes_run(elapsed: int, window: int, probe: int) -> int:
    """Probes a per-probe spin of ``window`` ns has finished when it next
    checks the flag, ``elapsed`` ns in; 0 once the window is over."""
    if elapsed > window or not window:
        return 0
    return max(1, -(-elapsed // probe))


def _run_op(store: ShardStore, op: int, key: bytes,
            value: bytes) -> StoreResult:
    """Execute one request against ``store``, dispatched on its raw
    opcode."""
    if op == 1:
        return store.get(key)
    if op <= 4:
        return store.upsert(key, value, _OP_BY_CODE[op])
    if op == 5:
        return store.remove(key)
    return store.lease_renew(key)


class _SweepBatch:
    """Deferred output of one sweep: responses + replication waits.

    Responses are buffered per connection and flushed in slot order with
    one chained post (one doorbell) per connection; replication waits
    accumulate so the sweep blocks once on the whole batch of acks
    instead of once per mutation.
    """

    __slots__ = ("resp", "rep_waits", "commit_seq", "land_seq", "first_ns",
                 "tenant_slots")

    def __init__(self):
        #: conn_id -> (conn, [(slot, encoded response), ...])
        self.resp: dict[int, tuple["Connection", list]] = {}
        self.rep_waits: list = []
        #: Highest durable-log seq this batch staged (0 = none); see _park.
        self.commit_seq = 0
        #: Highest replication seq whose landing this batch's acks wait
        #: for (0 = none; ack on landing only); see _park.
        self.land_seq = 0
        #: Sim time the oldest still-buffered response entered the batch
        #: (None while empty) — drives the age-based flush
        #: (``hydra.resp_flush_max_ns``).
        self.first_ns: Optional[int] = None
        #: Named-tenant occupancy this sweep: tenant -> slots handled.
        #: Drives the per-sweep shed cap (``qos.server_shed_slots``) and
        #: the ``shard.tenant.<t>.slots`` tallies.  Anonymous requests
        #: are not tracked.
        self.tenant_slots: dict[str, int] = {}


@dataclass
class Connection:
    """One client<->shard link: QP pair + the two slotted message buffers."""

    conn_id: int
    shard_qp: QueuePair
    client_qp: QueuePair
    #: Request buffer: lives on the server, written by the client.
    req_region: MemoryRegion
    req_rptr: RemotePointer
    #: Response buffer: lives on the client, written by the shard.
    resp_region: MemoryRegion
    resp_rptr: RemotePointer
    #: Client-side doorbell (fires on response-buffer writes / CQ pushes).
    client_doorbell: Gate = field(repr=False, default=None)  # type: ignore[assignment]
    #: Slot partition shared by both buffers (slot i of the request buffer
    #: pairs with slot i of the response buffer).
    layout: SlotLayout = field(repr=False, default=None)  # type: ignore[assignment]
    #: Per-slot write capabilities (client-held for requests, shard-held
    #: for responses).
    req_slot_rptrs: list[RemotePointer] = field(repr=False,
                                                default_factory=list)
    resp_slot_rptrs: list[RemotePointer] = field(repr=False,
                                                 default_factory=list)
    #: Client-held capability for the request buffer's occupancy word
    #: (None for a one-slot buffer and on the Send/Recv path, whose
    #: layouts have no occupancy header).
    req_occ_rptr: Optional[RemotePointer] = field(repr=False, default=None)
    #: Slots consumed by this shard whose response has not been posted
    #: yet.  The client frees a slot only after draining its response
    #: (every timeout/retry path drops the whole connection instead of
    #: reusing the slot), so an occupancy bit re-announcing one of these
    #: is provably stale.
    consumed_pending: set = field(repr=False, default_factory=set)
    #: Handshake advertisement of the shard's client-readable hash index
    #: (None = traversal unavailable; client demotes cold keys to the
    #: message path as before).
    index: Optional[IndexHandshake] = field(repr=False, default=None)

    @property
    def n_slots(self) -> int:
        return self.layout.n_slots if self.layout is not None else 1

    def close(self) -> None:
        self.shard_qp.destroy()
        self.client_qp.destroy()


class _HeartbeatWord(MemoryRegion):
    """A shard's heartbeat counter: bumped once when its process starts
    (``since``) and every ``period_ns`` after, until the process dies
    (``until``).  The count is worked out from the clock when a remote
    Read snapshots the word -- exactly what a bumping thread would have
    stored by then -- instead of costing a timer event per bump."""

    __slots__ = ("sim", "period_ns", "since", "until")

    def __init__(self, sim: Simulator, period_ns: int, numa_domain: int,
                 name: str):
        super().__init__(8, numa_domain=numa_domain, name=name)
        self.sim = sim
        self.period_ns = period_ns
        self.since: Optional[int] = None
        self.until: Optional[int] = None

    def dma_read(self, rkey, offset: int, length: int) -> bytes:
        if self.since is not None:
            now = self.sim.now if self.until is None else self.until
            self.write_u64(0, 1 + (now - self.since) // self.period_ns)
        return super().dma_read(rkey, offset, length)


class Shard:
    """A primary shard process.

    ``subshards=K`` (K > 0) builds a sub-sharded instance and
    ``pipelined=True`` a pipelined one (see the module docstring); the
    default is the paper's plain shard.  The parts that differ are data,
    not code: the ingest threads' cores (:attr:`io_cores`), the executor
    lanes ``(thread tag, core, hand-off queue, store)`` (:attr:`lanes`,
    none for a plain shard, whose ingest thread executes inline), and
    the per-request CPU of the hand-off and of the executor's fixed part.
    """

    def __init__(self, sim: Simulator, config: SimConfig, shard_id: str,
                 machine: Machine, core: Core,
                 metrics: Optional[MetricSet] = None,
                 table_kind: str = "compact", numa_mode: str = "local",
                 scribble_on_reclaim: bool = False,
                 store: Optional[ShardStore] = None,
                 subshards: int = 0, pipelined: bool = False):
        if subshards < 0:
            raise ValueError("subshards must be >= 0")
        self.sim = sim
        self.config = config
        self.hydra = config.hydra
        self.client_cfg = config.client
        self.qos_cfg = config.qos
        self.cpu = config.cpu
        self.shard_id = shard_id
        self.machine = machine
        self.nic: Nic = machine.nic
        self.core = core
        self.metrics = metrics or MetricSet(sim)
        # A sub-sharded store does not export: one connection fronts many
        # tables, so a single bucket region cannot be advertised.
        self.store = store or ShardStore(
            sim, config, self.nic, core.numa_domain, shard_id,
            table_kind=table_kind, numa_mode=numa_mode,
            scribble_on_reclaim=scribble_on_reclaim,
            export_index=not subshards,
        )
        #: Every store this instance owns, in routing order (one per
        #: sub-shard; just :attr:`store` otherwise).
        self.substores: list[ShardStore] = [self.store]
        #: Cores of the ingest threads (thread ``tid`` sweeps on
        #: ``io_cores[tid]``); one except in pipelined instances.
        self.io_cores: list[Core] = [core]
        #: Executor lanes: ``(thread tag, core, hand-off queue, store)``.
        self.lanes: list[tuple[str, Core, Store, ShardStore]] = []
        #: The distinct hand-off queues, in routing order.
        self._queues: list[Store] = []
        #: Store lock of lanes that share one store (pipelined).
        self._lock: Optional[RwLock] = None
        cpu = self.cpu
        #: Executor CPU per request on top of the store's own cost.
        self._exec_ns = cpu.parse_ns + cpu.build_response_ns
        if not self.hydra.rdma_write_messaging:
            self._exec_ns += cpu.sendrecv_server_extra_ns
        #: Ingest CPU per request handed to a lane.
        self._handoff_ns = 0
        if subshards:
            self._queues = [Store(sim) for _ in range(subshards)]
            self.substores += [ShardStore(
                sim, config, self.nic, core.numa_domain,
                f"{shard_id}.sub{k}", table_kind=table_kind,
                numa_mode=numa_mode, scribble_on_reclaim=scribble_on_reclaim,
                export_index=False) for k in range(1, subshards)]
            self.lanes = [
                (f".sub{k}", machine.allocate_core(f"{shard_id}.sub{k}"),
                 self._queues[k], self.substores[k])
                for k in range(subshards)]
            # The ingest thread parses (to route by key); sub-shards skip
            # the parse and the Send/Recv surcharge.
            self._handoff_ns = cpu.parse_ns + _SUBSHARD_HANDOFF_NS
            self._exec_ns = cpu.build_response_ns + _SEND_LOCK_NS
        elif pipelined:
            h = self.hydra
            # The paper pins whole instances per NUMA domain.
            self.io_cores += [
                machine.allocate_core(f"{shard_id}.io{i}",
                                      numa_domain=core.numa_domain)
                for i in range(1, h.pipeline_io_threads)]
            cores = [machine.allocate_core(f"{shard_id}.w{i}",
                                           numa_domain=core.numa_domain)
                     for i in range(h.pipeline_worker_threads)]
            self._queues = [Store(sim)]
            self.lanes = [(f".w{i}", c, self._queues[0], self.store)
                          for i, c in enumerate(cores)]
            self._lock = RwLock(sim)
            # Queueing + wake-up + cacheline bounce.
            self._handoff_ns = h.pipeline_handoff_ns
        self.conns: list[Connection] = []
        self.doorbell = Gate(sim)
        #: Ready-connection scheduling state: connections flagged dirty by
        #: their doorbell, drained by the next sweep (insertion-ordered).
        self._ready: dict[int, Connection] = {}
        self._rr = 0
        self._sweep_seq = 0
        #: Per-ingest-thread connection partitions (several ingest threads
        #: only), re-derived when the connection set changes.
        self._parts: Optional[list[list[Connection]]] = None
        #: TCP-mode state (transport == "tcp"): epoll-style ready queue,
        #: and the outbox the current wake's responses collect in
        #: (``id(conn) -> (conn, [(bytes, wire bytes), ...])``; None = RDMA).
        self.tcp_port: int = -1
        self._tcp_ready = Store(sim)
        self._tcp_conns: list = []
        self._outbox: Optional[dict[int, tuple]] = None
        #: Replication hook; installed by the HA wiring (repro.replication).
        self.replicator = None
        #: Durable write-behind log (:meth:`attach_durable`), if enabled.
        self.durable = None
        #: Commit queue (``ack_on_flush``, ack on landing), in park order:
        #: ``(commit_seq, land_seq, [(conn, entries), ...])`` of swept
        #: batches awaiting their flush and their ring records' landing.
        self._parked: deque = deque()
        #: Gray-failure state: True = the shard thread has stopped sweeping
        #: while the process, NIC, and QPs all stay up (wedged core, lost
        #: scheduler quantum).  Heartbeats keep flowing, so SWAT never
        #: promotes — only client deadlines bound the damage.
        self._gray = False
        self._gray_gate = Gate(sim)
        self.alive = False
        #: Every thread :meth:`kill` interrupts: the shard's own loops.
        self._procs: list = []
        self._killed = False
        #: True once a route swap replaced this shard (:meth:`depose`).
        self.deposed = False
        #: Connections disconnected after the kill while a client still
        #: waited on them (:meth:`disconnect`).
        self._orphans: list[Connection] = []
        #: Heartbeat word (:meth:`heartbeat`), registered on first use.
        self._hb: Optional[_HeartbeatWord] = None
        m = self.metrics
        self._c_requests = m.counter("shard.requests")
        self._c_bad_requests = m.counter("shard.bad_requests")
        #: Per-op counters indexed by the raw wire opcode (an
        #: ``f"shard.op.{op.name}"`` lookup resolved once).
        self._c_op = [None] * (max(Op) + 1)
        for _op in Op:
            self._c_op[_op] = m.counter(f"shard.op.{_op.name}")
        self._c_index_mut = m.counter("shard.index_mutations_versioned")
        self._c_resp_overflow = m.counter("shard.resp_overflow")
        self._c_age_flushes = m.counter("shard.age_flushes")
        self._c_sweeps = m.counter("shard.sweeps")
        self._c_probes = m.counter("shard.probes")
        self._c_probes_skipped = m.counter("shard.probes_skipped")
        self._c_full_sweeps = m.counter("shard.full_sweeps")
        self._c_resp_doorbells = m.counter("shard.resp_doorbells")
        self._c_resp_coalesced = m.counter("shard.resp_coalesced")

    @property
    def cores_used(self) -> int:
        return len(self.io_cores) + len(self.lanes)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self.replicator is not None and len(self.substores) > 1:
            raise LifecycleError(
                "sub-sharded instances do not support replication hooks")
        if self.alive:
            raise LifecycleError(f"{self.shard_id} already running")
        self.alive = True
        self._procs += [self.sim.process(loop, name=self.shard_id + tag)
                        for tag, loop in self._threads()]
        if self._hb is not None:
            self._hb.since = self.sim.now
        for store in self.substores:
            if store.reclaimer._proc is None:
                store.reclaimer.start()

    def _threads(self) -> list[tuple]:
        """``(name suffix, generator)`` of each thread :meth:`kill` must
        interrupt, in start order: the ingest threads, then the lanes."""
        if self.hydra.transport != "tcp":
            ingest = [(f".io{tid}" if self.lanes else "",
                       self._ingest_loop(core, tid))
                      for tid, core in enumerate(self.io_cores)]
            return ingest + [(tag, self._exec_loop(core, queue, store))
                             for tag, core, queue, store in self.lanes]
        stack = self.machine.tcp
        port = 7100
        while port in stack.listeners:
            port += 1
        self.tcp_port = port
        listener = stack.listen(port)
        self.sim.process(self._tcp_acceptor(listener),
                         name=f"{self.shard_id}.accept")
        return [("", self._tcp_run())]

    def kill(self) -> None:
        """Crash the shard process (failure injection, or a fence: the
        machine's management plane powering the process off).  A no-op
        on a shard already killed."""
        if self._killed:
            return
        self._killed = True
        self.alive = False
        if self._hb is not None:
            self._hb.until = self.sim.now
        for store in self.substores:
            store.reclaimer.stop()
        for p in self._procs:
            if p.is_alive:
                p.interrupt("killed")
        if self.durable is not None:
            self.durable.crash()
        self._teardown_conns()
        # Requests handed off but never picked up by a lane die with the
        # process; count them so availability experiments can see how
        # much in-flight work a failover drops on the floor.
        dropped = 0
        for queue in self._queues:
            dropped += len(queue.items)
            queue.items.clear()
        if dropped:
            self.metrics.counter("shard.dropped_handoffs").add(dropped)

    def depose(self) -> None:
        """The routing table swapped this shard out (SWAT promotion or
        log recovery).  Wakes every client waiting on one of its
        connections, whether for a response or for a free slot, and
        flushes the one-sided Reads still in flight on them
        (``WR_FLUSH_ERR``): no answer will come from here any more, so
        each abandons its request at once instead of at its deadline or
        the RC retry timeout, and replays on the new route.  Connections
        made after this wake no one; a wait on them gives up before it
        blocks."""
        self.deposed = True
        for conn in self.conns + self._orphans:
            conn.client_qp.flush()
            conn.client_doorbell.fire()
        self._orphans.clear()

    def heartbeat(self, period_ns: int) -> RemotePointer:
        """The remote pointer of this process's heartbeat word.

        An 8 B counter in a region registered on the shard's NIC, bumped
        every ``period_ns`` for as long as the process lives; a
        :meth:`kill` freezes it, a gray failure does not (the bump is not
        the sweep).  Created on the first call; later calls return the
        same word.
        """
        if self._hb is None:
            self._hb = _HeartbeatWord(self.sim, period_ns,
                                      self.core.numa_domain,
                                      f"{self.shard_id}.hb")
            self.nic.register(self._hb)
            if self.alive:
                self._hb.since = self.sim.now
        return RemotePointer(self._hb.rkey, 0, 8)

    def attach_durable(self, dlog) -> None:
        """Install the durable log and hook its commit notifications."""
        self.durable = dlog
        dlog.on_commit = self._release_parked
        self._count_parking()

    def park_for_landing(self, replicator) -> None:
        """Hold write responses until ``replicator``'s ring records have
        landed (ack on landing, under HA) and hook its notifications."""
        replicator.on_landed = self._release_parked
        self._count_parking()

    def _count_parking(self) -> None:
        m = self.metrics
        self._c_parked = m.counter("shard.parked_batches")
        self._c_parked_dropped = m.counter("shard.parked_dropped")
        self._c_parked_peak = m.counter("shard.parked_peak")

    def _teardown_conns(self) -> None:
        """Destroy every connection's QPs on death.

        A crashed process's QPs must not linger in the fabric (they used
        to leak after failure injection): tearing them down flips the
        peers' ``usable`` probes and turns client posts into immediate
        ``QpError`` retries instead of full operation timeouts.
        """
        for conn in list(self.conns):
            conn.close()
        self._ready.clear()

    def gray_fail(self) -> None:
        """Enter gray failure: stop sweeping, keep everything else alive.

        The heartbeat word keeps bumping (the bump is not the sweep), so
        SWAT's probes keep seeing life, and the QPs still accept writes,
        so requests land in the buffers and rot.  Chaos-injection entry
        point.
        """
        self._gray = True
        self.metrics.counter("shard.gray_failures").add()
        self.doorbell.fire(_HALT)

    def gray_recover(self) -> None:
        """Leave gray failure and resume sweeping (buffered requests are
        picked up by the next sweep)."""
        self._gray = False
        self._gray_gate.fire()
        self.doorbell.fire()
        self._release_parked()

    def _route(self, key: bytes) -> int:
        """Index of the store (and hand-off queue) that owns ``key``: by
        key hash across sub-shards, decorrelated from the cluster ring
        (which uses the low bits); 0 with one store."""
        n = len(self.substores)
        return (hash64(key) >> 32) % n if n > 1 else 0

    def store_for_key(self, key: bytes) -> ShardStore:
        """The store an out-of-band loader should install ``key`` into."""
        return self.substores[self._route(key)]

    def dump_all(self) -> dict[bytes, bytes]:
        """Every live item, across all of this instance's stores."""
        out: dict[bytes, bytes] = {}
        for store in self.substores:
            out.update(store.dump())
        return out

    # -- connection setup ------------------------------------------------
    def connect(self, client_nic: Nic,
                client_numa_domain: int = 0) -> Connection:
        """Establish a client connection (QP pair + slotted buffers).

        ``client_numa_domain`` places the response buffer on the *client*
        machine's memory — the request buffer lives on the shard's NUMA
        domain, the response buffer on the connecting client's, so both
        pollers pay consistent local-access costs.
        """
        fabric = self.nic.fabric
        client_qp, shard_qp = fabric.connect(client_nic, self.nic)
        buf = self.hydra.conn_buf_bytes
        n_slots = self.hydra.msg_slots_per_conn
        # A one-slot buffer's own head indicator is the poll target: an
        # occupancy word would only repeat it, one Write later.
        occupancy = self.hydra.rdma_write_messaging and n_slots > 1
        layout = SlotLayout(buf, n_slots, occupancy=occupancy)
        req_region = MemoryRegion(buf, numa_domain=self.core.numa_domain,
                                  name=f"{self.shard_id}.req")
        self.nic.register(req_region)
        resp_region = MemoryRegion(buf, numa_domain=client_numa_domain,
                                   name=f"{self.shard_id}.resp")
        client_nic.register(resp_region)
        conn = Connection(
            conn_id=next(fabric.conn_ids),
            shard_qp=shard_qp,
            client_qp=client_qp,
            req_region=req_region,
            req_rptr=RemotePointer(req_region.rkey, 0, buf),
            resp_region=resp_region,
            resp_rptr=RemotePointer(resp_region.rkey, 0, buf),
            client_doorbell=Gate(self.sim),
            layout=layout,
            req_slot_rptrs=[
                RemotePointer(req_region.rkey, layout.offset(i),
                              layout.slot_bytes)
                for i in range(layout.n_slots)],
            resp_slot_rptrs=[
                RemotePointer(resp_region.rkey, layout.offset(i),
                              layout.slot_bytes)
                for i in range(layout.n_slots)],
            req_occ_rptr=(RemotePointer(req_region.rkey, layout.occ_offset,
                                        layout.header_bytes)
                          if occupancy else None),
            index=self.store.index_handshake(),
        )
        if self.hydra.rdma_write_messaging:
            # The doorbell carries which connection fired so the sweep
            # can visit only dirty connections (ready hints).
            req_region.subscribe(lambda _r, c=conn: self._mark_ready(c))
            resp_region.subscribe(lambda _r, c=conn: c.client_doorbell.fire())
        else:
            # Two-sided mode: pre-post receives, doorbell on CQ pushes.
            for _ in range(max(16, self.client_cfg.max_inflight_per_conn)):
                shard_qp.post_recv()
            shard_qp.recv_cq.on_push.append(
                lambda _cq, c=conn: self._mark_ready(c))
            client_qp.recv_cq.on_push.append(
                lambda _cq, c=conn: c.client_doorbell.fire())
        self.conns.append(conn)
        self._parts = None
        return conn

    def disconnect(self, conn: Connection) -> None:
        if conn in self.conns:
            self.conns.remove(conn)
            self._parts = None
            if self._killed and conn.client_doorbell.waiting:
                # The kill tore every connection down, so the next post
                # replaces one even if another request still waits on
                # it: remember whom the route swap must wake.
                self._orphans.append(conn)
        self._ready.pop(conn.conn_id, None)
        conn.close()
        self.doorbell.fire(_HALT)

    # -- main loop ---------------------------------------------------------
    def _mark_ready(self, conn: Connection) -> None:
        """Doorbell callback: flag ``conn`` dirty and wake the poller."""
        self._ready[conn.conn_id] = conn
        self.doorbell.fire(conn)

    def _pool(self, tid: int) -> list[Connection]:
        """The connections ingest thread ``tid`` sweeps: all of them, or
        its ``conn_id % len(io_cores)`` partition when there are several
        (cached until a connect or disconnect)."""
        n = len(self.io_cores)
        if n == 1:
            return self.conns
        if self._parts is None:
            self._parts = [[c for c in self.conns if c.conn_id % n == t]
                           for t in range(n)]
        return self._parts[tid]

    def _select_conns(self, pool: list[Connection]) -> list[Connection]:
        """Pick the connections of (non-empty) ``pool`` the next sweep
        should probe.

        Only flagged connections (drained from the ready set); every
        ``FULL_SWEEP_EVERY``-th *working* sweep is a full sweep over the
        whole pool — the safety net against a lost hint.  The cadence
        advances only when a sweep actually had ready work, so an idle
        shard never degenerates into periodic O(conns) walks.  The result
        is rotated so a hot connection at the front cannot starve the
        rest.
        """
        picked = [c for c in pool if c.conn_id in self._ready]
        if not picked:
            if pool is self.conns:
                # Whatever is still flagged belongs to dropped
                # connections (a late write landed after disconnect).
                self._ready.clear()
            return []
        self._sweep_seq += 1
        if self._sweep_seq % FULL_SWEEP_EVERY == 0:
            self._c_full_sweeps.add()
            for c in pool:
                self._ready.pop(c.conn_id, None)
            picked = pool
        else:
            for c in picked:
                del self._ready[c.conn_id]
        if len(picked) > 1:
            self._rr = (self._rr + 1) % len(picked)
            picked = picked[self._rr:] + picked[:self._rr]
        return picked

    def _poll_conn(self, conn: Connection
                   ) -> tuple[list[tuple[int, bytes]], int]:
        """Non-blocking request sweep for one connection.

        Returns ``(ready, extra_ns)``: every ready ``(slot, payload)``
        pair plus the probe cost *beyond* what :meth:`_sweep_cost`
        already charged for the connection's first word.  A one-slot
        buffer has no header: that word is the slot's own head
        indicator, so it costs nothing more.  Otherwise it is the
        occupancy word, and the extra is the slots its snapshot
        indicates plus the sub-words of a two-level header.  The word is
        trusted even on safety-net full sweeps: the client writes it in
        the same chained WQE as the frame, so — unlike a doorbell hint —
        it can never under-report a landed request.  A slot consumed on
        an earlier sweep whose response is still unposted cannot hold a
        new frame yet, so it is skipped without a probe.
        """
        ready: list[tuple[int, bytes]] = []
        if not self.hydra.rdma_write_messaging:
            while True:
                cqe = conn.shard_qp.recv_cq.poll_one()
                if cqe is None or not cqe.ok:
                    return ready, 0
                conn.shard_qp.post_recv()  # replenish
                ready.append((-1, cqe.data))
        layout, region = conn.layout, conn.req_region
        pending = conn.consumed_pending
        if layout.occupancy:
            slots, word_probes = occ_probe(region, layout.n_slots,
                                           layout.occ_offset)
        else:
            slots, word_probes = _ONE_SLOT, 0
        probed = 0
        for slot in slots:
            if slot in pending:
                continue
            probed += 1
            off = layout.offset(slot)
            payload = consume(region, off)
            if payload is not None:
                clear(region, off, len(payload))
                ready.append((slot, payload))
                pending.add(slot)
        self._c_probes.add(probed)
        self._c_probes_skipped.add(layout.n_slots - probed)
        if not word_probes:
            return ready, 0
        return ready, self.cpu.poll_probe_ns * (probed + word_probes - 1)

    def _sweep_cost(self, conns: list[Connection]) -> int:
        """CPU cost of probing ``conns`` once — one occupancy word (a
        one-slot buffer's head indicator) or one receive CQ each —
        excluding the per-slot work :meth:`_poll_conn` reports as it
        finds it."""
        if self.hydra.rdma_write_messaging:
            return self.cpu.poll_probe_ns * max(1, len(conns))
        return (self.cpu.cq_poll_ns * max(1, len(conns))
                + self.cpu.post_recv_ns)

    def _flagged(self, tid: int) -> bool:
        """Has a doorbell flagged a connection ingest thread ``tid`` owns?"""
        ready = self._ready
        return bool(ready) and (len(self.io_cores) == 1 or any(
            c.conn_id in ready for c in self._pool(tid)))

    def _idle(self, core: Core, idle_sweeps: int, swept: bool, tid: int):
        """Idle tail of an ingest loop after a pass that processed
        nothing; returns the new count of consecutive idle polls.

        ``swept`` says the pass was a real sweep that came up empty: it
        counts as one idle poll, and the thread sleeps once
        ``idle_polls_before_sleep`` of them ran.  Otherwise nothing was
        flagged (ready hints), and the probes the thread would burn
        re-checking the flag are one wait: the core is held busy for the
        rest of the spin window — all along under the pegged-core
        ablation (``cpu.sleep_backoff`` off) — and the poller blocks on
        the doorbell.  A doorbell inside the window resumes it at the
        probe boundary that would have seen it; one after the window
        finds it asleep and costs the mean residual sleep (one probe when
        pegged).  No timer is armed for the end of the window: the busy
        gauge drops there by itself (:meth:`TimeWeighted.hold`).
        """
        cpu = self.cpu
        probe = cpu.poll_probe_ns
        window = max(1, cpu.idle_polls_before_sleep - idle_sweeps) * probe
        if swept:
            if self._flagged(tid):
                return idle_sweeps  # a doorbell fired mid-sweep
            if window > probe:
                return idle_sweeps + 1
            window = 0  # that was the last idle poll: straight to sleep
        sim = self.sim
        t0 = sim.now
        core.busy.hold(1.0, t0 + window if cpu.sleep_backoff else math.inf)
        try:
            while True:
                cause = yield self.doorbell.wait()
                probes = _probes_run(sim.now - t0, window, probe)
                # Doorbells rung in the same instant share one gate event
                # and only the first one's value is seen, so a spinner
                # goes by the state a control wake leaves, not by _HALT.
                if self._flagged(tid) or (
                        self._gray or not self._pool(tid) if probes
                        else cause is not _HALT):
                    break
        except Interrupt:
            # Killed mid-wait: a probe in flight is charged to its end.
            probes = _probes_run(sim.now - t0, window, probe)
            core.busy.release(max(sim.now, t0 + probes * probe))
            raise
        core.busy.release(sim.now)
        if probes:
            rest = t0 + probes * probe - sim.now
            if rest:
                yield core.execute(rest)
            # The probe that saw the flag is the next sweep's, not idle.
            return idle_sweeps + probes - self._flagged(tid)
        yield core.execute(cpu.idle_sleep_ns // 2 if cpu.sleep_backoff
                           else probe)
        return 0

    def _tcp_acceptor(self, listener):
        while self.alive:
            conn = yield listener.get()
            self._tcp_conns.append(conn)
            self.sim.process(self._tcp_reader(conn),
                             name=f"{self.shard_id}.rd")

    def _tcp_reader(self, conn):
        # Kernel-side socket readiness: payloads surface on the epoll-style
        # ready queue the (single) shard thread drains.
        while self.alive and conn.open:
            payload, _n = yield conn.recv()
            self._tcp_ready.put((conn, payload))

    def _tcp_run(self):
        """The TCP shard thread: one epoll-style wake drains everything
        already queued (up to ``RESP_BATCH`` payloads) through the one
        request body, then flushes each connection's responses as one
        batched syscall — the TCP analogue of the RDMA sweep's
        doorbell-coalesced response flush.  ``send_many`` charges the
        kernel TX path to this (single) shard thread: the CPU toll that
        separates TCP mode from RDMA-Write messaging."""
        core, store = self.core, self.store
        try:
            while self.alive:
                if self._gray:
                    yield self._gray_gate.wait()
                    continue
                drained = [(yield self._tcp_ready.get())]
                yield core.execute(self.cpu.poll_probe_ns)  # epoll wake
                while len(drained) < RESP_BATCH:
                    got, item = self._tcp_ready.try_get()
                    if not got:
                        break
                    drained.append(item)
                if len(drained) > 1:
                    self.metrics.counter("shard.tcp_drained").add(
                        len(drained) - 1)
                self._outbox = outbox = {}
                for conn, payload in drained:
                    req = self._parse(payload)
                    if req is not None:
                        yield from self._serve(core, store, conn, -1, *req,
                                               None)
                for conn, resps in outbox.values():
                    self.metrics.counter("shard.tcp_resp_batched").add(
                        len(resps) - 1)
                    try:
                        yield conn.send_many(resps)
                    except TcpError:
                        # Reset under us (injected fault or client
                        # teardown): undeliverable, not a shard crash.
                        self.metrics.counter(
                            "shard.undeliverable_responses").add(len(resps))
        except Interrupt:
            self.alive = False

    def _ingest_loop(self, core: Core, tid: int):
        """The polling loop of ingest thread ``tid``: wait out gray
        failure and an empty pool, sweep the flagged connections through
        :meth:`_ingest`, idle when there was nothing to do
        (:meth:`_idle`)."""
        idle_sweeps = 0
        try:
            while self.alive:
                pool = self._pool(tid)
                if self._gray:
                    # Gray failure: the thread is wedged.  Doorbells still
                    # fire and QPs still deliver, but nothing sweeps until
                    # gray_recover() releases the gate.
                    yield self._gray_gate.wait()
                elif not pool:
                    yield self.doorbell.wait()
                else:
                    picked = self._select_conns(pool)
                    if picked:
                        self._c_sweeps.add()
                        yield core.execute(self._sweep_cost(picked))
                        if (yield from self._ingest(core, picked)):
                            idle_sweeps = 0
                            continue
                    idle_sweeps = yield from self._idle(
                        core, idle_sweeps, bool(picked), tid)
        except Interrupt:
            self.alive = False

    def _ingest(self, core: Core, picked: list[Connection]):
        """Drain what one sweep of ``picked`` finds; returns the number of
        requests found.

        Each parsed request is handed to the lane that owns its key, at
        ``_handoff_ns`` of this thread's CPU.  With no lanes it is served
        right here into one sweep batch, with an age-flush check after
        every request so early responses do not wait out the rest of a
        big sweep.
        """
        found = 0
        queues = self._queues
        batch = None if queues else self._new_batch()
        for conn in picked:
            ready, extra_ns = self._poll_conn(conn)
            if extra_ns:
                yield core.execute(extra_ns)
            found += len(ready)
            for slot, payload in ready:
                req = self._parse(payload)
                if queues:
                    if req is not None:
                        yield core.execute(self._handoff_ns)
                        queues[self._route(req[1])].put((conn, slot) + req)
                    continue
                if req is not None:
                    yield from self._serve(core, self.store, conn, slot,
                                           *req, batch)
                if self._batch_aged(batch):
                    self._c_age_flushes.add()
                    yield from self._finish_sweep(core, batch)
        yield from self._finish_sweep(core, batch)
        return found

    def _exec_loop(self, core: Core, queue: Store, store: ShardStore):
        """An executor lane: serve hand-offs from ``queue`` against
        ``store`` into one long-lived response batch (none on the
        Send/Recv path), flushed once it has aged past
        ``resp_flush_max_ns``, when the queue drains, or at the
        ``RESP_BATCH`` cap."""
        batch = self._new_batch()
        try:
            while self.alive:
                req = yield queue.get()
                yield from self._serve(core, store, *req, batch)
                if batch is not None:
                    if self._batch_aged(batch):
                        self._c_age_flushes.add()
                    elif queue.items and not self._batch_full(batch):
                        continue
                    yield from self._finish_sweep(core, batch)
        except Interrupt:
            self.alive = False

    # -- request execution ---------------------------------------------------
    def _parse(self, payload: bytes) -> Optional[tuple]:
        """Unpack one request frame's header in place — no Request
        objects: ``(op, key, value, req_id, tenant)``, or None (counted)
        when it is malformed."""
        self._c_requests.add()
        if len(payload) >= _REQ_BASE:
            op, tlen, klen, vlen, rid = _unpack_req(payload, 0)
            end = _REQ_BASE + klen + vlen
            if len(payload) == end + tlen and 1 <= op <= _MAX_OP:
                self._c_op[op].add()
                return (op, payload[_REQ_BASE:_REQ_BASE + klen],
                        payload[_REQ_BASE + klen:end], rid,
                        payload[end:] if tlen else b"")
        self._c_bad_requests.add()
        return None

    def _serve(self, core: Core, store: ShardStore, conn: Connection,
               slot: int, op: int, key: bytes, value: bytes, rid: int,
               tenant: bytes, batch: Optional[_SweepBatch]):
        """The request body, on ``core`` against ``store``: admission ->
        [lock] -> store -> CPU -> write pipeline -> [unlock] -> respond.

        Named-tenant requests pass :meth:`_tenant_admit` first when there
        is a batch to account them against.  Lanes sharing one store take
        its lock — shared for GETs, exclusive for mutations — and pay the
        shared partition's cacheline penalty on the store's cost.  The
        response goes into ``batch`` for its doorbell-coalesced flush, or
        — with no batch (Send/Recv, TCP) — is answered on its own, after a
        write's replication/durable wait blocked right here
        (:meth:`_commit_write`).
        """
        if tenant and batch is not None and (yield from self._tenant_admit(
                conn, slot, op, rid, tenant, batch, core)):
            return
        is_write = _WRITE_LO <= op <= _WRITE_HI
        lock = self._lock
        if lock is not None:
            h = self.hydra
            yield lock.write_acquire() if is_write else lock.read_acquire()
            yield core.execute(h.pipeline_lock_ns)
        result = _run_op(store, op, key, value)
        cost = result.cost_ns
        if lock is not None:
            cost = int(cost * (h.pipeline_write_penalty if is_write
                               else h.pipeline_read_penalty))
        ok_write = is_write and result.status is Status.OK
        if ok_write and store.exported:
            self._c_index_mut.add()
        yield core.execute(self._exec_ns + cost)
        if ok_write:
            yield from self._commit_write(core, batch, op, key, value,
                                          result.version)
        if lock is not None:
            if is_write:
                lock.write_release()
            else:
                lock.read_release()
        self._respond(conn, slot, op, rid, result, store, batch)

    def _tenant_admit(self, conn: Connection, slot: int, op: int, rid: int,
                      tenant: bytes, batch: _SweepBatch, core: Core):
        """Named-tenant occupancy accounting + optional per-sweep shed.

        Anonymous requests never reach this.  With
        ``qos.server_shed_slots > 0``, a tenant that already consumed its
        slot share of the current sweep is refused cheaply with a typed
        ``Status.THROTTLED`` response carrying the
        ``qos.shed_retry_after_ns`` hint — the overload never reaches the
        store.  Returns True when the request was shed.
        """
        tname = tenant.decode()
        used = batch.tenant_slots.get(tname, 0) + 1
        batch.tenant_slots[tname] = used
        self.metrics.counter(f"shard.tenant.{tname}.ops").add()
        shed_cap = self.qos_cfg.server_shed_slots
        if shed_cap <= 0 or used <= shed_cap:
            return False
        self.metrics.counter("shard.shed_ops").add()
        self.metrics.counter(f"shard.tenant.{tname}.shed").add()
        yield core.execute(self.cpu.parse_ns + self.cpu.build_response_ns)
        self._respond(conn, slot, op, rid, StoreResult(
            status=Status.THROTTLED,
            lease_expiry_ns=self.qos_cfg.shed_retry_after_ns),
            self.store, batch)
        return True

    # -- responses ---------------------------------------------------------
    def _new_batch(self) -> Optional[_SweepBatch]:
        """A fresh sweep batch, or None on the batch-less Send/Recv path
        (each response is its own Send)."""
        return _SweepBatch() if self.hydra.rdma_write_messaging else None

    def _batch_full(self, batch: _SweepBatch) -> bool:
        """Long-lived batches (executor lanes) flush at ``RESP_BATCH``
        even when their input queue never drains."""
        buffered = sum(len(entries) for _c, entries in batch.resp.values())
        return buffered >= RESP_BATCH or len(batch.rep_waits) >= RESP_BATCH

    def _batch_aged(self, batch: Optional[_SweepBatch]) -> bool:
        """Age-based flush trigger (``hydra.resp_flush_max_ns``): True once
        the oldest buffered response has sat longer than the bound.  Keeps
        doorbell batching from adding unbounded latency when the sweep or
        queue feeding the batch is long/slow (trickle load, giant sweeps)."""
        max_ns = self.hydra.resp_flush_max_ns
        if batch is None or max_ns <= 0 or batch.first_ns is None:
            return False
        return self.sim.now - batch.first_ns >= max_ns

    def _respond(self, conn: Connection, slot: int, op: int, rid: int,
                 result: StoreResult, store: ShardStore,
                 batch: Optional[_SweepBatch]) -> None:
        """Answer one request from ``result``, packed straight to wire
        bytes: buffered into ``batch`` (RDMA-Write messaging, its remote
        pointer into ``store``) for the sweep's doorbell-coalesced flush,
        into the wake's outbox (TCP), or posted as one Send."""
        status = result.status
        value = result.value
        if self._outbox is not None:
            # No remote pointer over TCP: one-sided reads are impossible,
            # so the pointer and lease fields go out zeroed.
            data = _RESP.pack(op, status, 0, len(value), rid, 0, 0, 0, 0,
                              result.version) + value
            self._outbox.setdefault(id(conn), (conn, []))[1].append(
                (data, len(data) + 40))
            return
        offset = result.offset
        data = _RESP.pack(op, status, 0, len(value), rid,
                          (store.region.rkey
                           if status is Status.OK and offset >= 0 else 0),
                          offset if offset > 0 else 0,
                          result.extent, result.lease_expiry_ns,
                          result.version) + value
        if batch is None:
            # Fire-and-forget: the shard moves to the next request
            # without waiting for a completion (§4.1.1).
            try:
                conn.shard_qp.post_send(data)
            except QpError:
                # The client tore the connection down (failover retry or
                # teardown) between issuing the request and this
                # response: undeliverable, not a shard failure.
                self.metrics.counter("shard.undeliverable_responses").add()
            return
        # From here the response is on its way: the slot may legitimately
        # carry a new frame once the client drains it, so stop treating
        # announce bits for it as stale.
        conn.consumed_pending.discard(slot)
        if frame_len(len(data)) > conn.resp_slot_rptrs[slot].length:
            # The item outgrew the response slot (e.g. it was PUT over a
            # bigger-buffered connection): degrade to an ERROR reply
            # rather than silently dropping — the client sees a clean
            # failure instead of a timeout.
            self._c_resp_overflow.add()
            data = _RESP.pack(op, Status.ERROR, 0, 0, rid, 0, 0, 0, 0, 0)
        if batch.first_ns is None:
            batch.first_ns = self.sim.now
        batch.resp.setdefault(conn.conn_id, (conn, []))[1].append(
            (slot, data))

    def _flush_conn(self, conn: Connection, entries: list) -> None:
        """Flush one connection's buffered responses.

        Responses land in slot order before the (single) doorbell: the
        chain is posted slot-sorted on the RC QP, whose in-order delivery
        makes every frame visible to the client no later than the last
        write of the chain.  Chains longer than ``RESP_BATCH`` are split,
        one doorbell per chain.  The chain is unsignaled: a response is
        undeliverable only if its WQE failed to post at all (torn-down QP,
        stale rkey, dead NIC); later transport failures are the client's
        deadline to detect, not the shard's.
        """
        entries.sort(key=lambda e: e[0])
        for i in range(0, len(entries), RESP_BATCH):
            chunk = entries[i:i + RESP_BATCH]
            chain = [(conn.resp_slot_rptrs[slot], frame(data))
                     for slot, data in chunk]
            try:
                bad = conn.shard_qp.post_write_batch(chain, signaled=False)
            except QpError:
                bad = len(chunk)
            else:
                self._c_resp_doorbells.add()
                self._c_resp_coalesced.add(len(chunk) - 1)
            if bad:
                self.metrics.counter("shard.undeliverable_responses").add(
                    bad)

    def _stage_durable(self, batch: Optional[_SweepBatch], op: Op,
                       key: bytes, value: bytes, version: int) -> int:
        """Durable stage of the write pipeline (store -> replicate ->
        durable -> respond): stage the record and move on.  Returns the CPU
        cost; the batch notes the seq its responses will park behind."""
        cost, seq = self.durable.append(op, key, value, version)
        if batch is not None:
            batch.commit_seq = seq
        return cost

    def _commit_write(self, core: Core, batch: Optional[_SweepBatch],
                      op: int, key: bytes, value: bytes, version: int):
        """Replicate and durable stages of an OK write.

        In rdma_log mode the record is staged and posted with the rest of
        the sweep's in one ring chain per secondary (in
        :meth:`_finish_sweep`; batch-less callers, TCP and Send/Recv,
        post it right here), and the secondary's merge overlaps the
        *next* requests (under HA the response still waits for the
        record to land in every ring: it parks behind ``landed_seq``
        with a batch, and waits right here without one); strict mode
        blocks for the request/acknowledge round trip — once per sweep
        (in :meth:`_finish_sweep`, before any of its responses is
        flushed) when responses are batched, right here otherwise.  The
        durable append never blocks a batching sweep; batch-less callers
        wait until the log releases the record.
        """
        op = _OP_BY_CODE[op]
        rep = self.replicator
        if rep is not None:
            replicate = rep.replicate if batch is not None \
                else rep.replicate_now
            rep_cost, wait_ev = replicate(op, key, value, version)
            seq = rep.seq
            if rep_cost:
                yield core.execute(rep_cost)
            if wait_ev is not None:
                if batch is not None:
                    batch.rep_waits.append(wait_ev)
                else:
                    yield wait_ev
            if rep.landing:
                if batch is not None:
                    batch.land_seq = seq
                else:
                    yield from rep.wait_landed(seq)
        if self.durable is not None:
            yield core.execute(self._stage_durable(batch, op, key, value,
                                                   version))
            if batch is None:
                yield from self.durable.wait_released()

    def _park(self, batch: _SweepBatch) -> None:
        """Queue the batch's responses until the log releases its records
        and, under ack on landing, its ring records have landed on every
        secondary (no-op if both already hold, or acks wait for
        neither)."""
        seq, batch.commit_seq = batch.commit_seq, 0
        land, batch.land_seq = batch.land_seq, 0
        durable = self.durable
        if seq and (seq <= durable.released_seq or not durable.ack_on_flush):
            seq = 0
        if land and land <= self.replicator.landed_seq:
            land = 0
        if not (seq or land):
            return
        parked = self._parked
        parked.append((seq, land, list(batch.resp.values())))
        batch.resp.clear()
        self._c_parked.add()
        if len(parked) > self._c_parked_peak.value:
            self._c_parked_peak.value = len(parked)
        if durable is not None and not durable.alive:
            self._release_parked()  # crashed log: dropped, never acked

    def _release_parked(self) -> None:
        """Commit and landing callback: flush every parked batch the log
        has released and whose ring records have landed, in park order,
        in completion context (no process, no event per batch).  Deferred
        while gray-wedged; dropped and counted when the shard or its log
        is dead — a write whose flush or ring record never landed is
        never acked."""
        parked = self._parked
        if not parked:
            return
        durable = self.durable
        if not self.alive or (durable is not None and not durable.alive):
            self._c_parked_dropped.add(len(parked))
            parked.clear()
        elif not self._gray:
            released = durable.released_seq if durable is not None else 0
            landed = 0
            while parked:
                seq, land, entries = parked[0]
                if land > landed:
                    landed = self.replicator.landed_seq
                if seq > released or land > landed:
                    break
                parked.popleft()
                for conn, resp in entries:
                    self._flush_conn(conn, resp)

    def _finish_sweep(self, core: Core, batch: Optional[_SweepBatch]):
        """Settle one sweep on ``core``: post the staged ring records as
        one chain per secondary, wait once on the batch of replication
        acks (and on a ring that filled), park the responses behind any
        unreleased ``ack_on_flush`` log records the sweep staged and any
        of its ring records still in flight (ack on landing), and flush
        whatever is left."""
        if batch is None:
            return
        rep = self.replicator
        if rep is not None and rep.staged:
            cost, wait_ev = rep.post_staged()
            if wait_ev is not None:
                batch.rep_waits.append(wait_ev)
            if cost:
                yield core.execute(cost)
        if batch.rep_waits:
            self.metrics.tally("shard.rep_batch").observe(
                len(batch.rep_waits))
            yield self.sim.all_of(batch.rep_waits)
            batch.rep_waits.clear()
        if batch.commit_seq or batch.land_seq:
            self._park(batch)
        if batch.resp:
            for conn, entries in list(batch.resp.values()):
                self._flush_conn(conn, entries)
            batch.resp.clear()
        if batch.tenant_slots:
            for tname, used in batch.tenant_slots.items():
                self.metrics.tally(f"shard.tenant.{tname}.slots").observe(
                    used)
            batch.tenant_slots.clear()
        batch.first_ns = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Shard {self.shard_id} conns={len(self.conns)} " \
               f"{'up' if self.alive else 'down'}>"
