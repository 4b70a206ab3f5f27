"""The RDMA NIC model.

Each NIC has two serial engines — TX and RX — that give it a finite
operation rate and make payload serialization occupy the port.  All verbs
are orchestrated as callback chains (not processes) to keep the event count
per operation small; a Write or Read WQE is one pooled record
(:class:`_WriteOp` / :class:`_ReadOp`) whose pre-bound hops recycle
through a per-NIC freelist.  An unsignaled Write (``IBV_SEND_SIGNALED``
clear, the data path's choice: both sides learn of arrival by polling
memory) is three calendar entries (tx, fly, rx) and stops at delivery;
a signaled one adds the RC ack and its completion event.  A Read is six
(tx, fly, responder, response, fly back, home rx) plus its completion
event — which a doorbell chain runs inline at the home hop, so a chain
schedules only its one batch event.  The RC transport-retry bound costs
none of them: every signaled WQE of a NIC joins one FIFO deadline queue
served by a single timer (:meth:`Nic._watch`).

Every hop is one pooled-timer rearm plus one pre-bound call: engine hops
(tx, rx, responder, response, home rx) ride the engine's own timer, and
wire hops (a Write's fly and ack, a Read's fly and fly back) ride the
WQE record's.  Only a duplicate redelivery, which overlaps the ack,
allocates a fresh ``Timeout``.

Two properties the higher layers depend on:

* **Per-QP in-order delivery** (RC): both engines are FIFO and the switch
  delay is constant, so writes posted on one QP land in the target region
  in post order.  The indicator-encapsulated message format (§4.2.1) is
  only correct because of this.
* **Connection-count sensitivity**: every op pays
  :meth:`~repro.config.NicConfig.qp_penalty_ns` for the current number of
  live QPs, reproducing the scale-up wall of §6.3.  A job on either
  engine costs an integer base fixed when it is submitted plus the NIC's
  cached penalty (:attr:`Nic.pen`, re-priced only when a QP joins or
  leaves) read when its service *starts*.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, TYPE_CHECKING

from ..config import SimConfig
from ..sim import MetricSet, Simulator
from ..sim.events import _PENDING, Event, PooledTimer
from .memory import AccessViolation, MemoryRegion
from .verbs import Completion, CompletionPool, Opcode, WcStatus

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.machine import Machine
    from .fabric import Fabric
    from .qp import QueuePair

__all__ = ["Nic", "NicDown"]


class NicDown(Exception):
    """Posting through a failed NIC."""


def _site(region: MemoryRegion) -> bytes:
    """A region's landing-site name in the wire digest."""
    return b"%s/%d" % (region.name.encode(), region.rkey or 0)


class _Engine:
    """A serial work engine: jobs run one at a time, FIFO.

    A job is an integer *base* cost fixed when it is submitted — the verb's
    per-op work, serialization, a doorbell discount, responder and
    Send/Recv extras — plus a ``done`` callback.  A job's cost is its base
    plus, for a charged job, the engine NIC's live QP-cache penalty
    (:attr:`Nic.pen`) read when its service *starts*, so a QP that joins
    or leaves while the job queues is priced in.  UD and TCP jobs are not
    charged (UD carries no QP state; TCP engines have no NIC).
    """

    __slots__ = ("nic", "_q", "_active", "_timer", "_done", "_finish_cb")

    def __init__(self, sim: Simulator, nic: "Optional[Nic]" = None):
        self.nic = nic
        self._q: Deque[tuple[int, Callable[[], None], bool]] = deque()
        self._active = False
        #: The engine is strictly serial, so one rearmable timer (plus one
        #: pre-bound finish callback) services every job it will ever run.
        self._timer = PooledTimer(sim)
        self._done: Optional[Callable[[], None]] = None
        self._finish_cb = self._finish

    def submit(self, base: int, done: Callable[[], None],
               charged: bool = True) -> None:
        if self._active:
            self._q.append((base, done, charged))
            return
        self._active = True
        self._done = done
        self._timer.rearm(base + self.nic.pen if charged else base) \
            .callbacks.append(self._finish_cb)

    def _finish(self, _ev: Event) -> None:
        self._done()
        q = self._q
        if q:  # start the next job inline
            base, self._done, charged = q.popleft()
            self._timer.rearm(base + self.nic.pen if charged else base) \
                .callbacks.append(self._finish_cb)
        else:
            self._active = False
            self._done = None

    @property
    def depth(self) -> int:
        return len(self._q)


class _ChainWqe(Event):
    """Completion event of one WQE inside a doorbell chain.

    Its one consumer is the chain collector (:class:`_Chain`),
    so a successful CQE runs it at the completing hop instead of taking a
    now-queue round trip of its own.  Failures (``REM_ACCESS_ERR``,
    ``RETRY_EXC``, ``LOCAL_QP_ERR``) keep the event path.
    """

    __slots__ = ()

    def succeed(self, value: Completion) -> "Event":
        if value.status is not WcStatus.SUCCESS:
            return Event.succeed(self, value)
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)
        return self


class _Chain:
    """Completion collector of one signaled doorbell chain.

    Every WQE's completion event carries the same bound :meth:`collect`;
    the last one to land succeeds ``batch`` with every CQE in request
    order.  A successful WQE runs it inline at its completing hop
    (:class:`_ChainWqe`), a failed one through its completion event.  The
    record holds no reference to its own bound method, so it dies by
    reference counting, not by a cycle collection.
    """

    __slots__ = ("batch", "evs", "remaining")

    def __init__(self, batch: Event, n: int):
        self.batch = batch
        self.evs: list[Event] = []  # request order
        self.remaining = n

    def collect(self, ev: Event) -> None:
        # Stamp the CQE arrival so consumers of the batch event can still
        # model an incremental poll of the chain.
        ev._value.ns = ev.sim._now
        self.remaining -= 1
        if not self.remaining:
            self.batch.succeed([e._value for e in self.evs])


class _WriteOp:
    """Pooled WQE state of one RDMA Write.

    The record carries a WQE's state in ``__slots__`` with every hop
    callback pre-bound once at construction, so a recycled record posts a
    WQE with zero new function objects.  Its two wire hops — the fly to
    the target and the RC ack back — rearm the record's own
    :class:`PooledTimer` (they never overlap); only a duplicate
    redelivery, which races the ack, takes a fresh ``Timeout``.  The
    record owns itself: it returns to its NIC's freelist only once every
    scheduled hop (tx, fly, rx, then — signaled only — the ack; plus an
    optional duplicate redelivery) has run, so a late callback can never
    observe a reused record.  An unsignaled WQE (``ev`` is None) therefore recycles at
    delivery.  The retry deadline is not a hop: :meth:`Nic._watch` holds
    the completion event, not the record, which therefore recycles at the
    ack (or where the packet is lost).
    """

    __slots__ = ("nic", "qp", "region", "rkey", "offset", "data", "wr_id",
                 "ev", "fault", "prop", "peer_nic", "wc_pool", "pending",
                 "status", "timer", "cb_after_tx", "cb_arrive",
                 "cb_deliver", "cb_acked", "cb_redeliver")

    def __init__(self, nic: "Nic"):
        self.nic = nic
        self.timer = PooledTimer(nic.sim)
        # Pre-bound callbacks: one allocation each for the record's
        # lifetime, reused by every WQE it services.
        self.cb_after_tx = self._after_tx
        self.cb_arrive = self._arrive
        self.cb_deliver = self._deliver
        self.cb_acked = self._acked
        self.cb_redeliver = self._redeliver

    def begin(self, qp: "QueuePair", region: MemoryRegion, offset: int,
              data: bytes, wr_id: int, coalesced: bool,
              pool: Optional[CompletionPool], chained: bool,
              signaled: bool) -> "Event | bool":
        nic = self.nic
        ev = (_ChainWqe if chained else Event)(nic.sim) if signaled \
            else None
        if not nic.alive:
            nic._write_ops.append(self)
            if ev is None:
                return False
            nic._fail_completion(ev, Opcode.RDMA_WRITE,
                                 WcStatus.LOCAL_QP_ERR, wr_id, qp.qp_num,
                                 pool)
            return ev
        self.ev = ev
        self.qp = qp
        self.region = region
        self.rkey = region.rkey  # checked again where the bytes land
        self.offset = offset
        self.data = data
        self.wr_id = wr_id
        self.wc_pool = pool
        nic._c_w_ops.add()
        nic._c_w_bytes.add(len(data))
        (nic._c_w_coal if coalesced else nic._c_w_db).add()
        peer_nic = qp.peer.nic
        self.peer_nic = peer_nic
        self.prop = nic.fabric.prop_ns(nic, peer_nic)
        inj = nic.fabric.fault_injector
        self.fault = inj.rdma_write_fault(nic, qp, region, offset, data) \
            if inj is not None else None
        if ev is not None:
            nic._watch(ev, Opcode.RDMA_WRITE, wr_id, qp.qp_num, pool)
        self.pending = 1  # the tx -> fly -> rx (-> ack) chain
        nic.tx.submit(nic._tx_base(len(data), coalesced), self.cb_after_tx)
        return True if ev is None else ev

    def _after_tx(self) -> None:
        fault = self.fault
        delay = self.prop + (fault.get("delay_ns", 0) if fault else 0)
        self.timer.rearm(delay).callbacks.append(self.cb_arrive)

    def _arrive(self, _e: Event) -> None:
        peer_nic = self.peer_nic
        if not peer_nic.alive or (self.fault and self.fault.get("drop")):
            self._done()  # lost in flight; the retry deadline ends the op
            return
        peer_nic.rx.submit(peer_nic.cfg.rx_op_ns, self.cb_deliver)

    def _deliver(self) -> None:
        fault = self.fault
        torn = fault.get("torn_bytes", 0) if fault else 0
        if torn:
            # Injected torn write: a word-aligned prefix of the payload
            # lands (DMA is word-granular, so the occupancy/guardian words
            # themselves are never half-written) but the RC ack never
            # arrives — the retry deadline ends the op with RETRY_EXC.
            # Readers must reject the partial frame via the indicator
            # tail / guardian checks.
            self._land(self.data[:torn])
            self._done()
            return
        sim = self.nic.sim
        region, offset, data = self.region, self.offset, self.data
        try:
            region.dma_write(self.rkey, offset, data)
        except AccessViolation:
            status = WcStatus.REM_ACCESS_ERR
            self.nic.metrics.counter("rdma.rem_access_err").add()
        else:
            status = WcStatus.SUCCESS
            if sim._tracing:
                sim.trace_wire(_site(region), offset, data)
        if fault and fault.get("duplicate") and status is WcStatus.SUCCESS:
            # A retransmitted packet applied twice at the target: the same
            # bytes land again shortly after the first delivery.
            peer_nic = self.peer_nic
            redeliver = sim.timeout(2 * self.prop + peer_nic.cfg.rx_op_ns
                                    + peer_nic.pen)
            redeliver.callbacks.append(self.cb_redeliver)
            self.pending += 1
        if self.ev is None:  # unsignaled: no ack, no CQE
            self._done()
            return
        self.status = status  # carried to _acked with no per-hop closure
        self.timer.rearm(self.prop).callbacks.append(self.cb_acked)

    def _land(self, data: bytes) -> None:
        """DMA ``data`` into the target region: a torn prefix or a
        duplicate (the first full landing is inline in :meth:`_deliver`)."""
        region, offset = self.region, self.offset
        try:
            region.dma_write(self.rkey, offset, data)
        except AccessViolation:
            return
        sim = self.nic.sim
        if sim._tracing:
            sim.trace_wire(_site(region), offset, data)

    def _redeliver(self, _e: Event) -> None:
        self._land(self.data)
        self._done()

    def _acked(self, _e: Event) -> None:
        ev = self.ev
        if ev._value is _PENDING:  # not failed by the retry deadline
            status = self.status
            pool = self.wc_pool
            if pool is not None:
                wc = pool.acquire(Opcode.RDMA_WRITE, status, self.wr_id,
                                  byte_len=len(self.data),
                                  qp_num=self.qp.qp_num)
            else:
                wc = Completion(opcode=Opcode.RDMA_WRITE, status=status,
                                wr_id=self.wr_id, byte_len=len(self.data),
                                qp_num=self.qp.qp_num)
            ev.succeed(wc)
        self._done()

    def _done(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            self.ev = None
            self.qp = None
            self.region = None
            self.data = b""
            self.peer_nic = None
            self.fault = None
            self.wc_pool = None
            self.nic._write_ops.append(self)


class _ReadOp:
    """Pooled WQE state of one RDMA Read.

    Read-side twin of :class:`_WriteOp`, with the same freelist ownership
    rule (retire only after every scheduled hop has run; the retry
    deadline holds the completion event, not the record).  Hops: tx, fly,
    responder, response, fly back, home rx, then the completion — inline
    at the home rx hop for a successful WQE of a doorbell chain
    (:class:`_ChainWqe`).  The fly and fly-back hops rearm the record's
    own :class:`PooledTimer`.
    """

    __slots__ = ("nic", "qp", "region", "rkey", "offset", "length", "wr_id",
                 "ev", "fault", "prop", "peer_nic", "wc_pool", "pending",
                 "data", "timer", "cb_after_tx", "cb_arrive",
                 "cb_responder_done", "cb_response_sent", "cb_back_home",
                 "cb_complete")

    def __init__(self, nic: "Nic"):
        self.nic = nic
        self.timer = PooledTimer(nic.sim)
        self.cb_after_tx = self._after_tx
        self.cb_arrive = self._arrive
        self.cb_responder_done = self._responder_done
        self.cb_response_sent = self._response_sent
        self.cb_back_home = self._back_home
        self.cb_complete = self._complete

    def begin(self, qp: "QueuePair", region: MemoryRegion, offset: int,
              length: int, wr_id: int, coalesced: bool,
              pool: Optional[CompletionPool], chained: bool) -> Event:
        nic = self.nic
        ev = (_ChainWqe if chained else Event)(nic.sim)
        if not nic.alive:
            nic._fail_completion(ev, Opcode.RDMA_READ,
                                 WcStatus.LOCAL_QP_ERR, wr_id, qp.qp_num,
                                 pool)
            nic._read_ops.append(self)
            return ev
        self.ev = ev
        self.qp = qp
        self.region = region
        self.rkey = region.rkey
        self.offset = offset
        self.length = length
        self.wr_id = wr_id
        self.wc_pool = pool
        self.data = None
        nic._c_r_ops.add()
        nic._c_r_bytes.add(length)
        (nic._c_r_coal if coalesced else nic._c_r_db).add()
        peer_nic = qp.peer.nic
        self.peer_nic = peer_nic
        self.prop = nic.fabric.prop_ns(nic, peer_nic)
        inj = nic.fabric.fault_injector
        self.fault = inj.rdma_read_fault(nic, qp, region, offset, length) \
            if inj is not None else None
        nic._watch(ev, Opcode.RDMA_READ, wr_id, qp.qp_num, pool)
        self.pending = 1  # the request -> responder -> response chain
        nic.tx.submit(nic._tx_base(0, coalesced), self.cb_after_tx)
        return ev

    def _after_tx(self) -> None:
        self.timer.rearm(self.prop).callbacks.append(self.cb_arrive)

    def _arrive(self, _e: Event) -> None:
        peer_nic = self.peer_nic
        if not peer_nic.alive or (self.fault and self.fault.get("drop")):
            self._retire_hop()
            return
        cfg = peer_nic.cfg
        peer_nic.rx.submit(cfg.rx_op_ns + cfg.read_responder_ns,
                           self.cb_responder_done)

    def _responder_done(self) -> None:
        # The DMA engine snapshots host memory *now* — this is the
        # instant that matters for read/write races.
        region, offset = self.region, self.offset
        try:
            self.data = data = region.dma_read(self.rkey, offset,
                                               self.length)
        except AccessViolation:
            self.nic.metrics.counter("rdma.rem_access_err").add()
            ev = self.ev
            if not ev.triggered:
                self.nic._fail_completion(ev, Opcode.RDMA_READ,
                                          WcStatus.REM_ACCESS_ERR,
                                          self.wr_id, self.qp.qp_num,
                                          self.wc_pool)
            self._retire_hop()
            return
        sim = self.nic.sim
        if sim._tracing:
            sim.trace_wire(_site(region), offset, data)
        peer_nic = self.peer_nic
        peer_nic.tx.submit(peer_nic._tx_base(self.length, False),
                           self.cb_response_sent)

    def _response_sent(self) -> None:
        fault = self.fault
        delay = self.prop + (fault.get("delay_ns", 0) if fault else 0)
        self.timer.rearm(delay).callbacks.append(self.cb_back_home)

    def _back_home(self, _e: Event) -> None:
        nic = self.nic
        if not nic.alive:
            self._retire_hop()
            return
        nic.rx.submit(nic.cfg.rx_op_ns, self.cb_complete)

    def _complete(self) -> None:
        ev = self.ev
        if ev._value is _PENDING:  # not failed by the retry deadline
            pool = self.wc_pool
            if pool is not None:
                wc = pool.acquire(Opcode.RDMA_READ, WcStatus.SUCCESS,
                                  self.wr_id, byte_len=self.length,
                                  data=self.data, qp_num=self.qp.qp_num)
            else:
                wc = Completion(opcode=Opcode.RDMA_READ,
                                status=WcStatus.SUCCESS, wr_id=self.wr_id,
                                byte_len=self.length, data=self.data,
                                qp_num=self.qp.qp_num)
            ev.succeed(wc)
        self._retire_hop()

    def _retire_hop(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            self.ev = None
            self.qp = None
            self.region = None
            self.peer_nic = None
            self.fault = None
            self.wc_pool = None
            self.data = None
            self.nic._read_ops.append(self)


class Nic:
    """One RDMA adapter, attached to one machine, cabled to the fabric."""

    def __init__(self, sim: Simulator, machine: "Machine", nic_id: int,
                 config: SimConfig, fabric: "Fabric",
                 metrics: Optional[MetricSet] = None):
        self.sim = sim
        self.machine = machine
        self.nic_id = nic_id
        self.config = config
        self.cfg = config.nic
        self.fabric = fabric
        self.metrics = metrics or MetricSet(sim)
        self.tx = _Engine(sim, self)
        self.rx = _Engine(sim, self)
        self.qps: list["QueuePair"] = []
        #: QP-cache penalty of the live QP count, charged to every engine
        #: job at service start; recomputed only where a QP joins or
        #: leaves (:meth:`_qps_changed`).
        self.pen = self.cfg.qp_penalty_ns(0)
        self.alive = True
        #: Freelist of CQE records for doorbell-batched chains; consumers
        #: that finish a chain release its records here for reuse.
        self.wc_pool = CompletionPool()
        #: Freelists of pooled WQE records (see :class:`_WriteOp`).
        self._write_ops: list[_WriteOp] = []
        self._read_ops: list[_ReadOp] = []
        #: RC transport retry: ``(deadline, ev, op, wr_id, qp_num, pool)``
        #: per posted WQE, in post order (see :meth:`_watch`).
        self._retry_q: Deque[tuple] = deque()
        self._retry_timer = PooledTimer(sim)
        m = self.metrics
        self._c_w_ops = m.counter("rdma.write.ops")
        self._c_w_bytes = m.counter("rdma.write.bytes")
        self._c_w_coal = m.counter("rdma.write.coalesced")
        self._c_w_db = m.counter("rdma.write.doorbells")
        self._c_r_ops = m.counter("rdma.read.ops")
        self._c_r_bytes = m.counter("rdma.read.bytes")
        self._c_r_coal = m.counter("rdma.read.coalesced")
        self._c_r_db = m.counter("rdma.read.doorbells")

    # -- lifecycle ---------------------------------------------------------
    @property
    def active_qps(self) -> int:
        return len(self.qps)

    def fail(self) -> None:
        """Take the NIC (and effectively its machine's RDMA path) down."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def register(self, region: MemoryRegion) -> MemoryRegion:
        """Register a memory region for remote access; assigns its rkey."""
        return self.fabric.register(self, region)

    # -- cost terms ----------------------------------------------------------
    def _qps_changed(self) -> None:
        """A QP joined or left :attr:`qps`: re-price :attr:`pen`."""
        self.pen = self.cfg.qp_penalty_ns(len(self.qps))

    def _tx_base(self, payload: int, coalesced: bool) -> int:
        """Base cost of a TX job: per-verb work plus serialization, less
        the MMIO doorbell write a coalesced WQE skips."""
        cfg = self.cfg
        base = cfg.tx_op_ns + self.config.fabric.serialization_ns(payload)
        if coalesced:  # skip the doorbell: min(doorbell_ns, tx_op_ns)
            base -= cfg.doorbell_ns if cfg.doorbell_ns < cfg.tx_op_ns \
                else cfg.tx_op_ns
        return base

    # -- verb orchestration ----------------------------------------------
    # Each issue_* returns an Event that fires with a Completion (an
    # unsignaled Write returns whether it posted).  The caller (QueuePair)
    # has already validated QP state.

    def _fail_completion(self, ev: Event, op: Opcode, status: WcStatus,
                         wr_id: int, qp_num: int,
                         pool: Optional[CompletionPool] = None) -> None:
        if pool is not None:
            ev.succeed(pool.acquire(op, status, wr_id, qp_num=qp_num))
        else:
            ev.succeed(Completion(opcode=op, status=status, wr_id=wr_id,
                                  qp_num=qp_num))

    def _watch(self, ev: Event, op: Opcode, wr_id: int, qp_num: int,
               pool: Optional[CompletionPool] = None) -> None:
        """Complete ``ev`` with RETRY_EXC at ``now + retry_timeout_ns``
        if nothing else finishes the op first.

        The timeout is one constant, so deadlines arrive sorted and a FIFO
        with one timer armed for its head replaces a timer per WQE.  Acked
        heads are shed here, on every post, which keeps the queue as long
        as the in-flight window rather than the last 2 ms of posts.
        """
        q = self._retry_q
        while q and q[0][1]._value is not _PENDING:  # already triggered
            q.popleft()
        deadline = self.sim.now + self.config.fabric.retry_timeout_ns
        assert not q or q[-1][0] <= deadline, "retry deadlines must be FIFO"
        q.append((deadline, ev, op, wr_id, qp_num, pool))
        if self._retry_timer.callbacks is None:  # idle: nothing was queued
            self._retry_fire(None)

    def flush(self, qp: "QueuePair") -> None:
        """Complete every signaled WQE still outstanding on ``qp`` with
        ``WR_FLUSH_ERR``, in post order: what moving a QP to the error
        state does to its send queue.  A hop of a flushed WQE that
        arrives later finds its completion taken."""
        qp_num = qp.qp_num
        for _deadline, ev, op, wr_id, num, pool in self._retry_q:
            if num == qp_num and ev._value is _PENDING:
                self._fail_completion(ev, op, WcStatus.WR_FLUSH_ERR, wr_id,
                                      num, pool)

    def _retry_fire(self, _t: Optional[Event]) -> None:
        """Fail every overdue unacked WQE, in post order, and arm the timer
        for the oldest one still in flight (none: idle until the next post).
        """
        q = self._retry_q
        now = self.sim.now
        while q:
            deadline, ev, op, wr_id, qp_num, pool = q[0]
            if not ev.triggered:
                if deadline > now:
                    self._retry_timer.rearm(deadline - now).callbacks.append(
                        self._retry_fire)
                    return
                self._fail_completion(ev, op, WcStatus.RETRY_EXC, wr_id,
                                      qp_num, pool)
            q.popleft()

    def issue_write(self, qp: "QueuePair", region: MemoryRegion, offset: int,
                    data: bytes, wr_id: int, coalesced: bool = False,
                    pool: Optional[CompletionPool] = None,
                    chained: bool = False,
                    signaled: bool = True) -> "Event | bool":
        """One RDMA Write.  ``coalesced`` WQEs ride an earlier WQE's
        doorbell and skip the per-op MMIO cost (``doorbell_ns``).

        ``pool``: CQE freelist the completion record is drawn from (doorbell
        chains); ``None`` allocates a fresh :class:`Completion`.
        ``chained``: the completion's one consumer is a chain collector
        (:class:`_ChainWqe`).  ``signaled=False`` lands the same bytes at
        the same instant but generates no ack, CQE or retry deadline, and
        returns False if the post failed locally (dead NIC), else True.
        """
        ops = self._write_ops
        rec = ops.pop() if ops else _WriteOp(self)
        return rec.begin(qp, region, offset, data, wr_id, coalesced, pool,
                         chained, signaled)

    def issue_read(self, qp: "QueuePair", region: MemoryRegion, offset: int,
                   length: int, wr_id: int, coalesced: bool = False,
                   pool: Optional[CompletionPool] = None,
                   chained: bool = False) -> Event:
        """One RDMA Read.  ``coalesced`` WQEs ride an earlier WQE's
        doorbell and skip the per-op MMIO cost (``doorbell_ns``).

        ``pool`` and ``chained`` as for :meth:`issue_write`.
        """
        ops = self._read_ops
        rec = ops.pop() if ops else _ReadOp(self)
        return rec.begin(qp, region, offset, length, wr_id, coalesced, pool,
                         chained)

    def issue_read_batch(self, qp: "QueuePair", requests: list) -> Event:
        """Post several RDMA Reads behind one coalesced doorbell.

        ``requests`` entries are ``(region, offset, length, wr_id)``; a
        ``None`` region (rkey that no longer resolves against this QP's
        peer, e.g. after a failover re-homed the shard) completes
        immediately with ``LOCAL_QP_ERR`` instead of poisoning the rest of
        the chain.  The first resolvable WQE pays the full initiator cost;
        the rest skip the doorbell write.

        Returns **one** event that fires with a flat ``list[Completion]``
        in request order once the whole chain has finished; every WQE is
        individually bounded by the retry deadline, so the batch event always
        fires.
        """
        return self._post_chain(qp, requests, self.issue_read,
                                Opcode.RDMA_READ)

    def issue_write_batch(self, qp: "QueuePair", requests: list,
                          signaled: bool = True) -> "Event | int":
        """Post several RDMA Writes behind one coalesced doorbell.

        The write-side twin of :meth:`issue_read_batch`: ``requests``
        entries are ``(region, offset, data, wr_id)``; a ``None`` region
        (stale rkey) completes immediately with ``LOCAL_QP_ERR`` while
        the rest of the chain still posts.  The first resolvable WQE pays
        the full initiator cost; the rest skip the doorbell write.  RC
        keeps the chain in post order at the target, which is what lets a
        shard land a batch of slot responses before the final doorbell.

        Returns **one** event firing with ``list[Completion]`` in request
        order once the whole chain has completed — or, unsignaled, the
        number of WQEs that failed to post (``LOCAL_QP_ERR``).
        """
        if signaled:
            return self._post_chain(qp, requests, self.issue_write,
                                    Opcode.RDMA_WRITE)
        failed, first = 0, True
        for region, offset, data, wr_id in requests:
            if region is None:
                failed += 1
                continue
            failed += not self.issue_write(qp, region, offset, data, wr_id,
                                           not first, signaled=False)
            first = False
        return failed

    def _post_chain(self, qp: "QueuePair", requests: list, issue,
                    op: Opcode) -> Event:
        """Signaled doorbell chain: post every WQE through ``issue`` and
        collect their completions into one batch event."""
        batch = self.sim.event()
        n = len(requests)
        if n == 0:
            batch.succeed([])
            return batch
        chain = _Chain(batch, n)
        collect, evs = chain.collect, chain.evs  # one bound method a chain
        pool = self.wc_pool
        first = True
        for region, offset, arg, wr_id in requests:
            if region is None:
                ev = self.sim.event()
                self._fail_completion(ev, op, WcStatus.LOCAL_QP_ERR, wr_id,
                                      qp.qp_num, pool)
            else:
                ev = issue(qp, region, offset, arg, wr_id, not first, pool,
                           True)
                first = False
            ev.callbacks.append(collect)
            evs.append(ev)
        return batch

    def issue_ud_send(self, src_qp, dst_qp, data: bytes,
                      wr_id: int) -> Event:
        """Connectionless datagram send (see :mod:`repro.rdma.ud`)."""
        from .ud import issue_ud_send
        return issue_ud_send(self, src_qp, dst_qp, data, wr_id)

    def issue_send(self, qp: "QueuePair", data: bytes, wr_id: int) -> Event:
        ev = self.sim.event()
        op = Opcode.SEND
        if not self.alive:
            self._fail_completion(ev, op, WcStatus.LOCAL_QP_ERR, wr_id,
                                  qp.qp_num)
            return ev
        self.metrics.counter("rdma.send.ops").add()
        self.metrics.counter("rdma.send.bytes").add(len(data))
        peer_qp: "QueuePair" = qp.peer
        peer_nic: "Nic" = peer_qp.nic
        prop = self.fabric.prop_ns(self, peer_nic)
        self._watch(ev, op, wr_id, qp.qp_num)

        def after_tx() -> None:
            fly = self.sim.timeout(prop)
            fly.callbacks.append(lambda _e: arrive())

        def arrive() -> None:
            if not peer_nic.alive:
                return
            cfg = peer_nic.cfg
            peer_nic.rx.submit(cfg.rx_op_ns + cfg.send_recv_extra_ns, deliver)

        def deliver() -> None:
            if not peer_qp.recv_queue:
                status = WcStatus.RNR_RETRY_EXC
            else:
                recv_wr_id = peer_qp.recv_queue.popleft()
                if self.sim._tracing:
                    self.sim.trace_wire(b"q%d" % peer_qp.qp_num, recv_wr_id,
                                        data)
                peer_qp.recv_cq.push(
                    Completion(opcode=Opcode.RECV, status=WcStatus.SUCCESS,
                               wr_id=recv_wr_id, byte_len=len(data),
                               data=data, qp_num=peer_qp.qp_num)
                )
                status = WcStatus.SUCCESS
            ack = self.sim.timeout(prop)

            def _acked(_e: Event) -> None:
                if not ev.triggered:
                    ev.succeed(Completion(opcode=op, status=status,
                                          wr_id=wr_id, byte_len=len(data),
                                          qp_num=qp.qp_num))

            ack.callbacks.append(_acked)

        self.tx.submit(self._tx_base(len(data), False), after_tx)
        return ev

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Nic {self.nic_id} qps={self.active_qps} " \
               f"{'up' if self.alive else 'DOWN'}>"
