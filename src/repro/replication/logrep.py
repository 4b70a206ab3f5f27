"""Primary-side replication: RDMA Logging and strict request/ack (§5.2).

Star-formed primary/backup: the primary drives every secondary directly.

**rdma_log mode** (the paper's contribution): each mutation is placed into
every secondary's exposed ring with one-sided RDMA Writes and the shard
moves on immediately — no per-record acknowledgement.  Every
``ack_interval`` records the primary appends an ACK_REQUEST; the returning
ack replenishes write credit and, if it reports a failure, triggers
rollback: every unacknowledged record is re-placed in order, then
re-solicited.  The shard blocks only when the ring is out of credit.

**Ack on landing** (under HA, :meth:`LogReplicator.land_before_ack`):
the paper's replication is synchronous, so a client is acked only once
its record has *landed* in every secondary's ring, not once it is
posted.  Each record's ring Write is signaled, and its RC completion
feeds :attr:`LogReplicator.landed_seq`, the highest sequence every
live secondary holds; the shard parks a write's response behind it.  A
record is signaled on its own rather than once per sweep, so the
watermark does not rest on the QP's Writes landing in post order (a
delayed Write may be overtaken).  A failed completion never counts as
landed: it detaches the link, so a dead secondary stalls acks for at
most one RC retry timeout and is never promoted, since it leaves the
cluster's roster of the shard's secondaries too.  A deposed primary's
records that reach a ring after the new primary's revocation therefore
fail, and none of them was acked.

**strict mode** (the Fig. 13 baseline): every record is followed by an
ACK_REQUEST and the shard blocks until every secondary has applied it —
one full round trip plus secondary merge time per mutation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..config import SimConfig
from ..protocol import Op, RingFull, RingWriter
from ..rdma import MemoryRegion, QueuePair, RemotePointer
from ..sim import Gate, MetricSet, Simulator
from ..sim.events import Event
from ..core.shard import Shard
from .log import ACK_SLOT_BYTES, Ack, LogRecord, RecordType
from .secondary import SecondaryShard

__all__ = ["LogReplicator", "SecondaryLink"]


class SecondaryLink:
    """Primary-side state for one secondary."""

    def __init__(self, sim: Simulator, secondary: SecondaryShard,
                 qp: QueuePair, ring_rptr: RemotePointer,
                 ack_region: MemoryRegion, log_bytes: int):
        self.sim = sim
        self.secondary = secondary
        self.qp = qp
        self.ring_rptr = ring_rptr
        self.ack_region = ack_region
        self.writer = RingWriter(log_bytes)
        self.ack_doorbell = Gate(sim)
        ack_region.subscribe(lambda _r: self.ack_doorbell.fire())
        self.applied_seq = 0
        self.last_epoch = 0
        #: Records placed but not yet covered by an ack (for rollback).
        self.unacked: Deque[tuple[int, bytes]] = deque()
        #: Strict-mode waiters: (seq, event).
        self.waiters: list[tuple[int, Event]] = []
        self.resends = 0
        #: Ack on landing: seq -> ring Writes of that record (or a
        #: placement still pending) whose completion is outstanding.
        self.unlanded: dict[int, int] = {}
        #: Ack on landing: the completion callback of this link's ring
        #: Writes (None: Writes go out unsignaled).
        self.on_complete = None

    def place_and_write(self, payload: bytes, seq: int = 0) -> None:
        """Reserve ring space and issue the RDMA write(s). May raise RingFull.

        Under ack on landing a DATA record (``seq`` > 0) goes out
        signaled, each Write counted in :attr:`unlanded` until it
        completes."""
        on_complete = self.on_complete if seq else None
        for offset, blob in self.writer.place(payload):
            rptr = self.ring_rptr.slice(offset, len(blob))
            if on_complete is None:
                self.qp.post_write(rptr, blob, signaled=False)
                continue
            self.unlanded[seq] = self.unlanded.get(seq, 0) + 1
            self.qp.post_write(rptr, blob, wr_id=seq).callbacks.append(
                on_complete)


class LogReplicator:
    """Replicates one primary shard's mutations to its secondaries."""

    def __init__(self, sim: Simulator, config: SimConfig, primary: Shard,
                 metrics: Optional[MetricSet] = None):
        self.sim = sim
        self.config = config
        self.rep = config.replication
        if self.rep.mode not in ("rdma_log", "strict"):
            raise ValueError(f"unknown replication mode {self.rep.mode!r}")
        self.primary = primary
        self.metrics = metrics or MetricSet(sim)
        self.links: list[SecondaryLink] = []
        self.seq = 0
        self._last_ackreq_seq = 0
        self.alive = True
        #: Ack on landing (:meth:`land_before_ack`): the cluster's roster
        #: of this shard's secondaries, None when acks go out on post.
        self.roster: Optional[list[SecondaryShard]] = None
        #: Runs whenever a ring Write completes under ack on landing: the
        #: shard releases the responses parked behind :attr:`landed_seq`.
        self.on_landed: Callable[[], None] = lambda: None
        self._landed = Gate(sim)
        primary.replicator = self

    # -- wiring ---------------------------------------------------------
    def add_secondary(self, secondary: SecondaryShard) -> SecondaryLink:
        """Connect a secondary: QP pair, ack slot, and the monitor process."""
        fabric = self.primary.nic.fabric
        primary_qp, secondary_qp = fabric.connect(self.primary.nic,
                                                  secondary.machine.nic)
        ack_region = MemoryRegion(ACK_SLOT_BYTES,
                                  name=f"{self.primary.shard_id}.ack"
                                       f"{len(self.links)}")
        self.primary.nic.register(ack_region)
        secondary.attach(secondary_qp,
                         RemotePointer(ack_region.rkey, 0, ACK_SLOT_BYTES))
        link = SecondaryLink(self.sim, secondary, primary_qp,
                             secondary.ring_rptr(), ack_region,
                             self.rep.log_bytes)
        self.links.append(link)
        if self.landing:
            self._signal(link)
        self.sim.process(self._ack_monitor(link),
                         name=f"{self.primary.shard_id}.ackmon")
        return link

    def land_before_ack(self, roster: list[SecondaryShard]) -> None:
        """Ack a mutation only once its ring record has landed on every
        secondary (rdma_log mode; strict mode's acks already imply it).
        ``roster`` is the cluster's list of this shard's secondaries, the
        candidates a failover promotes from: a secondary whose ring Write
        fails leaves it."""
        if self.rep.mode != "rdma_log":
            return
        self.roster = roster
        self.primary.park_for_landing(self)
        for link in self.links:
            self._signal(link)

    def _signal(self, link: SecondaryLink) -> None:
        link.on_complete = lambda ev: self._completed(link, ev)

    @property
    def landing(self) -> bool:
        """True when acks wait for the ring records to land."""
        return self.roster is not None

    @property
    def landed_seq(self) -> int:
        """The highest sequence whose record, and every one before it,
        has landed on every attached secondary."""
        seq = self.seq
        for link in self.links:
            if link.unlanded:
                seq = min(seq, min(link.unlanded) - 1)
        return seq

    def wait_landed(self, seq: int):
        """Block (generator) until :attr:`landed_seq` covers ``seq``: the
        batch-less ack-on-landing wait."""
        while self.landed_seq < seq:
            yield self._landed.wait()

    def _completed(self, link: SecondaryLink, ev: Event) -> None:
        """A ring Write of ``link`` completed.  Success retires it; a
        failure (dead secondary, revoked ring) detaches the link, unless
        this primary's process is dead and reacts to nothing."""
        if link not in self.links or not self.primary.alive:
            return
        wc = ev.value
        if wc.ok:
            seq = wc.wr_id
            left = link.unlanded.pop(seq) - 1
            if left:
                link.unlanded[seq] = left
        else:
            self._detach(link)
        if self._landed.waiting:
            self._landed.fire()
        self.on_landed()

    def _detach(self, link: SecondaryLink) -> None:
        """Drop a secondary whose ring Write failed: acks no longer wait
        for it, and it is no longer a failover candidate."""
        self.links.remove(link)
        link.unlanded.clear()
        link.ack_doorbell.fire()  # a placement waiting for credit gives up
        if link.secondary in self.roster:
            self.roster.remove(link.secondary)
        self.metrics.counter("repl.detached").add()

    # -- the shard-facing hook -----------------------------------------------
    def replicate(self, op: Op, key: bytes, value: bytes,
                  version: int) -> tuple[int, Optional[Event]]:
        """Returns (cpu_cost_ns, optional event the shard must wait on)."""
        if not self.links:
            return 0, None
        self.seq += 1
        record = LogRecord(rtype=RecordType.DATA, seq=self.seq, op=op,
                           key=key, value=value, version=version).encode()
        want_ack = (self.rep.mode == "strict"
                    or self.seq - self._last_ackreq_seq >= self.rep.ack_interval)
        # CPU: build + post one record per secondary, plus the ack request
        # when one is due — soliciting every record costs every record.
        cost = self.rep.post_cost_ns * len(self.links) * (2 if want_ack else 1)
        blocked: list[SecondaryLink] = []
        for link in self.links:
            try:
                link.place_and_write(record, self.seq)
                link.unacked.append((self.seq, record))
            except RingFull:
                blocked.append(link)
                if self.landing:
                    link.unlanded[self.seq] = 1  # placement pending
        if want_ack and not blocked:
            self._solicit_acks()
        if self.rep.mode == "strict" or blocked:
            ev = self.sim.process(
                self._synchronize(self.seq, record, blocked),
                name=f"{self.primary.shard_id}.repwait",
            )
            return cost, ev
        self.metrics.counter("repl.records").add()
        return cost, None

    # -- internals ---------------------------------------------------------
    def _solicit_acks(self) -> None:
        ackreq = LogRecord.ack_request(self.seq).encode()
        for link in self.links:
            try:
                link.place_and_write(ackreq)
            except RingFull:
                # Credit will return via an earlier outstanding ack request.
                pass
        self._last_ackreq_seq = self.seq
        self.metrics.counter("repl.ack_requests").add()

    def _synchronize(self, seq: int, record: bytes,
                     blocked: list[SecondaryLink]):
        """Slow path: finish placement on full rings and/or await acks."""
        # First, push the record into any ring that was full.
        for link in blocked:
            while link in self.links:
                try:
                    link.place_and_write(record, seq)
                    link.unacked.append((seq, record))
                    if self.landing:
                        link.unlanded[seq] -= 1  # placed: drop the marker
                    break
                except RingFull:
                    self._solicit_acks()
                    yield link.ack_doorbell.wait()
        if blocked:
            self._solicit_acks()
        if self.rep.mode != "strict":
            self.metrics.counter("repl.records").add()
            return
        # Strict: wait until every secondary has applied this sequence.
        for link in self.links:
            if link.applied_seq >= seq:
                continue
            ev = Event(self.sim)
            link.waiters.append((seq, ev))
            yield ev
        self.metrics.counter("repl.records").add()

    def _ack_monitor(self, link: SecondaryLink):
        """Consume ack-slot writes: credit, progress, rollback."""
        while self.alive:
            ack = Ack.decode(link.ack_region.read(0, ACK_SLOT_BYTES))
            if ack.epoch == link.last_epoch:
                yield link.ack_doorbell.wait()
                continue
            link.last_epoch = ack.epoch
            link.writer.ack(ack.consumed)
            link.applied_seq = max(link.applied_seq, ack.applied_seq)
            while link.unacked and link.unacked[0][0] <= link.applied_seq:
                link.unacked.popleft()
            if ack.failed and link.unacked:
                self._resend(link)
            if link.waiters:
                ready = [ev for s, ev in link.waiters
                         if s <= link.applied_seq]
                link.waiters = [(s, ev) for s, ev in link.waiters
                                if s > link.applied_seq]
                for ev in ready:
                    ev.succeed(None)
            # Doorbell may already hold another epoch; loop re-probes.

    def _resend(self, link: SecondaryLink) -> None:
        """Rollback: re-place every unacknowledged record, in order."""
        link.resends += 1
        self.metrics.counter("repl.resends").add()
        for _seq, payload in link.unacked:
            try:
                link.place_and_write(payload)
            except RingFull:  # pragma: no cover - ring sized to prevent this
                break
        try:
            link.place_and_write(LogRecord.ack_request(self.seq).encode())
        except RingFull:  # pragma: no cover
            pass
