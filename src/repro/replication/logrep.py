"""Primary-side replication: RDMA Logging and strict request/ack (§5.2).

Star-formed primary/backup: the primary drives every secondary directly.

**rdma_log mode** (the paper's contribution): each mutation is placed into
every secondary's exposed ring with one-sided RDMA Writes and the shard
moves on immediately — no per-record acknowledgement.  Every
``ack_interval`` records the primary appends an ACK_REQUEST; the returning
ack replenishes write credit and, if it reports a failure, triggers
rollback: every unacknowledged record is re-placed in order, then
re-solicited.  The shard blocks only when the ring is out of credit.

**One doorbell per sweep**: :meth:`LogReplicator.replicate` only stages
a record (and its ACK_REQUEST when one is due) in one list per
replicator, in seq order whichever executor lane served the write.  The
shard calls :meth:`LogReplicator.post_staged` when its sweep ends,
before it parks or flushes any response, and the staged records go to
each secondary as one doorbell chain: their ring pieces are contiguous,
so the chain is one Write WQE, or two at a wrap.  Callers with no sweep
(TCP, Send/Recv, a migration) post each record at once.  The primary
pays ``post_cost_ns`` per chain and secondary, whatever its length.  A
ring that fills part-way through a chain holds the rest of it, and
every later record for that secondary, in the link's backlog, which the
slow path places in seq order as credit returns; the sweep waits on it.

**Ack on landing** (under HA, :meth:`LogReplicator.land_before_ack`):
the paper's replication is synchronous, so a client is acked only once
its record has *landed* in every secondary's ring, not once it is
posted.  Every WQE of a chain is signaled, and the chain's completion,
which fires once all of them have completed, feeds
:attr:`LogReplicator.landed_seq`, the highest sequence every live
secondary holds; the shard parks a write's response behind it.  The
watermark therefore never rests on the QP's chains landing in post
order (a delayed Write may be overtaken).  A failed completion never
counts as landed: it detaches the link without retiring any seq of its
chain, so a dead secondary stalls acks for at most one RC retry timeout
and is never promoted, since it leaves the cluster's roster of the
shard's secondaries too.  A deposed primary's records that reach a ring
after the new primary's revocation therefore fail, and none of them was
acked.

**strict mode** (the Fig. 13 baseline): every record is posted on its
own, followed by an ACK_REQUEST, and the shard blocks until every
secondary has applied it — one full round trip plus secondary merge
time per mutation, at twice the post cost.
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
        #: Records waiting for ring credit, in seq order ((seq, payload),
        #: seq 0 for an ack request), and the process placing them.
        self.backlog: Deque[tuple[int, bytes]] = deque()
        self.draining: Optional[Event] = None
        #: Strict-mode waiters: (seq, event).
        self.waiters: list[tuple[int, Event]] = []
        self.resends = 0
        #: Ack on landing: seq -> chains carrying that record (or a
        #: placement still pending) whose completion is outstanding.
        self.unlanded: dict[int, int] = {}
        #: Ack on landing: the completion callback of this link's chains,
        #: called with the chain's event and seqs (None: chains go out
        #: unsignaled).
        self.on_complete = None

    def post(self, pieces: list[tuple[int, bytes]], seqs) -> None:
        """Post placed ring ``pieces`` ((offset, bytes), in placement
        order) as one doorbell chain, contiguous pieces merged into one
        WQE.  Under ack on landing a chain carrying DATA records
        (``seqs``) goes out signaled, each seq counted in
        :attr:`unlanded` until the chain completes."""
        wqes, parts, start, end = [], [], 0, -1
        for offset, blob in pieces:
            if offset != end and parts:
                wqes.append((self.ring_rptr.slice(start, end - start),
                             b"".join(parts)))
                parts = []
            if not parts:
                start = offset
            parts.append(blob)
            end = offset + len(blob)
        wqes.append((self.ring_rptr.slice(start, end - start),
                     b"".join(parts)))
        on_complete = self.on_complete
        if on_complete is None or not seqs:
            self.qp.post_write_batch(wqes, signaled=False)
            return
        unlanded = self.unlanded
        for seq in seqs:
            unlanded[seq] = unlanded.get(seq, 0) + 1
        self.qp.post_write_batch(wqes).callbacks.append(
            lambda ev: on_complete(ev, seqs))

    def place_and_write(self, payload: bytes, seq: int = 0) -> None:
        """Reserve ring space for one record and post it on its own.  May
        raise RingFull."""
        self.post(self.writer.place(payload), (seq,) if seq else ())

    def post_chain(self, records: list[tuple[int, bytes]]) -> bool:
        """Place ``records`` ((seq, payload), seq 0 for an ack request)
        in order and post them as one chain.  Records behind an earlier
        backlog, or from the first one the ring has no credit for, join
        :attr:`backlog` instead; returns True when any did."""
        if self.backlog:
            self._defer(records)
            return True
        place, pieces, seqs = self.writer.place, [], []
        for i, (seq, payload) in enumerate(records):
            try:
                pieces += place(payload)
            except RingFull:
                self._defer(records[i:])
                break
            if seq:
                seqs.append(seq)
                self.unacked.append((seq, payload))
        if pieces:
            self.post(pieces, seqs)
        return bool(self.backlog)

    def _defer(self, records: list[tuple[int, bytes]]) -> None:
        self.backlog.extend(records)
        if self.on_complete is not None:
            unlanded = self.unlanded
            for seq, _payload in records:
                if seq:  # placement pending: not landed
                    unlanded[seq] = unlanded.get(seq, 0) + 1


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
        #: Records replicated but not yet posted ((seq, payload), seq 0
        #: for an ack request), in seq order: :meth:`post_staged`.
        self.staged: list[tuple[int, bytes]] = []
        self.alive = True
        #: Ack on landing (:meth:`land_before_ack`): the cluster's roster
        #: of this shard's secondaries, None when acks go out on post.
        self.roster: Optional[list[SecondaryShard]] = None
        #: Runs whenever a chain completes under ack on landing: the
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
        candidates a failover promotes from: a secondary whose chain
        fails leaves it."""
        if self.rep.mode != "rdma_log":
            return
        self.roster = roster
        self.primary.park_for_landing(self)
        for link in self.links:
            self._signal(link)

    def _signal(self, link: SecondaryLink) -> None:
        link.on_complete = lambda ev, seqs: self._completed(link, seqs, ev)

    @property
    def landing(self) -> bool:
        """True when acks wait for the ring records to land."""
        return self.roster is not None

    @property
    def landed_seq(self) -> int:
        """The highest sequence whose record, and every one before it,
        has landed on every attached secondary (a staged record has not
        landed anywhere)."""
        seq = self.staged[0][0] - 1 if self.staged else self.seq
        for link in self.links:
            if link.unlanded:
                seq = min(seq, min(link.unlanded) - 1)
        return seq

    def wait_landed(self, seq: int):
        """Block (generator) until :attr:`landed_seq` covers ``seq``: the
        batch-less ack-on-landing wait."""
        while self.landed_seq < seq:
            yield self._landed.wait()

    def _completed(self, link: SecondaryLink, seqs, ev: Event) -> None:
        """A chain of ``link`` carrying ``seqs`` completed.  Success
        retires them; a failed WQE (dead secondary, revoked ring)
        detaches the link and retires none, unless this primary's
        process is dead and reacts to nothing."""
        if link not in self.links or not self.primary.alive:
            return
        if all(wc.ok for wc in ev.value):
            unlanded = link.unlanded
            for seq in seqs:
                left = unlanded.pop(seq) - 1
                if left:
                    unlanded[seq] = left
        else:
            self._detach(link)
        if self._landed.waiting:
            self._landed.fire()
        self.on_landed()

    def _detach(self, link: SecondaryLink) -> None:
        """Drop a secondary whose chain failed: acks no longer wait for
        it, and it is no longer a failover candidate."""
        self.links.remove(link)
        link.unlanded.clear()
        link.backlog.clear()
        link.ack_doorbell.fire()  # a placement waiting for credit gives up
        if link.secondary in self.roster:
            self.roster.remove(link.secondary)
        self.metrics.counter("repl.detached").add()

    # -- the shard-facing hooks ----------------------------------------------
    def replicate(self, op: Op, key: bytes, value: bytes,
                  version: int) -> tuple[int, Optional[Event]]:
        """Assign the mutation its seq and encode its record.  rdma_log
        stages it for :meth:`post_staged` and costs nothing here; strict
        posts it with its ack request at once.  Returns (cpu_cost_ns,
        optional event the shard must wait on)."""
        if not self.links:
            return 0, None
        self.seq += 1
        seq = self.seq
        record = LogRecord(rtype=RecordType.DATA, seq=seq, op=op,
                           key=key, value=value, version=version).encode()
        if self.rep.mode == "strict":
            # Build + post the record and its ack request per secondary:
            # soliciting every record costs every record.
            blocked = [link for link in self.links
                       if link.post_chain([(seq, record)])]
            if not blocked:
                self._solicit_acks()
            else:
                self._drain_backlogs(blocked)
            ev = self.sim.process(self._await_applied(seq, blocked),
                                  name=f"{self.primary.shard_id}.repwait")
            return self.rep.post_cost_ns * len(self.links) * 2, ev
        staged = self.staged
        staged.append((seq, record))
        if seq - self._last_ackreq_seq >= self.rep.ack_interval:
            staged.append((0, LogRecord.ack_request(seq).encode()))
            self._last_ackreq_seq = seq
            self.metrics.counter("repl.ack_requests").add()
        self.metrics.counter("repl.records").add()
        return 0, None

    def post_staged(self) -> tuple[int, Optional[Event]]:
        """Post every staged record to each secondary as one doorbell
        chain.  Returns (cpu_cost_ns: ``post_cost_ns`` per chain, the
        event of the slow path placing what found a ring full, or None)."""
        staged = self.staged
        if not staged:
            return 0, None
        self.staged = []
        blocked = [link for link in self.links if link.post_chain(staged)]
        cost = self.rep.post_cost_ns * len(self.links)
        if not blocked:
            return cost, None
        waits = self._drain_backlogs(blocked)
        return cost, waits[0] if len(waits) == 1 else self.sim.all_of(waits)

    def replicate_now(self, op: Op, key: bytes, value: bytes,
                      version: int) -> tuple[int, Optional[Event]]:
        """:meth:`replicate` for a caller with no sweep to end: the record
        goes out at once, as a chain of its own."""
        cost, ev = self.replicate(op, key, value, version)
        post_cost, post_ev = self.post_staged()
        return cost + post_cost, ev or post_ev

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

    def _drain_backlogs(self, blocked: list[SecondaryLink]) -> list[Event]:
        """The slow-path process of each link in ``blocked``, started
        unless one already runs (it places what joined the backlog
        since)."""
        for link in blocked:
            if link.draining is None:
                link.draining = self.sim.process(
                    self._drain(link), name=f"{self.primary.shard_id}.repwait")
        return [link.draining for link in blocked]

    def _drain(self, link: SecondaryLink):
        """Slow path: place ``link``'s backlog in seq order, one record
        at a time, as acks return ring credit."""
        backlog = link.backlog
        while backlog and link in self.links:
            seq, payload = backlog[0]
            try:
                pieces = link.writer.place(payload)
            except RingFull:
                self._solicit_acks()
                yield link.ack_doorbell.wait()
                continue
            backlog.popleft()
            if seq:
                link.unlanded.pop(seq, None)  # the placement-pending mark
                link.unacked.append((seq, payload))
            link.post(pieces, (seq,) if seq else ())
        link.draining = None
        self._solicit_acks()

    def _await_applied(self, seq: int, blocked: list[SecondaryLink]):
        """Strict mode: wait until every secondary has applied ``seq``
        (after the slow path placed it on a full ring)."""
        for link in blocked:
            if link.draining is not None:
                yield link.draining
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
