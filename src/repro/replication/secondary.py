"""The secondary shard: Single-Writer Zero-Reader backup target (§5).

A secondary serves no client requests.  It exposes its replication ring to
one primary, and a dedicated merge thread polls the ring and folds records
into its own :class:`~repro.core.store.ShardStore`.  On a processing
failure (injectable for tests) it stops advancing ``applied_seq``,
discards subsequent records, and waits for the primary's ack request to
report the first failed sequence — exactly the §5.2 recovery protocol.
The records it discards are valid and have landed (under HA their
clients are acked), only unprocessed, so it keeps them until the resend
supersedes them, and a drain applies them in sequence with the ring.

Before a failover drains it, right after the primary's fence, SWAT
fences the ring: a Write into the secondary's fence word
(:meth:`SecondaryShard.fence_rptr`) makes it revoke the ring's rkey, so
no Write the deposed primary posted can land there any more, register
the ring again under a fresh rkey and acknowledge.  On promotion the
merge thread stops and the store is handed to a fresh primary
:class:`~repro.core.shard.Shard`.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from ..config import SimConfig
from ..hardware import Core, Machine
from ..protocol import RingReader
from ..rdma import MemoryRegion, QpError, QueuePair, RemotePointer
from ..sim import Gate, Interrupt, MetricSet, Simulator
from ..core.errors import LifecycleError
from ..core.store import ShardStore
from .log import Ack, LogRecord, RecordType

__all__ = ["SecondaryShard", "FENCE", "MR_UPDATE_NS"]

#: A fence request: a token, and the NIC id and rkey of the 8 B word the
#: secondary acknowledges it in by writing the token there.
FENCE = struct.Struct("<QQQ")

#: Re-keying the ring: the verbs call that revokes its rkey and registers
#: it again, paid on the secondary's core before it acknowledges a fence
#: request (CALIBRATION.md; not a config field).
MR_UPDATE_NS = 50_000


class SecondaryShard:
    """A backup replica dedicated to a single primary."""

    def __init__(self, sim: Simulator, config: SimConfig, shard_id: str,
                 machine: Machine, core: Core,
                 metrics: Optional[MetricSet] = None,
                 fault_rng: Optional[np.random.Generator] = None):
        self.sim = sim
        self.config = config
        self.rep = config.replication
        self.cpu = config.cpu
        self.shard_id = shard_id
        self.machine = machine
        self.core = core
        self.metrics = metrics or MetricSet(sim)
        self.store = ShardStore(sim, config, machine.nic, core.numa_domain,
                                shard_id)
        self.ring_region = MemoryRegion(self.rep.log_bytes,
                                        numa_domain=core.numa_domain,
                                        name=f"{shard_id}.ring")
        machine.nic.register(self.ring_region)
        self.reader = RingReader(self.ring_region)
        self.doorbell = Gate(sim)
        self.ring_region.subscribe(lambda _r: self.doorbell.fire())
        #: Wired by the primary-side replicator at attach time.
        self.qp: Optional[QueuePair] = None
        self.ack_rptr: Optional[RemotePointer] = None
        self.applied_seq = 0
        self.failing = False
        #: Records the merge thread discarded past ``applied_seq`` while
        #: failing, by seq: kept for a drain (:meth:`ring_suffix`).
        self._held: dict[int, LogRecord] = {}
        self._ack_epoch = 0
        self._fault_rng = fault_rng
        #: Optional chaos hook (:class:`repro.chaos.FaultInjector`): when
        #: set, merge-time faults can be injected per record, exercising
        #: the failing-ack -> primary-resend recovery path under load.
        self.fault_injector = None
        self.alive = False
        self._proc = None
        #: The fence word and the queue pair acknowledgements go out on,
        #: both made on first use (:meth:`fence_rptr`, :meth:`_fence`).
        self._fence_word: Optional[MemoryRegion] = None
        self._fence_qp: Optional[QueuePair] = None

    # -- wiring ---------------------------------------------------------
    def ring_rptr(self) -> RemotePointer:
        return RemotePointer(self.ring_region.rkey, 0, self.rep.log_bytes)

    def fence_rptr(self) -> RemotePointer:
        """Where a fence request (:data:`FENCE`) is written; the word is
        registered on the first call."""
        word = self._fence_word
        if word is None:
            word = self._fence_word = MemoryRegion(
                FENCE.size, numa_domain=self.core.numa_domain,
                name=f"{self.shard_id}.fence")
            self.machine.nic.register(word)
            word.subscribe(self._fence_rung)
        return RemotePointer(word.rkey, 0, FENCE.size)

    def _fence_rung(self, word: MemoryRegion) -> None:
        # The doorbell wakes a thread of this process; a dead one answers
        # nothing.
        if self.alive:
            self.sim.process(self._fence(*FENCE.unpack_from(word.buf, 0)),
                             name=f"{self.shard_id}.fence")

    def _fence(self, token: int, nic_id: int, rkey: int):
        """Re-key the ring and acknowledge.  The MR update runs on this
        core; when it completes the old rkey is revoked -- a Write of the
        deposed primary still in flight fails where it reaches the ring
        -- and the ring is registered under a fresh one.  Revoking last,
        right before the acknowledgement, keeps what lands in between
        in the ring the drain reads."""
        yield self.core.execute(MR_UPDATE_NS)
        nic = self.machine.nic
        self.ring_region.revoke()
        nic.register(self.ring_region)
        qp = self._fence_qp
        if qp is None or not qp.connected:
            qp = self._fence_qp = nic.fabric.connect(
                nic, nic.fabric.nics[nic_id])[0]
        try:
            qp.post_write(RemotePointer(rkey, 0, 8),
                          token.to_bytes(8, "little"), signaled=False)
        except QpError:
            pass  # the coordinator's word is gone: no acknowledgement

    def attach(self, qp: QueuePair, ack_rptr: RemotePointer) -> None:
        self.qp = qp
        self.ack_rptr = ack_rptr

    def rebind(self) -> None:
        """Reset replication progress for attachment to a new primary.

        Clears any stale ring contents (frames from the dead primary) and
        restarts sequence tracking; the caller resynchronizes store state
        separately before records start flowing again.
        """
        self.ring_region.zero(0, self.ring_region.nbytes)
        self.reader = RingReader(self.ring_region)
        self.applied_seq = 0
        self.failing = False
        self._held.clear()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self.alive:
            raise LifecycleError(f"{self.shard_id} already running")
        self.alive = True
        self._proc = self.sim.process(self._merge_loop(), name=self.shard_id)
        if self.store.reclaimer._proc is None:
            self.store.reclaimer.start()

    def stop(self) -> None:
        """Halt the merge thread (promotion or teardown)."""
        self.alive = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stopped")

    def kill(self) -> None:
        self.stop()
        self.store.reclaimer.stop()

    def ring_suffix(self):
        """Yield the unmerged suffix in sequence, advancing
        ``applied_seq`` past each record: the next one is taken from the
        records a failing merge thread discarded and kept, else polled
        from the ring.  Ack requests and resent records already applied
        are skipped, a record ahead of sequence is kept for later, and it
        stops at the first gap neither closes.  The caller applies."""
        held = self._held
        while True:
            record = held.pop(self.applied_seq + 1, None)
            if record is None:
                payload = self.reader.poll()
                if payload is None:
                    return
                record = LogRecord.decode(payload)
                if record.rtype is RecordType.ACK_REQUEST \
                        or record.seq <= self.applied_seq:
                    continue
                if record.seq != self.applied_seq + 1:
                    held[record.seq] = record
                    continue
            self.applied_seq = record.seq
            yield record

    def promote_drain(self) -> int:
        """Fold the unmerged suffix into the store (promotion).

        Called by SWAT after stopping the merge thread and before wrapping
        this store in a fresh primary: writes the dead primary acked and
        replicated — but that the merge thread had not folded in yet,
        whether still in the ring or discarded by a failing merge — must
        not be lost in the handover, or a client would observe an acked
        write vanish across the failover.  Returns the number of records
        applied.
        """
        applied = 0
        for record in self.ring_suffix():
            self.store.apply(record.op, record.key, record.value,
                             version=record.version)
            applied += 1
        if applied:
            self.metrics.counter("replica.drained").add(applied)
        return applied

    # -- merge thread -------------------------------------------------------
    def _should_fault(self) -> bool:
        if self.fault_injector is not None \
                and self.fault_injector.replication_fault(self):
            return True
        if self._fault_rng is None or self.rep.fault_probability <= 0:
            return False
        return bool(self._fault_rng.random() < self.rep.fault_probability)

    def _send_ack(self) -> None:
        if self.qp is None or self.ack_rptr is None:
            return
        self._ack_epoch += 1
        ack = Ack(applied_seq=self.applied_seq,
                  consumed=self.reader.consumed,
                  epoch=self._ack_epoch, failed=self.failing)
        self.qp.post_write(self.ack_rptr, ack.encode(), signaled=False)

    def _merge_loop(self):
        try:
            while self.alive:
                payload = self.reader.poll()
                if payload is None:
                    yield self.doorbell.wait()
                    yield self.core.execute(self.rep.merge_poll_ns)
                    continue
                record = LogRecord.decode(payload)
                if record.rtype is RecordType.ACK_REQUEST:
                    # Reply whether healthy or failing; a failing reply
                    # carries the first missing sequence (applied+1).
                    yield self.core.execute(self.cpu.build_response_ns)
                    self._send_ack()
                    continue
                expected = self.applied_seq + 1
                if record.seq != expected or self._should_fault():
                    # Out-of-order (post-failure stream) or injected fault:
                    # stop advancing, discard until the primary resends the
                    # expected sequence (triggered by our failing ack).
                    self.failing = True
                    if record.seq > self.applied_seq:
                        self._held[record.seq] = record
                    self.metrics.counter("replica.discarded").add()
                    continue
                result = self.store.apply(record.op, record.key, record.value,
                                          version=record.version)
                yield self.core.execute(result.cost_ns)
                self.applied_seq = record.seq
                if self._held:
                    self._held.pop(record.seq, None)
                self.failing = False
                self.metrics.counter("replica.applied").add()
        except Interrupt:
            self.alive = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SecondaryShard {self.shard_id} applied={self.applied_seq}>"
