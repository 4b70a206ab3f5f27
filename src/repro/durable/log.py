"""Per-shard write-behind durable log: group commit and replay.

Record encoding reuses :class:`repro.replication.log.LogRecord` — the
same bytes the replication ring carries — wrapped in an on-media frame
derived from the indicator discipline of ``protocol/indicator.py``:

    +-----------------------------+-------------+----------------------+
    | head u64                    | payload     | guardian u64         |
    | (HEAD_MAGIC << 32) | length | LogRecord   | BLAKE2b-64(payload)  |
    +-----------------------------+-------------+----------------------+

The head word is the *indicator* (a reader knows a frame was staked and
how long it claims to be); the guardian is a content checksum, so a torn
group-commit blob — the PM device lands only a prefix at crash — is
detected and truncated, while in-place corruption mid-log (guardian
fails but later media is non-zero) is reported distinctly and stops
replay.  The log needs no separate watermark: every guardian-valid
frame is durable and replayed, and the last one carries the highest
persisted seq, so a group commit is one device write.

Appends are asynchronous and off the replication path: the shard calls
:meth:`DurableLog.append` at write-commit time, paying only a small CPU
cost and getting the record's log sequence number back.  Group commit is
*self-clocked*: the flusher starts a device write the moment anything is
staged and the device is idle, and whatever is appended while that write
is in flight forms the next group.  ``released_seq`` advances (and
``on_commit`` runs, in flush-completion context) only once every frame
of the group has landed on media; under ``ack_on_flush`` the
shard holds each response until ``released_seq`` covers its record, so
an acked write is durable even if primary and secondary both die.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..protocol import Op
from ..protocol.indicator import HEAD_MAGIC
from ..replication.log import LogRecord, RecordType
from ..sim import Gate, Interrupt, MetricSet

if TYPE_CHECKING:  # pragma: no cover
    from ..config import SimConfig
    from ..core.store import ShardStore
    from ..sim import Simulator
    from .device import PMDevice

__all__ = ["DurableLog", "DurableScan", "LOG_BASE", "scan_log",
           "replay_into"]

_U64 = struct.Struct("<Q")

#: u64 head + u64 guardian around each payload.
FRAME_OVERHEAD = 16
#: Log frames start here.
LOG_BASE = 0


def _guardian(payload: bytes) -> int:
    return _U64.unpack(hashlib.blake2b(payload, digest_size=8).digest())[0]


def _frame(payload: bytes) -> bytes:
    head = (HEAD_MAGIC << 32) | len(payload)
    return _U64.pack(head) + payload + _U64.pack(_guardian(payload))


# ---------------------------------------------------------------------------
# Replay-side scanning
# ---------------------------------------------------------------------------

@dataclass
class DurableScan:
    """Result of validating a device's log area."""

    records: list[LogRecord] = field(default_factory=list)
    #: Bytes of valid frames past LOG_BASE (where a fresh log may resume).
    valid_bytes: int = 0
    #: Bytes discarded as a torn tail (crash mid-group-commit).
    torn_bytes: int = 0
    #: Non-torn guardian/head failures (corruption mid-log); replay stops.
    guardian_mismatches: int = 0
    stop_reason: str = "clean_end"   # clean_end | torn_tail | guardian_mismatch

    @property
    def next_seq(self) -> int:
        """The highest persisted seq: a resumed log appends past it."""
        return self.records[-1].seq if self.records else 0


def scan_log(device: "PMDevice") -> DurableScan:
    """Walk frames from LOG_BASE, guardian-validating each.

    A failure whose suffix (through the device high-water mark) is all
    zero is a *torn tail* — the expected crash artifact — and is simply
    truncated.  A failure followed by non-zero media is corruption; the
    scan stops there and reports it distinctly.
    """
    scan = DurableScan()
    media = device.media
    hi = max(device.hiwater, LOG_BASE)
    off = LOG_BASE

    def _suffix_zero(start: int) -> bool:
        return not any(media[start:hi])

    while off + 8 <= device.capacity:
        head = _U64.unpack_from(media, off)[0]
        if head == 0:
            if not _suffix_zero(off):
                scan.torn_bytes = hi - off
                scan.stop_reason = "torn_tail"
            break
        magic, plen = head >> 32, head & 0xFFFFFFFF
        end = off + 8 + plen + 8
        if magic != HEAD_MAGIC or end > device.capacity:
            # A damaged head word can't be trusted for length; classify by
            # what follows the word itself.
            if _suffix_zero(off + 8):
                scan.torn_bytes = hi - off
                scan.stop_reason = "torn_tail"
            else:
                scan.guardian_mismatches += 1
                scan.stop_reason = "guardian_mismatch"
            break
        payload = bytes(media[off + 8:off + 8 + plen])
        guard = _U64.unpack_from(media, off + 8 + plen)[0]
        record: Optional[LogRecord] = None
        if guard == _guardian(payload):
            try:
                record = LogRecord.decode(payload)
            except ValueError:
                record = None
        if record is None:
            if _suffix_zero(end):
                scan.torn_bytes = hi - off
                scan.stop_reason = "torn_tail"
            else:
                scan.guardian_mismatches += 1
                scan.stop_reason = "guardian_mismatch"
            break
        if record.rtype is RecordType.DATA:
            scan.records.append(record)
        off = end
        scan.valid_bytes = off - LOG_BASE
    return scan


def replay_into(sim: "Simulator", device: "PMDevice", scan: DurableScan,
                store: "ShardStore", config: "SimConfig"):
    """Apply a scan's records in log order (generator; returns count).

    Versions ride each record and are force-applied, so a double replay
    is idempotent: re-applying record *n* rewrites the same version and
    never regresses a newer value (version monotonicity is preserved by
    log order, the same ordering contract the secondary merge path has).
    """
    dur = config.durability
    cost = device.read_cost(LOG_BASE + scan.valid_bytes)
    applied = 0
    for rec in scan.records:
        res = store.apply(rec.op, rec.key, rec.value, version=rec.version)
        cost += dur.replay_apply_ns + res.cost_ns
        applied += 1
    if cost:
        yield sim.timeout(cost)
    return applied


# ---------------------------------------------------------------------------
# Write-behind appender
# ---------------------------------------------------------------------------

class DurableLog:
    """Self-clocked group-commit appender over one :class:`PMDevice`."""

    def __init__(self, sim: "Simulator", config: "SimConfig",
                 device: "PMDevice", metrics: Optional[MetricSet] = None,
                 name: str = "dlog", start_seq: int = 0,
                 tail: int = LOG_BASE) -> None:
        self.sim = sim
        self.config = config
        self.dur = config.durability
        self.device = device
        self.metrics = m = metrics or MetricSet(sim)
        self.name = name
        #: Last sequence number assigned to an append.
        self.seq = start_seq
        #: Highest sequence persisted (its group's frames landed).
        self.flushed_seq = start_seq
        #: Highest sequence whose acks may go out: ``flushed_seq``, or past
        #: it when a full log dropped a group (fail-soft ``log_full``).
        self.released_seq = start_seq
        self.tail = tail
        self.pending: list[LogRecord] = []
        #: Sim time the oldest pending record was staged.
        self._staged_ns = 0
        #: Runs whenever ``released_seq`` advances and on :meth:`crash`:
        #: the shard releases / drops the responses parked behind it.
        self.on_commit: Callable[[], None] = lambda: None
        self.alive = False
        self._arm = Gate(sim)
        self._released = Gate(sim)
        self._proc = None
        self._c_flushes = m.counter("durable.flushes")
        self._c_records = m.counter("durable.records")
        self._c_log_full = m.counter("durable.log_full")
        self._t_group = m.tally("durable.group_records")
        #: Staged -> released, per group: the pipeline's "durable wait".
        self._t_commit_wait = m.tally("durable.commit_wait_ns")

    @property
    def ack_on_flush(self) -> bool:
        return self.dur.ack_mode == "ack_on_flush"

    # -- primary-side hook ---------------------------------------------------
    def append(self, op: Op, key: bytes, value: bytes,
               version: int) -> tuple[int, int]:
        """Stage one record; returns (cpu_cost_ns, log seq).

        Mirrors the replicator hook shape: the caller charges the CPU
        cost and moves on; under ``ack_on_flush`` it holds the response
        until ``released_seq`` reaches the returned sequence number.
        """
        self.seq += 1
        if not self.pending:
            self._staged_ns = self.sim.now
            self._arm.fire()
        self.pending.append(LogRecord(RecordType.DATA, self.seq, op=op,
                                      key=key, value=value, version=version))
        return self.dur.append_cost_ns, self.seq

    def wait_released(self):
        """Block (generator) until everything staged so far is released:
        the batch-less ``ack_on_flush`` wait.  A crashed log never releases."""
        seq = self.seq
        while self.ack_on_flush and self.released_seq < seq:
            yield self._released.wait()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        self.alive = True
        self._proc = self.sim.process(self._flusher(),
                                      name=f"{self.name}.flush")

    def crash(self) -> None:
        """Shard death: tear any in-flight PM write, drop staged records.

        Staged-but-unflushed records are exactly the write-behind
        exposure; under ``ack_on_flush`` none of them were acked on the
        durability path (``released_seq`` never reached them), so losing
        them here cannot lose an acked write.
        """
        self.alive = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("crashed")
        self.device.crash()
        if self.pending:
            self.metrics.counter("durable.lost_pending").add(
                len(self.pending))
        self.pending = []
        self.on_commit()

    # -- flusher -------------------------------------------------------------
    def _flusher(self):
        try:
            while self.alive:
                if not self.pending:
                    yield self._arm.wait()
                    continue
                # Device idle: commit what is staged now; appends during
                # this write form the next group.
                batch, staged_ns = self.pending, self._staged_ns
                self.pending = []
                last = batch[-1].seq
                blob = b"".join(_frame(r.encode()) for r in batch)
                if self.tail + len(blob) > self.device.capacity:
                    # Fail-soft: the replication path still protects these
                    # writes; count loudly so benches can hard-fail on it.
                    self._c_log_full.add(len(batch))
                else:
                    cost = self.device.begin_write(self.tail, blob)
                    yield self.sim.timeout(cost)
                    self.device.commit_write()
                    self.tail += len(blob)
                    self.flushed_seq = last
                    self._c_flushes.add()
                    self._c_records.add(len(batch))
                    self._t_group.observe(len(batch))
                # Persisted or dropped: either way the acks may go out.
                self.released_seq = last
                self._t_commit_wait.observe(self.sim.now - staged_ns)
                self._released.fire()
                self.on_commit()
        except Interrupt:
            pass

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<DurableLog {self.name} seq={self.seq} "
                f"flushed={self.flushed_seq} tail={self.tail}>")
