"""Verb-layer types: opcodes, work completions, remote pointers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional

__all__ = ["Opcode", "WcStatus", "Completion", "CompletionPool",
           "RemotePointer", "ReadWorkRequest", "WriteWorkRequest",
           "RdmaError"]


class Opcode(Enum):
    RDMA_WRITE = auto()
    RDMA_READ = auto()
    SEND = auto()
    RECV = auto()


class WcStatus(Enum):
    SUCCESS = auto()
    #: Remote access error (bad rkey / out-of-bounds).
    REM_ACCESS_ERR = auto()
    #: Receiver had no posted receive (RNR retries exhausted).
    RNR_RETRY_EXC = auto()
    #: Peer NIC/machine unreachable (retry exceeded) — failover trigger.
    RETRY_EXC = auto()
    #: QP transitioned to error state locally.
    LOCAL_QP_ERR = auto()
    #: The QP was moved to the error state with this WQE outstanding.
    WR_FLUSH_ERR = auto()


class RdmaError(Exception):
    """Raised into a process that waits on a failed completion."""

    def __init__(self, completion: "Completion"):
        super().__init__(f"RDMA {completion.opcode.name} failed: "
                         f"{completion.status.name}")
        self.completion = completion


@dataclass(slots=True)
class Completion:
    """A work completion (CQE)."""

    opcode: Opcode
    status: WcStatus
    wr_id: int = 0
    byte_len: int = 0
    #: For RDMA_READ and RECV completions: the fetched / received bytes.
    data: Optional[bytes] = None
    #: QP number the completion belongs to.
    qp_num: int = -1
    #: Sim time the CQE landed (stamped by batch collection; -1 when the
    #: completion was delivered through its own event and the consumer
    #: already knows the arrival time).
    ns: int = -1
    #: Freelist bookkeeping: True while the record is checked out of a
    #: :class:`CompletionPool` (never set on plain constructions).
    _live: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS


class CompletionPool:
    """Freelist of recycled :class:`Completion` records.

    Doorbell chains (``Nic.issue_read_batch`` / signaled
    ``issue_write_batch``) deliver their completions as pooled records
    instead of allocating a fresh CQE object per WQE.  ``acquire`` hands
    out a record that is guaranteed not to sit in any other in-flight
    chain (records return to the freelist only through an explicit
    ``release``); consumers that have finished reading a chain release
    its records so the next doorbell batch can reuse them.  A record that
    is never released is simply garbage-collected — correct, just not
    recycled — so fire-and-forget posts need no bookkeeping.
    """

    __slots__ = ("_free", "allocated", "recycled")

    def __init__(self) -> None:
        self._free: list[Completion] = []
        #: Lifetime stats, surfaced by the freelist tests and benches.
        self.allocated = 0
        self.recycled = 0

    def __len__(self) -> int:
        return len(self._free)

    def acquire(self, opcode: Opcode, status: WcStatus, wr_id: int = 0,
                byte_len: int = 0, data: Optional[bytes] = None,
                qp_num: int = -1, ns: int = -1) -> Completion:
        free = self._free
        if free:
            wc = free.pop()
            self.recycled += 1
            wc.opcode = opcode
            wc.status = status
            wc.wr_id = wr_id
            wc.byte_len = byte_len
            wc.data = data
            wc.qp_num = qp_num
            wc.ns = ns
        else:
            self.allocated += 1
            wc = Completion(opcode, status, wr_id, byte_len, data, qp_num, ns)
        wc._live = True
        return wc

    def release(self, wc: Completion) -> None:
        """Return ``wc`` to the freelist.

        Raises on double-release (or on a record that never came from a
        pool): a released record may already be live in another chain, so
        recycling it twice would alias two in-flight CQEs.
        """
        if not wc._live:
            raise ValueError("completion released twice or not pool-owned")
        wc._live = False
        wc.data = None
        self._free.append(wc)

    def release_all(self, wcs) -> None:
        for wc in wcs:
            self.release(wc)


@dataclass(frozen=True)
class RemotePointer:
    """A one-sided-access capability: (rkey, offset, length).

    HydraDB servers hand these to clients for RDMA-Read GETs (§4.2.2);
    the replication log exposes one for the whole ring (§5.2).
    """

    rkey: int
    offset: int
    length: int

    def slice(self, rel_offset: int, length: int) -> "RemotePointer":
        if rel_offset < 0 or rel_offset + length > self.length:
            raise ValueError("slice outside remote pointer extent")
        return RemotePointer(self.rkey, self.offset + rel_offset, length)


@dataclass(frozen=True)
class ReadWorkRequest:
    """One entry of a doorbell-coalesced RDMA-Read batch.

    ``QueuePair.post_read_batch`` accepts a chain of these (or bare
    :class:`RemotePointer` targets); the NIC rings one doorbell for the
    whole chain and every WQE after the first skips the MMIO write
    (``NicConfig.doorbell_ns``).
    """

    rptr: RemotePointer
    wr_id: int = 0


@dataclass(frozen=True)
class WriteWorkRequest:
    """One entry of a doorbell-coalesced RDMA-Write batch.

    The write-side twin of :class:`ReadWorkRequest`:
    ``QueuePair.post_write_batch`` accepts a chain of these, rings one
    doorbell for the whole chain, and — because RC delivers per-QP in
    post order — guarantees the writes land at the target in chain
    order.  HydraDB shards use this to flush every response of one sweep
    to a connection with a single MMIO write.
    """

    rptr: RemotePointer
    data: bytes
    wr_id: int = 0
