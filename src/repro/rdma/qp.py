"""Reliable-connected queue pairs.

A QP is the application-facing handle: it validates destinations, resolves
remote pointers against the fabric's registration table, and hands the op
to its NIC.  Receive queues live here (two-sided mode only).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, TYPE_CHECKING

from ..sim.events import Event
from .cq import CompletionQueue
from .memory import MemoryRegion
from .verbs import ReadWorkRequest, RemotePointer, WriteWorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from .nic import Nic

__all__ = ["QueuePair", "QpError"]


class QpError(Exception):
    """Misuse of a queue pair (bad peer, unresolvable rkey, dead QP)."""


class QueuePair:
    """One end of an RC connection."""

    def __init__(self, sim, nic: "Nic", qp_num: int):
        self.sim = sim
        self.nic = nic
        self.qp_num = qp_num
        self.peer: "QueuePair" = None  # type: ignore[assignment]
        self.send_cq = CompletionQueue(sim, f"qp{qp_num}.scq")
        self.recv_cq = CompletionQueue(sim, f"qp{qp_num}.rcq")
        self.recv_queue: Deque[int] = deque()
        self.connected = False
        self._wr_seq = 0

    # -- wiring ------------------------------------------------------------
    def _connect(self, peer: "QueuePair") -> None:
        self.peer = peer
        self.connected = True
        self.nic.qps.append(self)
        self.nic._qps_changed()

    def destroy(self) -> None:
        """Tear the QP down (e.g. on connection close / process death)."""
        if self in self.nic.qps:
            self.nic.qps.remove(self)
            self.nic._qps_changed()
        self.connected = False

    def force_error(self) -> None:
        """Drive the QP pair into the error state (spontaneous flap).

        Models a transport-level RC error (retry exhaustion, CRC storm,
        port bounce) that kills one connection without taking the NIC
        down: both endpoints become unusable, subsequent posts raise
        :class:`QpError`, and the application must reconnect.  Used by
        the chaos fault injector.
        """
        if self.peer is not None:
            self.peer.destroy()
        self.destroy()

    def flush(self) -> None:
        """Move this end to the error state, as ``ibv_modify_qp`` does:
        its outstanding WQEs complete ``WR_FLUSH_ERR`` and later posts
        raise :class:`QpError`."""
        self.connected = False
        self.nic.flush(self)

    @property
    def usable(self) -> bool:
        """True while posts on this QP can still make progress.

        A QP stops being usable when either endpoint tears it down
        (``destroy``) or either NIC dies — a retrying client probes this
        before reusing a cached connection so it reconnects up front
        instead of burning an operation timeout on a black-holed post.
        """
        return (self.connected and self.peer is not None
                and self.nic.alive and self.peer.nic.alive)

    def _next_wr(self, wr_id: int) -> int:
        if wr_id:
            return wr_id
        self._wr_seq += 1
        return self._wr_seq

    def _resolve(self, rptr: RemotePointer) -> MemoryRegion:
        nic, region = self.nic.fabric.lookup(rptr.rkey)
        if nic is not self.peer.nic:
            raise QpError(
                f"rkey {rptr.rkey} belongs to nic {nic.nic_id}, but this QP "
                f"connects to nic {self.peer.nic.nic_id}"
            )
        return region

    def _check_connected(self) -> None:
        if not self.connected or self.peer is None:
            raise QpError("queue pair is not connected")

    # -- verbs ---------------------------------------------------------------
    def post_write(self, rptr: RemotePointer, data: bytes,
                   wr_id: int = 0, signaled: bool = True) -> "Event | bool":
        """One-sided RDMA Write of ``data`` at the remote pointer.

        Returns the completion event; the write is visible at the target at
        remote-delivery time (earlier than the initiator's completion).
        ``signaled=False`` (verbs: ``IBV_SEND_SIGNALED`` clear) requests no
        completion at all: the bytes land identically, a transport failure
        goes unreported, and the return value is False only if the post
        itself failed (``LOCAL_QP_ERR``: dead local NIC).
        """
        self._check_connected()
        if len(data) > rptr.length:
            raise QpError(
                f"write of {len(data)}B exceeds remote extent {rptr.length}B"
            )
        region = self._resolve(rptr)
        return self.nic.issue_write(self, region, rptr.offset, data,
                                    self._next_wr(wr_id), signaled=signaled)

    def post_read(self, rptr: RemotePointer, wr_id: int = 0) -> Event:
        """One-sided RDMA Read of the full remote-pointer extent."""
        self._check_connected()
        region = self._resolve(rptr)
        return self.nic.issue_read(self, region, rptr.offset, rptr.length,
                                   self._next_wr(wr_id))

    def post_read_batch(self, requests) -> Event:
        """Post a chain of one-sided Reads with one coalesced doorbell.

        ``requests`` may mix :class:`RemotePointer` and
        :class:`ReadWorkRequest` entries.  Returns **one** batch event
        that fires with a flat ``list[Completion]`` in request order once
        the whole chain has completed.  An entry whose rkey does not
        resolve against this QP's peer completes with ``LOCAL_QP_ERR`` —
        the remaining WQEs in the chain still post (the caller demotes the
        failed key individually, exactly as it would a dead item).
        """
        self._check_connected()
        prepared = []
        for req in requests:
            if isinstance(req, RemotePointer):
                req = ReadWorkRequest(rptr=req)
            try:
                region = self._resolve(req.rptr)
            except QpError:
                region = None
            prepared.append((region, req.rptr.offset, req.rptr.length,
                             self._next_wr(req.wr_id)))
        return self.nic.issue_read_batch(self, prepared)

    def post_write_batch(self, requests,
                         signaled: bool = True) -> "Event | int":
        """Post a chain of one-sided Writes with one coalesced doorbell.

        The write-side twin of :meth:`post_read_batch`: ``requests`` may
        mix :class:`WriteWorkRequest` entries and bare
        ``(RemotePointer, bytes)`` pairs.  Returns **one** batch event
        firing with ``list[Completion]`` in request order once the whole
        chain has completed.  An oversized payload or an entry whose rkey
        does not resolve against this QP's peer completes with
        ``LOCAL_QP_ERR`` — the remaining WQEs in the chain still post.
        RC delivery keeps the chain in post order at the target, so a
        shard can land all of a sweep's responses for one connection in
        slot order before the single doorbell.  ``signaled=False``: no
        completions; returns the number of ``LOCAL_QP_ERR`` entries.
        """
        self._check_connected()
        prepared = []
        for req in requests:
            if not isinstance(req, WriteWorkRequest):
                rptr, data = req
                req = WriteWorkRequest(rptr=rptr, data=data)
            region = None
            if len(req.data) <= req.rptr.length:
                try:
                    region = self._resolve(req.rptr)
                except QpError:
                    region = None
            prepared.append((region, req.rptr.offset, req.data,
                             self._next_wr(req.wr_id)))
        return self.nic.issue_write_batch(self, prepared, signaled)

    def post_send(self, data: bytes, wr_id: int = 0) -> Event:
        """Two-sided Send; consumes a posted receive at the peer."""
        self._check_connected()
        return self.nic.issue_send(self, bytes(data), self._next_wr(wr_id))

    def post_recv(self, wr_id: int = 0) -> None:
        """Post a receive WQE (two-sided mode)."""
        self.recv_queue.append(self._next_wr(wr_id))

    def __repr__(self) -> str:  # pragma: no cover
        peer = self.peer.qp_num if self.peer else None
        return f"<QP {self.qp_num} nic={self.nic.nic_id} peer={peer}>"
