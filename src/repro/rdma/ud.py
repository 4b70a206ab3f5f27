"""Unreliable Datagram queue pairs (the HERD design point, §3/§4.2.1).

UD endpoints are connectionless: one QP talks to any peer, carries no
connection state on the NIC (so it never pays the QP-cache penalty that
walls off RC scale-up), and a send completes locally without waiting for
any acknowledgement.  The price is reliability: a datagram with no posted
receive at the target — or one that hits the injected loss probability —
vanishes silently.  The paper's position is that enterprise workloads
need RC's guarantees; the ``ud_messaging`` experiment quantifies both
sides of that trade-off.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING

from ..sim.events import Event
from .cq import CompletionQueue
from .verbs import Completion, Opcode, WcStatus

if TYPE_CHECKING:  # pragma: no cover
    from .nic import Nic

__all__ = ["UdQueuePair"]

_ud_qpns = count(0x8000_0001)

#: UD datagrams are MTU-bound; the standard IB MTU is 4096 bytes.
UD_MTU = 4096


class UdQueuePair:
    """A connectionless endpoint bound to one NIC."""

    def __init__(self, sim, nic: "Nic"):
        self.sim = sim
        self.nic = nic
        self.qp_num = next(_ud_qpns)
        self.send_cq = CompletionQueue(sim, f"udqp{self.qp_num}.scq")
        self.recv_cq = CompletionQueue(sim, f"udqp{self.qp_num}.rcq")
        self.recv_queue: list[int] = []
        self._wr_seq = 0

    def _next_wr(self) -> int:
        self._wr_seq += 1
        return self._wr_seq

    def post_recv(self, wr_id: int = 0) -> None:
        self.recv_queue.append(wr_id or self._next_wr())

    def post_send(self, dst: "UdQueuePair", data: bytes) -> Event:
        """Send a datagram to another UD endpoint.

        The returned event fires with the *local* send completion once the
        NIC has put the datagram on the wire — success says nothing about
        delivery (fire-and-forget).
        """
        if len(data) > UD_MTU:
            raise ValueError(
                f"UD datagram of {len(data)}B exceeds the {UD_MTU}B MTU")
        return self.nic.issue_ud_send(self, dst, bytes(data),
                                      self._next_wr())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<UdQP {self.qp_num:#x} nic={self.nic.nic_id}>"


def issue_ud_send(nic: "Nic", src_qp: UdQueuePair, dst_qp: UdQueuePair,
                  data: bytes, wr_id: int) -> Event:
    """NIC-side UD send orchestration (bound as ``Nic.issue_ud_send``)."""
    sim = nic.sim
    ev = Event(sim)
    if not nic.alive:
        ev.succeed(Completion(opcode=Opcode.SEND,
                              status=WcStatus.LOCAL_QP_ERR, wr_id=wr_id,
                              qp_num=src_qp.qp_num))
        return ev
    nic.metrics.counter("rdma.ud_send.ops").add()
    dst_nic = dst_qp.nic
    prop = nic.fabric.prop_ns(nic, dst_nic)
    cfg = nic.cfg

    def after_tx() -> None:
        # Local completion: UD does not wait for the wire, let alone an ack.
        ev.succeed(Completion(opcode=Opcode.SEND, status=WcStatus.SUCCESS,
                              wr_id=wr_id, byte_len=len(data),
                              qp_num=src_qp.qp_num))
        if nic.fabric.ud_dropped():
            nic.metrics.counter("rdma.ud_send.dropped").add()
            return
        fly = sim.timeout(prop)
        fly.callbacks.append(lambda _e: arrive())

    def arrive() -> None:
        if not dst_nic.alive:
            return
        # No QP state fetch for UD: only the flat per-op cost.
        dst_nic.rx.submit(cfg.rx_op_ns + cfg.send_recv_extra_ns, deliver,
                          charged=False)

    def deliver() -> None:
        if not dst_qp.recv_queue:
            dst_nic.metrics.counter("rdma.ud_send.no_recv").add()
            return  # silently dropped: UD has no RNR machinery
        recv_wr = dst_qp.recv_queue.pop(0)
        if sim._tracing:
            sim.trace_wire(b"u%d" % dst_nic.nic_id, recv_wr, data)
        dst_qp.recv_cq.push(Completion(
            opcode=Opcode.RECV, status=WcStatus.SUCCESS, wr_id=recv_wr,
            byte_len=len(data), data=data, qp_num=dst_qp.qp_num))

    # UD TX skips the QP-state fetch: flat cost + serialization only.
    nic.tx.submit(cfg.tx_op_ns + nic.config.fabric.serialization_ns(len(data)),
                  after_tx, charged=False)
    return ev
