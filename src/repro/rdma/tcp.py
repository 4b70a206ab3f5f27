"""Kernel TCP transport (IPoIB) for the baselines and HydraDB-TCP mode.

Unlike the RDMA path, every message costs *CPU* on both ends: the sender
burns ``kernel_tx_ns`` inside :meth:`TcpConnection.send` (the returned event
is the syscall returning) and the receiver burns ``kernel_rx_ns`` before
:meth:`TcpConnection.recv` hands the message over.  Serialization shares a
per-machine wire engine, and effective IPoIB goodput is well below the
InfiniBand line rate.  This is the architectural gap Figs. 2 and 9 price.
"""

from __future__ import annotations

from typing import Any

from ..config import SimConfig
from ..hardware.machine import Machine
from ..sim import Simulator, Store
from ..sim.events import Event
from .nic import _Engine

__all__ = ["TcpNetwork", "TcpStack", "TcpConnection", "TcpError"]


class TcpError(Exception):
    """Connection-level failure (peer dead, no listener)."""


class TcpConnection:
    """One direction-pair of an established connection."""

    def __init__(self, sim: Simulator, network: "TcpNetwork",
                 local: "TcpStack", remote: "TcpStack"):
        self.sim = sim
        self.network = network
        self.local = local
        self.remote = remote
        self._inbox = Store(sim)
        self.peer: "TcpConnection" = None  # type: ignore[assignment]
        self.open = True

    def _wire(self, other: "TcpConnection") -> None:
        self.peer = other
        other.peer = self

    def close(self) -> None:
        self.open = False
        if self.peer is not None:
            self.peer.open = False

    def _land(self, payload: Any, nbytes: int) -> None:
        """Hand one inbound message to this socket's inbox."""
        sim = self.sim
        if sim._tracing:
            # Modelled (non-bytes) payloads fold their size only.
            data = payload if isinstance(payload, bytes) else b""
            sim.trace_wire(b"t%d>%d:%d" % (self.remote.machine.machine_id,
                                           self.local.machine.machine_id,
                                           nbytes), 0, data)
        self._inbox.put((payload, nbytes))

    def send(self, payload: Any, nbytes: int) -> Event:
        """Transmit ``payload``; yields back when the syscall returns.

        Delivery to the peer's inbox happens later (wire + stack delays).
        A send into a dead peer is silently dropped, like a real half-open
        connection; the caller's application timeout catches it.
        """
        if not self.open:
            raise TcpError("send on closed connection")
        inj = self.network.fault_injector
        if inj is not None:
            verdict = inj.tcp_fault(self, payload, nbytes)
            if verdict == "reset":
                # RST from the middle of the network: both sides observe
                # the connection dying; this send fails synchronously.
                self.close()
                raise TcpError("connection reset (injected)")
            if verdict == "short" and isinstance(payload, (bytes, bytearray)) \
                    and len(payload) > 1:
                # Short read: the peer's recv returns a truncated message
                # (framing torn across a segment boundary); the receiver's
                # decode-and-reject path must handle it.
                cut = max(1, len(payload) // 2)
                payload = bytes(payload[:cut])
                nbytes = max(1, nbytes // 2)
        cfg = self.network.config.tcp
        syscall = self.sim.timeout(cfg.kernel_tx_ns)
        prop = self.network.prop_ns(self.local, self.remote)
        peer_conn = self.peer

        def _handed_to_wire(_e: Event) -> None:
            self.local.wire.submit(cfg.serialization_ns(nbytes), _in_flight,
                                   charged=False)

        def _in_flight() -> None:
            fly = self.sim.timeout(prop)
            fly.callbacks.append(lambda _e: _arrive())

        def _arrive() -> None:
            if not self.remote.alive:
                return
            # All inbound messages on the target machine serialize through
            # the softirq path before reaching any socket.
            self.remote.softirq.submit(
                cfg.softirq_rx_ns,
                lambda: peer_conn._land(payload, nbytes)
                if peer_conn.open else None,
                charged=False,
            )

        syscall.callbacks.append(_handed_to_wire)
        return syscall

    def send_many(self, payloads: list[tuple[Any, int]]) -> Event:
        """Batched transmit: one syscall's CPU charge for N messages.

        The writev()/TCP_CORK analogue of :meth:`send` — the kernel TX
        path is crossed once for the whole batch, while each payload
        still pays its own serialization, propagation, and softirq RX
        (the wire does not get faster, only the sender's CPU).  Faults
        are consulted per payload; an injected reset kills the
        connection and the rest of the batch with it, surfaced as the
        returned event failing.
        """
        if not self.open:
            raise TcpError("send on closed connection")
        if not payloads:
            raise ValueError("empty send_many batch")
        inj = self.network.fault_injector
        staged: list[tuple[Any, int]] = []
        reset = False
        for payload, nbytes in payloads:
            if inj is not None:
                verdict = inj.tcp_fault(self, payload, nbytes)
                if verdict == "reset":
                    self.close()
                    reset = True
                    break
                if verdict == "short" \
                        and isinstance(payload, (bytes, bytearray)) \
                        and len(payload) > 1:
                    cut = max(1, len(payload) // 2)
                    payload = bytes(payload[:cut])
                    nbytes = max(1, nbytes // 2)
            staged.append((payload, nbytes))
        cfg = self.network.config.tcp
        syscall = self.sim.timeout(cfg.kernel_tx_ns)
        prop = self.network.prop_ns(self.local, self.remote)
        peer_conn = self.peer

        def _deliver(payload: Any, nbytes: int) -> None:
            def _in_flight() -> None:
                fly = self.sim.timeout(prop)
                fly.callbacks.append(lambda _e: _arrive())

            def _arrive() -> None:
                if not self.remote.alive:
                    return
                # Payloads staged before an injected RST predate it on
                # the wire: the peer reads them before observing the
                # reset, so the mid-batch close does not eat the prefix.
                self.remote.softirq.submit(
                    cfg.softirq_rx_ns,
                    lambda: peer_conn._land(payload, nbytes)
                    if (peer_conn.open or reset) else None,
                    charged=False,
                )

            self.local.wire.submit(cfg.serialization_ns(nbytes), _in_flight,
                                   charged=False)

        def _handed_to_wire(_e: Event) -> None:
            for payload, nbytes in staged:
                _deliver(payload, nbytes)

        out = Event(self.sim)

        def _done(_e: Event) -> None:
            _handed_to_wire(_e)
            if reset:
                out.fail(TcpError("connection reset (injected)"))
            else:
                out.succeed(len(staged))

        syscall.callbacks.append(_done)
        return out

    def recv(self) -> Event:
        """Event yielding ``(payload, nbytes)`` after kernel RX processing."""
        got = self._inbox.get()
        out = Event(self.sim)
        cfg = self.network.config.tcp

        def _arrived(ev: Event) -> None:
            stack_delay = self.sim.timeout(cfg.kernel_rx_ns)
            stack_delay.callbacks.append(lambda _e: out.succeed(ev.value))

        got.callbacks.append(_arrived)
        return out

    def try_recv(self) -> tuple[bool, Any]:
        """Non-blocking poll of the inbox (no RX cost charged; callers that
        poll must charge their own loop costs)."""
        return self._inbox.try_get()


class TcpStack:
    """Per-machine kernel networking state."""

    def __init__(self, sim: Simulator, network: "TcpNetwork",
                 machine: Machine):
        self.sim = sim
        self.network = network
        self.machine = machine
        self.wire = _Engine(sim)
        self.softirq = _Engine(sim)
        self.listeners: dict[int, Store] = {}
        self.alive = True

    def listen(self, port: int) -> Store:
        """Open a listener; returns the accept queue of inbound connections."""
        if port in self.listeners:
            raise TcpError(f"port {port} already bound")
        q = Store(self.sim)
        self.listeners[port] = q
        return q

    def connect(self, remote: "TcpStack", port: int) -> Event:
        """Three-way-handshake; yields the client-side connection."""
        if not self.alive:
            raise TcpError("local stack down")
        out = Event(self.sim)
        rtt = 2 * self.network.prop_ns(self, remote)
        cfg = self.network.config.tcp
        handshake = self.sim.timeout(rtt + cfg.kernel_tx_ns + cfg.kernel_rx_ns)

        def _done(_e: Event) -> None:
            listener = remote.listeners.get(port)
            if listener is None or not remote.alive:
                out.fail(TcpError(f"connection refused to port {port}"))
                return
            client_side = TcpConnection(self.sim, self.network, self, remote)
            server_side = TcpConnection(self.sim, self.network, remote, self)
            client_side._wire(server_side)
            listener.put(server_side)
            out.succeed(client_side)

        handshake.callbacks.append(_done)
        return out

    def fail(self) -> None:
        self.alive = False


class TcpNetwork:
    """The IPoIB overlay over the same physical switch."""

    def __init__(self, sim: Simulator, config: SimConfig):
        self.sim = sim
        self.config = config
        self.stacks: list[TcpStack] = []
        #: Optional chaos hook (:class:`repro.chaos.FaultInjector`): when
        #: set, every send consults it for reset / short-read decisions.
        self.fault_injector = None

    def attach(self, machine: Machine) -> TcpStack:
        if machine.tcp is not None:
            raise ValueError(f"{machine!r} already has a TCP stack")
        stack = TcpStack(self.sim, self, machine)
        self.stacks.append(stack)
        machine.tcp = stack
        return stack

    def prop_ns(self, a: TcpStack, b: TcpStack) -> int:
        if a is b:
            return 2_000  # loopback skips the wire but not the stack
        return self.config.tcp.propagation_ns
