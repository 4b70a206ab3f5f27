"""The tenant policy: every client-side QoS decision of one tenant.

A tenant handle (``HydraCluster.client(tenant=..., qos=...)``) holds one
:class:`TenantPolicy`; a default handle holds ``None`` and the client
library then takes no tenant branch at all.  The policy decides
admission (token bucket), slot grants (DRR), both AIMD windows, the
weighted read-window share and the mapping of a server shed to
:class:`~repro.core.errors.TenantThrottled`, and it owns the
``client.tenant.<t>.*`` counters.

State that belongs to a *connection* rather than a tenant — the slot
arbiter, the AIMD controllers, each tenant's outstanding reads and the
per-request bookkeeping the drain needs — lives in one :class:`PipeQos`
hung off the client's connection pipeline.  It stays ``None`` until a
tenant handle uses that connection, and because it hangs off the
pipeline, whichever handle drains a shared pipe releases a tenant's
slot and feeds the AIMD controller.

The client-side hooks call back into the handle for three things the
client library owns: ``_window(pipe)`` (the message window),
``_slot_capacity(pipe)`` (grantable slots) and ``_drain(pipe)``.
"""

from __future__ import annotations

from typing import Optional

from ..core.errors import RequestTimeout, TenantThrottled
from .aimd import AimdController
from .bucket import TokenBucket
from .drr import SlotArbiter

__all__ = ["PipeQos", "TenantPolicy"]


class PipeQos:
    """Tenant state of one connection pipeline, shared by its handles."""

    __slots__ = ("arbiter", "ctl", "read_ctl", "read_use", "req_tenant",
                 "issued_ns")

    def __init__(self):
        #: DRR slot arbiter (created by the first fair-queueing handle).
        self.arbiter: Optional[SlotArbiter] = None
        #: AIMD controllers of the message and one-sided read windows.
        self.ctl: Optional[AimdController] = None
        self.read_ctl: Optional[AimdController] = None
        #: policy -> one-sided reads it has outstanding on this connection.
        self.read_use: dict[TenantPolicy, int] = {}
        #: req_id -> tenant holding its slot (fair-queueing requests).
        self.req_tenant: dict[int, str] = {}
        #: req_id -> issue instant (autotuned requests: RTT samples).
        self.issued_ns: dict[int, int] = {}

    def done(self, handle, pipe, req_id: int, lost: bool = False) -> None:
        """A request's response landed (or, ``lost``, it was abandoned at
        its deadline or a route swap): free its slot grant and feed its
        RTT (or the loss) to the message window's controller.

        The release pumps the arbiter: occupancy caps may have just
        lifted (the releasing tenant can go idle here, shrinking the
        active set), and the tenants it unblocks may have already drained
        every pending response — with no future doorbell to wake them,
        the grant must happen now, not at their timeout.
        """
        tenant = self.req_tenant.pop(req_id, None)
        arb = self.arbiter
        if tenant is not None and arb is not None:
            arb.release(tenant)
            if arb.waiting():
                arb.pump(handle._slot_capacity(pipe),
                         total=handle._window(pipe))
        t0 = self.issued_ns.pop(req_id, None)
        if t0 is not None and self.ctl is not None:
            if lost:
                self.ctl.on_loss()
            else:
                self.ctl.on_ack(handle.sim.now - t0)


class TenantPolicy:
    """Traffic-engineering policy of one tenant (every handle of it).

    ``qos`` is the tenant's :class:`~repro.config.QosConfig`; the cluster
    keeps one policy per tenant name, so every handle of a tenant drains
    one admission bucket and counts into one metric namespace.
    """

    def __init__(self, sim, tenant: str, qos, metrics):
        self.sim = sim
        self.tenant = tenant
        self.qos = qos
        #: Tenant name carried in every request frame ("default": none).
        self.wire = tenant.encode() if tenant != "default" else b""
        #: Admission bucket (``qos.rate_ops``; None = unthrottled).
        self.bucket = (TokenBucket(qos.rate_ops, qos.burst, now_ns=sim.now)
                       if qos.rate_ops > 0 else None)
        tm = metrics.scoped(f"client.tenant.{tenant}")
        self.ops = tm.counter("ops")
        self.throttled = tm.counter("throttled")
        self.server_shed = tm.counter("server_shed")
        self.slot_grants = tm.counter("slot_grants")
        self.slot_wait = tm.tally("slot_wait_ns")

    def state(self, pipe) -> PipeQos:
        """The pipeline's tenant state, attached on first tenant use."""
        pq = pipe.qos
        if pq is None:
            pq = pipe.qos = PipeQos()
        return pq

    # -- admission ---------------------------------------------------------
    def admit(self, client_id: str, deadline: Optional[int], opname: str,
              n: int):
        """Token-bucket admission of ``n`` ops (``qos.rate_ops``).

        Waits out the bucket refill under the deadline budget; when the
        budget cannot cover the wait (or there is no budget to sleep
        under) the op fails *promptly* with :class:`TenantThrottled`
        carrying the ``retry_after_ns`` hint — never a silent stall.

        Batches larger than the bucket depth are admitted in burst-sized
        chunks, so a multi-op call always makes progress instead of
        asking for more tokens than can ever accrue at once.
        """
        bucket = self.bucket
        if bucket is None:
            return
        chunk = max(1, int(bucket.burst))
        while n > 0:
            take_n = min(n, chunk)
            wait_ns = bucket.take(self.sim.now, take_n)
            if wait_ns == 0:
                n -= take_n
                continue
            self.throttled.add()
            if deadline is None or wait_ns >= deadline - self.sim.now:
                raise TenantThrottled(
                    f"{client_id}: {opname} admission refused for "
                    f"tenant {self.tenant!r}",
                    retry_after_ns=wait_ns, tenant=self.tenant)
            yield self.sim.timeout(wait_ns)

    def shed(self, client_id: str, resp) -> TenantThrottled:
        """The error a ``Status.THROTTLED`` response (server shed) raises;
        the retry engine sleeps out its hint under the deadline budget."""
        self.server_shed.add()
        return TenantThrottled(
            f"{client_id}: shard shed {resp.op.name} for tenant "
            f"{self.tenant!r}",
            retry_after_ns=resp.retry_after_ns, tenant=self.tenant)

    # -- message slots -----------------------------------------------------
    def window(self, pipe, static: int) -> int:
        """Message-path window: AIMD-governed with ``qos.autotune``, else
        the static ``client.max_inflight_per_conn``."""
        if not self.qos.autotune:
            return max(1, static)
        pq = self.state(pipe)
        if pq.ctl is None:
            pq.ctl = self._aimd(static)
        return pq.ctl.window

    def _aimd(self, static: int) -> AimdController:
        return AimdController.from_config(self.qos, initial=max(1, static))

    def acquire(self, handle, pipe, shard, deadline: int):
        """DRR-arbitrated slot acquisition (``qos.fair_queueing``);
        returns False at once when the tenant does not queue fairly.

        Submits a ticket to the pipeline's arbiter and blocks until it is
        granted in deficit-round-robin order across tenants.  Every
        waiter pumps the arbiter when it wakes, so grants happen in DRR
        order no matter whose process observes the freed capacity first.
        There is no simulated yield between the grant and the slot take
        in ``issue``, so a grant is a safe reservation.  The ticket is
        cancelled when ``deadline`` passes or a route swap deposes
        ``shard``.
        """
        if not self.qos.fair_queueing:
            return False
        pq = self.state(pipe)
        arb = pq.arbiter
        if arb is None:
            arb = pq.arbiter = SlotArbiter(self.sim, self.qos.drr_quantum)
        conn = pipe.conn
        sim = self.sim
        ticket = arb.submit(self.tenant, self.qos.weight)
        t0 = sim.now
        while True:
            arb.pump(handle._slot_capacity(pipe), total=handle._window(pipe))
            if ticket.granted:
                arb.consume(ticket)
                self.slot_grants.add()
                self.slot_wait.observe(sim.now - t0)
                return True
            drained = yield from handle._drain(pipe)
            if drained:
                continue
            remaining = deadline - sim.now
            if remaining <= 0 or shard.deposed:
                arb.cancel(ticket)
                if arb.waiting():
                    # A cancelled grant frees capacity other tenants may
                    # already be asleep waiting for.
                    arb.pump(handle._slot_capacity(pipe),
                             total=handle._window(pipe))
                raise RequestTimeout(
                    f"{handle.client_id}: window full and shard silent "
                    f"(conn {conn.conn_id})")
            yield sim.any_of([ticket.gate.wait(),
                              conn.client_doorbell.wait(),
                              sim.timeout(remaining)])

    def posted(self, pipe, req_id: int) -> None:
        """A request went out: hold its slot grant, stamp its RTT sample."""
        if self.qos.fair_queueing:
            self.state(pipe).req_tenant[req_id] = self.tenant
        if self.qos.autotune:
            self.state(pipe).issued_ns[req_id] = self.sim.now

    # -- one-sided reads ---------------------------------------------------
    def read_room(self, pq: PipeQos, static: int) -> int:
        """Reads this tenant may still post on the connection: its
        weight's share of the (AIMD-governed with ``qos.autotune``, else
        static ``client.max_inflight_reads``) read window across the
        tenants with reads outstanding there, minus its own."""
        if not self.qos.autotune:
            total = max(1, static)
        else:
            if pq.read_ctl is None:
                pq.read_ctl = self._aimd(static)
            total = pq.read_ctl.window
        use = pq.read_use
        w_sum = self.qos.weight + sum(p.qos.weight for p, u in use.items()
                                      if u > 0 and p is not self)
        limit = max(1, int(total * self.qos.weight / w_sum))
        return limit - use.get(self, 0)

    def reads_posted(self, pq: PipeQos, n: int) -> None:
        pq.read_use[self] = pq.read_use.get(self, 0) + n

    def reads_landed(self, pq: PipeQos, n: int, wcs, post_ns: int) -> None:
        """A read chain of ``n`` completed with completions ``wcs``."""
        if self in pq.read_use:
            pq.read_use[self] = max(0, pq.read_use[self] - n)
        if wcs and self.qos.autotune:
            if all(wc.ok for wc in wcs):
                pq.read_ctl.on_ack(max(wc.ns for wc in wcs) - post_ns)
            else:
                pq.read_ctl.on_loss()
