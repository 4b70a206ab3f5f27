"""Deficit-round-robin fair queueing across tenants.

:class:`DeficitRoundRobin` is the pure scheduling math (Shreedhar &
Varghese DRR with unit-cost items and per-tenant weights) — no simulator
dependency, unit-testable by pushing items and popping grants.

:class:`SlotArbiter` wraps it into the client's slot-acquisition
protocol: tenant handles submit *tickets* for a message slot on a shared
connection pipeline; whenever capacity frees up (responses drained, a
waiter wakes), ``pump(capacity)`` grants tickets in DRR order and fires
each ticket's gate so its owning process resumes.  Granted-but-not-yet-
posted tickets reserve capacity (``outstanding``) so concurrent pumps at
one sim instant never over-grant the window.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from ..sim import Gate

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

__all__ = ["DeficitRoundRobin", "SlotArbiter"]


class DeficitRoundRobin:
    """Weighted DRR over named per-tenant FIFO queues (unit-cost items).

    Each round a tenant's deficit grows by ``quantum * weight``; items
    are served while the deficit covers their (unit) cost.  A tenant
    whose queue empties leaves the round ring and forfeits its deficit,
    so idle tenants cannot bank credit — the standard DRR property that
    bounds any backlogged tenant's service share to its weight share.
    """

    def __init__(self, quantum: float = 1.0):
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self._queues: dict[str, deque] = {}
        self._weights: dict[str, float] = {}
        self._deficit: dict[str, float] = {}
        #: Active (backlogged) tenants in round order; head is served next.
        self._ring: deque[str] = deque()
        #: Tenants already topped up on the current ring visit.
        self._topped: set[str] = set()

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def pending(self, tenant: str) -> int:
        q = self._queues.get(tenant)
        return len(q) if q else 0

    def enqueue(self, tenant: str, item, weight: float = 1.0) -> None:
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = deque()
        self._weights[tenant] = max(weight, 1e-9)
        if not q and tenant not in self._ring:
            self._ring.append(tenant)
            self._deficit.setdefault(tenant, 0.0)
        q.append(item)

    def remove(self, tenant: str, item) -> bool:
        """Withdraw a queued item (e.g. a cancelled ticket)."""
        q = self._queues.get(tenant)
        if not q:
            return False
        try:
            q.remove(item)
        except ValueError:
            return False
        return True

    def next(self, eligible=None):
        """Serve the next ``(tenant, item)`` in DRR order, or ``None``.

        ``eligible`` (optional predicate on the tenant name) lets the
        caller veto tenants mid-round — the slot arbiter uses it to skip
        tenants already at their weighted occupancy share.  A vetoed
        tenant rotates to the ring tail without being served; when every
        backlogged tenant is vetoed the call returns ``None``.
        """
        ring = self._ring
        skipped = 0
        while ring and skipped < len(ring):
            tenant = ring[0]
            q = self._queues.get(tenant)
            if not q:
                # Queue drained (served dry or items withdrawn): leave
                # the round and forfeit the unspent deficit.
                ring.popleft()
                self._topped.discard(tenant)
                self._deficit[tenant] = 0.0
                continue
            if eligible is not None and not eligible(tenant):
                ring.rotate(-1)
                self._topped.discard(tenant)
                skipped += 1
                continue
            if tenant not in self._topped:
                self._deficit[tenant] += self.quantum * self._weights[tenant]
                self._topped.add(tenant)
            if self._deficit[tenant] >= 1.0:
                item = q.popleft()
                self._deficit[tenant] -= 1.0
                if not q:
                    ring.popleft()
                    self._topped.discard(tenant)
                    self._deficit[tenant] = 0.0
                return tenant, item
            # Deficit spent: rotate to the tail for the next round.
            ring.rotate(-1)
            self._topped.discard(tenant)
        return None


class _Ticket:
    """One pending slot acquisition by one tenant handle."""

    __slots__ = ("tenant", "gate", "granted", "done")

    def __init__(self, tenant: str, gate: Gate):
        self.tenant = tenant
        self.gate = gate
        self.granted = False
        self.done = False


class SlotArbiter:
    """DRR arbitration of message-slot grants on one connection pipeline.

    Protocol (see ``TenantPolicy.acquire``): ``submit()`` a ticket,
    then loop — ``pump(avail, total)``, check ``ticket.granted``,
    otherwise block on the ticket's gate / the connection doorbell / the
    deadline.  Whoever frees capacity also pumps, so grants happen in
    DRR order no matter which process wakes first.  ``consume()``
    converts a grant into a real in-flight request; ``release()``
    returns the slot when its response lands (or times out);
    ``cancel()`` returns a grant (or withdraws a queued ticket) when
    the waiter gives up.

    Beyond grant *order*, the arbiter enforces weighted *occupancy*:
    while several tenants are active (waiting or with slots in flight),
    each is capped at its weight's share of the total window, so an
    aggressor that pipelines deeply cannot hold more than its share of
    slots no matter how fast it re-submits.  The moment a tenant goes
    fully idle it leaves the active set and its share spills to the
    rest — work-conserving across tenant busy periods.
    """

    def __init__(self, sim: "Simulator", quantum: float = 1.0):
        self.sim = sim
        self.drr = DeficitRoundRobin(quantum)
        #: Grants not yet consumed: reserved capacity.
        self.outstanding = 0
        #: Per-tenant slots currently in flight (consumed, not released).
        self.inflight: dict[str, int] = {}
        #: Per-tenant grants not yet consumed (reserved slots).
        self.reserved: dict[str, int] = {}

    def submit(self, tenant: str, weight: float = 1.0) -> _Ticket:
        ticket = _Ticket(tenant, Gate(self.sim))
        self.drr.enqueue(tenant, ticket, weight=weight)
        return ticket

    def waiting(self) -> int:
        return len(self.drr)

    def occupancy(self, tenant: str) -> int:
        """Slots this tenant holds right now (in flight + reserved)."""
        return (self.inflight.get(tenant, 0)
                + self.reserved.get(tenant, 0))

    def _caps(self, total: int) -> Optional[dict[str, float]]:
        """Weighted occupancy cap per active tenant (None = no cap).

        Active = backlogged in the DRR ring or holding slots.  With one
        (or zero) active tenants there is nothing to share, so no cap.
        """
        active = set(self.drr._ring)
        active.update(t for t, n in self.inflight.items() if n > 0)
        active.update(t for t, n in self.reserved.items() if n > 0)
        if len(active) < 2:
            return None
        wsum = sum(self.drr._weights.get(t, 1.0) for t in active)
        return {t: max(1.0, total * self.drr._weights.get(t, 1.0) / wsum)
                for t in active}

    def pump(self, avail: int, total: Optional[int] = None) -> int:
        """Grant up to ``avail - outstanding`` tickets in DRR order,
        holding every tenant under its weighted share of ``total``
        (defaults to ``avail``) while others are active."""
        avail -= self.outstanding
        caps = self._caps(total if total is not None else avail)
        eligible = (None if caps is None else
                    (lambda t: self.occupancy(t) < caps.get(t, float("inf"))))
        n = 0
        while avail > 0:
            nxt = self.drr.next(eligible=eligible)
            if nxt is None:
                break
            tenant, ticket = nxt
            ticket.granted = True
            self.outstanding += 1
            self.reserved[tenant] = self.reserved.get(tenant, 0) + 1
            ticket.gate.fire(ticket)
            avail -= 1
            n += 1
        return n

    def consume(self, ticket: _Ticket) -> None:
        """The granted ticket's request is now posted; release the hold."""
        if ticket.done:
            return
        ticket.done = True
        self.outstanding -= 1
        if self.reserved.get(ticket.tenant, 0) > 0:
            self.reserved[ticket.tenant] -= 1
        self.inflight[ticket.tenant] = (
            self.inflight.get(ticket.tenant, 0) + 1)

    def release(self, tenant: str) -> None:
        """A posted request's slot freed (response landed / timed out)."""
        if self.inflight.get(tenant, 0) > 0:
            self.inflight[tenant] -= 1

    def cancel(self, ticket: _Ticket) -> None:
        """Waiter gave up (deadline): withdraw or return the grant."""
        if ticket.done:
            return
        ticket.done = True
        if ticket.granted:
            self.outstanding -= 1
            if self.reserved.get(ticket.tenant, 0) > 0:
                self.reserved[ticket.tenant] -= 1
        else:
            self.drr.remove(ticket.tenant, ticket)
