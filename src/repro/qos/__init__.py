"""Traffic engineering for multi-tenant clients.

One seam: a tenant handle (``HydraCluster.client(tenant=..., qos=...)``)
holds a :class:`TenantPolicy`, and every client-side tenant decision is
made there — a default handle holds ``None`` and carries no tenant
state.  The policy composes three deterministic building blocks:

* :class:`TokenBucket` — per-tenant admission control at op-issue time;
  an empty bucket yields a ``retry_after_ns`` hint the retry engine
  honors (sleep under the deadline budget, or raise
  :class:`~repro.core.errors.TenantThrottled`).
* :class:`DeficitRoundRobin` / :class:`SlotArbiter` — fair queueing of
  pending message-slot acquisitions across tenants sharing one
  connection pipeline, so an aggressor cannot monopolize the in-flight
  window.
* :class:`AimdController` — additive-increase / multiplicative-decrease
  self-tuning of the per-connection in-flight and read windows from
  observed RTT (``qos.autotune``), replacing the static
  ``client.max_inflight_*`` caps.

Per-connection state (arbiter, controllers, read use) is a
:class:`PipeQos` on the client's connection pipeline, attached by the
first tenant handle that uses the connection.  Only this package
constructs the building blocks.  The math classes are simulator-free
(unit-testable with plain ints); :class:`SlotArbiter` touches sim
primitives (a broadcast :class:`~repro.sim.Gate` per ticket).
"""

from .aimd import AimdController
from .bucket import TokenBucket
from .drr import DeficitRoundRobin, SlotArbiter
from .policy import PipeQos, TenantPolicy

__all__ = [
    "AimdController",
    "DeficitRoundRobin",
    "PipeQos",
    "SlotArbiter",
    "TenantPolicy",
    "TokenBucket",
]
