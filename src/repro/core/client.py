"""The HydraDB client library (§4.2).

Clients are generator coroutines: every operation is used as
``value = yield from client.get(key)`` inside a simulation process.

GET fast path: if the remote-pointer cache holds a fresh-leased pointer,
the client issues a single one-sided RDMA Read, validates the fetched bytes
(magic, key match, guardian word), and never touches the server CPU.  A
dead/garbage result counts as an *invalid hit*: the entry is dropped and
the GET falls back to the message path, which also returns a fresh pointer
and lease.

Message path: the request is indicator-framed and RDMA-Written into a free
slot of the shard's per-connection request buffer; the client then polls
its response buffer (Send/Recv mode posts a receive and polls the CQ
instead).  The message path is *pipelined*: ``issue()`` returns a
:class:`PendingRequest` handle without blocking on the response, and
``wait()`` collects it later, so up to ``client.max_inflight_per_conn``
requests overlap per connection (and any number across connections).
``get_many``/``put_many`` fan a batch across slots and shards and gather
responses as they complete.  With the default window of 1 every operation
degenerates to the original stop-and-wait behavior.

The one-sided fast path is pipelined too: ``_read_fanout`` looks up every
remote pointer up front, posts the hit set as doorbell-coalesced RDMA-Read
batches (at most ``client.max_inflight_reads`` outstanding per connection)
and gathers completions as they arrive.  A key that cannot be served
one-sidedly — no usable pointer, QP error, dead item, key mismatch — is
*demoted* into a single pipelined message-path batch that overlaps with
the still-in-flight Reads; its message response re-primes the pointer
cache.  Single-key ``get`` rides the same engine with a batch of one.

Multi-tenancy (traffic engineering): handles from
``HydraCluster.client(tenant=..., qos=QosConfig(...))`` share one
:class:`ClientTransport` per machine — the same physical connections —
and compete for its message slots and read windows.  Admission is
token-bucket-gated per tenant (``qos.rate_ops``), slot grants are
deficit-round-robin-arbitrated across tenants (``qos.fair_queueing``),
and with ``qos.autotune`` an AIMD controller replaces the static
``client.max_inflight_*`` windows, tuning each connection's in-flight
depth from observed RTT.  Overload surfaces as typed
:class:`~repro.core.errors.TenantThrottled` errors whose
``retry_after_ns`` hints the retry engine honors — never a silent stall.

Failure handling (§5): every public operation runs as *rounds* of one
retry engine (:meth:`HydraClient._retrying`) — a single-key op is a round
of one — under one deadline budget (``client.op_deadline_us``).  A round
issues every key's request and waits them all out; it has one deadline,
``client.op_timeout_ns`` past its first post, so a silent shard costs a
round one timeout however many keys it holds.  Keys the shard *shed*
(``Status.THROTTLED``) are replayed after the largest retry hint, on the
same connection.  Keys that failed at the transport level (timeout, QP
error, dead NIC) cost their shards' connections and cached pointers, and
are re-routed through the (versioned) routing table — blocking on the
router's ``route_change`` gate, so a SWAT promotion is picked up the
instant it is republished — and replayed against whatever shard now owns
them, with capped exponential backoff between rounds.  Only when the
whole budget lapses does the caller see a
:class:`~repro.core.errors.ShardUnavailable` (a
:class:`~repro.core.errors.RecoveryInProgress` if the shard is replaying
its durable log).  Setting ``op_deadline_us=0`` (or ``deadline_us=0``
per client) restores the single-attempt contract.  See docs/PROTOCOLS.md
for the full state machine and the idempotency rules (INSERT is never
replayed).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from ..config import QosConfig, SimConfig
from ..hardware import Machine
from ..index.export import BUCKET_EXPORT_BYTES, IndexHandshake, parse_bucket
from ..index.hashing import bucket_index, hash64, signature16
from ..kvmem import item_size, parse_item, parse_item_prefix
from ..protocol import (Op, Request, Response, Status, clear, consume,
                         frame, frame_len, occ_announce)
from ..protocol.messages import _REQ
from ..qos import AimdController, SlotArbiter
from ..rdma import Nic, NicDown, QpError, RemotePointer
from ..rdma.tcp import TcpError
from ..sim import MetricSet, Simulator
from .errors import (BadStatus, RecoveryInProgress, RequestTimeout,
                     ShardUnavailable, SlotOverflow, TenantThrottled)
from .rptr import CachedPointer, LEASE_SAFETY_NS, RptrCache
from .shard import Connection, Shard

__all__ = ["ClientTransport", "HydraClient", "PendingRequest",
           "RequestTimeout", "StaticRouter"]

_client_ids = count(1)

#: Transport-level failures a retrying client absorbs and replays.  A
#: :class:`BadStatus` is *not* in this set — the shard answered, so the
#: operation completed and replaying it would double-apply.
_RETRYABLE = (RequestTimeout, QpError, NicDown)
#: Everything that fails one key of a round: a transport failure, or a
#: server shed (the shard answered ``Status.THROTTLED``).
_ROUND_FAILURES = (TenantThrottled, *_RETRYABLE)


@dataclass(frozen=True)
class PendingRequest:
    """Handle for an issued, not-yet-collected message-path request."""

    req_id: int
    shard: Shard
    conn: Connection
    slot: int  # -1 in two-sided (Send/Recv) mode
    #: Instant past which :meth:`HydraClient.wait` gives up on it.
    deadline: int


@dataclass(frozen=True)
class _ReadItem:
    """One key of a round: its index in the op, key, and owning shard."""

    idx: int
    key: bytes
    shard: Shard


@dataclass
class _Traversal:
    """State of one key's client-side index traversal (§4.2.2 extended).

    A cold key — no cached pointer — resolves with one-sided Reads alone:
    bucket frame Read, signature match, item Read, guardian validation.
    ``frames`` records every (frame index, seqlock version) visited this
    attempt; a multi-bucket NOT_FOUND is only concluded after re-reading
    the *head* frame and seeing its version unchanged (every chain
    mutation bumps the head, so an unmoved head proves the walk saw one
    consistent chain).  Any sign the chain moved under us — dead item,
    garbage bytes, moved head — is a *race*: the walk restarts from the
    head, at most ``traversal.max_retries`` times before the key
    demotes to the message path.
    """

    item: _ReadItem
    index: IndexHandshake
    sig: int
    head_frame: int
    #: (frame_idx, version) per bucket frame visited this attempt.
    frames: list = field(default_factory=list)
    #: Unread signature-matching (class_idx, offset) slots of the current
    #: bucket, probed in slot order.
    candidates: list = field(default_factory=list)
    #: Link of the current bucket (export frame index, None = chain end).
    next_link: Optional[int] = None
    retries: int = 0


@dataclass
class _ReadOp:
    """One posted (or queued) one-sided Read and how to interpret it.

    ``kind``: ``"item"`` = cached-pointer item Read (hot path),
    ``"bucket"`` = traversal bucket-frame Read, ``"titem"`` = traversal
    item Read, ``"confirm"`` = head-frame re-read validating a
    multi-bucket NOT_FOUND.
    """

    kind: str
    item: _ReadItem
    rptr: RemotePointer
    trav: Optional[_Traversal] = None
    #: Arena offset a ``titem`` Read targets (for cache re-priming).
    offset: int = -1


@dataclass
class _ReadState:
    """In-flight one-sided-Read bookkeeping for one connection."""

    conn: Connection
    #: :class:`_ReadOp` entries not yet posted.
    queue: list = field(default_factory=list)
    inflight: int = 0
    #: Post instant of the outstanding batch (read-window AIMD sampling).
    post_ns: int = 0


@dataclass
class _ConnPipeline:
    """Client-side in-flight bookkeeping for one connection."""

    conn: Connection
    #: Request-buffer slots not currently carrying an outstanding request
    #: (RDMA-Write messaging only), kept sorted for determinism.
    free_slots: list[int] = field(default_factory=list)
    #: slot -> req_id for every slot carrying an outstanding request.
    slot_req: dict[int, int] = field(default_factory=dict)
    #: req_id -> slot for requests a wait() may still collect.
    inflight: dict[int, int] = field(default_factory=dict)
    #: Responses drained while waiting for a different request.
    completed: dict[int, Response] = field(default_factory=dict)
    #: Slots whose announce is proven consumed by the shard
    #: (``hydra.occ_announce_mask``): excluded from subsequent occupancy
    #: words so long windows stop re-announcing drained slots.
    confirmed: set = field(default_factory=set)
    #: req_id -> issue instant for AIMD RTT sampling (``qos.autotune``
    #: only; stays empty otherwise).
    issued_ns: dict[int, int] = field(default_factory=dict)
    #: Lazily created DRR slot arbiter (``qos.fair_queueing`` only).
    arbiter: Optional[SlotArbiter] = None
    #: req_id -> tenant for arbiter occupancy accounting
    #: (``qos.fair_queueing`` only; stays empty otherwise).
    req_tenant: dict[int, str] = field(default_factory=dict)


class _Round:
    """One round of the retry engine: what it issued and which keys failed.

    A round has one deadline: its first post fixes ``end`` at
    ``timeout_ns`` past it, and every later request of the round shares
    that instant, so k keys on a silent shard cost one timeout, not k.
    """

    __slots__ = ("timeout_ns", "end", "pendings", "failed", "dead")

    def __init__(self, timeout_ns: int):
        self.timeout_ns = timeout_ns
        self.end: Optional[int] = None
        #: (item, PendingRequest) per issued request, in issue order — or
        #: (item, Response) for a TCP request, which completes at issue.
        self.pendings: list = []
        #: (item, exc) per key that failed this round: a
        #: :class:`TenantThrottled` for a server shed, else the transport
        #: failure.
        self.failed: list = []
        #: Shard -> its first transport failure this round (fail-fast).
        self.dead: dict = {}


class StaticRouter:
    """Trivial router for single/few-shard setups and unit tests."""

    #: Static routes never change; retrying clients read these and skip
    #: the route-change wakeup (see ``HydraCluster`` for the live pair).
    generation = 0
    route_change = None

    def __init__(self, shards: list[Shard]):
        if not shards:
            raise ValueError("need at least one shard")
        self._shards = list(shards)

    def route(self, key: bytes) -> Shard:
        """The shard owning ``key``."""
        if len(self._shards) == 1:
            return self._shards[0]
        from ..index.hashing import hash64
        return self._shards[hash64(key) % len(self._shards)]

    def shards(self) -> list[Shard]:
        """All shards this router can reach."""
        return list(self._shards)


class ClientTransport:
    """Connection state shared by every tenant handle on one machine.

    Tenant-scoped handles from ``HydraCluster.client(tenant=...)`` share
    the machine's physical connections — that is what makes fair
    queueing meaningful: competing tenants contend for the *same*
    per-connection message slots and one-sided read windows, arbitrated
    by each pipeline's :class:`~repro.qos.SlotArbiter`.  A standalone
    :class:`HydraClient` creates a private transport, preserving the
    single-tenant behavior bit-for-bit.
    """

    __slots__ = ("conns", "tcp_conns", "pipes", "req_ids", "ctls",
                 "read_ctls", "read_use", "weights")

    def __init__(self):
        self.conns: dict[Shard, Connection] = {}
        self.tcp_conns: dict[Shard, object] = {}
        self.pipes: dict[int, _ConnPipeline] = {}
        self.req_ids = count(1)
        #: conn_id -> AIMD controller for the message-path window.
        self.ctls: dict[int, AimdController] = {}
        #: conn_id -> AIMD controller for the one-sided read window.
        self.read_ctls: dict[int, AimdController] = {}
        #: conn_id -> {tenant: outstanding one-sided reads} for
        #: weight-proportional read-window sharing.
        self.read_use: dict[int, dict[str, int]] = {}
        #: tenant -> DRR weight, registered at handle creation.
        self.weights: dict[str, float] = {}


class HydraClient:
    """One client endpoint (the paper's 'client library' instance).

    Result/raise contract for the public generator API (stable across
    transports and pipelining modes):

    * ``get``/``get_many`` return the value bytes, or ``None`` per absent
      key — NOT_FOUND is a *result*, never an exception.
    * mutations (``put``/``insert``/``update``/``delete``/``put_many``/
      ``lease_renew``) return the response :class:`~repro.protocol.Status`
      uniformly (OK/NOT_FOUND/EXISTS); they raise only for failures.
    * every raise derives from :class:`~repro.core.errors.HydraError`:
      :class:`ShardUnavailable` when the retry deadline lapses with no
      live route (or :class:`RequestTimeout` per attempt in
      single-attempt mode), :class:`BadStatus` when the shard answers
      with a status the operation cannot express.
    """

    def __init__(self, sim: Simulator, config: SimConfig, machine: Machine,
                 router, metrics: Optional[MetricSet] = None,
                 rptr_cache: Optional[RptrCache] = None,
                 client_id: Optional[str] = None, numa_domain: int = 0,
                 deadline_us: Optional[int] = None, tenant: str = "default",
                 qos: Optional[QosConfig] = None,
                 shared: Optional[ClientTransport] = None,
                 bucket=None):
        self.sim = sim
        self.config = config
        self.hydra = config.hydra
        self.client_cfg = config.client
        self.trav_cfg = config.traversal
        self.cpu = config.cpu
        self.machine = machine
        #: NUMA domain this client's buffers live in on its machine.
        self.numa_domain = numa_domain
        self.nic: Nic = machine.nic
        self.router = router
        self.metrics = metrics or MetricSet(sim)
        self.client_id = client_id or f"client{next(_client_ids)}"
        #: Per-request retry budget in µs; 0 = single-attempt (legacy) mode.
        self.deadline_us = (self.client_cfg.op_deadline_us
                            if deadline_us is None else deadline_us)
        #: Tenant identity and traffic-engineering policy.  ``qos=None``
        #: (the default handle) takes the exact pre-QoS code paths.
        self.tenant = tenant
        self.qos = qos
        self._wire_tenant = tenant.encode() if tenant != "default" else b""
        self._fair = qos is not None and qos.fair_queueing
        self._autotune = qos is not None and qos.autotune
        #: Shared per-tenant admission bucket (``qos.rate_ops``), owned by
        #: the cluster so every handle of one tenant drains one budget.
        self._bucket = bucket
        self.tmetrics = (self.metrics.scoped(f"client.tenant.{tenant}")
                         if qos is not None else None)
        if (not self.client_cfg.rptr_cache_enabled
                or self.hydra.transport != "rdma"):
            # No one-sided reads over TCP: the pointer cache is moot.
            self.cache: Optional[RptrCache] = None
        elif rptr_cache is not None:
            self.cache = rptr_cache
        else:
            self.cache = RptrCache(self.client_cfg.rptr_cache_entries)
        #: Connection state, possibly shared with sibling tenant handles
        #: on this machine.  ``conns`` is keyed by Shard object identity:
        #: after a failover promotion the router returns a *new* Shard for
        #: the same shard id, and a fresh connection is created
        #: transparently on the next operation.
        if shared is None:
            shared = ClientTransport()
        self._shared = shared
        self.conns = shared.conns
        self._tcp_conns = shared.tcp_conns
        self._pipes = shared.pipes
        self._req_ids = shared.req_ids
        self._ctls = shared.ctls
        self._read_ctls = shared.read_ctls
        self._read_use = shared.read_use
        shared.weights[tenant] = qos.weight if qos is not None else 1.0
        # Precomputed counter handles (``MetricSet.counter`` is get-or-
        # create, so these are the same objects a per-call lookup would
        # return) and reusable drain scratch lists: the gather loops would
        # otherwise resolve a counter through an f-string key per response.
        m = self.metrics
        self._c_messages = m.counter("client.messages")
        self._c_stale = m.counter("client.stale_responses")
        self._c_retries = m.counter("client.retries")
        self._c_failovers = m.counter("client.failovers")
        #: Lease entries trusted under the skewed local clock that the
        #: true clock would have expired — each one is a window where a
        #: one-sided read could return a dead item.  Zero whenever
        #: ``client.lease_skew_guard_ns`` covers the machine's skew.
        self._c_skew_hazards = m.counter("client.lease_skew_hazards")
        self._c_rdma_reads = m.counter("client.rdma_reads")
        self._c_demotions = m.counter("client.demotions")
        self._c_bucket_reads = m.counter("client.bucket_reads")
        self._c_races = m.counter("client.traversal_races")
        if self.tmetrics is not None:
            tm = self.tmetrics
            self._tc_ops = tm.counter("ops")
            self._tc_throttled = tm.counter("throttled")
            self._tc_server_shed = tm.counter("server_shed")
            self._tc_slot_grants = tm.counter("slot_grants")
            self._tc_slot_wait = tm.tally("slot_wait_ns")
        #: Pool of drain-order scratch lists (one per *concurrent* drain:
        #: fan-outs run many issue/wait processes on one handle, each of
        #: which may be parked mid-drain at a simulated poll yield).
        self._drain_scratch: list[list[int]] = []

    # -- connections ---------------------------------------------------------
    def connection_to(self, shard: Shard) -> Connection:
        """The (lazily created) RDMA connection to a shard.

        A cached connection whose QP is no longer usable — torn down by
        the peer, or either NIC dead — is dropped and re-established
        up front, so a post-failover operation reconnects immediately
        instead of black-holing a post and burning a whole timeout.
        """
        conn = self.conns.get(shard)
        if conn is not None and not conn.client_qp.usable:
            self.drop_connection(shard)
            conn = None
        if conn is None:
            conn = shard.connect(self.nic,
                                 client_numa_domain=self.numa_domain)
            self.conns[shard] = conn
        return conn

    def _pipe(self, conn: Connection) -> _ConnPipeline:
        pipe = self._pipes.get(conn.conn_id)
        if pipe is None:
            pipe = _ConnPipeline(conn,
                                 free_slots=list(range(conn.n_slots)))
            self._pipes[conn.conn_id] = pipe
        return pipe

    def connect_all(self) -> None:
        """Eagerly connect to every shard the router knows."""
        if self.hydra.transport != "rdma":
            return  # TCP connections are established lazily (handshakes
                    # need simulation time)
        for shard in self.router.shards():
            self.connection_to(shard)

    def drop_connection(self, shard: Shard) -> None:
        """Tear down every connection to one shard.

        Evicts the pipeline entry along with the connection, so a
        reconnect after a failover starts from a clean slot map instead
        of inheriting in-flight bookkeeping that belonged to the dead
        link, and tells the shard so its poll loop stops sweeping the
        dead connection's slots.
        """
        conn = self.conns.pop(shard, None)
        if conn is not None:
            self._pipes.pop(conn.conn_id, None)
            shard.disconnect(conn)
        tconn = self._tcp_conns.pop(shard, None)
        if tconn is not None:
            tconn.close()

    # -- public operations (generator API) ---------------------------------
    # Every operation runs as rounds of the one retry engine
    # (:meth:`_retrying`); a single-key operation is a round of one.
    def get(self, key: bytes):
        """GET: RDMA-Read fast path, else message path.

        Returns the value bytes, or ``None`` when the key is absent.
        Replayed across failovers under the deadline budget (GETs are
        idempotent); raises :class:`ShardUnavailable` when the budget
        lapses, :class:`BadStatus` on an error status.
        """
        results: list[Optional[bytes]] = [None]
        yield from self._retrying(
            [key], lambda rnd, items: self._get_round(rnd, items, results,
                                                      overlap=False), "GET")
        return results[0]

    def put(self, key: bytes, value: bytes):
        """Insert-or-update; returns the response Status (always OK).

        Idempotent — replayed across failovers under the deadline budget.
        """
        return (yield from self._mutate(Op.PUT, key, value))

    def insert(self, key: bytes, value: bytes):
        """Insert; returns EXISTS if the key is already present.

        *Not* replayed: a lost response leaves it unknowable whether the
        insert applied, and a blind replay would report EXISTS for our
        own write.  A transport failure surfaces as
        :class:`ShardUnavailable` immediately (the insert may or may not
        have been applied).
        """
        return (yield from self._mutate(Op.INSERT, key, value))

    def update(self, key: bytes, value: bytes):
        """Update; returns NOT_FOUND if the key is absent.  Replayed."""
        return (yield from self._mutate(Op.UPDATE, key, value))

    def delete(self, key: bytes):
        """Delete; returns NOT_FOUND if the key is absent.

        Replayed (at-least-once): a replay whose first attempt's response
        was lost can report NOT_FOUND for a delete this client itself
        performed.
        """
        return (yield from self._mutate(Op.DELETE, key, b""))

    def lease_renew(self, key: bytes):
        """Explicitly extend the lease of a (popular) key; returns Status."""
        return (yield from self._mutate(Op.LEASE_RENEW, key, b""))

    def _mutate(self, op: Op, key: bytes, value: bytes):
        statuses = [Status.ERROR]
        yield from self._retrying(
            [key], lambda rnd, items: self._write_round(rnd, items, op,
                                                        (value,), statuses),
            op.name, replayable=op is not Op.INSERT)
        return statuses[0]

    # -- retry engine -------------------------------------------------------
    def _backoff(self, wait_ns: int):
        """Sleep out one backoff step — or less, if a route change lands.

        Routers that publish failovers (``HydraCluster``) expose a
        ``route_change`` gate; blocking on it alongside the timer turns
        the worst-case blackout from *promotion + residual backoff* into
        just *promotion*.
        """
        gate = getattr(self.router, "route_change", None)
        if gate is None:
            yield self.sim.timeout(wait_ns)
        else:
            yield self.sim.any_of([gate.wait(), self.sim.timeout(wait_ns)])

    def _retrying(self, keys: list[bytes], round_fn, opname: str,
                  replayable: bool = True):
        """Run ``keys`` to completion in rounds of ``round_fn(rnd, items)``.

        Each round admits its keys, routes them afresh and runs with one
        deadline, ``min(client.op_timeout_ns, deadline - now)`` past its
        first post (see :class:`_Round`); it records every key that failed
        as ``(item, exc)``, and only those keys go to the next round:

        * every failure a server shed: sleep out the largest
          ``retry_after_ns`` — the shard is alive, so no teardown, no
          cache invalidation, no ``client.retries`` — or raise the
          :class:`TenantThrottled` when the budget cannot cover it;
        * otherwise: tear down the shards that failed at the transport
          level (timeout / QP error / dead NIC) in failure order, drop
          those keys' cached pointers and back off (capped exponential,
          cut short by a route change).  Once the deadline lapses raise
          :class:`RecoveryInProgress` if a failed key's shard is
          replaying its durable log, else :class:`ShardUnavailable`.
          Non-replayable ops raise :class:`ShardUnavailable` at once.

        With a zero budget (single-attempt mode) the first round's
        failure is re-raised unchanged: its first transport failure, else
        the shed with the largest hint.
        """
        budget = self.deadline_us * 1_000
        deadline = self.sim.now + budget if budget > 0 else None
        backoff_ns = max(1, self.client_cfg.retry_backoff_min_us) * 1_000
        backoff_cap_ns = max(1, self.client_cfg.retry_backoff_max_us) * 1_000
        first_failure_ns = 0
        first_failed: Optional[set] = None
        todo = list(enumerate(keys))
        while True:
            if self._bucket is not None:
                yield from self._admit(deadline, opname, n=len(todo))
            items = [_ReadItem(i, key, self.router.route(key))
                     for i, key in todo]
            timeout_ns = self.client_cfg.op_timeout_ns
            if deadline is not None:
                timeout_ns = min(timeout_ns, deadline - self.sim.now)
            rnd = _Round(timeout_ns)
            yield from round_fn(rnd, items)
            failed = rnd.failed
            if not failed:
                # Success on a shard that never failed on us is a completed
                # failover (re-routed replay); same-shard success is just a
                # transient absorbed by retry.
                if first_failed is not None and any(
                        item.shard not in first_failed for item in items):
                    self._c_failovers.add()
                    self.metrics.tally("client.failover_latency_ns").observe(
                        self.sim.now - first_failure_ns)
                if self.tmetrics is not None:
                    self._tc_ops.add()
                return
            lost = [(item, exc) for item, exc in failed
                    if not isinstance(exc, TenantThrottled)]
            if not lost:
                shed = max((exc for _item, exc in failed),
                           key=lambda exc: exc.retry_after_ns)
                wait_ns = max(1, shed.retry_after_ns)
                if deadline is None or wait_ns >= deadline - self.sim.now:
                    raise shed
                yield self.sim.timeout(wait_ns)
            else:
                first = lost[0][1]
                if deadline is None:
                    raise first
                self._c_retries.add(len(lost))
                if first_failed is None:
                    first_failure_ns = self.sim.now
                    first_failed = {item.shard for item, _exc in lost}
                # dict.fromkeys, not a set: teardown order must follow
                # failure order, not id()-hash order, or replay determinism
                # breaks.
                for shard in dict.fromkeys(item.shard for item, _exc in lost):
                    self.drop_connection(shard)
                if self.cache is not None:
                    for item, _exc in lost:
                        self.cache.invalidate(item.key)
                what = (f"{self.client_id}: {opname} {len(lost)} of "
                        f"{len(items)} keys (first {lost[0][0].key!r})")
                if not replayable:
                    raise ShardUnavailable(
                        f"{what} aborted after transport failure (not "
                        f"replayable; it may or may not have been "
                        f"applied)") from first
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    probe = getattr(self.router, "key_recovering", None)
                    if probe is not None and any(probe(item.key)
                                                 for item, _exc in lost):
                        # Diagnosed outage: the shard is mid durable-log
                        # replay and will come back with a route bump.
                        raise RecoveryInProgress(
                            f"{what}: deadline ({self.deadline_us}us) "
                            f"lapsed while the shard replays its durable "
                            f"log") from first
                    raise ShardUnavailable(
                        f"{what}: deadline ({self.deadline_us}us) lapsed "
                        f"with no live route") from first
                yield from self._backoff(min(backoff_ns, remaining))
                backoff_ns = min(backoff_ns * 2, backoff_cap_ns)
            todo = [(item.idx, item.key) for item, _exc in failed]

    def _admit(self, deadline: Optional[int], opname: str = "", n: int = 1):
        """Token-bucket admission (``qos.rate_ops``).

        Waits out the bucket refill under the deadline budget; when the
        budget cannot cover the wait (or there is no budget to sleep
        under) the op fails *promptly* with :class:`TenantThrottled`
        carrying the ``retry_after_ns`` hint — never a silent stall.

        Batches larger than the bucket depth are admitted in
        burst-sized chunks, so a multi-op call always makes progress
        instead of asking for more tokens than can ever accrue at once.
        """
        chunk = max(1, int(self._bucket.burst))
        while n > 0:
            take_n = min(n, chunk)
            wait_ns = self._bucket.take(self.sim.now, take_n)
            if wait_ns == 0:
                n -= take_n
                continue
            if self.tmetrics is not None:
                self._tc_throttled.add()
            if deadline is None or wait_ns >= deadline - self.sim.now:
                raise TenantThrottled(
                    f"{self.client_id}: {opname} admission refused for "
                    f"tenant {self.tenant!r}",
                    retry_after_ns=wait_ns, tenant=self.tenant)
            yield self.sim.timeout(wait_ns)

    # -- pipelined one-sided read engine ------------------------------------
    def _read_window(self, conn: Connection) -> int:
        """Total one-sided read window for one connection (AIMD-governed
        when ``qos.autotune``, else the static ``client`` knob)."""
        if self._autotune:
            ctl = self._read_ctls.get(conn.conn_id)
            if ctl is None:
                ctl = self._read_ctls[conn.conn_id] = (
                    AimdController.from_config(
                        self.qos,
                        initial=max(1, self.client_cfg.max_inflight_reads)))
            return ctl.window
        return max(1, self.client_cfg.max_inflight_reads)

    def _post_read_batch(self, cs: _ReadState):
        """Post the next doorbell-coalesced Read batch on one connection.

        Returns ``(posted, failed)``: ``posted`` holds at most one
        ``(ops, batch_event, cs)`` triple — the whole chain completes
        through **one** event whose value lists the completions in post
        order; ``failed`` holds every queued item when the QP turns out
        to be unusable (torn down by a failover) — the caller demotes
        those to the message path.

        Tenant handles (``qos`` set) share the window weight-
        proportionally across the tenants with reads outstanding on this
        connection, so an aggressor's fan-outs cannot monopolize the
        read window any more than the message slots.
        """
        total = self._read_window(cs.conn)
        if self.qos is None:
            limit, mine = total, cs.inflight
        else:
            use = self._read_use.setdefault(cs.conn.conn_id, {})
            weights = self._shared.weights
            active = {t for t, u in use.items() if u > 0}
            active.add(self.tenant)
            w_sum = sum(weights.get(t, 1.0) for t in active)
            limit = max(1, int(total * weights.get(self.tenant, 1.0)
                               / w_sum))
            mine = use.get(self.tenant, 0)
        n = min(limit - mine, len(cs.queue))
        if n <= 0 and cs.inflight == 0 and cs.queue:
            # Anti-strand: whatever the share math says, a chain with
            # nothing in flight must make progress.
            n = 1
        if n <= 0:
            return [], []
        batch, cs.queue = cs.queue[:n], cs.queue[n:]
        self._c_rdma_reads.add(n)
        try:
            batch_ev = cs.conn.client_qp.post_read_batch(
                [op.rptr for op in batch])
        except QpError:
            # Dead QP: nothing on this connection can be read one-sidedly.
            failed = batch + cs.queue
            cs.queue = []
            return [], failed
        cs.inflight += n
        if self.qos is not None:
            use = self._read_use.setdefault(cs.conn.conn_id, {})
            use[self.tenant] = use.get(self.tenant, 0) + n
        cs.post_ns = self.sim.now
        return [(batch, batch_ev, cs)], []

    def _read_fanout(self, items: list[_ReadItem], on_demote=None):
        """Pipelined one-sided GET fan-out (§4.2.2, batched).

        Looks up every remote pointer up front, posts the hit set as
        doorbell-coalesced RDMA-Read batches — at most
        ``client.max_inflight_reads`` outstanding per connection — and
        gathers completions as they arrive.  Keys that cannot be served
        one-sidedly (no usable pointer, QP error, dead/garbage item, key
        mismatch) are *demoted*: handed to ``on_demote`` the moment the
        miss is known, so a message-path request overlaps with the Reads
        still in flight, or collected when no callback is given.

        Returns ``(hits, demoted)``: ``hits`` maps item index -> value,
        ``demoted`` lists items the caller must route through messages
        (empty when ``on_demote`` consumed them).
        """
        cache = self.cache
        hits: dict[int, Optional[bytes]] = {}
        demoted: list[_ReadItem] = []

        def demote(item: _ReadItem):
            self._c_demotions.add()
            if on_demote is None:
                demoted.append(item)
            else:
                yield from on_demote(item)

        def fail_op(op: _ReadOp):
            """A Read that could not be served (dead QP / bad completion
            outside the traversal protocol): demote its key."""
            if op.kind == "item":
                cache.record_invalid(op.item.key)
            yield from demote(op.item)

        # -- traversal plumbing (cold keys, one-sided index walk) ---------
        def enqueue_bucket(trav: _Traversal, cs: _ReadState,
                          frame_idx: int, confirm: bool = False) -> None:
            self._c_bucket_reads.add()
            rptr = RemotePointer(trav.index.export_rkey,
                                 frame_idx * BUCKET_EXPORT_BYTES,
                                 BUCKET_EXPORT_BYTES)
            cs.queue.append(_ReadOp("confirm" if confirm else "bucket",
                                    trav.item, rptr, trav))

        def enqueue_item_read(trav: _Traversal, cs: _ReadState) -> None:
            cls_idx, offset = trav.candidates.pop(0)
            rptr = RemotePointer(trav.index.arena_rkey, offset,
                                 trav.index.size_classes[cls_idx])
            cs.queue.append(_ReadOp("titem", trav.item, rptr, trav,
                                    offset=offset))

        def start_traversal(item: _ReadItem, cs: _ReadState) -> None:
            index = cs.conn.index
            h = hash64(item.key)
            trav = _Traversal(item=item, index=index, sig=signature16(h),
                              head_frame=bucket_index(h, index.n_buckets))
            enqueue_bucket(trav, cs, trav.head_frame)

        def race(trav: _Traversal, cs: _ReadState):
            """The chain moved under the walk: restart, bounded."""
            trav.retries += 1
            self._c_races.add()
            if trav.retries > self.trav_cfg.max_retries:
                yield from demote(trav.item)
                return
            trav.frames.clear()
            trav.candidates.clear()
            trav.next_link = None
            enqueue_bucket(trav, cs, trav.head_frame)

        def advance(trav: _Traversal, cs: _ReadState) -> None:
            """Current bucket's candidates exhausted: follow the link or
            conclude NOT_FOUND."""
            if trav.next_link is not None:
                enqueue_bucket(trav, cs, trav.next_link)
                return
            if len(trav.frames) == 1:
                # One atomic 64 B snapshot held the whole chain: the key
                # was provably absent at the Read's DMA instant.
                hits[trav.item.idx] = None
                return
            # Multi-bucket walk: only believable if the head frame never
            # moved (every chain mutation bumps the head's version).
            enqueue_bucket(trav, cs, trav.frames[0][0], confirm=True)

        def handle_bucket(op: _ReadOp, wc, cs: _ReadState):
            trav = op.trav
            if not wc.ok:
                yield from race(trav, cs)
                return
            try:
                bucket = parse_bucket(wc.data)
            except ValueError:
                yield from race(trav, cs)
                return
            if op.kind == "confirm":
                if bucket.version == trav.frames[0][1]:
                    hits[trav.item.idx] = None  # confirmed NOT_FOUND
                else:
                    yield from race(trav, cs)
                return
            if bucket.demote:
                # Chain not fully exportable: the server said don't trust
                # one-sided conclusions here.
                yield from demote(trav.item)
                return
            frame_idx = op.rptr.offset // BUCKET_EXPORT_BYTES
            if (any(f == frame_idx for f, _v in trav.frames)
                    or len(trav.frames) >= 64):
                # Link cycle / absurd depth: stale frames mixed across
                # instants — a race by definition.
                yield from race(trav, cs)
                return
            trav.frames.append((frame_idx, bucket.version))
            trav.candidates = [(cls, off) for _i, sig, cls, off
                               in bucket.slots if sig == trav.sig]
            if any(cls >= len(trav.index.size_classes)
                   for cls, _off in trav.candidates):
                # A size-class index the handshake never advertised:
                # stale/foreign frame bytes — treat as a race.
                yield from race(trav, cs)
                return
            trav.next_link = bucket.link
            if trav.candidates:
                enqueue_item_read(trav, cs)
            else:
                advance(trav, cs)

        def handle_titem(op: _ReadOp, wc, cs: _ReadState):
            trav = op.trav
            parsed = parse_item_prefix(wc.data) if wc.ok else None
            if parsed is not None:
                if parsed.key == op.item.key:
                    # A DEAD guardian is fine *here* (unlike the cached-
                    # pointer path): the bucket snapshot proved this was
                    # the key's current extent at the bucket Read's DMA
                    # instant, so its retirement happened after that — and
                    # reclaim defers a full read horizon past retirement,
                    # so the bytes are intact and the value linearizes to
                    # the bucket-read instant.  Without this, every GET
                    # racing an update would retry and hot keys would
                    # demote, re-serializing on the server we just
                    # offloaded.  Only a live hit may prime the cache.
                    hits[op.item.idx] = parsed.value
                    if parsed.live:
                        self._prime_from_traversal(op.item.key, op.offset,
                                                   parsed, trav.index)
                    return
                # 16-bit signature collision: a *different* key answered.
                # Not a race — keep probing candidates.
                if trav.candidates:
                    enqueue_item_read(trav, cs)
                else:
                    advance(trav, cs)
                return
            # Garbage bytes: the frame we walked was stale (failed Read,
            # or an offset whose meaning changed under us).
            yield from race(trav, cs)

        yield self.sim.timeout(cache.batch_op_cost_ns(len(items)))
        # Lease checks run on the *machine's* clock (possibly skewed),
        # advanced by the configured guard: a client whose clock runs
        # behind true time would otherwise trust a pointer past its real
        # lease horizon and one-sided-read a dead item.
        lease_now = (self.sim.now
                     + getattr(self.machine, "clock_skew_ns", 0)
                     + self.client_cfg.lease_skew_guard_ns)
        entries = cache.lookup_batch([it.key for it in items], lease_now)
        states: dict[int, _ReadState] = {}

        def state_for(conn: Connection) -> _ReadState:
            cs = states.get(conn.conn_id)
            if cs is None:
                cs = states[conn.conn_id] = _ReadState(conn)
            return cs

        misses: list[_ReadItem] = []
        cold: list[tuple[_ReadItem, Connection]] = []
        for item, entry in zip(items, entries):
            if entry is not None:
                if entry.lease_expiry_ns < self.sim.now + LEASE_SAFETY_NS:
                    # Trusted under the skewed clock, expired on the true
                    # one: a potential dead-item read the guard missed.
                    self._c_skew_hazards.add()
                cs = state_for(self.connection_to(item.shard))
                cs.queue.append(_ReadOp("item", item, entry.rptr))
                continue
            conn = self.connection_to(item.shard)
            if self.trav_cfg.enabled and conn.index is not None:
                cold.append((item, conn))
            else:
                misses.append(item)
        if len(cold) >= max(1, self.trav_cfg.min_fanout):
            # Enough cold keys that their bucket Reads pipeline through
            # one doorbell: resolve them one-sidedly, zero server CPU.
            for item, conn in cold:
                start_traversal(item, state_for(conn))
        else:
            misses.extend(item for item, _conn in cold)
        #: (ops, batch event, conn state) gather list — one entry per
        #: posted chain; reads are in flight from here on, so everything
        #: below overlaps with them.
        pending: list = []
        unusable: list[_ReadOp] = []
        for cs in states.values():
            posted, failed = self._post_read_batch(cs)
            pending.extend(posted)
            unusable.extend(failed)
        for item in misses:
            yield from demote(item)
        for op in unusable:
            yield from fail_op(op)
        i = 0
        while i < len(pending):
            ops, ev, cs = pending[i]
            i += 1
            wcs = yield ev
            cs.inflight -= len(ops)
            if self.qos is not None:
                use = self._read_use.get(cs.conn.conn_id)
                if use is not None and self.tenant in use:
                    use[self.tenant] = max(0, use[self.tenant] - len(ops))
            if self._autotune and wcs:
                ctl = self._read_ctls.get(cs.conn.conn_id)
                if ctl is not None:
                    if all(wc.ok for wc in wcs):
                        ctl.on_ack(max(wc.ns for wc in wcs) - cs.post_ns)
                    else:
                        ctl.on_loss()
            # The CQ drained incrementally while the chain was in flight:
            # WQE i's CQE landed at wc.ns, so its parse overlapped the
            # tail of the chain.  Model that poll pipeline — each parse
            # starts at max(CQE arrival, previous parse end) — and pay
            # only the residual lag past the batch completion instead of
            # serialising every parse after the last CQE.
            parse_ns = self.cpu.parse_ns
            pipe = 0
            for op, wc in zip(ops, wcs):
                pipe = max(pipe, wc.ns) + parse_ns
                if op.kind == "item":
                    parsed = parse_item(wc.data) if wc.ok else None
                    if (parsed is not None and parsed.live
                            and parsed.key == op.item.key):
                        cache.record_successful()
                        hits[op.item.idx] = parsed.value
                    else:
                        # Outdated pointer (dead item after an out-of-place
                        # update, reclaimed/garbage bytes, failed completion).
                        cache.record_invalid(op.item.key)
                        yield from demote(op.item)
                elif op.kind == "titem":
                    yield from handle_titem(op, wc, cs)
                else:  # "bucket" / "confirm"
                    yield from handle_bucket(op, wc, cs)
            # Every parse above copies out of wc.data; the chain's pooled
            # CQEs can go back to the freelist.  (An exception mid-gather
            # leaks them to the GC — correct, unrecycled.)
            release = self.nic.wc_pool.release
            for wc in wcs:
                if wc._live:
                    release(wc)
            lag = pipe - self.sim.now
            if lag > 0:
                yield self.sim.timeout(lag)
            if cs.inflight == 0 and cs.queue:
                posted, failed = self._post_read_batch(cs)
                pending.extend(posted)
                for fop in failed:
                    yield from fail_op(fop)
        return hits, demoted

    def _maybe_cache(self, key: bytes, resp: Response) -> None:
        if self.cache is None or not resp.remote_pointer_valid:
            return
        self.cache.store(key, CachedPointer(
            rptr=RemotePointer(resp.rkey, resp.roffset, resp.rlen),
            lease_expiry_ns=resp.lease_expiry_ns,
            version=resp.version,
        ))

    def _prime_from_traversal(self, key: bytes, offset: int, parsed,
                              index: IndexHandshake) -> None:
        """Re-prime the pointer cache from a traversal hit.

        The entry carries a *synthetic* expiry of half the read horizon:
        the server holds no lease for this pointer, but it defers every
        reclaim ``traversal_read_horizon_ns`` past retirement, so within
        this window the extent can be dead or poisoned — both caught by
        guardian/parse validation — yet never *reused*, which is the only
        hazard validation cannot catch by itself.
        """
        if self.cache is None:
            return
        extent = item_size(len(parsed.key), len(parsed.value))
        self.cache.store(key, CachedPointer(
            rptr=RemotePointer(index.arena_rkey, offset, extent),
            lease_expiry_ns=(self.sim.now
                             + self.trav_cfg.read_horizon_ns // 2),
            version=parsed.version,
        ))

    # -- pipelined message path (issue / wait split) ------------------------
    def _window(self, conn: Connection) -> int:
        """Message-path in-flight window for one connection (AIMD-governed
        when ``qos.autotune``, else the static ``client`` knob)."""
        if self._autotune:
            ctl = self._ctls.get(conn.conn_id)
            if ctl is None:
                ctl = self._ctls[conn.conn_id] = AimdController.from_config(
                    self.qos,
                    initial=max(1, self.client_cfg.max_inflight_per_conn))
            window = ctl.window
        else:
            window = max(1, self.client_cfg.max_inflight_per_conn)
        if self.hydra.rdma_write_messaging:
            window = min(window, conn.n_slots)
        return window

    def _slot_capacity(self, pipe: _ConnPipeline, conn: Connection) -> int:
        """Grantable slot capacity right now (window minus in-flight,
        bounded by actually-free request slots)."""
        cap = self._window(conn) - len(pipe.inflight)
        if self.hydra.rdma_write_messaging:
            cap = min(cap, len(pipe.free_slots))
        return cap

    def _acquire_slot(self, pipe: _ConnPipeline, conn: Connection,
                      deadline: int):
        """DRR-arbitrated slot acquisition (``qos.fair_queueing``).

        Submits a ticket to the pipeline's arbiter and blocks until it is
        granted in deficit-round-robin order across tenants.  Every
        waiter pumps the arbiter when it wakes, so grants happen in DRR
        order no matter whose process observes the freed capacity first.
        There is no simulated yield between the grant and the slot take
        back in :meth:`issue`, so a grant is a safe reservation.
        """
        arb = pipe.arbiter
        if arb is None:
            arb = pipe.arbiter = SlotArbiter(
                self.sim, self.qos.drr_quantum if self.qos else 1.0)
        ticket = arb.submit(self.tenant,
                            self.qos.weight if self.qos else 1.0)
        t0 = self.sim.now
        while True:
            arb.pump(self._slot_capacity(pipe, conn),
                     total=self._window(conn))
            if ticket.granted:
                arb.consume(ticket)
                if self.tmetrics is not None:
                    self._tc_slot_grants.add()
                    self._tc_slot_wait.observe(
                        self.sim.now - t0)
                return
            drained = yield from self._drain(pipe)
            if drained:
                continue
            remaining = deadline - self.sim.now
            if remaining <= 0:
                arb.cancel(ticket)
                if arb.waiting():
                    # A cancelled grant frees capacity other tenants may
                    # already be asleep waiting for.
                    arb.pump(self._slot_capacity(pipe, conn),
                             total=self._window(conn))
                raise RequestTimeout(
                    f"{self.client_id}: window full and shard silent "
                    f"(conn {conn.conn_id})")
            yield self.sim.any_of([ticket.gate.wait(),
                                   conn.client_doorbell.wait(),
                                   self.sim.timeout(remaining)])

    def issue(self, shard: Shard, req: Request,
              timeout_ns: Optional[int] = None,
              deadline: Optional[int] = None):
        """Issue one message-path request; returns a :class:`PendingRequest`.

        Blocks (in simulated time) only while the connection's in-flight
        window is exhausted — draining completed responses as it waits —
        never on the issued request's own response.  Collect the response
        later with :meth:`wait`.  The request has one deadline, bounding
        both waits: the absolute instant ``deadline`` if given, else
        ``timeout_ns`` (default ``client.op_timeout_ns``) past the post.
        """
        req_id = next(self._req_ids)
        self._c_messages.add()
        # Pack the wire frame (``Request.encode``'s layout) straight from
        # the caller's request, re-keyed with this op's req_id and tenant.
        key, value, tenant = req.key, req.value, self._wire_tenant
        data = (_REQ.pack(req.op, len(tenant), len(key), len(value), req_id)
                + key + value + tenant)
        yield self.sim.timeout(self.cpu.parse_ns)  # marshalling
        conn = self.connection_to(shard)
        pipe = self._pipe(conn)
        if deadline is None:
            if timeout_ns is None:
                timeout_ns = self.client_cfg.op_timeout_ns
            deadline = self.sim.now + timeout_ns
        if self._fair:
            yield from self._acquire_slot(pipe, conn, deadline)
        else:
            while (len(pipe.inflight) >= self._window(conn)
                   or (self.hydra.rdma_write_messaging
                       and not pipe.free_slots)):
                drained = yield from self._drain(pipe)
                if drained:
                    continue
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    raise RequestTimeout(
                        f"{self.client_id}: window full and shard silent "
                        f"(conn {conn.conn_id})")
                yield self.sim.any_of([conn.client_doorbell.wait(),
                                       self.sim.timeout(remaining)])
        if self.hydra.rdma_write_messaging:
            slot_bytes = conn.layout.slot_bytes
            if frame_len(len(data)) > slot_bytes:
                raise SlotOverflow(
                    f"request of {len(data)}B exceeds the {slot_bytes}B "
                    f"message slot; raise hydra.conn_buf_bytes or lower "
                    f"hydra.msg_slots_per_conn for large items")
            slot = pipe.free_slots.pop(0)
            pipe.slot_req[slot] = req_id
            if conn.layout.occupancy:
                # The occupancy word rides the frame's doorbell, posted
                # second so RC lands the frame before its announce bit.
                # The word REPLACES the remote value, so it must carry a
                # bit for every in-flight slot whose announce might still
                # be unconsumed; a bit for an already-consumed slot merely
                # costs the shard one spurious probe, never a lost
                # message.  With the announce mask on, slots proven
                # consumed (see _drain) are excluded, so long windows stop
                # re-announcing drained slots.
                if self.hydra.occ_announce_mask and pipe.confirmed:
                    announce = [s for s in pipe.slot_req
                                if s not in pipe.confirmed]
                else:
                    announce = pipe.slot_req
                conn.client_qp.post_write_batch([
                    (conn.req_slot_rptrs[slot], frame(data)),
                    (conn.req_occ_rptr,
                     occ_announce(announce, conn.layout.n_slots)),
                ], signaled=False)
            else:
                conn.client_qp.post_write(conn.req_slot_rptrs[slot],
                                          frame(data), signaled=False)
        else:
            conn.client_qp.post_recv()
            conn.client_qp.post_send(data)
            slot = -1
        pipe.inflight[req_id] = slot
        if self._fair:
            pipe.req_tenant[req_id] = self.tenant
        if self._autotune:
            pipe.issued_ns[req_id] = self.sim.now
        return PendingRequest(req_id=req_id, shard=shard, conn=conn,
                              slot=slot, deadline=deadline)

    def wait(self, pending: PendingRequest):
        """Collect the response for an issued request (blocks until it
        lands or the request's deadline passes).

        A ``Status.THROTTLED`` response (server-side shed) surfaces as
        :class:`TenantThrottled` carrying the shard's retry hint; the
        retry engine sleeps it out under the deadline budget.
        """
        conn = pending.conn
        pipe = self._pipe(conn)
        deadline = pending.deadline
        while True:
            resp = pipe.completed.pop(pending.req_id, None)
            if resp is not None:
                if resp.status is Status.THROTTLED:
                    if self.tmetrics is not None:
                        self._tc_server_shed.add()
                    raise TenantThrottled(
                        f"{self.client_id}: shard shed {resp.op.name} for "
                        f"tenant {self.tenant!r}",
                        retry_after_ns=resp.retry_after_ns,
                        tenant=self.tenant)
                return resp
            drained = yield from self._drain(pipe)
            if drained:
                continue
            remaining = deadline - self.sim.now
            if remaining <= 0:
                # Abandon the request and reclaim its slot (the request —
                # or its response — is presumed lost with the shard).  A
                # late response carries a req_id nobody waits on any more,
                # so _land discards it as stale instead of raising.
                slot = pipe.inflight.pop(pending.req_id, None)
                if slot is not None and slot >= 0:
                    pipe.slot_req.pop(slot, None)
                    pipe.confirmed.discard(slot)
                    insort(pipe.free_slots, slot)
                self._release_slot(pipe, pending.req_id)
                if pipe.issued_ns.pop(pending.req_id, None) is not None:
                    ctl = self._ctls.get(conn.conn_id)
                    if ctl is not None:
                        ctl.on_loss()
                raise RequestTimeout(
                    f"{self.client_id}: no response from shard "
                    f"(conn {conn.conn_id})")
            ev = yield self.sim.any_of([
                conn.client_doorbell.wait(),
                self.sim.timeout(remaining),
            ])
            del ev  # loop re-probes regardless of which event fired

    def _drain(self, pipe: _ConnPipeline):
        """Consume every landed response on one connection (non-blocking).

        Stale responses — req_ids nobody is waiting on any more, e.g. from
        a request that timed out earlier on this connection — are discarded
        and counted instead of poisoning the next call (they used to raise).
        Returns the number of responses landed.
        """
        conn = pipe.conn
        landed = 0
        if self.hydra.rdma_write_messaging:
            # Reuse a pooled scratch list for the slot-order snapshot
            # instead of allocating one per poll.  Pooled (not a single
            # per-client buffer) because fan-outs park many issue/wait
            # processes mid-drain at the poll-probe yields below — each
            # concurrent drain needs its own snapshot.
            scratch = self._drain_scratch
            slots = scratch.pop() if scratch else []
            slots.extend(pipe.slot_req)
            slots.sort()
            try:
                landed = yield from self._drain_slots(pipe, conn, slots)
            finally:
                slots.clear()
                scratch.append(slots)
        else:
            while True:
                cqe = conn.client_qp.recv_cq.poll_one()
                if cqe is None or not cqe.ok:
                    break
                yield self.sim.timeout(self.cpu.cq_poll_ns)
                try:
                    resp = Response.decode(cqe.data)
                except (ValueError, KeyError):
                    resp = None
                if resp is None or pipe.inflight.pop(resp.req_id,
                                                     None) is None:
                    self._c_stale.add()
                    continue
                self._release_slot(pipe, resp.req_id)
                pipe.completed[resp.req_id] = resp
                landed += 1
                if pipe.issued_ns:
                    self._feed_rtt(conn, pipe, resp.req_id)
        return landed

    def _drain_slots(self, pipe: _ConnPipeline, conn: Connection, slots):
        """One-sided drain body: probe each snapshot slot's response
        frame, in slot order."""
        landed = 0
        for slot in slots:
            off = conn.layout.offset(slot)
            payload = consume(conn.resp_region, off)
            if payload is None:
                continue
            clear(conn.resp_region, off, len(payload))
            yield self.sim.timeout(self.cpu.poll_probe_ns)
            try:
                resp = Response.decode(payload)
            except (ValueError, KeyError):
                resp = None
            if resp is None or resp.req_id != pipe.slot_req[slot]:
                # Garbage frame or a late response from a request that
                # timed out before this slot was reused: discard it and
                # keep the slot — its current request is still pending.
                self._c_stale.add()
                continue
            if self.hydra.occ_announce_mask:
                # A response for slot s proves the shard's occupancy
                # snapshot that carried s also carried every slot posted
                # before s and still in flight (each occupancy write is
                # the OR of all unconfirmed in-flight slots, and RC
                # delivers in post order) — so those announces are
                # consumed and need not be re-announced.  It must be post
                # order, not req_id order: under fair queueing a low
                # req_id can wait out a slot grant and post after higher
                # ones, and confirming off req_ids would suppress an
                # announce the shard never saw.  A slot enters
                # ``slot_req`` at its post, so the dict's order is post
                # order.
                for other_slot in pipe.slot_req:
                    if other_slot == slot:
                        break
                    pipe.confirmed.add(other_slot)
            del pipe.slot_req[slot]
            pipe.confirmed.discard(slot)
            insort(pipe.free_slots, slot)
            pipe.inflight.pop(resp.req_id, None)
            self._release_slot(pipe, resp.req_id)
            pipe.completed[resp.req_id] = resp
            landed += 1
            if pipe.issued_ns:
                self._feed_rtt(conn, pipe, resp.req_id)
        return landed

    def _release_slot(self, pipe: _ConnPipeline, req_id: int) -> None:
        """Return a landed/abandoned request's slot to its tenant's
        occupancy budget in the pipeline's arbiter (fair-queueing
        bookkeeping only; a no-op on the default path).

        The release itself pumps the arbiter: occupancy caps may have
        just lifted (the releasing tenant can go idle here, shrinking
        the active set), and the tenants it unblocks may have already
        drained every pending response — with no future doorbell to
        wake them, the grant must happen now, not at their timeout.
        """
        tenant = pipe.req_tenant.pop(req_id, None)
        if tenant is not None and pipe.arbiter is not None:
            pipe.arbiter.release(tenant)
            if pipe.arbiter.waiting():
                pipe.arbiter.pump(self._slot_capacity(pipe, pipe.conn),
                                  total=self._window(pipe.conn))

    def _feed_rtt(self, conn: Connection, pipe: _ConnPipeline,
                  req_id: int) -> None:
        """Feed one landed response's RTT to the connection's AIMD
        controller (``qos.autotune``; the issue instant is recorded by
        whichever tenant handle autotunes, the sample lands in the
        shared per-connection controller)."""
        t0 = pipe.issued_ns.pop(req_id, None)
        if t0 is None:
            return
        ctl = self._ctls.get(conn.conn_id)
        if ctl is not None:
            ctl.on_ack(self.sim.now - t0)

    # -- multi-key operations -----------------------------------------------
    def get_many(self, keys: list[bytes]):
        """Hybrid pipelined multi-GET; returns values aligned with ``keys``.

        Every remote pointer is looked up in the cache up front; the hit
        set is posted as doorbell-coalesced RDMA-Read batches while every
        miss — and every Read demoted by validation — joins one pipelined
        message-path batch that overlaps with the still-in-flight Reads.
        Successful message responses re-prime the pointer cache.

        Results align with ``keys``: value bytes per hit, ``None`` per
        absent key — the same NOT_FOUND-is-a-result contract as
        :meth:`get`, so a mixed batch never raises mid-population.  Keys
        that fail are replayed in further rounds under the one deadline
        budget, exactly as a single :meth:`get` is (see :meth:`_retrying`).
        """
        results: list[Optional[bytes]] = [None] * len(keys)
        yield from self._retrying(
            keys, lambda rnd, items: self._get_round(rnd, items, results),
            "GET_MANY")
        return results

    def put_many(self, pairs: list[tuple[bytes, bytes]]):
        """Pipelined multi-PUT; returns a Status per ``(key, value)``.

        Statuses align with ``pairs``.  Like :meth:`get_many`, failed keys
        are replayed in re-routed rounds under the deadline budget (PUTs
        are idempotent), and every issued request is drained before a
        round reports its failures.
        """
        statuses: list[Status] = [Status.ERROR] * len(pairs)
        values = [value for _key, value in pairs]
        yield from self._retrying(
            [key for key, _value in pairs],
            lambda rnd, items: self._write_round(rnd, items, Op.PUT, values,
                                                 statuses),
            "PUT_MANY")
        return statuses

    # -- rounds: the retry engine's unit of work ---------------------------
    def _get_round(self, rnd: _Round, items: list[_ReadItem],
                   results: list[Optional[bytes]], overlap: bool = True):
        """One GET round: the one-sided Read fan-out, then the message path
        for every key it could not serve.

        With ``overlap`` a demoted key's request is issued the moment its
        miss is known, overlapping the Reads still in flight.  A lone
        :meth:`get` has nothing to overlap: it sends after the fan-out
        returns, behind the Read's residual parse.
        """
        def send(item: _ReadItem):
            return self._send(rnd, item, Request(op=Op.GET, key=item.key))

        def landed(item: _ReadItem, resp: Response):
            if resp.status is Status.OK:
                self._maybe_cache(item.key, resp)
                results[item.idx] = resp.value
            elif resp.status is not Status.NOT_FOUND:
                return BadStatus(resp.status, f"GET {item.key!r}")
            return None

        demoted = items
        if self.cache is not None:
            hits, demoted = yield from self._read_fanout(
                items, on_demote=send if overlap else None)
            for idx, value in hits.items():
                results[idx] = value
        for item in demoted:
            yield from send(item)
        yield from self._gather(rnd, landed)

    def _write_round(self, rnd: _Round, items: list[_ReadItem], op: Op,
                     values, statuses: list[Status]):
        """One round of ``op`` (a mutation or a lease renewal) per key with
        value ``values[item.idx]``; ``statuses[item.idx]`` gets each
        answer."""
        def landed(item: _ReadItem, resp: Response):
            if op is Op.LEASE_RENEW:
                if resp.status is Status.OK:
                    self._maybe_cache(item.key, resp)
            elif self.cache is not None:
                # Any *completed* mutation drops the cached pointer — not
                # just Status.OK.  A DELETE/UPDATE that raced to NOT_FOUND
                # means a concurrent writer already retired the extent we
                # point at; keeping the entry would leave co-located
                # sharers Reading a dead item until the lease lapsed.
                # (Out-of-place updates make our own pointer stale on OK.)
                self.cache.invalidate(item.key)
            statuses[item.idx] = resp.status
            return None

        for item in items:
            yield from self._send(rnd, item, Request(
                op=op, key=item.key, value=values[item.idx]))
        yield from self._gather(rnd, landed)

    def _send(self, rnd: _Round, item: _ReadItem, req: Request):
        """Issue one request of a round (over TCP: run it to completion).

        A transport failure fails the key and marks its shard dead for
        the rest of the round, so one dead primary costs the round one
        timeout, not one per key.
        """
        exc = rnd.dead.get(item.shard)
        if exc is None:
            try:
                if self.hydra.transport == "tcp":
                    pending = yield from self._tcp_request(item.shard, req)
                else:
                    pending = yield from self.issue(
                        item.shard, req, rnd.timeout_ns, rnd.end)
                    rnd.end = pending.deadline
            except _RETRYABLE as err:
                exc = rnd.dead[item.shard] = err
            else:
                rnd.pendings.append((item, pending))
                return
        rnd.failed.append((item, exc))

    def _gather(self, rnd: _Round, landed):
        """Collect every response a round issued, in issue order.

        Each response goes to ``landed(item, resp)``; a shed or a transport
        failure fails its key instead.  Every pending is waited out — an
        abandoned one would leak its slot — before the first error
        ``landed`` returned is raised.
        """
        error = None
        for item, pending in rnd.pendings:
            if type(pending) is Response:
                resp = pending
            else:
                try:
                    resp = yield from self.wait(pending)
                except _ROUND_FAILURES as exc:
                    rnd.failed.append((item, exc))
                    continue
            err = landed(item, resp)
            if error is None:
                error = err
        if error is not None:
            raise error

    def _tcp_request(self, shard: Shard, req: Request):
        """Kernel-TCP request path (transport == "tcp").

        One attempt bounded by ``client.op_timeout_ns``: resets, truncated
        messages, and silent loss all surface as :class:`RequestTimeout`
        (retryable) after the stale socket is torn down, never as a raw
        transport exception or an unbounded recv.
        """
        req = Request(op=req.op, key=req.key, value=req.value,
                      req_id=next(self._req_ids), tenant=self._wire_tenant)
        self._c_messages.add()
        data = req.encode()
        yield self.sim.timeout(self.cpu.parse_ns)  # marshalling
        conn = self._tcp_conns.get(shard)
        if conn is not None and not conn.open:
            self.drop_connection(shard)
            conn = None
        if conn is None:
            if shard.tcp_port < 0:
                raise ShardUnavailable(
                    f"{shard.shard_id} has no TCP listener "
                    "(is the cluster started?)")
            try:
                conn = yield self.machine.tcp.connect(shard.machine.tcp,
                                                      shard.tcp_port)
            except TcpError as exc:
                raise RequestTimeout(
                    f"{self.client_id}: TCP connect to {shard.shard_id} "
                    f"failed ({exc})") from exc
            self._tcp_conns[shard] = conn
        deadline = self.sim.now + self.client_cfg.op_timeout_ns
        try:
            yield conn.send(data, req.wire_len + 40)
        except TcpError as exc:
            self.drop_connection(shard)
            raise RequestTimeout(
                f"{self.client_id}: TCP send to {shard.shard_id} "
                f"failed ({exc})") from exc
        while True:
            remaining = deadline - self.sim.now
            if remaining <= 0 or not conn.open:
                self.drop_connection(shard)
                raise RequestTimeout(
                    f"{self.client_id}: no TCP response from "
                    f"{shard.shard_id}")
            recv_ev = conn.recv()
            yield self.sim.any_of([recv_ev, self.sim.timeout(remaining)])
            if not recv_ev.triggered:
                # Timed out: the response is lost (reset, short read on
                # the request, gray shard).  Abandon the socket — a late
                # response must not be matched to a future request.
                self.drop_connection(shard)
                raise RequestTimeout(
                    f"{self.client_id}: no TCP response from "
                    f"{shard.shard_id}")
            payload, _n = recv_ev.value
            try:
                resp = Response.decode(payload)
            except (ValueError, KeyError):
                # Truncated/garbled message (injected short read): drop
                # it and keep reading until the deadline.
                self._c_stale.add()
                continue
            if resp.req_id == req.req_id:
                return resp
            # A stale response from a previously timed-out request on this
            # socket: discard and keep reading instead of raising.
            self._c_stale.add()
