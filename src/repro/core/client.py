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
and compete for its message slots and read windows.  Every tenant
decision (admission, DRR slot grants, AIMD windows, the read-window
share, shed errors) is made by the handle's
:class:`~repro.qos.TenantPolicy`, consulted at one ``is None`` test per
hook; a default handle has no policy and takes none of those branches.

Failure handling (§5): every public operation runs as *rounds* of one
retry engine (:meth:`HydraClient._retrying`) — a single-key op is a round
of one — under one deadline budget (``client.op_deadline_us``).  A round
issues every key's request and waits them all out; it has one deadline,
``client.op_timeout_ns`` past its first post, so a silent shard costs a
round one timeout however many keys it holds.  Keys the shard *shed*
(``Status.THROTTLED``) are replayed after the largest retry hint, on the
same connection.  Keys that failed at the transport level (timeout, QP
error, dead NIC) cost their shards' connections and cached pointers, and
are re-routed through the (versioned) routing table and replayed
against whatever shard now owns them, with capped exponential backoff
between rounds, cut short by the router's ``route_change`` gate.  A route
swap also wakes every request still waiting on the deposed shard, which
fails its round at once, and a round whose route moved replays without
backing off: a SWAT promotion is picked up the instant it is
republished, not when an attempt on the dead primary times out.  Only
when the whole budget lapses does the caller see a
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
from typing import Optional, TYPE_CHECKING

from ..config import SimConfig
from ..hardware import Machine
from ..protocol import (Op, Request, Response, Status, clear, consume,
                         frame, frame_len, occ_announce)
from ..protocol.messages import _REQ
from ..rdma import Nic, NicDown, QpError, RemotePointer
from ..rdma.tcp import TcpError
from ..sim import MetricSet, Simulator
from .errors import (BadStatus, RecoveryInProgress, RequestTimeout,
                     ShardUnavailable, SlotOverflow, TenantThrottled)
from .rptr import (ABSENT, CachedPointer, ColdWalk, HIT, LEASE_SAFETY_NS,
                   PointerRead, READ_FRAME, READ_ITEM, ReadPath, RptrCache)
from .shard import Connection, Shard

if TYPE_CHECKING:  # pragma: no cover
    from ..qos import PipeQos, TenantPolicy

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
    #: Instant the request was posted (message round-trip sampling).
    posted_ns: int


@dataclass(frozen=True)
class _ReadItem:
    """One key of a round: its index in the op, key, and owning shard."""

    idx: int
    key: bytes
    shard: Shard


@dataclass
class _ReadState:
    """In-flight one-sided-Read bookkeeping for one connection."""

    conn: Connection
    #: Estimators for the server machine this connection reaches.
    path: ReadPath
    #: ``(item, read)`` pairs not yet posted, ``read`` a
    #: :class:`PointerRead` or :class:`ColdWalk` whose ``rptr`` is due.
    queue: list = field(default_factory=list)
    inflight: int = 0
    #: Post instant of the outstanding batch (read-window AIMD sampling).
    post_ns: int = 0
    #: The connection pipeline's tenant state (tenant handles only).
    qos: Optional["PipeQos"] = None


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
    #: Slots whose announce is proven consumed by the shard: excluded
    #: from subsequent occupancy words so long windows stop
    #: re-announcing drained slots.
    confirmed: set = field(default_factory=set)
    #: Processes asleep in :meth:`HydraClient.issue`'s window-full wait:
    #: whoever frees a slot while one sleeps rings the doorbell for it.
    window_waiters: int = 0
    #: Tenant state (slot arbiter, AIMD controllers, read use), attached
    #: by the first tenant handle that uses the connection.
    qos: Optional["PipeQos"] = None


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
    by each pipeline's :class:`~repro.qos.PipeQos`.  A standalone
    :class:`HydraClient` creates a private transport, preserving the
    single-tenant behavior bit-for-bit.
    """

    __slots__ = ("conns", "tcp_conns", "pipes", "req_ids")

    def __init__(self):
        self.conns: dict[Shard, Connection] = {}
        self.tcp_conns: dict[Shard, object] = {}
        self.pipes: dict[int, _ConnPipeline] = {}
        self.req_ids = count(1)


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
                 deadline_us: Optional[int] = None,
                 policy: Optional["TenantPolicy"] = None,
                 shared: Optional[ClientTransport] = None):
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
        #: The tenant's traffic-engineering policy, shared by every handle
        #: of the tenant; None (the default handle) takes the exact
        #: pre-QoS code paths.
        self.policy = policy
        self._wire_tenant = b"" if policy is None else policy.wire
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
        self.conns = shared.conns
        self._tcp_conns = shared.tcp_conns
        self._pipes = shared.pipes
        self._req_ids = shared.req_ids
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
        #: Pool of drain-order scratch lists (one per *concurrent* drain:
        #: fan-outs run many issue/wait processes on one handle, each of
        #: which may be parked mid-drain at a simulated poll yield).
        self._drain_scratch: list[list[int]] = []

    # -- connections ---------------------------------------------------------
    def connection_to(self, shard: Shard) -> Connection:
        """The (lazily created) RDMA connection to a shard.

        A cached connection whose QP was torn down (by the peer, a flap,
        or the shard's process dying) is dropped and re-established up
        front, so a post-failover operation reconnects immediately
        instead of failing its post.  One that is still connected but
        cannot reach its peer (a dead NIC) is kept: a replacement would
        be just as dead, and other requests may be waiting on it for the
        route swap.  So a client holds at most one connection per shard
        and routing generation while that shard's NIC is down.
        """
        conn = self.conns.get(shard)
        if conn is not None and not conn.client_qp.connected:
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
        ``route_change`` gate; blocking on it alongside the timer ends
        the sleep at the next route swap.  Only a round that failed
        before its shard was swapped out sleeps here at all (see
        :meth:`_retrying`): a request still waiting on the deposed shard
        at the swap is woken by it, and its round replays at once.  So
        the blackout a failing primary costs a client is detection +
        reaction + the swap, with no residual backoff or attempt timeout
        on top.
        """
        gate = self.router.route_change
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
          level (timeout / QP error / dead NIC / deposed shard) in
          failure order, drop those keys' cached pointers and back off
          (capped exponential, cut short by a route change) — unless the
          routing generation moved since the round was routed: then the
          next round starts at once, on the new route.  Once the
          deadline lapses raise :class:`RecoveryInProgress` if a failed
          key's shard is replaying its durable log, else
          :class:`ShardUnavailable`.
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
        policy = self.policy
        while True:
            if policy is not None:
                yield from policy.admit(self.client_id, deadline, opname,
                                        len(todo))
            generation = self.router.generation
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
                if policy is not None:
                    policy.ops.add()
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
                # breaks.  A connection to a dead NIC stays up until its
                # shard is deposed (see connection_to): a replacement
                # would be just as dead.
                for shard in dict.fromkeys(item.shard for item, _exc in lost):
                    qp = getattr(self.conns.get(shard), "client_qp", None)
                    stranded = qp is not None and qp.connected \
                        and not qp.usable
                    if shard.deposed or not stranded:
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
                if self.router.generation == generation:
                    yield from self._backoff(min(backoff_ns, remaining))
                    backoff_ns = min(backoff_ns * 2, backoff_cap_ns)
            todo = [(item.idx, item.key) for item, _exc in failed]

    # -- pipelined one-sided read engine ------------------------------------
    def _post_read_batch(self, cs: _ReadState):
        """Post the next doorbell-coalesced Read batch on one connection.

        Returns ``(posted, failed)``: ``posted`` holds at most one
        ``(ops, batch_event, cs)`` triple — the whole chain completes
        through **one** event whose value lists the completions in post
        order; ``failed`` holds every queued item when the QP turns out
        to be unusable (torn down by a failover) — the caller demotes
        those to the message path.

        A tenant handle's policy sizes the window (AIMD with
        ``qos.autotune``) and shares it weight-proportionally across the
        tenants with reads outstanding on this connection, so an
        aggressor's fan-outs cannot monopolize the read window any more
        than the message slots.
        """
        static = self.client_cfg.max_inflight_reads
        if cs.qos is None:
            room = max(1, static) - cs.inflight
        else:
            room = self.policy.read_room(cs.qos, static)
        n = min(room, len(cs.queue))
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
                [read.rptr for _item, read in batch])
        except QpError:
            # Dead QP: nothing on this connection can be read one-sidedly.
            failed = batch + cs.queue
            cs.queue = []
            return [], failed
        cs.inflight += n
        if cs.qos is not None:
            self.policy.reads_posted(cs.qos, n)
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

        Cold keys (no usable pointer) walk the server's exported index
        when at least ``traversal.min_fanout`` of them share the fan-out.
        Below that, each cold key walks only while its server machine's
        :class:`ReadPath` says one frame Read beats a message round trip,
        and such a walk stops at that one Read.  Every chain's post ->
        last-CQE time and every value returned feed that estimator.

        What each completion means is decided by the key's
        :class:`PointerRead` or :class:`ColdWalk` (``core/rptr.py``); this
        engine posts their Reads and carries out their actions.

        Returns ``(hits, demoted)``: ``hits`` maps item index -> value,
        ``demoted`` lists items the caller must route through messages
        (empty when ``on_demote`` consumed them).
        """
        cache = self.cache
        policy = self.policy
        hits: dict[int, Optional[bytes]] = {}
        demoted: list[_ReadItem] = []

        def demote(item: _ReadItem):
            self._c_demotions.add()
            if on_demote is None:
                demoted.append(item)
            else:
                yield from on_demote(item)

        def settle(item: _ReadItem, read, act: int, cs: _ReadState) -> bool:
            """Carry out ``read``'s action for ``item``; True when the key
            must demote."""
            if read.raced:
                self._c_races.add()
            if act == READ_FRAME:
                self._c_bucket_reads.add()
                cs.queue.append((item, read))
            elif act == READ_ITEM:
                cs.queue.append((item, read))
            elif act == HIT:
                hits[item.idx] = read.value
                cs.path.on_value(len(item.key), len(read.value))
                if read.prime is not None:
                    # A *synthetic* expiry of half the read horizon: the
                    # server holds no lease for this pointer, but defers
                    # every reclaim ``read_horizon_ns`` past retirement,
                    # so within it the extent can be dead or poisoned —
                    # both caught by validation — yet never reused.
                    cache.store(item.key, CachedPointer(
                        rptr=read.prime,
                        lease_expiry_ns=(self.sim.now
                                         + self.trav_cfg.read_horizon_ns
                                         // 2),
                        version=read.version))
            elif act == ABSENT:
                hits[item.idx] = None
            else:
                return True
            return False

        def fail(reads: list):
            """Reads that could not be posted (dead QP): demote their
            keys."""
            for item, read in reads:
                read.abandon()
                yield from demote(item)

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

        def state_for(conn: Connection, shard: Shard) -> _ReadState:
            cs = states.get(conn.conn_id)
            if cs is None:
                cs = states[conn.conn_id] = _ReadState(
                    conn, cache.path_to(shard.machine.machine_id))
                if policy is not None:
                    cs.qos = policy.state(self._pipe(conn))
            return cs

        def start_walk(item: _ReadItem, conn: Connection,
                       single: bool = False) -> None:
            settle(item, ColdWalk(item.key, conn.index,
                                  self.trav_cfg.max_retries, single),
                   READ_FRAME, state_for(conn, item.shard))

        misses: list[_ReadItem] = []
        cold: list[tuple[_ReadItem, Connection]] = []
        for item, entry in zip(items, entries):
            if entry is not None:
                if entry.lease_expiry_ns < self.sim.now + LEASE_SAFETY_NS:
                    # Trusted under the skewed clock, expired on the true
                    # one: a potential dead-item read the guard missed.
                    self._c_skew_hazards.add()
                cs = state_for(self.connection_to(item.shard), item.shard)
                cs.queue.append((item, PointerRead(item.key, entry.rptr,
                                                   cache)))
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
                start_walk(item, conn)
        else:
            # Too few to share a doorbell: one frame Read per key, and
            # only while the server NIC has Read capacity to spare.
            for item, conn in cold:
                if cache.path_to(item.shard.machine.machine_id).walk():
                    start_walk(item, conn, single=True)
                else:
                    misses.append(item)
        #: (reads, batch event, conn state) gather list — one entry per
        #: posted chain; reads are in flight from here on, so everything
        #: below overlaps with them.
        pending: list = []
        unusable: list = []
        for cs in states.values():
            posted, failed = self._post_read_batch(cs)
            pending.extend(posted)
            unusable.extend(failed)
        for item in misses:
            yield from demote(item)
        yield from fail(unusable)
        i = 0
        while i < len(pending):
            reads, ev, cs = pending[i]
            i += 1
            wcs = yield ev
            cs.inflight -= len(reads)
            if cs.qos is not None:
                policy.reads_landed(cs.qos, len(reads), wcs, cs.post_ns)
            if wcs:
                cs.path.on_read(max(wc.ns for wc in wcs) - cs.post_ns)
            # The CQ drained incrementally while the chain was in flight:
            # WQE i's CQE landed at wc.ns, so its parse overlapped the
            # tail of the chain.  Model that poll pipeline — each parse
            # starts at max(CQE arrival, previous parse end) — and pay
            # only the residual lag past the batch completion instead of
            # serialising every parse after the last CQE.
            parse_ns = self.cpu.parse_ns
            pipe = 0
            for (item, read), wc in zip(reads, wcs):
                pipe = max(pipe, wc.ns) + parse_ns
                if settle(item, read, read.step(wc.ok, wc.data), cs):
                    yield from demote(item)
            # Every step above copies out of wc.data; the chain's pooled
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
                yield from fail(failed)
        return hits, demoted

    def _maybe_cache(self, key: bytes, resp: Response) -> None:
        if self.cache is None or not resp.remote_pointer_valid:
            return
        self.cache.store(key, CachedPointer(
            rptr=RemotePointer(resp.rkey, resp.roffset, resp.rlen),
            lease_expiry_ns=resp.lease_expiry_ns,
            version=resp.version,
        ))

    # -- pipelined message path (issue / wait split) ------------------------
    def _window(self, pipe: _ConnPipeline) -> int:
        """Message-path in-flight window for one connection (the static
        ``client`` knob, or the tenant policy's AIMD window)."""
        static = self.client_cfg.max_inflight_per_conn
        if self.policy is None:
            window = max(1, static)
        else:
            window = self.policy.window(pipe, static)
        if self.hydra.rdma_write_messaging:
            window = min(window, pipe.conn.n_slots)
        return window

    def _slot_capacity(self, pipe: _ConnPipeline) -> int:
        """Grantable slot capacity right now (window minus in-flight,
        bounded by actually-free request slots)."""
        cap = self._window(pipe) - len(pipe.inflight)
        if self.hydra.rdma_write_messaging:
            cap = min(cap, len(pipe.free_slots))
        return cap

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
        Either wait also ends, as a :class:`RequestTimeout`, the moment a
        route swap deposes ``shard`` (:meth:`Shard.depose`).
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
        policy = self.policy
        if policy is None or not (
                yield from policy.acquire(self, pipe, shard, deadline)):
            while (len(pipe.inflight) >= self._window(pipe)
                   or (self.hydra.rdma_write_messaging
                       and not pipe.free_slots)):
                drained = yield from self._drain(pipe)
                if drained:
                    continue
                remaining = deadline - self.sim.now
                if remaining <= 0 or shard.deposed:
                    raise RequestTimeout(
                        f"{self.client_id}: window full and shard silent "
                        f"(conn {conn.conn_id})")
                pipe.window_waiters += 1
                yield self.sim.any_of([conn.client_doorbell.wait(),
                                       self.sim.timeout(remaining)])
                pipe.window_waiters -= 1
        if self.hydra.rdma_write_messaging:
            slot_bytes = conn.layout.slot_bytes
            if frame_len(len(data)) > slot_bytes:
                raise SlotOverflow(
                    f"request of {len(data)}B exceeds the {slot_bytes}B "
                    f"message slot; raise hydra.conn_buf_bytes or lower "
                    f"hydra.msg_slots_per_conn for large items")
            slot = pipe.free_slots.pop(0)
            pipe.slot_req[slot] = req_id
            if conn.req_occ_rptr is None:
                # One slot: the shard polls the frame's own indicator.
                conn.client_qp.post_write(conn.req_slot_rptrs[slot],
                                          frame(data), signaled=False)
            else:
                # The occupancy word rides the frame's doorbell, posted
                # second so RC lands the frame before its announce bit.
                # The word REPLACES the remote value, so it must carry a
                # bit for every in-flight slot whose announce might still
                # be unconsumed; a bit for an already-consumed slot merely
                # costs the shard one spurious probe, never a lost
                # message.  Slots proven consumed (see _drain) are left
                # out, so long windows stop re-announcing drained slots.
                if pipe.confirmed:
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
            conn.client_qp.post_recv()
            conn.client_qp.post_send(data)
            slot = -1
        pipe.inflight[req_id] = slot
        if policy is not None:
            policy.posted(pipe, req_id)
        return PendingRequest(req_id=req_id, shard=shard, conn=conn,
                              slot=slot, deadline=deadline,
                              posted_ns=self.sim.now)

    def wait(self, pending: PendingRequest):
        """Collect the response for an issued request (blocks until it
        lands, the request's deadline passes or a route swap deposes its
        shard; the last two abandon it and raise :class:`RequestTimeout`).

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
                    # Shards shed only frames that name a tenant, and
                    # only a tenant handle (with a policy) names one.
                    raise self.policy.shed(self.client_id, resp)
                return resp
            drained = yield from self._drain(pipe)
            if drained:
                continue
            remaining = deadline - self.sim.now
            if remaining <= 0 or pending.shard.deposed:
                # Abandon the request and reclaim its slot (the request —
                # or its response — is presumed lost with the shard, or
                # a route swap deposed the shard and woke us).  A late
                # response carries a req_id nobody waits on any more,
                # so _land discards it as stale instead of raising.
                slot = pipe.inflight.pop(pending.req_id, None)
                if slot is not None and slot >= 0:
                    pipe.slot_req.pop(slot, None)
                    pipe.confirmed.discard(slot)
                    insort(pipe.free_slots, slot)
                if slot is not None and pipe.window_waiters:
                    conn.client_doorbell.fire()  # see _drain_slots
                if pipe.qos is not None:
                    pipe.qos.done(self, pipe, pending.req_id, lost=True)
                raise RequestTimeout(
                    f"{self.client_id}: no response from shard "
                    f"(conn {conn.conn_id}"
                    f"{', deposed' if remaining > 0 else ''})")
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
                if pipe.window_waiters:
                    conn.client_doorbell.fire()  # see _drain_slots
                pipe.completed[resp.req_id] = resp
                landed += 1
                if pipe.qos is not None:
                    pipe.qos.done(self, pipe, resp.req_id)
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
            if resp is None or resp.req_id != pipe.slot_req.get(slot):
                # Garbage frame or a late response (delayed or duplicated
                # on the wire) for a request this slot no longer holds:
                # discard it and keep the slot as it is — free, or its
                # current request still pending.
                self._c_stale.add()
                continue
            # A response for slot s proves the shard's occupancy snapshot
            # that carried s also carried every slot posted before s and
            # still in flight (each occupancy write is the OR of all
            # unconfirmed in-flight slots, and RC delivers in post order)
            # — so those announces are consumed and need not be
            # re-announced.  It must be post order, not req_id order:
            # under fair queueing a low req_id can wait out a slot grant
            # and post after higher ones, and confirming off req_ids
            # would suppress an announce the shard never saw.  A slot
            # enters ``slot_req`` at its post, so the dict's order is
            # post order.
            for other_slot in pipe.slot_req:
                if other_slot == slot:
                    break
                pipe.confirmed.add(other_slot)
            del pipe.slot_req[slot]
            pipe.confirmed.discard(slot)
            insort(pipe.free_slots, slot)
            pipe.inflight.pop(resp.req_id, None)
            if pipe.window_waiters:
                # A window waiter that woke on this frame's doorbell may
                # have found it consumed and gone back to sleep before the
                # slot was free: ring again for it (no event otherwise).
                conn.client_doorbell.fire()
            pipe.completed[resp.req_id] = resp
            landed += 1
            if pipe.qos is not None:
                pipe.qos.done(self, pipe, resp.req_id)
        return landed

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

        def landed(item: _ReadItem, resp: Response, pending):
            if self.cache is not None:
                path = self.cache.path_to(item.shard.machine.machine_id)
                path.on_message(self.sim.now - pending.posted_ns)
                if resp.status is Status.OK:
                    path.on_value(len(item.key), len(resp.value))
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
        def landed(item: _ReadItem, resp: Response, _pending):
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

        Each response goes to ``landed(item, resp, pending)``; a shed or a
        transport failure fails its key instead.  Every pending is waited
        out — an abandoned one would leak its slot — before the first
        error ``landed`` returned is raised.
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
            err = landed(item, resp, pending)
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
