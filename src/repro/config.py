"""Central configuration for the HydraDB reproduction.

Every tunable cost and size lives here as a frozen-by-convention dataclass.
Defaults are calibrated to the paper's testbed class (2.6 GHz Xeon E5-4650L,
4 NUMA nodes, 40 Gb/s ConnectX-3 through one IS5030 switch; see DESIGN.md §5).
All times are integer nanoseconds; all rates are bytes per nanosecond.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

__all__ = [
    "FabricConfig",
    "NicConfig",
    "TcpConfig",
    "CpuConfig",
    "MemoryConfig",
    "HydraConfig",
    "ClientConfig",
    "TraversalConfig",
    "QosConfig",
    "ReplicationConfig",
    "DurabilityConfig",
    "CoordConfig",
    "SimConfig",
]


@dataclass
class FabricConfig:
    """Switch / link model (one hop through a single switch)."""

    #: One-way propagation through NIC-link-switch-link-NIC, excluding
    #: serialization and per-op NIC processing.
    propagation_ns: int = 500
    #: NIC-internal loopback between processes on the same machine.
    loopback_ns: int = 150
    #: 40 Gb/s InfiniBand QDR payload rate = 5 B/ns.
    bandwidth_bpns: float = 5.0
    #: RC transport gives up and completes with RETRY_EXC after this long
    #: without a response from the peer (dead-node detection path).
    retry_timeout_ns: int = 2_000_000

    def serialization_ns(self, nbytes: int) -> int:
        """Wire time for ``nbytes`` at InfiniBand line rate."""
        return int(nbytes / self.bandwidth_bpns)


@dataclass
class NicConfig:
    """RDMA-capable NIC model.

    Per-operation processing is serialized inside each engine (TX and RX),
    which makes the NIC a finite-rate device: ~1/tx_op_ns operations per
    nanosecond when unloaded.  When the number of live queue pairs exceeds
    the on-NIC QP state cache, connection state must be fetched from host
    memory and every operation slows down — this models the connection
    scalability wall discussed in §6.3 of the paper.
    """

    #: Initiator-side work per verb (doorbell, WQE fetch, DMA setup).
    tx_op_ns: int = 90
    #: Target-side work per inbound verb (RETH decode, DMA).
    rx_op_ns: int = 70
    #: Extra target-side work for an inbound RDMA Read (responder fetches
    #: payload from host memory and generates the response packet) — still
    #: zero *CPU*, but more NIC work than a write.
    read_responder_ns: int = 140
    #: Portion of ``tx_op_ns`` that is the MMIO doorbell write.  WQEs after
    #: the first in a doorbell-coalesced batch (``post_read_batch``) skip
    #: it: the initiator rings once for the whole chain, the standard
    #: batching lever surveyed in the RDMA hash-table literature.
    doorbell_ns: int = 40
    #: Extra cost for two-sided Send: receive-WQE consumption + CQE DMA.
    send_recv_extra_ns: int = 250
    #: QP state cache capacity; past this, each op pays ``qp_miss_ns``
    #: scaled by how badly the cache is oversubscribed.
    qp_cache_entries: int = 256
    qp_miss_ns: int = 120
    #: Unreliable Datagram loss probability (injected; real IB fabrics
    #: lose UD packets under congestion/SRQ exhaustion).  UD sends carry
    #: no QP connection state, so they never pay the QP-cache penalty —
    #: HERD's scalability argument — but they may silently vanish, the
    #: reliability gap §3 holds against HERD.
    ud_drop_probability: float = 0.0

    def qp_penalty_ns(self, active_qps: int) -> int:
        """Per-op slowdown from QP state cache misses."""
        if active_qps <= self.qp_cache_entries:
            return 0
        over = active_qps - self.qp_cache_entries
        miss_rate = over / active_qps
        return int(self.qp_miss_ns * miss_rate * (1.0 + over / self.qp_cache_entries))


@dataclass
class TcpConfig:
    """Kernel TCP (IPoIB) model for the baselines and HydraDB-TCP mode."""

    #: Socket syscall + kernel stack + copy, charged to the sending CPU.
    kernel_tx_ns: int = 11_000
    #: Interrupt + stack + copy to user, charged to the receiving CPU.
    kernel_rx_ns: int = 13_000
    #: Serialized interrupt/softirq processing per inbound message: IPoIB
    #: of the paper's era had no receive-side scaling, so one core drains
    #: the queue — the machine-level message-rate ceiling (~250 K msg/s).
    softirq_rx_ns: int = 4_000
    #: Propagation is the same wire, but IPoIB encapsulation adds latency.
    propagation_ns: int = 9_000
    #: Effective IPoIB goodput is far below line rate (~12 Gb/s observed).
    bandwidth_bpns: float = 1.5

    def serialization_ns(self, nbytes: int) -> int:
        """Wire time for ``nbytes`` at IPoIB goodput."""
        return int(nbytes / self.bandwidth_bpns)


@dataclass
class CpuConfig:
    """Server/client CPU cost model (2.6 GHz-class core)."""

    #: Inspect one request-buffer indicator word (cached poll).
    poll_probe_ns: int = 25
    #: Decode a request header / build a response header.
    parse_ns: int = 120
    build_response_ns: int = 100
    #: 64-bit hash of a small key.
    hash_key_ns: int = 40
    #: One cacheline fetch from local-NUMA DRAM.
    cacheline_local_ns: int = 85
    #: ...and from a remote NUMA domain.
    cacheline_remote_ns: int = 240
    #: Streaming copy rate for key/value payloads.
    memcpy_bpns: float = 12.0
    #: Allocation from the slab allocator (size-class pop).
    alloc_ns: int = 100
    free_ns: int = 60
    #: Additional write-path work per mutation: slab bookkeeping, lease
    #: table update, reclaim enqueue, stats.  This is the server-side
    #: read/write asymmetry §6.1 observes.
    update_extra_ns: int = 1500
    #: Full key comparison per 8-byte word (only on signature match).
    keycmp_word_ns: int = 6
    #: Post a receive WQE (two-sided mode only).
    post_recv_ns: int = 110
    #: Poll a completion queue (two-sided mode) — costlier than a memory
    #: probe because it is a ring-buffer read + ownership check.
    cq_poll_ns: int = 90
    #: Per-request server-side overhead of the two-sided path: completion
    #: channel handling, CQE consumption, SRQ bookkeeping — why §4.2.1's
    #: RDMA-Write messaging wins by 75-163%.
    sendrecv_server_extra_ns: int = 800
    #: High-resolution sleep the shard enters after idle polling.
    idle_sleep_ns: int = 100
    #: Consecutive empty poll sweeps before sleeping.
    idle_polls_before_sleep: int = 64
    #: §4.2.1 sleep-mode mitigation: False = pure busy polling (the shard
    #: core burns 100% CPU when idle, but requests are detected with no
    #: residual-sleep delay).
    sleep_backoff: bool = True

    def memcpy_ns(self, nbytes: int) -> int:
        """Streaming-copy time for a payload."""
        return int(nbytes / self.memcpy_bpns)

    def cacheline_ns(self, lines: int, remote: bool = False) -> int:
        """Latency-bound fetch of ``lines`` cachelines."""
        per = self.cacheline_remote_ns if remote else self.cacheline_local_ns
        return lines * per


@dataclass
class MemoryConfig:
    """KV memory substrate sizing."""

    #: Per-shard value arena (bytes).  Items are allocated out-of-place, so
    #: this must hold live + dead-awaiting-lease-expiry items.
    arena_bytes: int = 64 << 20
    #: Slab size classes (bytes); item extents round up to one of these.
    size_classes: tuple[int, ...] = (64, 96, 128, 192, 256, 512, 1024,
                                     4096, 65536, 1 << 20, 4 << 20)
    #: Background reclamation sweep period.
    reclaim_period_ns: int = 50_000_000


@dataclass
class HydraConfig:
    """HydraDB protocol parameters.

    The fields choose protocol behaviour — messaging, response batching,
    shard variant, transport — never between two implementations of the
    same behaviour: every combination runs through the one shard request
    body and the one RDMA data path.
    """

    #: Per-connection request/response buffer bytes.
    conn_buf_bytes: int = 16 << 10
    #: Indicator-framed message slots each connection buffer is divided
    #: into (§4.2.1 generalized).  1 = the original single-message layout;
    #: K > 1 lets a client keep up to K requests in flight on one
    #: connection, with responses slot-matched to their requests.
    msg_slots_per_conn: int = 1
    #: Per-connection drain budget for server sweeps: a single sweep
    #: consumes at most this many ready slots from one connection, then
    #: re-marks it ready so the next sweep continues — one hot
    #: connection cannot dominate a sweep's handling time under skew.
    #: 0 = unbounded (drain everything found).
    sweep_drain_budget: int = 0
    #: TCP-mode ready-queue drain cap: one epoll-style wake drains up to
    #: this many queued payloads, and their responses are flushed per
    #: connection through one batched syscall (``send_many``) instead of
    #: one syscall each.  1 restores one-payload-per-wake.
    tcp_drain_batch: int = 16
    #: Hash-table buckets per shard (power of two).
    buckets_per_shard: int = 1 << 15
    #: Lease bounds (paper: 1 s .. 64 s scaled by observed popularity).
    lease_min_ns: int = 1_000_000_000
    lease_max_ns: int = 64_000_000_000
    #: GET count at which a key is considered maximally popular.
    lease_popularity_saturation: int = 64
    #: Client-side lease renewal period for keys it deems popular.
    lease_renew_period_ns: int = 500_000_000
    #: Use RDMA-Write indicator messaging (False = two-sided Send/Recv).
    rdma_write_messaging: bool = True
    #: 64-bit occupancy bitmap in a header word of each request buffer
    #: (the connection-buffer analogue of §4.1.3's bucket occupancy
    #: filter): the client sets a slot's bit with the same doorbell as
    #: its slot write, the shard snapshots+clears the word, and a sweep
    #: probes one word per connection instead of every slot.
    occupancy_word: bool = True
    #: Doorbells carry *which* connection fired, and the shard keeps a
    #: ready set so a sweep visits only dirty connections (periodic full
    #: sweeps remain as a safety net).  False = every sweep walks every
    #: connection (the seed design).
    ready_hints: bool = True
    #: Responses produced by one sweep are buffered per connection and
    #: flushed as a single doorbell-coalesced RDMA Write chain of at most
    #: this many WQEs.  0 disables batching: every response rings its own
    #: doorbell (the seed design).
    resp_doorbell_batch: int = 16
    #: Age bound (ns) on a buffered response: once the oldest response in a
    #: ``_SweepBatch`` has sat this long, the batch is flushed even if the
    #: sweep/queue that is filling it has not finished.  Bounds the added
    #: latency of doorbell batching under trickle load and under giant
    #: sweeps.  0 disables the age flush (flush only at sweep boundary /
    #: queue drain / batch cap).
    resp_flush_max_ns: int = 100_000
    #: "Announced since last response" masking of the occupancy word,
    #: on both ends of the wire.  Client side: each occupancy write
    #: carries only the in-flight slots not yet proven consumed (a
    #: response for req r proves every older in-flight announce was in
    #: the snapshot the shard swept).  Shard side: a re-announced bit
    #: for a slot that was consumed but whose response has not been
    #: posted yet is provably stale — the client cannot have reused the
    #: slot — and is skipped without a probe.  Long in-flight windows
    #: then stop re-announcing consumed slots, keeping shard probes ~=
    #: requests.  False = full-window rewrite, probe every bit.
    occ_announce_mask: bool = True
    #: Transport: "rdma" (the paper's main mode) or "tcp" (the kernel
    #: TCP/IPoIB fallback HydraDB also supports, §6) — in tcp mode the
    #: remote-pointer fast path is unavailable and every message costs
    #: server CPU in the stack.
    transport: str = "rdma"
    #: Pipelined (decoupled I/O / worker) shard variant for the §6.2.1
    #: ablation; False = the paper's single-threaded design.
    pipelined_shards: bool = False
    #: Sub-shards per instance (§6.3 future-work feature): 0 disables;
    #: K > 0 gives each shard instance K independent executor cores behind
    #: one connection endpoint, cutting the cluster QP count by K.
    subshards: int = 0
    #: I/O dispatcher threads per pipelined shard instance.
    pipeline_io_threads: int = 2
    pipeline_worker_threads: int = 2
    #: Pipeline hand-off cost (enqueue + wakeup + cacheline bounce).
    pipeline_handoff_ns: int = 800
    #: Per-op shared-store lock acquire/release cost in pipelined mode.
    pipeline_lock_ns: int = 150
    #: Store-access inflation in pipelined mode (Fig. 5 discussion):
    #: reads of the shared partition mostly hit replicated clean lines,
    #: while writes invalidate them across worker cores.
    pipeline_read_penalty: float = 1.3
    pipeline_write_penalty: float = 2.2


@dataclass
class ClientConfig:
    """Client-library parameters (windows, timeouts, retry, pointer cache).

    The ``client`` section of :class:`SimConfig`.
    """

    #: Client-side in-flight window per connection.  The effective window
    #: on the RDMA-Write message path is min(this, msg_slots_per_conn).
    #: 1 preserves the original stop-and-wait behavior.
    max_inflight_per_conn: int = 1
    #: Per-connection cap on outstanding one-sided Reads in the batched
    #: GET fan-out.  Reads are posted in doorbell-coalesced batches of at
    #: most this many WQEs; single-key GETs post batches of one, so the
    #: default changes nothing for them.
    max_inflight_reads: int = 16
    #: Client gives up on a response after this long (failover trigger).
    #: This bounds ONE message-path attempt; the public operations retry
    #: attempts under the ``op_deadline_us`` budget below.
    op_timeout_ns: int = 50_000_000
    #: Per-request deadline budget (microseconds) for every public client
    #: operation.  On a timeout / QP error the client tears down the stale
    #: connection, re-resolves the key through the (versioned) routing
    #: table, and replays the request with capped exponential backoff
    #: until this budget lapses — then raises ShardUnavailable.  The
    #: default comfortably covers a full SWAT failover (ZooKeeper session
    #: expiry + reaction + promotion ≈ 2.5 s).  0 disables retries: every
    #: attempt failure surfaces immediately (the pre-retry API).
    op_deadline_us: int = 4_000_000
    #: Capped exponential backoff between retry attempts (microseconds):
    #: first wait, and the cap it doubles up to.  A routing-table change
    #: notification short-circuits the wait, so promoted shards are
    #: retried as soon as SWAT republishes the route.
    retry_backoff_min_us: int = 1_000
    retry_backoff_max_us: int = 100_000
    #: Enable the RDMA-Read fast path with remote-pointer caching.
    rptr_cache_enabled: bool = True
    #: Share the remote-pointer cache among co-located clients (§4.2.4).
    rptr_sharing: bool = True
    #: Client rptr cache capacity (entries) when exclusive.
    rptr_cache_entries: int = 1 << 16
    #: Extra guard subtracted from lease horizons at lookup time, covering
    #: worst-case client clock skew (``machine.clock_skew_ns``).  A client
    #: whose clock runs behind the server would otherwise trust a cached
    #: remote pointer past its true lease expiry; set this at least as
    #: large as the deployment's skew bound to keep one-sided reads safe.
    lease_skew_guard_ns: int = 0


@dataclass
class TraversalConfig:
    """Client-side one-sided index traversal (§4.2.2 extended)."""

    #: The shard exports its compact hash table's buckets as a
    #: client-readable RDMA region, and a cold GET (no cached remote
    #: pointer) resolves with a one-sided bucket Read followed by an item
    #: Read — 2 RTTs, zero server CPU — instead of demoting to the
    #: message path.  False restores the PR-2 behavior (cold keys always
    #: go through messages).
    enabled: bool = True
    #: Bounded optimistic retry for the traversal: a read that races a
    #: concurrent mutation (bucket version moved, guardian flipped,
    #: reclaimed bytes) re-reads the bucket at most this many times
    #: before demoting the key to the message path.
    max_retries: int = 3
    #: Minimum number of *cold* keys in one read fan-out before the
    #: traversal engine engages.  A lone cold key is two dependent RTTs
    #: one-sided versus one message round-trip to an often-idle core, so
    #: the message path wins below this; at or above it the bucket Reads
    #: of different keys pipeline through one doorbell and the traversal
    #: amortizes.  1 = traverse every cold key (bench cold cells).
    min_fanout: int = 2
    #: Exported overflow-bucket frames per shard.  Chains that extend
    #: past this capacity set the demote flag in their last exported
    #: frame and clients fall back to the message path for them.
    export_overflow: int = 1024
    #: Read-horizon deferral (ns): a retired extent is never freed
    #: earlier than retire-time + this horizon, even if its frozen lease
    #: has already lapsed.  Bounds the window in which a traversal's
    #: bucket snapshot can hold an offset, so the follow-up item Read
    #: lands on intact (if DEAD-guarded) bytes rather than a recycled
    #: extent.  A walk is a handful of RTTs (~10 us with retries), so
    #: 1 ms is ~100x margin while staying well inside typical lease
    #: lengths — the lease, not the horizon, governs reclaim latency.
    read_horizon_ns: int = 1_000_000


@dataclass
class QosConfig:
    """Multi-tenant traffic engineering (PR 8).

    Doubles as the per-tenant policy handed to
    ``HydraCluster.client(tenant=..., qos=QosConfig(...))`` and as the
    cluster-wide defaults section ``SimConfig.qos``.
    """

    #: Token-bucket admission: sustained rate in ops/second (0 = no
    #: admission control) and the bucket depth in ops.  An op issued with
    #: the bucket empty waits out the refill under its deadline budget,
    #: or raises :class:`~repro.core.errors.TenantThrottled` carrying the
    #: ``retry_after_ns`` hint when the budget cannot cover the wait.
    rate_ops: float = 0.0
    burst: int = 32
    #: Deficit-round-robin weight of this tenant when competing for
    #: message slots / read window on a shared connection.
    weight: float = 1.0
    #: Fair queueing: arbitrate pending slot acquisitions across tenants
    #: sharing a connection pipeline with DRR.  False = legacy free-for-
    #: all (first process to wake takes the slot).
    fair_queueing: bool = True
    #: Slots granted per DRR round per unit weight.  1 = strict
    #: round-robin interleaving; larger quanta trade fairness granularity
    #: for doorbell/batching efficiency.
    drr_quantum: float = 1.0
    #: AIMD self-tuning of the per-connection in-flight and read windows
    #: from observed RTT: replaces the static ``client.max_inflight_*``
    #: caps when on.
    autotune: bool = False
    aimd_min_window: int = 1
    aimd_max_window: int = 64
    #: EWMA smoothing factor for the RTT estimate.
    aimd_rtt_smooth: float = 0.125
    #: Multiplicative decrease triggers when smoothed RTT exceeds this
    #: multiple of the best RTT seen (queueing-delay congestion signal).
    aimd_rtt_inflation: float = 3.0
    #: Window multiplier on congestion (loss or RTT inflation).
    aimd_decrease: float = 0.5
    #: Clean completions per +1 additive-increase step.
    aimd_probe_interval: int = 8
    #: Server-side load shedding: with N > 0, a sweep that finds more
    #: than N requests from one tenant while other tenants are also
    #: queued sheds the excess with ``Status.THROTTLED`` instead of
    #: executing them.  0 = never shed (default).
    server_shed_slots: int = 0
    #: ``retry_after_ns`` hint carried by server-side THROTTLED responses.
    shed_retry_after_ns: int = 200_000


@dataclass
class ReplicationConfig:
    """High-availability / replication parameters (§5)."""

    #: Number of secondary shards per primary (0 disables replication).
    replicas: int = 0
    #: "rdma_log" (§5.2) or "strict" (request/ack per record).
    mode: str = "rdma_log"
    #: Secondary-exposed replication ring size.
    log_bytes: int = 8 << 20
    #: Primary requests an acknowledgement every N records (relaxed model).
    ack_interval: int = 32
    #: Secondary merge-thread poll period when idle.
    merge_poll_ns: int = 200
    #: Primary CPU cost to build + post one replication record.
    post_cost_ns: int = 400
    #: Injected per-record failure probability on the secondary (tests).
    fault_probability: float = 0.0


@dataclass
class DurabilityConfig:
    """Write-behind durable log tier (simulated PM; ``repro/durable``).

    Disabled by default: the durable tier is strictly additive to the
    replication ring, and enabling it changes event schedules (golden
    digests pin the default-off behavior).

    Group commit is self-clocked (a flush starts whenever records are
    staged and the device is idle), so there is no batching knob.

    Stated limit of ``ack_on_flush``: a full log (``log_bytes``) is
    fail-soft — the overflowing group is dropped, counted in
    ``durable.log_full``, and its acks are still released; benches
    hard-fail on a non-zero count.
    """

    #: Master switch: give every primary shard a PM device + durable log.
    enabled: bool = False
    #: When an acked write counts as safe on the durability path:
    #: "ack_on_replicate" — ack as soon as the secondary write posts
    #: (log flush is purely write-behind); "ack_on_flush" — the response
    #: parks until the group-commit flush covering the write lands, so
    #: every acked write is durable even if primary AND secondary die.
    ack_mode: str = "ack_on_replicate"
    #: PM write latency and bandwidth (bytes per nanosecond).
    pm_write_latency_ns: int = 3_000
    pm_bandwidth_bpns: float = 2.0
    #: Device capacity per shard (watermark block + log frames).
    log_bytes: int = 32 << 20
    #: Primary CPU cost to stage one record (off the replication path).
    append_cost_ns: int = 150
    #: Recovery CPU cost per replayed record (on top of store apply cost).
    replay_apply_ns: int = 400


@dataclass
class CoordConfig:
    """ZooKeeper + SWAT parameters."""

    #: Session heartbeat period and expiry multiple.
    heartbeat_ns: int = 500_000_000
    session_timeout_ns: int = 2_000_000_000
    #: ZK request proposal/commit latency (quorum round).
    zk_op_ns: int = 1_200_000
    #: SWAT reaction processing time after a failure notification.
    swat_react_ns: int = 5_000_000


@dataclass
class SimConfig:
    """Root configuration aggregating every subsystem."""

    seed: int = 42
    fabric: FabricConfig = field(default_factory=FabricConfig)
    nic: NicConfig = field(default_factory=NicConfig)
    tcp: TcpConfig = field(default_factory=TcpConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    hydra: HydraConfig = field(default_factory=HydraConfig)
    client: ClientConfig = field(default_factory=ClientConfig)
    traversal: TraversalConfig = field(default_factory=TraversalConfig)
    qos: QosConfig = field(default_factory=QosConfig)
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    coord: CoordConfig = field(default_factory=CoordConfig)

    def with_overrides(self, **sections: dict[str, Any]) -> "SimConfig":
        """Return a copy with per-section field overrides.

        Example::

            cfg.with_overrides(client={"rptr_cache_enabled": False},
                               replication={"replicas": 2})

        An unknown field — including a client or traversal knob given
        under ``hydra=`` instead of its own section — raises
        :class:`TypeError`.
        """
        updates: dict[str, Any] = {}
        for section, fields in sections.items():
            current = getattr(self, section)
            updates[section] = replace(current, **fields)
        return replace(self, **updates)
