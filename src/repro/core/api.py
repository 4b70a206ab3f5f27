"""Public facade: build and drive a HydraDB cluster in one object.

Quickstart::

    from repro import HydraCluster

    cluster = HydraCluster(n_server_machines=1, shards_per_server=4,
                           n_client_machines=1)
    cluster.start()
    client = cluster.client()

    def app():
        yield from client.put(b"user:1", b"Ada")
        value = yield from client.get(b"user:1")
        assert value == b"Ada"

    cluster.run(app())

The cluster owns the simulator, fabric, machines, servers, the consistent-
hashing ring, and the routing table that maps ring entries to the shard
objects currently serving them (updated by SWAT on failover).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional

from ..config import QosConfig, SimConfig
from ..hardware import Machine
from ..protocol import Op
from ..qos import TenantPolicy
from ..rdma import Fabric, TcpNetwork
from ..sim import Gate, MetricSet, Simulator
from .client import ClientTransport, HydraClient
from .errors import LifecycleError
from .ring import HashRing
from .rptr import RptrCache
from .server import HydraServer
from .shard import Shard

__all__ = ["HydraCluster", "RoutingTable"]


class RoutingTable:
    """shard-id -> live Shard object; the SWAT failover path swaps entries.

    The table is *versioned*: every swap of an already-routed entry bumps
    ``generation``, so clients can detect staleness with one integer
    compare instead of re-resolving every key.  When built with a
    simulator, ``route_change`` is a broadcast :class:`~repro.sim.Gate`
    fired on each swap — a retrying client blocks on it to pick up a SWAT
    promotion the instant the route is republished rather than sleeping
    out its whole backoff.
    """

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self._map: dict[str, Shard] = {}
        #: Bumped on every entry *swap* (not on initial installs).
        self.generation = 0
        #: Fires on every swap (None when built without a simulator).
        self.route_change: Optional[Gate] = (
            Gate(sim) if sim is not None else None)
        #: Shard ids currently mid full-crash recovery (durable-log
        #: replay): clients surface RecoveryInProgress for these rather
        #: than a generic ShardUnavailable when their deadline lapses.
        self._recovering: set[str] = set()

    def set(self, shard_id: str, shard: Shard) -> None:
        """Install/replace the shard serving ``shard_id``.

        Replacing a routed entry with a different shard object is a
        *swap* (SWAT promotion, log recovery): the generation counter
        advances, the deposed shard wakes every client waiting on it
        (:meth:`Shard.depose`), and the change gate fires.
        """
        prev = self._map.get(shard_id)
        self._map[shard_id] = shard
        if prev is not None and prev is not shard:
            self.generation += 1
            if isinstance(prev, Shard):
                prev.depose()
            if self.route_change is not None:
                self.route_change.fire(shard_id)

    def resolve(self, shard_id: str) -> Shard:
        """The live shard currently serving ``shard_id``."""
        return self._map[shard_id]

    def shard_ids(self) -> list[str]:
        """Every routable shard id."""
        return list(self._map)

    def live_shards(self) -> list[Shard]:
        """Every currently routed shard object."""
        return list(self._map.values())

    # -- recovery markers ---------------------------------------------------
    def mark_recovering(self, shard_id: str) -> None:
        self._recovering.add(shard_id)

    def clear_recovering(self, shard_id: str) -> None:
        self._recovering.discard(shard_id)

    def is_recovering(self, shard_id: str) -> bool:
        """True while ``shard_id`` is being rebuilt from its durable log."""
        return shard_id in self._recovering


class HydraCluster:
    """A complete HydraDB deployment plus its client machines."""

    def __init__(self, config: Optional[SimConfig] = None,
                 n_server_machines: int = 1, shards_per_server: int = 4,
                 n_client_machines: int = 1,
                 table_kind: str = "compact", numa_mode: str = "local",
                 scribble_on_reclaim: bool = False,
                 cores_per_numa: int = 8,
                 sim: Optional[Simulator] = None):
        self.config = config or SimConfig()
        self.sim = sim or Simulator()
        self.metrics = MetricSet(self.sim)
        self.fabric = Fabric(self.sim, self.config, metrics=self.metrics)
        self.tcpnet = TcpNetwork(self.sim, self.config)
        self.server_machines: list[Machine] = []
        self.client_machines: list[Machine] = []
        self.servers: list[HydraServer] = []
        self.ring = HashRing()
        self.routing = RoutingTable(self.sim)
        self._machine_counter = 0
        #: Per-client-machine shared remote-pointer caches (§4.2.4).
        self._shared_caches: dict[int, RptrCache] = {}
        #: Per-machine shared connection transports for tenant-scoped
        #: handles (tenants on one machine share connections so fair
        #: queueing arbitrates real contention).
        self._transports: dict[int, ClientTransport] = {}
        #: Per-tenant traffic-engineering policies, first handle wins —
        #: every handle of one tenant drains one admission budget.
        self._policies: dict[str, TenantPolicy] = {}
        self._started = False
        for _ in range(n_server_machines):
            machine = self._new_machine(cores_per_numa)
            self.server_machines.append(machine)
            server = HydraServer(
                self.sim, self.config, machine,
                server_id=f"s{len(self.servers)}",
                n_shards=shards_per_server, metrics=self.metrics,
                table_kind=table_kind, numa_mode=numa_mode,
                scribble_on_reclaim=scribble_on_reclaim,
            )
            self.servers.append(server)
            for shard in server.shards:
                self.ring.add(shard.shard_id)
                self.routing.set(shard.shard_id, shard)
        for _ in range(n_client_machines):
            self.client_machines.append(self._new_machine(cores_per_numa))
        #: Replication state (populated when config.replication.replicas > 0):
        #: dedicated replica machines, per-primary replicators/secondaries.
        self.replica_machines: list[Machine] = []
        self.replicators: dict[str, object] = {}
        self.secondaries: dict[str, list] = {}
        if self.config.replication.replicas > 0:
            self._wire_replication(cores_per_numa)
        #: Durable tier (populated when config.durability.enabled): the
        #: cluster — not the shard — owns each shard's PM device, so its
        #: contents survive shard/server death for full-crash recovery.
        self._cores_per_numa = cores_per_numa
        self.durable_devices: dict[str, object] = {}
        self.durable_logs: dict[str, object] = {}
        if self.config.durability.enabled:
            self._wire_durability()

    def _wire_replication(self, cores_per_numa: int) -> None:
        from ..replication import LogReplicator, SecondaryShard

        replicas = self.config.replication.replicas
        for _ in range(replicas):
            self.replica_machines.append(self._new_machine(cores_per_numa))
        for server in self.servers:
            for shard in server.shards:
                replicator = LogReplicator(self.sim, self.config, shard,
                                           metrics=self.metrics)
                secs = []
                for k in range(replicas):
                    machine = self.replica_machines[k]
                    sec_id = f"{shard.shard_id}.r{k}"
                    core = machine.allocate_core(sec_id)
                    sec = SecondaryShard(self.sim, self.config, sec_id,
                                         machine, core, metrics=self.metrics)
                    replicator.add_secondary(sec)
                    secs.append(sec)
                self.replicators[shard.shard_id] = replicator
                self.secondaries[shard.shard_id] = secs

    def _wire_durability(self) -> None:
        from ..durable import DurableLog, PMDevice

        dur = self.config.durability
        for server in self.servers:
            for shard in server.shards:
                device = PMDevice(self.sim, dur.log_bytes,
                                  write_latency_ns=dur.pm_write_latency_ns,
                                  bandwidth_bpns=dur.pm_bandwidth_bpns,
                                  name=f"{shard.shard_id}.pm")
                dlog = DurableLog(self.sim, self.config, device,
                                  metrics=self.metrics,
                                  name=f"{shard.shard_id}.dlog")
                shard.attach_durable(dlog)
                self.durable_devices[shard.shard_id] = device
                self.durable_logs[shard.shard_id] = dlog

    def _new_machine(self, cores_per_numa: int) -> Machine:
        machine = Machine(self.sim, self._machine_counter, self.config,
                          cores_per_numa=cores_per_numa)
        self._machine_counter += 1
        self.fabric.attach(machine)
        self.tcpnet.attach(machine)
        return machine

    # -- router protocol (used by HydraClient) -----------------------------
    def route(self, key: bytes) -> Shard:
        """The shard owning ``key`` (ring lookup + routing table)."""
        from ..index.hashing import hash64
        return self.routing.resolve(self.ring.owner(hash64(key)))

    def shards(self) -> list[Shard]:
        """All live shards, in ring-member order (the order their ids
        joined the ring — deterministic, not hash-seed dependent)."""
        return [self.routing.resolve(sid) for sid in self.ring.members]

    def key_recovering(self, key: bytes) -> bool:
        """True while the shard owning ``key`` is replaying its log."""
        from ..index.hashing import hash64
        return self.routing.is_recovering(self.ring.owner(hash64(key)))

    @property
    def generation(self) -> int:
        """Routing-table generation (bumped on every SWAT swap)."""
        return self.routing.generation

    @property
    def route_change(self):
        """Broadcast gate fired whenever a route is swapped."""
        return self.routing.route_change

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Launch every shard (and secondary) process."""
        if self._started:
            raise LifecycleError("cluster already started")
        self._started = True
        for server in self.servers:
            server.start()
        for secs in self.secondaries.values():
            for sec in secs:
                sec.start()
        for dlog in self.durable_logs.values():
            if not dlog.alive:
                dlog.start()

    def stop(self) -> None:
        """Cleanly halt every shard, secondary, and reclaimer process.

        Idempotent; unlike a failure injection (``server.kill()``) the
        NICs stay up, so a stopped cluster's simulator can keep running
        other processes.  Used by the context-manager protocol.
        """
        for server in self.servers:
            for shard in server.shards:
                if shard.alive:
                    shard.kill()
        for secs in self.secondaries.values():
            for sec in secs:
                sec.kill()
        self._started = False

    def __enter__(self) -> "HydraCluster":
        """``with HydraCluster(...) as cluster:`` starts the cluster."""
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Leaving the ``with`` block stops every cluster process."""
        self.stop()

    def run(self, *processes: Generator, until=None):
        """Spawn processes and run the simulation until they all finish."""
        procs = [self.sim.process(p) for p in processes]
        if until is not None:
            return self.sim.run(until=until)
        if len(procs) == 1:
            return self.sim.run(until=procs[0])
        return self.sim.run(until=self.sim.all_of(procs))

    # -- full-crash recovery ------------------------------------------------
    def recover_shard(self, shard_id: str):
        """Rebuild a shard from its durable log after a correlated crash.

        Generator (driven by a SWAT leader, or directly in tests);
        returns the fresh primary.  The sequence:

        1. mark the route *recovering* (clients raise RecoveryInProgress
           instead of plain ShardUnavailable while their deadlines lapse),
        2. scan the PM device — guardian-validate every frame, truncate a
           torn tail, stop (loudly) on mid-log corruption,
        3. replay the validated records into a fresh store in log order
           (force-applied versions make double replay idempotent),
        4. salvage any contiguous unmerged suffix from surviving
           secondary rings, ``promote_drain()``-style,
        5. restart the durable log on the same device past the validated
           tail, start the shard (its exported index is the populated
           store's own table), and swap the route — the generation bump
           fires ``route_change`` so failover-aware clients replay
           through the recovered primary.
        """
        from ..durable import DurableLog, LOG_BASE, replay_into, scan_log

        device = self.durable_devices[shard_id]
        old_log = self.durable_logs.get(shard_id)
        if old_log is not None:
            old_log.crash()  # idempotent if the shard's kill() already ran
        self.routing.mark_recovering(shard_id)
        t0 = self.sim.now
        m = self.metrics
        try:
            machine = self._new_machine(self._cores_per_numa)
            self.server_machines.append(machine)
            core = machine.allocate_core(shard_id)
            shard = Shard(self.sim, self.config, shard_id, machine, core,
                          metrics=m)
            scan = scan_log(device)
            valid_end = LOG_BASE + scan.valid_bytes
            if scan.torn_bytes:
                m.counter("durable.torn_truncated_bytes").add(
                    scan.torn_bytes)
                device.zero(valid_end, max(0, device.hiwater - valid_end))
            if scan.guardian_mismatches:
                m.counter("durable.guardian_mismatches").add(
                    scan.guardian_mismatches)
            replayed = yield from replay_into(self.sim, device, scan,
                                              shard.store, self.config)
            for sec in self.secondaries.get(shard_id, []):
                self._salvage_ring(sec, shard.store)
            dlog = DurableLog(self.sim, self.config, device, metrics=m,
                              name=f"{shard_id}.dlog",
                              start_seq=scan.next_seq, tail=valid_end)
            shard.attach_durable(dlog)
            self.durable_logs[shard_id] = dlog
            dlog.start()
            # The replication fan-out died with the correlated crash; the
            # durable log alone carries the shard until re-provisioning.
            self.replicators.pop(shard_id, None)
            self.secondaries[shard_id] = []
            shard.start()
            self.routing.set(shard_id, shard)
            m.counter("durable.recoveries").add()
            m.counter("durable.replayed").add(replayed)
            m.tally("durable.recovery_ns").observe(self.sim.now - t0)
            return shard
        finally:
            self.routing.clear_recovering(shard_id)

    def _salvage_ring(self, sec, store) -> int:
        """Drain a surviving secondary ring's unmerged suffix
        (:meth:`~repro.replication.secondary.SecondaryShard.ring_suffix`)
        into a recovering store.  A secondary stopped on a merge fault
        (``failing``) contributes the records it discarded too, in
        sequence: each is a valid record the primary applied, only
        unprocessed.  Suffix records that the log replay already covered
        are skipped by the version guard (PUTs) or degrade to no-op
        removes (DELETEs).
        """
        applied = 0
        for record in sec.ring_suffix():
            if (record.op is not Op.DELETE
                    and record.version <= store.get(record.key).version):
                continue
            store.apply(record.op, record.key, record.value,
                        version=record.version)
            applied += 1
        if applied:
            self.metrics.counter("durable.salvaged").add(applied)
        return applied

    def enable_ha(self, n_swat: int = 3):
        """Attach the ZooKeeper + SWAT control plane (call before start())."""
        from ..coord import HaControl
        self.ha = HaControl(self, n_swat=n_swat)
        self.ha.start()
        return self.ha

    # -- clients ---------------------------------------------------------
    def client(self, machine_index: int = 0, connect: bool = True,
               deadline_us: Optional[int] = None, tenant: str = "default",
               qos: Optional[QosConfig] = None,
               share_transport: bool = False) -> HydraClient:
        """Create a client handle on the i-th client machine.

        ``deadline_us`` overrides ``client.op_deadline_us`` for this
        handle only (0 = single-attempt mode, no retries).

        ``tenant``/``qos`` scope the handle to a named tenant with a
        traffic-engineering policy (:class:`~repro.qos.TenantPolicy`):
        tenant handles on one machine share the machine's connections,
        with token-bucket admission (``qos.rate_ops``), DRR-fair slot
        queueing (``qos.fair_queueing``), and AIMD window autotuning
        (``qos.autotune``) per the policy.  A named tenant without an
        explicit ``qos`` inherits a copy of the cluster-wide
        ``config.qos``.  A tenant's first handle fixes its policy; later
        handles of the same tenant share it.  The default
        ``tenant="default"`` with no ``qos`` has no policy and is
        bit-for-bit the pre-tenant client.

        ``share_transport`` makes default-tenant handles on one machine
        share that machine's connections/QPs too (as the paper's client
        processes share their host NIC's QP state).  Large-scale benches
        use this: thousands of closed-loop clients would otherwise mean
        thousands of connections *per shard*.
        """
        machine = self.client_machines[machine_index]
        return self.client_on(machine, connect=connect,
                              deadline_us=deadline_us, tenant=tenant,
                              qos=qos, share_transport=share_transport)

    def client_on(self, machine: Machine, connect: bool = True,
                  deadline_us: Optional[int] = None,
                  tenant: str = "default",
                  qos: Optional[QosConfig] = None,
                  share_transport: bool = False) -> HydraClient:
        """Create a client on an arbitrary machine (co-location allowed)."""
        cache = None
        if (self.config.client.rptr_cache_enabled
                and self.config.client.rptr_sharing):
            cache = self._shared_caches.get(machine.machine_id)
            if cache is None:
                cache = RptrCache(self.config.client.rptr_cache_entries)
                self._shared_caches[machine.machine_id] = cache
            else:
                cache.add_sharer()
        if qos is None and tenant != "default":
            qos = replace(self.config.qos)
        shared = None
        policy = None
        if qos is not None or share_transport:
            # Tenant handles on one machine share one transport: the same
            # physical connections, slots, and windows — the contention
            # the QoS layer arbitrates.  ``share_transport`` opts plain
            # handles into the same sharing (QP-state economy at scale).
            shared = self._transports.get(machine.machine_id)
            if shared is None:
                shared = self._transports[machine.machine_id] = (
                    ClientTransport())
        if qos is not None:
            policy = self._policies.get(tenant)
            if policy is None:
                policy = self._policies[tenant] = TenantPolicy(
                    self.sim, tenant, qos, self.metrics)
        client = HydraClient(self.sim, self.config, machine, router=self,
                             metrics=self.metrics, rptr_cache=cache,
                             deadline_us=deadline_us, policy=policy,
                             shared=shared)
        if connect:
            client.connect_all()
        return client

    def rptr_stats(self) -> dict[str, int]:
        """Aggregate remote-pointer cache counters across shared caches."""
        agg = {"successful_hits": 0, "invalid_hits": 0, "expired": 0,
               "misses": 0, "entries": 0, "evictions": 0,
               "batches": 0, "batch_keys": 0, "batch_hits": 0}
        for cache in self._shared_caches.values():
            for k, v in cache.stats().items():
                agg[k] = agg.get(k, 0) + v
        return agg
