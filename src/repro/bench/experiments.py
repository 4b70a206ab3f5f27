"""Canned reproductions of every figure in the paper's evaluation.

Each ``fig*`` function runs the corresponding experiment at a configurable
``scale`` (fraction of the default op/record counts — the paper's 60 M-op
runs are scaled to simulator-friendly sizes; shapes, not absolute ops,
are the reproduction target) and returns printable dict-rows.  The
``benchmarks/`` tree wraps these for pytest-benchmark; EXPERIMENTS.md
records paper-vs-measured values produced by these exact functions.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Iterable, Optional, Sequence

from ..baselines import (
    MemcachedClient,
    MemcachedServer,
    RamcloudClient,
    RamcloudServer,
    RedisClient,
    RedisServer,
)
from ..config import SimConfig
from ..core import HydraCluster
from ..hardware import Machine
from ..index.export import fits_inline
from ..index.hashing import hash64
from ..protocol import Op, Status
from ..rdma import Fabric, TcpNetwork
from ..sim import Simulator
from ..workloads import (
    FIG2_APPS,
    G2Profile,
    HdfsBackend,
    HydraBackend,
    HydraTcpBackend,
    InMemoryDatabase,
    DbClient,
    PAPER_WORKLOADS,
    YcsbWorkload,
    hydra_g2_cluster,
    preload_entities,
    run_engines,
    run_job,
)
from ..workloads.ycsb import YcsbSpec
from .runner import drive_ycsb, preload_dicts, preload_hydra, run_hydra_ycsb
from .stats import RunResult

__all__ = [
    "default_scale",
    "fig2_mapreduce",
    "fig3_sensemaking",
    "fig9_overall",
    "fig10_rdma_choices",
    "fig11_hit_analysis",
    "fig12_scale_out",
    "fig12_scale_up",
    "fig13_replication",
    "ablation_hash_table",
    "ablation_numa",
    "ablation_rptr_sharing",
    "ablation_subsharding",
    "ablation_sleep_backoff",
    "ablation_transport",
    "ablation_ud_messaging",
    "ablation_lease_length",
    "ablation_value_size",
    "ablation_ack_interval",
    "failover_availability",
    "inflight_sweep",
    "multiget_sweep",
    "recovery_dualfail",
    "server_sweep",
    "write_failover_artifact",
    "write_inflight_artifact",
    "write_multiget_artifact",
    "write_recovery_artifact",
    "write_sweep_artifact",
]

#: Default op/record count at scale=1.0 (the paper uses 60 M of each).
BASE_OPS = 10_000

_MS = 1_000_000


def default_scale() -> float:
    """Scale factor from the REPRO_SCALE environment variable (default 1)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def _scaled_spec(base: YcsbSpec, scale: float) -> YcsbSpec:
    n = max(500, int(BASE_OPS * scale))
    return base.scaled(records=n, ops=n)


def _workloads(scale: float,
               subset: Optional[Iterable[str]] = None) -> list[YcsbWorkload]:
    specs = PAPER_WORKLOADS
    if subset is not None:
        wanted = set(subset)
        specs = tuple(s for s in specs if s.name in wanted)
    return [YcsbWorkload(_scaled_spec(s, scale)) for s in specs]


# ---------------------------------------------------------------------------
# Baseline worlds (shared TCP/RDMA topology builder)
# ---------------------------------------------------------------------------

class _World:
    """A bare simulated cluster for baseline systems."""

    def __init__(self, n_machines: int, config: Optional[SimConfig] = None):
        self.config = config or SimConfig()
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, self.config)
        self.tcpnet = TcpNetwork(self.sim, self.config)
        self.machines = [Machine(self.sim, i, self.config)
                         for i in range(n_machines)]
        for m in self.machines:
            self.fabric.attach(m)
            self.tcpnet.attach(m)


def _run_baseline(kind: str, workload: YcsbWorkload,
                  n_clients: int) -> RunResult:
    world = _World(6)  # 1 server + 5 client machines, as in §6
    server_machine = world.machines[0]
    client_machines = world.machines[1:]
    if kind == "memcached":
        server = MemcachedServer(world.sim, world.config, server_machine)
        preload_dicts([server.store], lambda k: 0, workload)
        server.start()
        clients = [MemcachedClient(world.sim, world.config,
                                   client_machines[i % 5], server)
                   for i in range(n_clients)]
    elif kind == "redis":
        server = RedisServer(world.sim, world.config, server_machine)
        n_inst = len(server.instances)
        preload_dicts([inst.store for inst in server.instances],
                      lambda k: hash64(k) % n_inst, workload)
        server.start()
        clients = [RedisClient(world.sim, world.config,
                               client_machines[i % 5], server)
                   for i in range(n_clients)]
    elif kind == "ramcloud":
        server = RamcloudServer(world.sim, world.config, server_machine)
        preload_dicts([server.store], lambda k: 0, workload)
        server.start()
        clients = [RamcloudClient(world.sim, world.config,
                                  client_machines[i % 5], server)
                   for i in range(n_clients)]
    else:
        raise ValueError(f"unknown baseline {kind!r}")
    return drive_ycsb(world.sim, clients, workload,
                      name=f"{kind}/{workload.spec.name}")


def _run_hydra(workload: YcsbWorkload, n_clients: int,
               config: Optional[SimConfig] = None, shards: int = 4,
               n_server_machines: int = 1,
               client_machines: int = 5) -> RunResult:
    cluster = HydraCluster(config=config or SimConfig(),
                           n_server_machines=n_server_machines,
                           shards_per_server=shards,
                           n_client_machines=client_machines)
    return run_hydra_ycsb(cluster, workload, n_clients=n_clients,
                          clients_per_machine=-(-n_clients // client_machines),
                          name=f"hydradb/{workload.spec.name}")


# ---------------------------------------------------------------------------
# Fig. 2 — MapReduce acceleration
# ---------------------------------------------------------------------------

def fig2_mapreduce(scale: float = 1.0,
                   apps=FIG2_APPS) -> list[dict]:
    """Speedup of HydraDB (RDMA and TCP) over in-memory HDFS per app."""
    rows = []
    for profile in apps:
        if scale != 1.0:
            from dataclasses import replace
            profile = replace(profile,
                              input_mb=max(8, int(profile.input_mb * scale)))

        world = _World(3)
        hdfs = HdfsBackend(world.sim, world.config, world.machines[0],
                           world.machines[1:])
        conns = [world.sim.run(until=world.sim.process(
            hdfs.connect(world.machines[1 + i % 2])))
            for i in range(profile.n_tasks)]
        t_hdfs = run_job(world.sim, profile, conns)

        backend = HydraBackend(None, SimConfig())
        backend.preload(profile.input_mb)
        conns = [backend.sim.run(until=backend.sim.process(
            backend.connect(i))) for i in range(profile.n_tasks)]
        t_rdma = run_job(backend.sim, profile, conns)

        world2 = _World(3)
        tcp = HydraTcpBackend(world2.sim, world2.config, world2.machines[0])
        conns = [world2.sim.run(until=world2.sim.process(
            tcp.connect(world2.machines[1 + i % 2])))
            for i in range(profile.n_tasks)]
        t_tcp = run_job(world2.sim, profile, conns)

        rows.append({
            "app": profile.name,
            "framework": profile.framework,
            "hdfs_ms": t_hdfs / 1e6,
            "hydra_rdma_ms": t_rdma / 1e6,
            "hydra_tcp_ms": t_tcp / 1e6,
            "speedup_rdma": t_hdfs / t_rdma,
            "speedup_tcp": t_hdfs / t_tcp,
        })
    return rows


# ---------------------------------------------------------------------------
# Fig. 3 — G2 Sensemaking
# ---------------------------------------------------------------------------

def fig3_sensemaking(scale: float = 1.0,
                     engine_counts: Sequence[int] = (1, 2, 4, 8, 16, 32)
                     ) -> list[dict]:
    """Events/sec vs engine count: HydraDB vs the in-memory database."""
    profile = G2Profile(entity_space=max(1000, int(10_000 * scale)))
    events = max(20, int(60 * scale))
    rows = []
    for n in engine_counts:
        world = _World(5)
        db = InMemoryDatabase(world.sim, world.config, world.machines[0])
        preload_entities(db.tables.__setitem__, profile)
        db_clients = [DbClient(world.sim, world.machines[1 + i % 4], db)
                      for i in range(n)]
        db_eps, _ = run_engines(world.sim, db_clients, profile, events)

        cluster = hydra_g2_cluster()
        from ..protocol import Op
        preload_entities(
            lambda k, v: cluster.route(k).store.upsert(k, v, Op.PUT), profile)
        cluster.start()
        hy_clients = [cluster.client(i % 4) for i in range(n)]
        hy_eps, _ = run_engines(cluster.sim, hy_clients, profile, events)
        rows.append({
            "engines": n,
            "db_events_per_s": db_eps,
            "hydra_events_per_s": hy_eps,
            "ratio": hy_eps / db_eps,
        })
    return rows


# ---------------------------------------------------------------------------
# Fig. 9 — overall comparison against Memcached / Redis / RAMCloud
# ---------------------------------------------------------------------------

def fig9_overall(scale: float = 1.0, n_clients: int = 50,
                 systems: Sequence[str] = ("hydradb", "memcached", "redis",
                                           "ramcloud"),
                 subset: Optional[Iterable[str]] = None) -> list[dict]:
    """Peak throughput + average GET/UPDATE latency per system per mix."""
    rows = []
    for workload in _workloads(scale, subset):
        for system in systems:
            if system == "hydradb":
                res = _run_hydra(workload, n_clients)
            else:
                res = _run_baseline(system, workload, n_clients)
            rows.append({
                "workload": workload.spec.name,
                "system": system,
                "throughput_mops": res.throughput_mops,
                "get_us": res.get_latency.mean_us,
                "update_us": res.update_latency.mean_us,
            })
    return rows


# ---------------------------------------------------------------------------
# Fig. 10 — incremental RDMA design choices
# ---------------------------------------------------------------------------

FIG10_VARIANTS: dict[str, dict] = {
    "Send/Recv": {"hydra": {"rdma_write_messaging": False},
                  "client": {"rptr_cache_enabled": False}},
    "RDMA Write Only": {"client": {"rptr_cache_enabled": False}},
    "RDMA Write + Read": {},
    "Pipeline + RDMA Write": {"hydra": {"pipelined_shards": True},
                              "client": {"rptr_cache_enabled": False}},
}


def fig10_rdma_choices(scale: float = 1.0, n_clients: int = 50,
                       subset: Optional[Iterable[str]] = None,
                       variants: Optional[Iterable[str]] = None
                       ) -> list[dict]:
    """Throughput/latency per messaging variant per workload (Fig. 10)."""
    rows = []
    chosen = {k: v for k, v in FIG10_VARIANTS.items()
              if variants is None or k in set(variants)}
    for workload in _workloads(scale, subset):
        for vname, overrides in chosen.items():
            cfg = SimConfig().with_overrides(**overrides)
            res = _run_hydra(workload, n_clients, config=cfg)
            rows.append({
                "workload": workload.spec.name,
                "variant": vname,
                "throughput_mops": res.throughput_mops,
                "get_us": res.get_latency.mean_us,
                "update_us": res.update_latency.mean_us,
            })
    return rows


# ---------------------------------------------------------------------------
# Fig. 11 — remote-pointer hit analysis
# ---------------------------------------------------------------------------

def fig11_hit_analysis(scale: float = 1.0,
                       n_clients: int = 50) -> list[dict]:
    """Successful/invalid remote-pointer hit counts per workload."""
    rows = []
    for workload in _workloads(scale):
        cluster = HydraCluster(n_server_machines=1, shards_per_server=4,
                               n_client_machines=5)
        res = run_hydra_ycsb(cluster, workload, n_clients=n_clients,
                             clients_per_machine=-(-n_clients // 5))
        stats = res.extras["rptr"]
        rows.append({
            "workload": workload.spec.name,
            "successful_hits": stats["successful_hits"],
            "invalid_hits": stats["invalid_hits"],
            "misses": stats["misses"],
            "ops": res.measured_ops,
        })
    return rows


# ---------------------------------------------------------------------------
# Fig. 12 — scalability (scale-out and scale-up)
# ---------------------------------------------------------------------------

def _colocated_scaleout_cluster(n_servers: int) -> HydraCluster:
    """§6.3 topology: 8 machines total; 60 clients live on the last 6, so
    larger deployments increasingly co-locate servers with clients.

    Beyond 7 servers the co-located form factor is exhausted; larger
    deployments (the 64-server point the batched kernel makes affordable)
    keep the 6 dedicated client hosts and add pure server machines.
    """
    cluster = HydraCluster(n_server_machines=n_servers,
                           shards_per_server=1,
                           n_client_machines=(8 - n_servers
                                              if n_servers < 8 else 6))
    return cluster


def fig12_scale_out(scale: float = 1.0, n_clients: int = 60,
                    server_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 64),
                    subset: Optional[Iterable[str]] = None) -> list[dict]:
    """Normalized throughput vs server count (Fig. 12a,b topology),
    extended past the paper's 7-machine testbed with a 64-server point."""
    rows = []
    for workload in _workloads(scale, subset):
        base_mops = None
        for n in server_counts:
            cluster = _colocated_scaleout_cluster(n)
            all_machines = cluster.server_machines + cluster.client_machines
            client_hosts = all_machines[-6:]
            preload_hydra(cluster, workload)
            cluster.start()
            clients = [cluster.client_on(client_hosts[i % 6])
                       for i in range(n_clients)]
            res = drive_ycsb(cluster.sim, clients, workload,
                             name=f"scaleout/{n}")
            if base_mops is None:
                base_mops = res.throughput_mops
            rows.append({
                "workload": workload.spec.name,
                "servers": n,
                "throughput_mops": res.throughput_mops,
                "normalized": res.throughput_mops / base_mops,
            })
    return rows


def fig12_scale_up(scale: float = 1.0, n_clients: int = 60,
                   shard_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
                   subset: Optional[Iterable[str]] = None) -> list[dict]:
    """Normalized throughput vs shards on one machine (Fig. 12c,d)."""
    rows = []
    for workload in _workloads(scale, subset):
        base_mops = None
        for n in shard_counts:
            res = _run_hydra(workload, n_clients, shards=n,
                             client_machines=6)
            if base_mops is None:
                base_mops = res.throughput_mops
            rows.append({
                "workload": workload.spec.name,
                "shards": n,
                "throughput_mops": res.throughput_mops,
                "normalized": res.throughput_mops / base_mops,
            })
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 — replication protocols
# ---------------------------------------------------------------------------

def fig13_replication(scale: float = 1.0,
                      client_counts: Sequence[int] = (1, 10, 20, 40),
                      inserts_per_client: Optional[int] = None) -> list[dict]:
    """Average INSERT latency under each replication protocol."""
    inserts = inserts_per_client or max(20, int(60 * scale))
    protocols = [
        ("no replication", 0, "rdma_log"),
        ("rdma logging x1", 1, "rdma_log"),
        ("rdma logging x2", 2, "rdma_log"),
        ("strict req/ack x1", 1, "strict"),
        ("strict req/ack x2", 2, "strict"),
    ]
    rows = []
    for n_clients in client_counts:
        base_ns = None
        for label, replicas, mode in protocols:
            cfg = SimConfig().with_overrides(
                replication={"replicas": replicas, "mode": mode})
            cluster = HydraCluster(config=cfg, n_server_machines=1,
                                   shards_per_server=1, n_client_machines=4)
            cluster.start()
            lat: list[int] = []

            def worker(c, wid):
                for i in range(inserts):
                    t0 = cluster.sim.now
                    yield from c.insert(f"w{wid}-key-{i:08d}".encode(),
                                        b"v" * 32)
                    lat.append(cluster.sim.now - t0)

            clients = [cluster.client(i % 4) for i in range(n_clients)]
            cluster.run(*[worker(c, i) for i, c in enumerate(clients)])
            avg = sum(lat) / len(lat)
            if base_ns is None:
                base_ns = avg
            rows.append({
                "clients": n_clients,
                "protocol": label,
                "avg_insert_us": avg / 1000.0,
                "overhead_pct": (avg / base_ns - 1.0) * 100.0,
            })
    return rows


# ---------------------------------------------------------------------------
# Ablations called out in DESIGN.md
# ---------------------------------------------------------------------------

def ablation_hash_table(scale: float = 1.0, n_clients: int = 50
                        ) -> list[dict]:
    """Compact vs chained indexing (§4.1.3): throughput + cachelines/op."""
    workload = _workloads(scale, subset=["(b) 90% GET zipf"])[0]
    rows = []
    for kind in ("compact", "chained"):
        cfg = SimConfig().with_overrides(
            client={"rptr_cache_enabled": False},
            hydra={"buckets_per_shard": 1 << 9})  # force collisions
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=4, n_client_machines=5,
                               table_kind=kind)
        res = run_hydra_ycsb(cluster, workload, n_clients=n_clients,
                             clients_per_machine=10)
        tables = [s.store.table for s in cluster.shards()]
        total_ops = cluster.metrics.counter("shard.requests").value
        lines = sum(t.total_lines for t in tables)
        keycmps = sum(t.total_keycmps for t in tables)
        rows.append({
            "table": kind,
            "throughput_mops": res.throughput_mops,
            "get_us": res.get_latency.mean_us,
            "lines_per_op": lines / max(1, total_ops),
            "keycmps_per_op": keycmps / max(1, total_ops),
        })
    return rows


def ablation_numa(scale: float = 1.0, n_clients: int = 50) -> list[dict]:
    """NUMA-confined vs interleaved vs remote shard memory (§4.1.2)."""
    workload = _workloads(scale, subset=["(a) 50% GET zipf"])[0]
    rows = []
    for mode in ("local", "interleaved", "remote"):
        cfg = SimConfig().with_overrides(
            client={"rptr_cache_enabled": False})
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=4, n_client_machines=5,
                               numa_mode=mode)
        res = run_hydra_ycsb(cluster, workload, n_clients=n_clients,
                             clients_per_machine=10)
        rows.append({
            "numa_mode": mode,
            "throughput_mops": res.throughput_mops,
            "get_us": res.get_latency.mean_us,
            "update_us": res.update_latency.mean_us,
        })
    return rows


def ablation_rptr_sharing(scale: float = 1.0,
                          n_clients: int = 20) -> list[dict]:
    """Shared vs exclusive remote-pointer cache (§4.2.4) under updates."""
    spec = YcsbSpec(name="sharing", get_fraction=0.9,
                    distribution="zipfian")
    workload = YcsbWorkload(_scaled_spec(spec, scale))
    rows = []
    for sharing in (True, False):
        cfg = SimConfig().with_overrides(client={"rptr_sharing": sharing})
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=4, n_client_machines=1)
        preload_hydra(cluster, workload)
        cluster.start()
        clients = [cluster.client(0) for _ in range(n_clients)]
        res = drive_ycsb(cluster.sim, clients, workload,
                         name=f"sharing={sharing}")
        # Aggregate over distinct cache objects (one shared vs N exclusive).
        caches = {id(c.cache): c.cache for c in clients}
        successful = sum(c.successful_hits for c in caches.values())
        invalid = sum(c.invalid_hits for c in caches.values())
        rows.append({
            "sharing": sharing,
            "caches": len(caches),
            "throughput_mops": res.throughput_mops,
            "successful_hits": successful,
            "invalid_hits": invalid,
        })
    return rows


def ablation_ud_messaging(background_qps=(0, 256, 512),
                          loss: float = 0.02,
                          echoes: int = 300) -> list[dict]:
    """HERD's UD messaging vs HydraDB's RC choice (§3, §4.2.1).

    An echo microbenchmark at the verb level: round-trip latency of
    RC Send/Recv vs UD datagrams while unrelated RC connections inflate
    the NIC's QP count, plus delivery rates with injected datagram loss.
    UD stays flat and fast (no connection state) but loses messages —
    the reliability gap the paper holds against HERD for enterprise use.
    """
    rows = []
    for transport in ("rc_send", "ud"):
        for bg in background_qps:
            cfg = SimConfig().with_overrides(
                nic={"ud_drop_probability": loss if transport == "ud"
                     else 0.0})
            world = _World(2, config=cfg)
            for _ in range(bg):
                world.fabric.connect(world.machines[0].nic,
                                     world.machines[1].nic)
            sim = world.sim
            delivered = {"n": 0}
            rtts: list[int] = []
            if transport == "rc_send":
                cq, sq = world.fabric.connect(world.machines[0].nic,
                                              world.machines[1].nic)

                def echo_server(sq=sq):
                    while True:
                        cqe = sq.recv_cq.poll_one()
                        if cqe is None:
                            yield sq.recv_cq.wait()
                            continue
                        sq.post_recv()
                        yield sq.post_send(cqe.data)

                sq.post_recv()
                sim.process(echo_server())

                def client(cq=cq):
                    for _i in range(echoes):
                        cq.post_recv()
                        t0 = sim.now
                        yield cq.post_send(b"x" * 64)
                        while True:
                            cqe = cq.recv_cq.poll_one()
                            if cqe is not None:
                                rtts.append(sim.now - t0)
                                delivered["n"] += 1
                                break
                            yield cq.recv_cq.wait()

                sim.run(until=sim.process(client()))
            else:
                cu = world.fabric.create_ud_qp(world.machines[0].nic)
                su = world.fabric.create_ud_qp(world.machines[1].nic)

                def ud_server(cu=cu, su=su):
                    while True:
                        cqe = su.recv_cq.poll_one()
                        if cqe is None:
                            yield su.recv_cq.wait()
                            continue
                        su.post_recv()
                        yield su.post_send(cu, cqe.data)

                su.post_recv()
                sim.process(ud_server())

                def ud_client(cu=cu, su=su):
                    for _i in range(echoes):
                        cu.post_recv()
                        t0 = sim.now
                        yield cu.post_send(su, b"x" * 64)
                        deadline = sim.timeout(100_000)  # 100 us timeout
                        got = yield sim.any_of([cu.recv_cq.wait(), deadline])
                        del got
                        cqe = cu.recv_cq.poll_one()
                        if cqe is not None:
                            rtts.append(sim.now - t0)
                            delivered["n"] += 1

                sim.run(until=sim.process(ud_client()))
            rows.append({
                "transport": transport,
                "background_qps": bg,
                "delivered_pct": 100.0 * delivered["n"] / echoes,
                "mean_rtt_us": (sum(rtts) / len(rtts) / 1000.0)
                if rtts else float("nan"),
            })
    return rows


def ablation_transport(scale: float = 1.0, n_clients: int = 50
                       ) -> list[dict]:
    """HydraDB-RDMA vs HydraDB-TCP (the TCP/IP mode §6 mentions).

    Same server logic, same workload; only the transport differs.  This
    is the KV-level version of Fig. 2's RDMA-vs-TCP comparison.
    """
    workload = _workloads(scale, subset=["(b) 90% GET zipf"])[0]
    rows = []
    for transport in ("rdma", "tcp"):
        cfg = SimConfig().with_overrides(hydra={"transport": transport})
        res = _run_hydra(workload, n_clients, config=cfg)
        rows.append({
            "transport": transport,
            "throughput_mops": res.throughput_mops,
            "get_us": res.get_latency.mean_us,
            "update_us": res.update_latency.mean_us,
        })
    return rows


def ablation_sleep_backoff(scale: float = 1.0) -> list[dict]:
    """§4.2.1: high-resolution sleep vs pure busy polling under light load.

    One client issuing a request every ~200 us: the sleep-mode shard burns
    almost no CPU at a ~50 ns detection penalty; the busy poller pegs its
    core for the same latency class.
    """
    del scale  # fixed-size experiment
    rows = []
    for backoff in (True, False):
        cfg = SimConfig().with_overrides(cpu={"sleep_backoff": backoff})
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=1, n_client_machines=1)
        cluster.start()
        client = cluster.client()
        lat: list[int] = []

        def app():
            yield from client.put(b"k", b"v" * 32)
            for i in range(300):
                yield cluster.sim.timeout(200_000)  # light load
                t0 = cluster.sim.now
                yield from client.update(b"k", b"v" * 32)
                lat.append(cluster.sim.now - t0)

        cluster.run(app())
        shard = cluster.shards()[0]
        rows.append({
            "sleep_backoff": backoff,
            "core_utilization_pct": shard.core.utilization() * 100.0,
            "avg_update_us": sum(lat) / len(lat) / 1000.0,
        })
    return rows


def ablation_subsharding(scale: float = 1.0, n_clients: int = 60
                         ) -> list[dict]:
    """§6.3 sub-sharding vs plain multi-shard scale-up past the QP wall.

    Read-heavy pointer-cached traffic (the regime where connection count
    saturates the NIC) plus a message-heavy contrast row where the single
    dispatcher binds instead.
    """
    rows = []
    for regime, gf, records_mult, ops_mult in (
            ("read-heavy cached", 1.0, 0.05, 0.6),
            ("message-heavy", 0.5, 0.3, 0.3)):
        for label, cfg, shards in (
                ("8 shards (480 QPs)", SimConfig(), 8),
                ("1x8 sub-shards (60 QPs)",
                 SimConfig().with_overrides(hydra={"subshards": 8}), 1)):
            spec = YcsbSpec(name=f"{regime}",
                            n_records=max(300, int(BASE_OPS * records_mult
                                                   * scale)),
                            n_ops=max(600, int(BASE_OPS * ops_mult * scale)),
                            get_fraction=gf, distribution="zipfian")
            workload = YcsbWorkload(spec)
            cluster = HydraCluster(config=cfg, n_server_machines=1,
                                   shards_per_server=shards,
                                   n_client_machines=6)
            res = run_hydra_ycsb(cluster, workload, n_clients=n_clients,
                                 clients_per_machine=10)
            rows.append({
                "regime": regime,
                "layout": label,
                "server_qps": cluster.server_machines[0].nic.active_qps,
                "throughput_mops": res.throughput_mops,
                "get_us": res.get_latency.mean_us,
            })
    return rows


def ablation_lease_length(scale: float = 1.0,
                          lease_seconds: Sequence[float] = (0.002, 0.05,
                                                            2.0),
                          n_clients: int = 20) -> list[dict]:
    """§4.2.3 / C-Hint [31]: the lease-length trade-off.

    Short leases cap how long retired extents linger (low memory
    retention) but expire cached pointers quickly (fewer one-sided hits);
    long leases maximize the fast path at the cost of arena occupancy.
    The run is stretched in simulated time so short leases actually lapse.
    """
    spec = YcsbSpec(name="lease", get_fraction=0.9, distribution="zipfian")
    workload = YcsbWorkload(_scaled_spec(spec, scale * 0.5))
    rows = []
    for secs in lease_seconds:
        ns = int(secs * 1e9)
        cfg = SimConfig().with_overrides(
            hydra={"lease_min_ns": ns, "lease_max_ns": max(ns, ns * 4)},
            memory={"reclaim_period_ns": max(100_000, ns // 10)},
        )
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=4, n_client_machines=2)
        preload_hydra(cluster, workload)
        cluster.start()
        clients = [cluster.client(i % 2) for i in range(n_clients)]
        # Fixed pacing (~5 ms/op): the run spans many short-lease windows
        # but ends before the longest lease lapses.
        think_ns = 5_000_000

        def paced(idx, client):
            ops, keys = workload.slice_for(idx, n_clients)
            ks = workload.keyspace
            for j in range(len(ops)):
                yield cluster.sim.timeout(think_ns)
                key = ks.key(int(keys[j]))
                if ops[j] == 0:
                    yield from client.get(key)
                else:
                    yield from client.update(key, ks.value(int(keys[j])))

        cluster.run(*[paced(i, c) for i, c in enumerate(clients)])
        stats = cluster.rptr_stats()
        pending = sum(s.store.reclaimer.pending for s in cluster.shards())
        live = sum(s.store.alloc.live_extents for s in cluster.shards())
        total_lookups = (stats["successful_hits"] + stats["invalid_hits"]
                         + stats["expired"] + stats["misses"])
        rows.append({
            "lease_s": secs,
            "fastpath_hit_pct": 100.0 * stats["successful_hits"]
            / max(1, total_lookups),
            "expired_lookups": stats["expired"],
            "retired_pending": pending,
            "live_extents": live,
        })
    return rows


def ablation_value_size(sizes: Sequence[int] = (32, 256, 1024, 4096, 65536),
                        n_clients: int = 20,
                        ops_per_client: int = 120) -> list[dict]:
    """§6: 'HydraDB can efficiently support much larger key-value items'.

    GET throughput/latency across value sizes: small items are op-rate
    bound (server CPU / round trips); large items converge to fabric
    bandwidth.
    """
    rows = []
    for size in sizes:
        buf = max(SimConfig().hydra.conn_buf_bytes, size * 2 + 4096)
        cfg = SimConfig().with_overrides(hydra={"conn_buf_bytes": buf})
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=4, n_client_machines=2)
        cluster.start()
        keys = [f"k{i:06d}".encode() for i in range(64)]
        for key in keys:
            cluster.route(key).store_for_key(key).upsert(
                key, bytes(size), Op.PUT)
        lat: list[int] = []
        nbytes = {"n": 0}

        def worker(wid, client):
            import numpy as np
            rng = np.random.default_rng(wid)
            picks = rng.integers(0, len(keys), size=ops_per_client)
            for j in range(ops_per_client):
                t0 = cluster.sim.now
                value = yield from client.get(keys[int(picks[j])])
                lat.append(cluster.sim.now - t0)
                nbytes["n"] += len(value)

        clients = [cluster.client(i % 2) for i in range(n_clients)]
        t0 = cluster.sim.now
        cluster.run(*[worker(i, c) for i, c in enumerate(clients)])
        elapsed = max(1, cluster.sim.now - t0)
        total_ops = n_clients * ops_per_client
        rows.append({
            "value_bytes": size,
            "throughput_kops": total_ops / elapsed * 1e6,
            "goodput_gbps": nbytes["n"] * 8 / elapsed,
            "get_mean_us": sum(lat) / len(lat) / 1000.0,
        })
    return rows


def inflight_sweep(scale: float = 1.0,
                   windows: Sequence[int] = (1, 4, 16),
                   value_bytes: int = 32) -> list[dict]:
    """Message-path GET/PUT throughput vs per-connection in-flight window.

    One client machine against one single-threaded shard, remote-pointer
    cache disabled so every operation takes the slotted message path.
    ``window=1`` is the original stop-and-wait client; larger windows keep
    multiple slots in flight per connection via ``get_many``/``put_many``,
    amortizing polling and doorbells — the speedup column is the headline
    number (BENCH_inflight.json records it across PRs).
    """
    n_ops = max(240, int(BASE_OPS * scale))
    keys = [f"k{i:06d}".encode() for i in range(256)]
    rows: list[dict] = []
    base_get = base_put = None
    for window in windows:
        cfg = SimConfig().with_overrides(
            hydra={"msg_slots_per_conn": window},
            client={"max_inflight_per_conn": window,
                    "rptr_cache_enabled": False},
        )
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=1, n_client_machines=1)
        for key in keys:
            cluster.route(key).store_for_key(key).upsert(
                key, b"v" * value_bytes, Op.PUT)
        cluster.start()
        client = cluster.client()
        batch = max(1, window) * 4
        elapsed: dict[str, int] = {}

        def app():
            pairs = [(keys[j % len(keys)], b"w" * value_bytes)
                     for j in range(n_ops)]
            t0 = cluster.sim.now
            for s in range(0, n_ops, batch):
                yield from client.put_many(pairs[s:s + batch])
            elapsed["put"] = cluster.sim.now - t0
            gets = [keys[j % len(keys)] for j in range(n_ops)]
            t0 = cluster.sim.now
            for s in range(0, n_ops, batch):
                yield from client.get_many(gets[s:s + batch])
            elapsed["get"] = cluster.sim.now - t0

        cluster.run(app())
        get_kops = n_ops / elapsed["get"] * 1e6
        put_kops = n_ops / elapsed["put"] * 1e6
        if base_get is None:
            base_get, base_put = get_kops, put_kops
        rows.append({
            "window": window,
            "get_kops": get_kops,
            "put_kops": put_kops,
            "get_speedup": get_kops / base_get,
            "put_speedup": put_kops / base_put,
        })
    return rows


def write_inflight_artifact(rows: list[dict],
                            path: str = "BENCH_inflight.json") -> str:
    """Dump the inflight sweep as a machine-readable perf artifact."""
    payload = {
        "experiment": "inflight_depth_sweep",
        "description": "message-path ops/s vs per-connection in-flight "
                       "window (1 shard, 1 client, rptr cache off)",
        "unit": "kops",
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def multiget_sweep(scale: float = 1.0,
                   batch_sizes: Sequence[int] = (4, 16, 64),
                   value_sizes: Sequence[int] = (32, 64)) -> list[dict]:
    """``get_many`` throughput: message path vs batched one-sided Reads.

    One client machine against one single-threaded shard, five regimes
    per batch size and value size:

    * ``message`` — pointer cache disabled; the pipelined slotted message
      path carries every key (the PR-1 baseline).
    * ``hybrid`` — the hybrid engine with a warm pointer cache (100% hit
      rate): every batch becomes doorbell-coalesced RDMA Reads and never
      touches the server CPU.
    * ``mixed`` — half the pointers are dropped before each batch
      (modeling out-of-band updates) with index traversal *off*: misses
      demote to one overlapped message batch whose responses re-prime
      the cache (the legacy demotion semantics).
    * ``cold`` — every pointer is dropped before each batch and the
      client walks the exported index buckets instead: 0% hit rate, yet
      every key resolves through pipelined one-sided Reads with
      near-zero server CPU — one frame Read when the item fits its
      frame's inline line (``inline``), frame + item Read otherwise.
    * ``mixed-hit`` — half the pointers dropped with traversal *on*:
      hits go straight to item Reads, misses take the bucket walk, all
      sharing one doorbell-coalesced read engine.

    Rows carry the remote-pointer reconciliation columns — every usable
    pointer a batch lookup returns (``pointer_hits``) must come back as
    exactly one successful or invalid Read (``reconciled``) — plus the
    traversal counters (``bucket_reads``, ``traversal_races``,
    ``demotions``, ``index_mutations_versioned``), the RDMA Reads the
    client posted per GET (``reads_per_get``) and the measured
    ``server_cpu_ns_per_get``.  BENCH_multiget.json records the sweep
    across PRs; the headlines are the warm-cache ``hybrid`` speedup over
    ``message`` at batch 16, ``cold`` beating ``message`` at 0% hit rate
    without touching the server CPU, and one Read per cold GET of a
    small item.
    """
    n_ops = max(240, int(BASE_OPS * scale))
    keys = [f"mg{i:06d}".encode() for i in range(256)]
    read_counters = ("client.bucket_reads", "client.traversal_races",
                     "client.demotions", "client.rdma_reads")
    rows: list[dict] = []
    for value_bytes, batch in itertools.product(value_sizes, batch_sizes):
        message_kops: Optional[float] = None
        for mode in ("message", "hybrid", "mixed", "cold", "mixed-hit"):
            traversal = mode in ("cold", "mixed-hit")
            cfg = SimConfig().with_overrides(
                hydra={"msg_slots_per_conn": batch},
                client={"max_inflight_per_conn": batch,
                        "max_inflight_reads": batch,
                        "rptr_cache_enabled": mode != "message",
                        "rptr_sharing": False},
                traversal={"enabled": traversal, "min_fanout": 1},
            )
            cluster = HydraCluster(config=cfg, n_server_machines=1,
                                   shards_per_server=1, n_client_machines=1)
            cluster.start()
            client = cluster.client()
            shard = cluster.shards()[0]
            counters = cluster.metrics.counter
            elapsed: dict[str, int] = {}

            stats0: dict[str, int] = {}
            snap0: dict[str, float] = {}

            def busy_ns():
                # Cores exist from t=0, so the busy-time integral is just
                # the time-average utilization scaled by elapsed sim time.
                return shard.core.busy.time_average() * cluster.sim.now

            def app():
                # Populate through the request path so every PUT also
                # exercises (and counts) the exported-index versioning.
                for s in range(0, len(keys), batch):
                    yield from client.put_many(
                        [(k, b"v" * value_bytes)
                         for k in keys[s:s + batch]])
                if client.cache is not None:
                    # Warm the pointer cache through the message path.
                    for s in range(0, len(keys), batch):
                        yield from client.get_many(keys[s:s + batch])
                    stats0.update(client.cache.stats())
                snap0["busy"] = busy_ns()
                for name in read_counters:
                    snap0[name] = counters(name).value
                t0 = cluster.sim.now
                done = 0
                while done < n_ops:
                    chunk = [keys[(done + j) % len(keys)]
                             for j in range(min(batch, n_ops - done))]
                    if mode in ("mixed", "mixed-hit"):
                        # Out-of-band updates invalidated half the batch.
                        for key in chunk[::2]:
                            client.cache.invalidate(key)
                    elif mode == "cold":
                        for key in chunk:
                            client.cache.invalidate(key)
                    values = yield from client.get_many(chunk)
                    assert all(v is not None for v in values)
                    done += len(chunk)
                elapsed["get"] = cluster.sim.now - t0
                elapsed["busy"] = busy_ns() - snap0["busy"]

            cluster.run(app())
            row = {
                "mode": mode,
                "batch": batch,
                "value_bytes": value_bytes,
                "inline": fits_inline(len(keys[0]), value_bytes),
                "get_kops": n_ops / elapsed["get"] * 1e6,
                "server_cpu_ns_per_get": elapsed["busy"] / n_ops,
                "bucket_reads": counters("client.bucket_reads").value
                - snap0["client.bucket_reads"],
                "traversal_races": counters("client.traversal_races").value
                - snap0["client.traversal_races"],
                "demotions": counters("client.demotions").value
                - snap0["client.demotions"],
                "reads_per_get": (counters("client.rdma_reads").value
                                  - snap0["client.rdma_reads"]) / n_ops,
                "index_mutations_versioned": counters(
                    "shard.index_mutations_versioned").value,
            }
            if message_kops is None:
                message_kops = row["get_kops"]
            row["speedup_vs_message"] = row["get_kops"] / message_kops
            if client.cache is not None:
                stats1 = client.cache.stats()
                d = {k: stats1[k] - stats0[k] for k in stats0}
                attempted = d["successful_hits"] + d["invalid_hits"]
                row.update({
                    "pointer_hits": d["batch_hits"],
                    "successful_hits": d["successful_hits"],
                    "invalid_hits": d["invalid_hits"],
                    "demoted": d["batch_keys"] - d["batch_hits"]
                    + d["invalid_hits"],
                    "reconciled": attempted == d["batch_hits"],
                })
            else:
                row.update({"pointer_hits": 0, "successful_hits": 0,
                            "invalid_hits": 0, "demoted": n_ops,
                            "reconciled": True})
            rows.append(row)
    return rows


def write_multiget_artifact(rows: list[dict],
                            path: str = "BENCH_multiget.json") -> str:
    """Dump the multiget sweep as a machine-readable perf artifact."""
    payload = {
        "experiment": "multiget_fanout_sweep",
        "description": "get_many ops/s: pipelined message path vs the "
                       "hybrid doorbell-coalesced Read fan-out (warm "
                       "cache) vs legacy half-invalidated demotion vs "
                       "one-sided index traversal at 0% (cold) and 50% "
                       "(mixed-hit) hit rates (1 shard, 1 client, "
                       "hit-rate x batch-size x value-size; 'inline' rows "
                       "hold items that fit a bucket frame's inline line)",
        "unit": "kops",
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def ablation_ack_interval(intervals: Sequence[int] = (1, 8, 32, 128),
                          inserts: int = 200) -> list[dict]:
    """How relaxed acknowledgements amortize replication cost (§5.2)."""
    rows = []
    for interval in intervals:
        cfg = SimConfig().with_overrides(
            replication={"replicas": 1, "ack_interval": interval})
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=1, n_client_machines=1)
        cluster.start()
        client = cluster.client()
        lat = []

        def app():
            for i in range(inserts):
                t0 = cluster.sim.now
                yield from client.insert(f"key-{i:08d}".encode(), b"v" * 32)
                lat.append(cluster.sim.now - t0)

        cluster.run(app())
        rows.append({
            "ack_interval": interval,
            "avg_insert_us": sum(lat) / len(lat) / 1000.0,
            "ack_requests": cluster.metrics.counter(
                "repl.ack_requests").value,
        })
    return rows


def failover_availability(scale: float = 1.0,
                          client_counts: Sequence[int] = (2, 4),
                          n_keys: int = 256,
                          value_bytes: int = 64) -> list[dict]:
    """Availability under primary failure — the paper's §5 claim.

    A paced 50/50 GET/PUT workload runs against one replicated shard;
    mid-run the primary's server is killed.  With the default client
    deadline budget every operation replays across the SWAT promotion,
    so the run must complete with **zero client-visible exceptions** and
    **zero lost acked writes**.  Reported per client count:

    * ``blackout_ms`` — the longest gap between consecutive completed
      operations once the kill lands (detection + promotion + replay);
    * ``pre_kops`` / ``post_kops`` — acked throughput in equal windows
      immediately before the kill and at the tail of the run, and their
      ratio ``recovered_ratio`` (the headline: >= 0.8 required).

    Coordination timeouts are shrunk (50 ms heartbeats, 200 ms sessions)
    so detection dominates neither the simulation nor the blackout the
    way the production 2 s session would; the shape, not the absolute
    window, is the reproduction target.
    """
    think_ns = max(20_000, int(100_000 / max(scale, 1e-3)))
    kill_at = 150 * _MS
    end_at = 800 * _MS
    window_ns = 100 * _MS  # pre/post throughput measurement windows
    rows: list[dict] = []
    for n_clients in client_counts:
        cfg = SimConfig().with_overrides(
            replication={"replicas": 1},
            coord={"heartbeat_ns": 50 * _MS,
                   "session_timeout_ns": 200 * _MS},
            client={"op_timeout_ns": 5 * _MS},
        )
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=1, n_client_machines=2)
        cluster.enable_ha()
        cluster.start()
        sim = cluster.sim
        keys = [f"fk{i:06d}".encode() for i in range(n_keys)]
        acked: dict[bytes, bytes] = {}
        completions: list[int] = []
        exceptions = [0]

        def preload(client=None):
            client = cluster.client()
            for key in keys:
                yield from client.put(key, b"v" * value_bytes)

        cluster.run(preload())

        def worker(cid, client):
            i = 0
            while sim.now < end_at:
                yield sim.timeout(think_ns)
                key = keys[(i * 7 + cid * 13) % n_keys]
                try:
                    if i % 2 == 0:
                        value = f"c{cid}-{i}".encode()
                        status = yield from client.put(key, value)
                        if status is Status.OK:
                            acked[key] = value
                    else:
                        yield from client.get(key)
                except Exception:  # noqa: BLE001 - counted, not raised
                    exceptions[0] += 1
                completions.append(sim.now)
                i += 1

        def killer():
            yield sim.timeout(kill_at)
            cluster.servers[0].kill()

        clients = [cluster.client(c % 2) for c in range(n_clients)]
        sim.process(killer())
        cluster.run(*[worker(c, cl) for c, cl in enumerate(clients)])

        completions.sort()
        pre = [t for t in completions if kill_at - window_ns <= t < kill_at]
        post = [t for t in completions if t >= end_at - window_ns]
        after_kill = [kill_at] + [t for t in completions if t >= kill_at]
        blackout = max(b - a for a, b in zip(after_kill, after_kill[1:]))
        shard_id = cluster.routing.shard_ids()[0]
        survivor = cluster.routing.resolve(shard_id).store.dump()
        lost = sum(1 for k, v in acked.items() if survivor.get(k) != v)
        pre_kops = len(pre) / window_ns * 1e6
        post_kops = len(post) / window_ns * 1e6
        tally = cluster.metrics.tally("client.failover_latency_ns")
        rows.append({
            "clients": n_clients,
            "ops": len(completions),
            "pre_kops": pre_kops,
            "post_kops": post_kops,
            "recovered_ratio": post_kops / pre_kops if pre_kops else 0.0,
            "blackout_ms": blackout / 1e6,
            "failovers": cluster.metrics.counter("swat.failovers").value,
            "client_retries": cluster.metrics.counter(
                "client.retries").value,
            "client_failovers": cluster.metrics.counter(
                "client.failovers").value,
            "failover_latency_ms": (tally.mean / 1e6
                                    if tally.count else 0.0),
            "exceptions": exceptions[0],
            "lost_acked_writes": lost,
        })
    return rows


def write_failover_artifact(rows: list[dict],
                            path: str = "BENCH_failover.json") -> str:
    """Dump the availability experiment as a machine-readable artifact."""
    payload = {
        "experiment": "failover_availability",
        "description": "paced 50/50 GET/PUT with a primary kill mid-run: "
                       "blackout window, recovered throughput, and the "
                       "zero-exception / zero-lost-acked-write contract "
                       "(1 replicated shard, 200 ms ZK sessions)",
        "unit": "kops / ms",
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def recovery_dualfail(scale: float = 1.0,
                      ack_modes: Sequence[str] = ("ack_on_replicate",
                                                  "ack_on_flush"),
                      n_clients: int = 4, n_keys: int = 192,
                      value_bytes: int = 64) -> list[dict]:
    """Full-crash recovery from the durable log — the dual-failure claim.

    A paced 50/50 GET/PUT workload runs against one shard with a single
    secondary *and* the durable write-behind log enabled; mid-run the
    primary's server and its secondary die together (NIC down too), so
    the replication ring cannot cover the failure and SWAT's
    no-candidate branch must rebuild the shard by replaying the PM log.
    One row per ack mode:

    * ``ack_on_flush`` — an ack means the write is group-committed to
      the log, so the run must finish with **zero lost acked writes**
      (the hard CI gate) and typed errors only;
    * ``ack_on_replicate`` — the contrast row: acks return off the
      replication post, so writes acked while their group is still
      staged or in flight may die with both copies.  ``lost_acked_writes``
      bounds that exposure (about one device write of records).

    Also reported: the blackout window, recovered throughput ratio,
    records replayed, and replay throughput (records/ms of recovery
    wall-clock).
    """
    from ..core.errors import HydraError, RecoveryInProgress

    think_ns = max(20_000, int(100_000 / max(scale, 1e-3)))
    kill_at = 150 * _MS
    end_at = 900 * _MS
    window_ns = 100 * _MS
    rows: list[dict] = []
    for ack_mode in ack_modes:
        cfg = SimConfig().with_overrides(
            replication={"replicas": 1},
            durability={"enabled": True, "ack_mode": ack_mode},
            coord={"heartbeat_ns": 50 * _MS,
                   "session_timeout_ns": 200 * _MS},
            client={"op_timeout_ns": 5 * _MS},
        )
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=1, n_client_machines=2)
        cluster.enable_ha()
        cluster.start()
        sim = cluster.sim
        keys = [f"rk{i:06d}".encode() for i in range(n_keys)]
        acked: dict[bytes, bytes] = {}
        completions: list[int] = []
        stats = {"typed": 0, "untyped": 0, "recovery_errors": 0}

        def preload():
            client = cluster.client()
            for key in keys:
                yield from client.put(key, b"v" * value_bytes)

        cluster.run(preload())

        def worker(cid, client):
            i = 0
            while sim.now < end_at:
                yield sim.timeout(think_ns)
                key = keys[(i * 7 + cid * 13) % n_keys]
                try:
                    if i % 2 == 0:
                        value = f"c{cid}-{i}".encode()
                        status = yield from client.put(key, value)
                        if status is Status.OK:
                            acked[key] = value
                    else:
                        yield from client.get(key)
                except RecoveryInProgress:
                    stats["typed"] += 1
                    stats["recovery_errors"] += 1
                except HydraError:
                    stats["typed"] += 1
                except Exception:  # noqa: BLE001 - counted, not raised
                    stats["untyped"] += 1
                completions.append(sim.now)
                i += 1

        def killer():
            yield sim.timeout(kill_at)
            server = cluster.servers[0]
            sids = [sh.shard_id for sh in server.shards]
            server.kill()
            # The correlated half: every covering secondary dies with
            # its NIC, so the ring cannot seed a promotion.
            for sid in sids:
                for sec in cluster.secondaries.get(sid, []):
                    if not sec.failing:
                        sec.kill()
                    if sec.machine.nic.alive:
                        sec.machine.nic.fail()

        clients = [cluster.client(c % 2) for c in range(n_clients)]
        sim.process(killer())
        cluster.run(*[worker(c, cl) for c, cl in enumerate(clients)])

        completions.sort()
        pre = [t for t in completions if kill_at - window_ns <= t < kill_at]
        post = [t for t in completions if t >= end_at - window_ns]
        after_kill = [kill_at] + [t for t in completions if t >= kill_at]
        blackout = max(b - a for a, b in zip(after_kill, after_kill[1:]))
        shard_id = cluster.routing.shard_ids()[0]
        survivor = cluster.routing.resolve(shard_id).store.dump()
        lost = sum(1 for k, v in acked.items() if survivor.get(k) != v)
        pre_kops = len(pre) / window_ns * 1e6
        post_kops = len(post) / window_ns * 1e6
        m = cluster.metrics
        recovery = m.tally("durable.recovery_ns")
        replayed = m.counter("durable.replayed").value
        replay_ms = recovery.mean / 1e6 if recovery.count else 0.0
        rows.append({
            "ack_mode": ack_mode,
            "clients": n_clients,
            "ops": len(completions),
            "acked_writes": len(acked),
            "pre_kops": pre_kops,
            "post_kops": post_kops,
            "recovered_ratio": post_kops / pre_kops if pre_kops else 0.0,
            "blackout_ms": blackout / 1e6,
            "recoveries": m.counter("durable.recoveries").value,
            "replayed_records": replayed,
            "replay_ms": replay_ms,
            "replay_recs_per_ms": (replayed / replay_ms
                                   if replay_ms else 0.0),
            "salvaged_records": m.counter("durable.salvaged").value,
            "log_flushes": m.counter("durable.flushes").value,
            "typed_errors": stats["typed"],
            "recovery_errors": stats["recovery_errors"],
            "untyped_errors": stats["untyped"],
            "lost_acked_writes": lost,
        })
    return rows


def write_recovery_artifact(rows: list[dict],
                            path: str = "BENCH_recovery.json") -> str:
    """Dump the dual-failure recovery experiment as an artifact."""
    payload = {
        "experiment": "recovery_dualfail",
        "description": "paced 50/50 GET/PUT with a correlated primary+"
                       "secondary kill mid-run: SWAT rebuilds the shard "
                       "by replaying the per-shard durable write-behind "
                       "log (torn tail truncated, guardian-validated), "
                       "per ack mode — ack_on_flush must lose zero acked "
                       "writes with typed errors only; ack_on_replicate "
                       "bounds its loss to one device write "
                       "(1 shard, replicas=1, durable log on, 200 ms ZK "
                       "sessions)",
        "unit": "kops / ms",
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


#: Ablation grid for the server-side sweep layers (PR 4): each knob is
#: independently toggleable so the bench isolates its contribution.
_SWEEP_MODES: Sequence[tuple[str, dict]] = (
    ("baseline", {"occupancy_word": False, "ready_hints": False,
                  "resp_doorbell_batch": 0}),
    ("occupancy", {"occupancy_word": True, "ready_hints": False,
                   "resp_doorbell_batch": 0}),
    ("ready", {"occupancy_word": False, "ready_hints": True,
               "resp_doorbell_batch": 0}),
    ("resp-batch", {"occupancy_word": False, "ready_hints": False,
                    "resp_doorbell_batch": 16}),
    ("all", {"occupancy_word": True, "ready_hints": True,
             "resp_doorbell_batch": 16}),
)


def server_sweep(scale: float = 1.0,
                 conn_counts: Sequence[int] = (8, 32),
                 window: int = 16,
                 value_bytes: int = 32) -> list[dict]:
    """Server-side sweep scalability: CPU ns/op vs connections x window.

    Many moderately-loaded connections against one single-threaded shard,
    remote-pointer cache disabled so every GET crosses the server CPU.
    Each client issues a small ``get_many`` burst and then thinks, so the
    offered load stays below shard saturation — exactly the regime where
    the seed's linear sweep burns the server core probing conns x slots
    idle buffer slots per wakeup.  Five modes ablate the three layers
    (occupancy word, ready hints, response doorbell batching); the
    headline columns are ``server_cpu_ns_per_op`` and ``cpu_ratio``
    (baseline CPU / mode CPU, higher is better) at >= 32 connections.

    A second, write-heavy pass at the largest connection count replaces
    the ``get_many`` bursts with replicated ``put_many`` bursts
    (``replicas=1``): those rows (``workload == "write"``) surface how
    doorbell batching amortizes replication waits — ``rep_batch_mean``
    is the average number of replication acks awaited per flush, > 1
    whenever batching coalesces them.
    """
    n_rounds = max(4, int(24 * scale))
    burst = 4
    think_ns = 800_000

    def cell(workload, conns, mode, knobs, base_kops, base_cpu):
        hydra = {"msg_slots_per_conn": window}
        hydra.update(knobs)
        overrides = {"hydra": hydra,
                     "client": {"max_inflight_per_conn": window,
                                "rptr_cache_enabled": False}}
        if workload == "write":
            # Strict-mode replication so every mutation returns an ack
            # wait — the regime where batching the waits pays.
            overrides["replication"] = {"replicas": 1, "mode": "strict"}
        cfg = SimConfig().with_overrides(**overrides)
        n_cm = max(1, conns // 8)
        cluster = HydraCluster(config=cfg, n_server_machines=1,
                               shards_per_server=1,
                               n_client_machines=n_cm)
        keys = [f"k{i:06d}".encode() for i in range(256)]
        for key in keys:
            cluster.route(key).store_for_key(key).upsert(
                key, b"v" * value_bytes, Op.PUT)
        cluster.start()
        sim = cluster.sim

        def app(cid, client):
            # Stagger bursts so arrivals stay spread out rather than
            # phase-locking every connection onto the same sweep.
            yield sim.timeout(cid * (think_ns // max(1, conns)))
            for r in range(n_rounds):
                picks = [keys[(cid * 131 + r * 17 + j) % len(keys)]
                         for j in range(burst)]
                if workload == "write":
                    yield from client.put_many(
                        [(k, b"w" * value_bytes) for k in picks])
                else:
                    yield from client.get_many(picks)
                if r != n_rounds - 1:
                    yield sim.timeout(think_ns)

        clients = [cluster.client(i % n_cm) for i in range(conns)]
        t0 = sim.now
        cluster.run(*(app(i, c) for i, c in enumerate(clients)))
        elapsed = max(1, sim.now - t0)
        n_ops = conns * n_rounds * burst
        shard = cluster.shards()[0]
        busy_ns = shard.core.utilization() * sim.now
        kops = n_ops / elapsed * 1e6
        cpu = busy_ns / n_ops
        if base_kops is None:
            base_kops, base_cpu = kops, cpu
        rep = cluster.metrics.tally("shard.rep_batch")
        row = {
            "workload": workload,
            "conns": conns,
            "window": window,
            "mode": mode,
            "kops": kops,
            "speedup": kops / base_kops,
            "server_cpu_ns_per_op": cpu,
            "cpu_ratio": base_cpu / cpu,
            "sweeps": int(cluster.metrics.counter("shard.sweeps").value),
            "probes": int(cluster.metrics.counter("shard.probes").value),
            "resp_doorbells": int(
                cluster.metrics.counter("shard.resp_doorbells").value),
            "rep_batch_mean": rep.mean if rep.count else 0.0,
            "rep_flushes": rep.count,
        }
        return row, base_kops, base_cpu

    rows: list[dict] = []
    for conns in conn_counts:
        base_kops = base_cpu = None
        for mode, knobs in _SWEEP_MODES:
            row, base_kops, base_cpu = cell("read", conns, mode, knobs,
                                            base_kops, base_cpu)
            rows.append(row)
    wconns = max(conn_counts)
    base_kops = base_cpu = None
    for mode, knobs in _SWEEP_MODES:
        if mode not in ("baseline", "resp-batch", "all"):
            continue
        row, base_kops, base_cpu = cell("write", wconns, mode, knobs,
                                        base_kops, base_cpu)
        rows.append(row)
    return rows


def write_sweep_artifact(rows: list[dict],
                         path: str = "BENCH_sweep.json") -> str:
    """Dump the server sweep ablation as a machine-readable artifact."""
    payload = {
        "experiment": "server_sweep",
        "description": "server CPU ns/op and throughput vs connections at "
                       "window 16, ablating occupancy-word probing, "
                       "ready-connection scheduling, and doorbell-batched "
                       "responses against the linear-sweep baseline "
                       "(1 shard, rptr cache off, paced get_many bursts; "
                       "write rows: replicated put_many bursts with "
                       "rep-ack batching stats)",
        "unit": "kops / ns-per-op",
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def chaos_soak(scale: float = 1.0) -> list[dict]:
    """Chaos soak: seeded fault storms vs the resilience contract.

    Thin wrapper over :func:`repro.chaos.harness.chaos_soak` — one row
    per ``(profile, seed)`` storm cell (torn-write, gray-failure,
    ZK-expiry, QP-flap, mixed crash, and stale-pointer storms), each
    reporting the acked-write / corrupt-value / typed-error / deadline
    invariants plus availability numbers, with a same-seed rerun proving
    determinism.
    """
    from ..chaos.harness import chaos_soak as _soak
    return _soak(scale=scale)


def write_chaos_artifact(rows: list[dict],
                         path: str = "BENCH_chaos.json") -> str:
    """Dump the chaos soak as a machine-readable artifact."""
    payload = {
        "experiment": "chaos_soak",
        "description": "mixed GET/PUT/DELETE workload under seeded fault "
                       "storms (torn writes, gray failure, ZK session "
                       "expiry, QP flaps, crash+replication faults, "
                       "stale-pointer read delays, tenant contention, "
                       "correlated dual failure vs the durable log) plus "
                       "a server-variant matrix (sub-sharded, pipelined, "
                       "replicas=2): zero lost acked writes, zero "
                       "corrupt values, typed bounded errors, post-storm "
                       "recovery, and same-seed replayability "
                       "(2 shards, HA on)",
        "unit": "kops / ms",
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path
