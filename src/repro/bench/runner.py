"""Closed-loop YCSB driver over HydraDB or a baseline store.

Mirrors the paper's methodology (§6): requests are pre-generated and
loaded before measurement; every client runs a synchronous closed loop
(one outstanding request — the arithmetic behind the paper's
latency/throughput figures); the first ``warmup_fraction`` of each
client's stream is excluded from latency *and* the throughput window.

Record preload happens out-of-band (directly into the stores, costing no
simulated time), matching YCSB's separate load phase.
"""

from __future__ import annotations

import gc
from typing import Callable, Optional, Sequence

from ..core import HydraCluster
from ..protocol import Op
from ..sim import Simulator, Tally
from ..workloads.ycsb import OP_GET, YcsbWorkload
from .stats import RunResult, summarize

__all__ = ["drive_ycsb", "preload_hydra", "preload_dicts", "run_hydra_ycsb"]


def preload_hydra(cluster: HydraCluster, workload: YcsbWorkload) -> None:
    """Load phase: install every record directly into its owning shard."""
    ks = workload.keyspace
    for i in range(workload.spec.n_records):
        key = ks.key(i)
        shard = cluster.route(key)
        result = shard.store_for_key(key).upsert(key, ks.value(i), Op.PUT)
        if result.status.name != "OK":
            raise RuntimeError(f"preload failed for record {i}: "
                               f"{result.status.name}")


def preload_dicts(stores: Sequence[dict], shard_of: Callable[[bytes], int],
                  workload: YcsbWorkload) -> None:
    """Load phase for dict-backed baselines (memcached/redis/ramcloud)."""
    ks = workload.keyspace
    for i in range(workload.spec.n_records):
        key = ks.key(i)
        stores[shard_of(key)][key] = ks.value(i)


def drive_ycsb(sim: Simulator, clients: Sequence, workload: YcsbWorkload,
               name: str = "", warmup_fraction: float = 0.1,
               extras: Optional[dict] = None) -> RunResult:
    """Run the transaction phase and collect the paper's metrics.

    ``clients`` may be HydraDB clients or baseline clients — anything with
    generator ``get(key)`` / ``update(key, value)`` methods.
    """
    ks = workload.keyspace
    get_lat = Tally("get")
    upd_lat = Tally("update")
    windows: list[tuple[int, int, int]] = []  # (warm_t, end_t, measured)

    def client_proc(idx: int, client):
        ops, key_idx = workload.slice_for(idx, len(clients))
        n = len(ops)
        warmup = int(n * warmup_fraction)
        warm_t = sim.now
        measured = 0
        for j in range(n):
            if j == warmup:
                warm_t = sim.now
            key = ks.key(int(key_idx[j]))
            t0 = sim.now
            if ops[j] == OP_GET:
                value = yield from client.get(key)
                if value is None or len(value) != ks.value_len:
                    raise AssertionError(
                        f"GET returned bad value for preloaded key {key!r}")
                if j >= warmup:
                    get_lat.observe(sim.now - t0)
            else:
                yield from client.update(key, ks.value(int(key_idx[j])))
                if j >= warmup:
                    upd_lat.observe(sim.now - t0)
            if j >= warmup:
                measured += 1
        windows.append((warm_t, sim.now, measured))

    procs = [sim.process(client_proc(i, c), name=f"ycsb.c{i}")
             for i, c in enumerate(clients)]
    # Timed section runs with the collector parked: a GC pass mid-run
    # adds wall-clock jitter without touching simulated results.
    gc.collect()
    gc.disable()
    try:
        sim.run(until=sim.all_of(procs))
    finally:
        gc.enable()
    start = max(w for w, _e, _m in windows)
    end = max(e for _w, e, _m in windows)
    measured = sum(m for _w, _e, m in windows)
    return RunResult(
        name=name or workload.spec.name,
        measured_ops=measured,
        duration_ns=max(1, end - start),
        get_latency=summarize(get_lat),
        update_latency=summarize(upd_lat),
        extras=extras or {},
    )


def run_hydra_ycsb(cluster: HydraCluster, workload: YcsbWorkload,
                   n_clients: int, clients_per_machine: Optional[int] = None,
                   name: str = "",
                   warmup_fraction: float = 0.1) -> RunResult:
    """Convenience wrapper: build clients, preload, start, drive."""
    preload_hydra(cluster, workload)
    if not cluster._started:
        cluster.start()
    n_machines = len(cluster.client_machines)
    clients = []
    for i in range(n_clients):
        if clients_per_machine:
            machine_idx = min(i // clients_per_machine, n_machines - 1)
        else:
            machine_idx = i % n_machines
        clients.append(cluster.client(machine_idx))
    result = drive_ycsb(cluster.sim, clients, workload, name=name,
                        warmup_fraction=warmup_fraction)
    result.extras.setdefault("rptr", cluster.rptr_stats())
    return result
