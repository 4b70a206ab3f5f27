"""Server node: NUMA-aware shard placement on one machine (§4.1.2).

A :class:`HydraServer` hosts ``n_shards`` shard processes, each pinned to a
core and confined to that core's NUMA domain (arena, hash table, request
buffers all local).  Shards are spread round-robin across domains so the
machine's aggregate memory bandwidth is used, as the paper prescribes,
rather than interleaving a single shard's memory.
"""

from __future__ import annotations

from typing import Optional

from ..config import SimConfig
from ..hardware import Machine
from ..sim import MetricSet, Simulator
from .shard import Shard

__all__ = ["HydraServer"]


class HydraServer:
    """All HydraDB state on one machine."""

    def __init__(self, sim: Simulator, config: SimConfig, machine: Machine,
                 server_id: str, n_shards: int,
                 metrics: Optional[MetricSet] = None,
                 table_kind: str = "compact", numa_mode: str = "local",
                 scribble_on_reclaim: bool = False):
        if machine.nic is None:
            raise ValueError("machine must be attached to the fabric first")
        h = config.hydra
        if h.transport == "tcp" and (h.pipelined_shards or h.subshards > 0):
            raise ValueError(
                "the TCP transport supports plain shards only "
                "(pipelined/sub-sharded variants are RDMA-mode ablations)")
        if h.pipelined_shards and h.subshards > 0:
            raise ValueError(
                "a shard is either sub-sharded or pipelined, not both")
        self.sim = sim
        self.config = config
        self.machine = machine
        self.server_id = server_id
        self.metrics = metrics or MetricSet(sim)
        self.shards: list[Shard] = []
        n_domains = machine.numa.n_domains
        for i in range(n_shards):
            shard_id = f"{server_id}.{i}"
            core = machine.allocate_core(shard_id,
                                         numa_domain=i % n_domains)
            self.shards.append(Shard(
                sim, config, shard_id, machine, core, metrics=self.metrics,
                table_kind=table_kind, numa_mode=numa_mode,
                scribble_on_reclaim=scribble_on_reclaim,
                subshards=h.subshards, pipelined=h.pipelined_shards,
            ))

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def kill(self) -> None:
        """Machine-level failure: all shards die and the NIC goes dark."""
        for shard in self.shards:
            if shard.alive:
                shard.kill()
        self.machine.nic.fail()

    def shard(self, index: int) -> Shard:
        return self.shards[index]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HydraServer {self.server_id} shards={len(self.shards)}>"
