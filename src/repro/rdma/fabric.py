"""The switched fabric: NIC attachment, registration table, RC connections.

One :class:`Fabric` models the single Mellanox IS5030 switch of the paper's
testbed: constant propagation between any two NICs, cheaper NIC-internal
loopback for co-located processes.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from ..config import SimConfig
from ..hardware.machine import Machine
from ..sim import MetricSet, Simulator
from .memory import MemoryRegion
from .nic import Nic
from .qp import QpError, QueuePair
from .ud import UdQueuePair

__all__ = ["Fabric"]


class Fabric:
    """A single-switch RDMA network."""

    def __init__(self, sim: Simulator, config: SimConfig,
                 metrics: Optional[MetricSet] = None):
        self.sim = sim
        self.config = config
        self.metrics = metrics or MetricSet(sim)
        self.nics: list[Nic] = []
        self._rkeys = count(start=1)
        self._qp_nums = count(start=1)
        #: Client-connection ids for the shards on this fabric: numbered
        #: per cluster, so a run's connection ids (and what pipelined I/O
        #: threads partition by) do not depend on what ran before it in
        #: the same process.
        self.conn_ids = count(start=1)
        self._rkey_table: dict[int, tuple[Nic, MemoryRegion]] = {}
        #: Optional chaos hook (:class:`repro.chaos.FaultInjector`): when
        #: set, every RDMA Write/Read consults it for drop / delay /
        #: duplicate / torn-write decisions before touching the wire.
        self.fault_injector = None
        import numpy as np
        self._ud_rng = np.random.default_rng(config.seed ^ 0xD06F00D)

    # -- topology -----------------------------------------------------------
    def attach(self, machine: Machine) -> Nic:
        """Cable a machine into the switch; gives it its NIC."""
        if machine.nic is not None:
            raise ValueError(f"{machine!r} already has a NIC")
        nic = Nic(self.sim, machine, len(self.nics), self.config, self,
                  metrics=self.metrics)
        self.nics.append(nic)
        machine.nic = nic
        return nic

    def prop_ns(self, a: Nic, b: Nic) -> int:
        if a is b:
            return self.config.fabric.loopback_ns
        return self.config.fabric.propagation_ns

    # -- registration ---------------------------------------------------------
    def register(self, nic: Nic, region: MemoryRegion) -> MemoryRegion:
        if region.rkey is not None:
            raise ValueError(f"{region!r} is already registered")
        region.rkey = next(self._rkeys)
        region.owner_nic = nic
        self._rkey_table[region.rkey] = (nic, region)
        return region

    def deregister(self, region: MemoryRegion) -> None:
        """Drop ``region``'s rkey.  This revokes it: a verb already in
        flight under that key fails where it reaches the region."""
        if region.rkey is None:
            return
        self._rkey_table.pop(region.rkey, None)
        region.rkey = None
        region.owner_nic = None

    def lookup(self, rkey: int) -> tuple[Nic, MemoryRegion]:
        try:
            return self._rkey_table[rkey]
        except KeyError:
            raise QpError(f"unknown rkey {rkey}") from None

    # -- connections ---------------------------------------------------------
    def connect(self, nic_a: Nic, nic_b: Nic) -> tuple[QueuePair, QueuePair]:
        """Create a reliable-connected QP pair between two NICs.

        Connecting a NIC to itself is allowed (co-located client/server).
        """
        qa = QueuePair(self.sim, nic_a, next(self._qp_nums))
        qb = QueuePair(self.sim, nic_b, next(self._qp_nums))
        qa._connect(qb)
        qb._connect(qa)
        return qa, qb

    def create_ud_qp(self, nic: Nic) -> UdQueuePair:
        """A connectionless UD endpoint (not counted against the QP cache)."""
        return UdQueuePair(self.sim, nic)

    def ud_dropped(self) -> bool:
        """Sample the configured UD loss probability (deterministic rng)."""
        p = self.config.nic.ud_drop_probability
        if p <= 0:
            return False
        return bool(self._ud_rng.random() < p)

    def disconnect(self, qp: QueuePair) -> None:
        if qp.peer is not None:
            qp.peer.destroy()
        qp.destroy()
