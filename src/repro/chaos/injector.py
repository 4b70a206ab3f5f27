"""The deterministic fault injector: one object, narrow hooks per layer.

``FaultInjector`` is attached to a cluster (``attach``) and consulted by
each layer through a single nullable attribute (``fabric.fault_injector``,
``tcpnet.fault_injector``, ``zk.fault_injector``, per-secondary
``fault_injector``).  Hooks are *pull*-style: the layer asks "does this
event fault?" at the moment it happens, the injector samples its named
RNG stream against the schedule's active window and answers.  Discrete
actions (crashes, gray failures, QP flaps, SWAT churn) are applied by a
driver process started with ``start()``.

Because every sample comes from
:class:`~repro.sim.StreamRegistry` seeded by the schedule and the
simulator itself is deterministic, the full injection log — and therefore
``schedule_hash()`` — is a pure function of ``(schedule, workload seed)``.

Fault scope rules (the safety contract, see docs/PROTOCOLS.md):

* RDMA write faults apply only to message-buffer regions (``*.req`` /
  ``*.resp``).  Replication ring/ack regions are exempt: RC ordering is
  what the SWZR protocol is built on, and a dropped ring frame is an
  unrecoverable wedge, not a recoverable fault.
* Torn writes always land an 8-byte-aligned prefix and never produce a
  completion — exactly the partial-DMA window the indicator framing and
  guardian words exist to catch.
* Duplicates are restricted to response regions: a replayed *response* is
  discarded by the client's stale-``req_id`` check, while a replayed
  *request* could re-execute a stale mutation and corrupt the oracle.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..sim import Simulator, StreamRegistry
from .schedule import FaultSchedule

__all__ = ["FaultInjector"]


class FaultInjector:
    """Samples a :class:`FaultSchedule` against live traffic."""

    def __init__(self, sim: Simulator, schedule: FaultSchedule):
        self.sim = sim
        self.schedule = schedule
        self.rng = StreamRegistry(schedule.seed)
        self.cluster = None
        #: Ordered record of every injected fault: ``(t_ns, site, detail)``.
        self.log: list[tuple[int, str, str]] = []
        self.injected = 0
        self._proc = None

    # -- wiring ---------------------------------------------------------
    def attach(self, cluster) -> "FaultInjector":
        """Point every layer's fault hook at this injector."""
        self.cluster = cluster
        cluster.fabric.fault_injector = self
        cluster.tcpnet.fault_injector = self
        ha = getattr(cluster, "ha", None)
        if ha is not None:
            ha.zk.fault_injector = self
        for secs in cluster.secondaries.values():
            for sec in secs:
                sec.fault_injector = self
        return self

    def start(self) -> None:
        """Spawn the driver process that applies the discrete actions."""
        if self.cluster is None:
            raise RuntimeError("attach() the injector to a cluster first")
        self._proc = self.sim.process(self._driver(), name="chaos.driver")

    # -- bookkeeping ----------------------------------------------------
    def _record(self, site: str, detail: str = "") -> None:
        self.injected += 1
        self.log.append((self.sim.now, site, detail))

    def schedule_hash(self) -> str:
        """Digest of the injection log — identical seeds must match."""
        h = hashlib.sha256()
        for t, site, detail in self.log:
            h.update(f"{t}:{site}:{detail}\n".encode())
        return h.hexdigest()[:16]

    def _sample(self, stream: str, p: float) -> bool:
        if p <= 0.0:
            return False
        return bool(self.rng.stream(stream).random() < p)

    def _delay(self, stream: str, w) -> int:
        hi = max(w.min_delay_ns + 1, w.max_delay_ns)
        return int(self.rng.stream(stream).integers(w.min_delay_ns, hi))

    @staticmethod
    def _region_class(region) -> str:
        name = getattr(region, "name", "") or ""
        if name.endswith(".req"):
            return "req"
        if name.endswith(".resp"):
            return "resp"
        return "other"  # ring / ack / arena / rptr: exempt by design

    # -- per-layer hooks -------------------------------------------------
    def rdma_write_fault(self, nic, qp, region, offset,
                         data) -> Optional[dict]:
        """Fault decision for a one-sided Write; ``None`` = clean."""
        cls = self._region_class(region)
        if cls == "other":
            return None
        now = self.sim.now
        sched = self.schedule
        w = sched.active("write_drop", now)
        if w is not None and self._sample("nic.write_drop", w.p):
            self._record("write_drop", region.name)
            return {"drop": True}
        w = sched.active("write_torn", now)
        if w is not None and len(data) > 8 \
                and self._sample("nic.write_torn", w.p):
            # Land a whole-word prefix strictly shorter than the payload:
            # the DMA engine writes words atomically, links tear between
            # them.  No completion is generated — the retry timer fires.
            words = (len(data) - 1) // 8
            cut = 8 * int(self.rng.stream("nic.torn_cut").integers(
                1, words + 1))
            self._record("write_torn",
                         f"{region.name}+{offset}:{cut}/{len(data)}")
            return {"torn_bytes": cut}
        decision: dict = {}
        w = sched.active("write_delay", now)
        if w is not None and self._sample("nic.write_delay", w.p):
            decision["delay_ns"] = self._delay("nic.write_delay_ns", w)
            self._record("write_delay", region.name)
        if cls == "resp":
            w = sched.active("write_dup", now)
            if w is not None and self._sample("nic.write_dup", w.p):
                decision["duplicate"] = True
                self._record("write_dup", region.name)
        return decision or None

    def rdma_read_fault(self, nic, qp, region, offset,
                        length) -> Optional[dict]:
        """Fault decision for a one-sided Read; ``None`` = clean."""
        now = self.sim.now
        w = self.schedule.active("read_drop", now)
        if w is not None and self._sample("nic.read_drop", w.p):
            self._record("read_drop", getattr(region, "name", "?"))
            return {"drop": True}
        w = self.schedule.active("read_delay", now)
        if w is not None and self._sample("nic.read_delay", w.p):
            d = self._delay("nic.read_delay_ns", w)
            self._record("read_delay", getattr(region, "name", "?"))
            return {"delay_ns": d}
        return None

    def tcp_fault(self, conn, payload, nbytes) -> Optional[str]:
        """``"reset"``, ``"short"``, or ``None`` for a TCP send."""
        now = self.sim.now
        w = self.schedule.active("tcp_reset", now)
        if w is not None and self._sample("tcp.reset", w.p):
            self._record("tcp_reset", f"{nbytes}B")
            return "reset"
        w = self.schedule.active("tcp_short", now)
        if w is not None and self._sample("tcp.short", w.p):
            self._record("tcp_short", f"{nbytes}B")
            return "short"
        return None

    def watch_delay(self, path, kind) -> int:
        """Extra delivery delay (ns) for a ZooKeeper watch event."""
        w = self.schedule.active("watch_delay", self.sim.now)
        if w is not None and self._sample("zk.watch_delay", w.p):
            d = self._delay("zk.watch_delay_ns", w)
            self._record("watch_delay", f"{path}:{kind}")
            return d
        return 0

    def replication_fault(self, sec) -> bool:
        """Should this secondary's merge of the next record fail?"""
        w = self.schedule.active("rep_fault", self.sim.now)
        if w is not None and self._sample("rep.fault", w.p):
            self._record("rep_fault", sec.shard_id)
            return True
        return False

    # -- discrete actions -------------------------------------------------
    def _driver(self):
        for action in sorted(self.schedule.actions, key=lambda a: a.t_ns):
            delay = action.t_ns - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self._apply(action)

    def _shard_at(self, index: int):
        sids = self.cluster.routing.shard_ids()
        if not sids:
            return None
        return self.cluster.routing.resolve(sids[index % len(sids)])

    def _apply(self, action) -> None:
        cluster = self.cluster
        kind = action.kind
        if kind == "shard_crash":
            # Kill the whole server machine so heartbeats stop and SWAT
            # runs a real failover, exactly like the availability bench.
            servers = cluster.servers
            if not servers:
                return
            server = servers[action.index % len(servers)]
            if any(sh.alive for sh in server.shards):
                self._record("shard_crash", server.server_id)
                server.kill()
        elif kind == "gray":
            shard = self._shard_at(action.index)
            if shard is None or not shard.alive:
                return
            self._record("gray_fail", shard.shard_id)
            shard.gray_fail()

            def _heal(sh=shard, dur=max(1, action.duration_ns)):
                yield self.sim.timeout(dur)
                self._record("gray_recover", sh.shard_id)
                sh.gray_recover()

            self.sim.process(_heal(), name="chaos.gray_heal")
        elif kind == "swat_churn":
            ha = getattr(cluster, "ha", None)
            if ha is None:
                return
            swat = ha.swat
            mid = swat.leader_id
            if mid is None or not swat._member_alive[mid]:
                # No leader right now; churn a live member instead.
                live = [i for i, a in enumerate(swat._member_alive) if a]
                if not live:
                    return
                mid = live[0]
            self._record("swat_churn", f"m{mid}")
            swat.kill_member(mid)
            ha.zk.expire_sessions_of(f"swat.m{mid}")
            swat.spawn_member()
        elif kind == "dual_crash":
            # Correlated failure: take down a whole server machine *and*
            # every secondary covering its shards.  Replication tolerates
            # exactly one of those; losing both leaves the durable log as
            # the only way back (SWAT's no-candidate branch replays it).
            servers = cluster.servers
            if not servers:
                return
            server = servers[action.index % len(servers)]
            if not any(sh.alive for sh in server.shards):
                return
            sids = [sh.shard_id for sh in server.shards]
            self._record("dual_crash", server.server_id)
            server.kill()
            for sid in sids:
                for sec in cluster.secondaries.get(sid, []):
                    if not sec.failing:
                        sec.kill()
                    if sec.machine.nic.alive:
                        sec.machine.nic.fail()
        elif kind == "clock_skew":
            # Skew every client machine's wall clock by a seeded offset in
            # ±duration_ns.  Lease checks on those machines now read a
            # clock that may run ahead of the shard's; only the client's
            # lease_skew_guard_ns keeps reads inside the safety horizon.
            bound = max(1, action.duration_ns)
            rng = self.rng.stream("chaos.clock_skew")
            for machine in getattr(cluster, "client_machines", []):
                skew = int(rng.integers(-bound, bound + 1))
                machine.clock_skew_ns = skew
                self._record("clock_skew", f"m{machine.machine_id}:{skew}")
        elif kind == "qp_flap":
            conns = []
            for sid in cluster.routing.shard_ids():
                shard = cluster.routing.resolve(sid)
                if shard.alive:
                    conns.extend((sid, c) for c in shard.conns
                                 if c.shard_qp.usable)
            if not conns:
                return
            idx = int(self.rng.stream("chaos.qp_flap").integers(
                0, len(conns)))
            sid, conn = conns[idx]
            # Label by shard + position: the pick is what the seeded
            # stream chose, independent of how connections are numbered.
            self._record("qp_flap", f"{sid}#{idx}")
            conn.shard_qp.force_error()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FaultInjector {self.schedule.name} seed="
                f"{self.schedule.seed} injected={self.injected}>")
