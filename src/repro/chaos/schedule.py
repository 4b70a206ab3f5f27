"""Seeded fault schedules: what breaks, when, and with what probability.

A schedule is pure data — a set of :class:`FaultWindow` intervals (during
which a fault *site* fires probabilistically) plus a list of discrete
:class:`FaultAction` events (crash this shard, churn the SWAT leader).
Everything is derived from a single seed via
:class:`~repro.sim.StreamRegistry`, so two runs with the same profile and
seed see exactly the same storm — the property the determinism test and
``schedule_hash`` pin down.

Fault **sites** (window-driven, sampled per event by the injector):

========== ==========================================================
site        what fires
========== ==========================================================
write_drop  one-sided RDMA Write silently dropped in the fabric
write_delay RDMA Write delivery delayed by ``[min,max]_delay_ns``
write_dup   response-region Write delivered twice (resurrection)
write_torn  Write lands as an 8-byte-aligned prefix, no completion
read_drop   one-sided RDMA Read dropped (completes RETRY_EXC later)
read_delay  RDMA Read response delayed
tcp_reset   TCP send turns into a connection reset
tcp_short   TCP send truncated (short write / short read at peer)
watch_delay ZooKeeper watch delivery delayed
rep_fault   secondary merge thread rejects a replication record
========== ==========================================================

Action **kinds** (discrete, applied by the injector's driver process):
``shard_crash``, ``gray`` (stop sweeping, QPs stay alive, heal after
``duration_ns``), ``swat_churn`` (kill + expire the SWAT leader, spawn a
replacement), ``qp_flap`` (spontaneous QP error on a live client
connection), ``dual_crash`` (correlated failure: kill a server *and*
its shards' secondaries — replication cannot cover it, so SWAT must
rebuild from the durable log), ``clock_skew`` (skew every client
machine's wall clock by up to ±``duration_ns``; lease checks must stay
safe under ``client.lease_skew_guard_ns``).

Injection is deliberately *not* wired into the replication ring or ack
regions: a torn or dropped ring frame is a protocol-level wedge (the
reader polls ``None`` forever behind the gap) that real NICs' RC
semantics rule out — see docs/PROTOCOLS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..sim import StreamRegistry

__all__ = ["FaultWindow", "FaultAction", "FaultSchedule", "build_schedule",
           "PROFILES"]

_MS = 1_000_000

#: Window-driven fault sites the injector samples.
SITES = ("write_drop", "write_delay", "write_dup", "write_torn",
         "read_drop", "read_delay", "tcp_reset", "tcp_short",
         "watch_delay", "rep_fault")

#: Discrete action kinds the driver process applies.
ACTION_KINDS = ("shard_crash", "gray", "swat_churn", "qp_flap",
                "dual_crash", "clock_skew")

#: Named storm profiles understood by :func:`build_schedule`.
PROFILES = ("torn", "gray", "zk", "flap", "mixed", "stale", "tenant",
            "dualfail")


@dataclass(frozen=True)
class FaultWindow:
    """An interval during which ``site`` fires with probability ``p``."""

    site: str
    t0_ns: int
    t1_ns: int
    p: float = 0.0
    min_delay_ns: int = 0
    max_delay_ns: int = 0

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        if not self.t0_ns < self.t1_ns:
            raise ValueError("empty fault window")


@dataclass(frozen=True)
class FaultAction:
    """A discrete fault applied at ``t_ns`` by the injector driver."""

    t_ns: int
    kind: str
    index: int = 0
    duration_ns: int = 0

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown fault action {self.kind!r}")


@dataclass(frozen=True)
class FaultSchedule:
    """A complete, replayable storm: windows + actions + their seed."""

    name: str
    seed: int
    windows: Sequence[FaultWindow] = field(default_factory=tuple)
    actions: Sequence[FaultAction] = field(default_factory=tuple)

    def active(self, site: str, now: int) -> Optional[FaultWindow]:
        """First window covering ``site`` at time ``now``, if any."""
        for w in self.windows:
            if w.site == site and w.t0_ns <= now < w.t1_ns:
                return w
        return None

    def describe(self) -> str:
        parts = [f"{w.site}@[{w.t0_ns // _MS},{w.t1_ns // _MS}]ms"
                 f" p={w.p:.3f}" for w in self.windows]
        parts += [f"{a.kind}#{a.index}@{a.t_ns // _MS}ms"
                  for a in sorted(self.actions, key=lambda a: a.t_ns)]
        return "; ".join(parts)


def build_schedule(profile: str, seed: int,
                   storm_start_ns: int = 150 * _MS,
                   storm_end_ns: int = 450 * _MS) -> FaultSchedule:
    """Generate the seeded storm for one named profile.

    All jitter comes from one named stream off ``seed``, so the schedule
    is a pure function of ``(profile, seed, storm bounds)``.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown chaos profile {profile!r}; "
                         f"choose one of {PROFILES}")
    rng = StreamRegistry(seed).stream(f"chaos.schedule.{profile}")
    span = storm_end_ns - storm_start_ns
    if span <= 0:
        raise ValueError("storm window must be non-empty")

    def jit(lo: float, hi: float) -> int:
        """A point inside the storm at relative position [lo, hi)."""
        return storm_start_ns + int(span * (lo + (hi - lo) * rng.random()))

    def prob(lo: float, hi: float) -> float:
        return float(lo + (hi - lo) * rng.random())

    windows: list[FaultWindow] = []
    actions: list[FaultAction] = []

    def window(site: str, p_lo: float, p_hi: float,
               min_d: int = 0, max_d: int = 0) -> None:
        t0 = jit(0.0, 0.25)
        t1 = jit(0.7, 1.0)
        windows.append(FaultWindow(site, t0, t1, p=prob(p_lo, p_hi),
                                   min_delay_ns=min_d, max_delay_ns=max_d))

    if profile == "torn":
        # Guardian-word storm: torn + dropped writes, slow reads, one flap.
        window("write_torn", 0.05, 0.12)
        window("write_drop", 0.01, 0.03)
        window("read_delay", 0.05, 0.15, min_d=50_000, max_d=400_000)
        actions.append(FaultAction(jit(0.3, 0.7), "qp_flap"))
    elif profile == "gray":
        # The shard stops sweeping but its QPs stay alive; only client
        # deadlines save the workload until the gray period heals.
        dur = int(span * (0.4 + 0.2 * rng.random()))
        actions.append(FaultAction(jit(0.1, 0.3), "gray",
                                   index=int(rng.integers(0, 4)),
                                   duration_ns=dur))
        window("write_delay", 0.02, 0.05, min_d=20_000, max_d=200_000)
    elif profile == "zk":
        # Coordination storm: laggy watches and one SWAT leader churn,
        # with the data plane untouched.
        window("watch_delay", 0.3, 0.6, min_d=1 * _MS, max_d=10 * _MS)
        actions.append(FaultAction(jit(0.3, 0.7), "swat_churn"))
    elif profile == "flap":
        # QP error storms plus background packet loss on both verbs.
        for _ in range(3):
            actions.append(FaultAction(jit(0.05, 0.95), "qp_flap"))
        window("write_drop", 0.01, 0.04)
        window("read_drop", 0.01, 0.04)
    elif profile == "stale":
        # Stale-pointer storm for the index-traversal path: Reads are
        # delayed long enough that bucket snapshots and primed pointers
        # go stale against lease expiry and reclaim (the soak harness
        # shrinks leases/reclaim/horizon for this profile), with light
        # packet loss and one QP flap on top.  The oracle then proves no
        # torn or reclaimed value ever surfaces from a traversal.
        window("read_delay", 0.25, 0.45, min_d=100_000, max_d=2_000_000)
        window("read_drop", 0.01, 0.03)
        window("write_delay", 0.02, 0.05, min_d=20_000, max_d=200_000)
        actions.append(FaultAction(jit(0.3, 0.7), "qp_flap"))
    elif profile == "tenant":
        # Multi-tenant storm: the harness pairs this schedule with an
        # aggressor tenant saturating the shared connections through the
        # QoS layer (admission + DRR slot arbitration), so the faults
        # here land on contended pipes — QP flaps tear down connections
        # with cross-tenant arbiter state, light loss forces retries
        # through admission, and delayed writes age out slot grants.
        for _ in range(2):
            actions.append(FaultAction(jit(0.1, 0.9), "qp_flap"))
        window("write_drop", 0.01, 0.03)
        window("write_delay", 0.02, 0.05, min_d=20_000, max_d=200_000)
    elif profile == "dualfail":
        # Correlated primary+secondary death under load.  The replication
        # ring tolerates exactly one failure; this storm takes both, so
        # the only way back is the durable write-behind log (the harness
        # enables it in ack_on_flush mode for this profile).  Client
        # clocks are skewed early — before any lease is trusted across
        # the blackout — and light write weather keeps retries honest.
        actions.append(FaultAction(jit(0.0, 0.1), "clock_skew",
                                   duration_ns=500_000))
        actions.append(FaultAction(jit(0.25, 0.5), "dual_crash",
                                   index=int(rng.integers(0, 4))))
        window("write_delay", 0.02, 0.05, min_d=20_000, max_d=200_000)
        window("write_drop", 0.005, 0.02)
    else:  # mixed
        actions.append(FaultAction(jit(0.15, 0.4), "shard_crash",
                                   index=int(rng.integers(0, 4))))
        window("rep_fault", 0.02, 0.06)
        window("write_dup", 0.02, 0.06)
        window("write_torn", 0.01, 0.04)
        window("write_drop", 0.005, 0.02)
        actions.append(FaultAction(jit(0.6, 0.9), "qp_flap"))

    return FaultSchedule(name=profile, seed=seed,
                         windows=tuple(windows), actions=tuple(actions))
