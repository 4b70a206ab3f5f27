"""Chaos soak harness: mixed workload + seeded storm + acked-write oracle.

``run_soak`` builds a replicated, HA-enabled cluster, attaches a
:class:`~repro.chaos.FaultInjector` driven by one named storm profile,
runs a paced GET/PUT/DELETE workload across it, and checks the paper's
resilience contract the hard way:

* **no acked write lost** — after the storm every key is sealed with a
  fresh PUT and the merged store contents must match every seal exactly;
* **no torn or reclaimed value surfaced** — every GET result must be a
  value some client actually wrote (guardian words + indicator framing
  are what make this hold under torn-write storms);
* **typed, bounded failure** — an operation either completes within the
  client deadline (plus one attempt's slack) or raises a
  :class:`~repro.core.errors.HydraError` subclass; anything else is a
  harness failure;
* **convergence** — post-storm throughput recovers to >= 80% of the
  pre-storm window and the seal round completes.

Keys are partitioned per client so each key has a single writer; the
oracle then only needs per-key attempt sets: a key whose last mutation
*failed* is indeterminate (the write may or may not have landed before
the fault) and any attempted value is legal until the next acked
mutation re-determines it.

Everything — storm, workload, verdict — is a pure function of
``(profile, seed)``; ``chaos_soak`` re-runs one cell to prove it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import QosConfig, SimConfig
from ..core.api import HydraCluster
from ..core.errors import HydraError
from ..sim import StreamRegistry
from .injector import FaultInjector
from .schedule import FaultSchedule, PROFILES, build_schedule

__all__ = ["run_soak", "chaos_soak", "SOAK_SEEDS"]

_MS = 1_000_000

#: Default soak grid for the bench artifact: distinct seeded schedules
#: covering torn-write, gray-failure, ZK-expiry, stale-pointer, tenant,
#: and correlated dual-failure storms, plus a server-variant matrix —
#: each cell is ``(profile, seed[, variant[, replicas]])``.  Sub-sharded
#: instances reject replication hooks (one endpoint fronts many
#: sub-tables), so their cells run with ``replicas=0``; the other
#: variant cells keep the replicated baseline, and one cell raises the
#: replica count past one.
SOAK_SEEDS: Sequence[tuple] = (
    ("torn", 11), ("gray", 23), ("zk", 37), ("flap", 53), ("mixed", 71),
    ("stale", 89), ("tenant", 101), ("dualfail", 113),
    ("torn", 131, "subshard", 0), ("gray", 149, "pipelined", 1),
    ("mixed", 167, "plain", 2),
)


def _profile_overrides(profile: str) -> dict[str, dict]:
    """Per-profile config-section deltas — pure in ``profile``.

    The ``stale`` storm only bites if leases lapse and reclaim runs
    *during* the 700 ms soak, so it shrinks both far below their
    defaults, drops the traversal fan-out gate so the soak's single-key
    GETs exercise the one-sided index walk, and shortens the read
    horizon to 4x the op timeout — the window injected Read delays
    (<= 2 ms) race against.

    The ``dualfail`` storm kills a primary *and* its secondaries, so it
    enables the durable write-behind tier in ``ack_on_flush`` mode (an
    ack means the write is group-committed to the PM log — the only
    copy guaranteed to survive the correlated crash) and arms the
    client lease guard against the storm's injected clock skew
    (±500 µs, see ``build_schedule``).
    """
    if profile == "stale":
        return {
            "hydra": {"lease_min_ns": 5 * _MS, "lease_max_ns": 20 * _MS},
            "traversal": {"min_fanout": 1, "read_horizon_ns": 20 * _MS},
            "memory": {"reclaim_period_ns": 2 * _MS},
        }
    if profile == "dualfail":
        return {
            "durability": {"enabled": True, "ack_mode": "ack_on_flush"},
            "client": {"lease_skew_guard_ns": 600_000},
        }
    return {}


class _KeyState:
    __slots__ = ("attempted", "determinate", "value", "delete_attempted")

    def __init__(self):
        self.attempted: set = set()
        self.determinate = True
        self.value: Optional[bytes] = None
        self.delete_attempted = False


class WriteOracle:
    """Tracks, per key, which values could legally be observed."""

    def __init__(self):
        self._state: dict[bytes, _KeyState] = {}

    def _st(self, key: bytes) -> _KeyState:
        st = self._state.get(key)
        if st is None:
            st = self._state[key] = _KeyState()
        return st

    def begin_write(self, key: bytes, value: bytes) -> None:
        self._st(key).attempted.add(value)

    def end_write(self, key: bytes, value: bytes) -> None:
        # An acked mutation re-determines the key: stale frames cannot
        # re-execute later (failed attempts always drop their connection,
        # and a frame the shard consumed ran before this op was issued).
        st = self._st(key)
        st.value = value
        st.determinate = True
        st.attempted = {value}
        st.delete_attempted = False

    def begin_delete(self, key: bytes) -> None:
        self._st(key).delete_attempted = True

    def end_delete(self, key: bytes) -> None:
        st = self._st(key)
        st.value = None
        st.determinate = True
        st.attempted = set()

    def fail_mutation(self, key: bytes) -> None:
        self._st(key).determinate = False

    def check_read(self, key: bytes, result: Optional[bytes]) -> bool:
        """Is ``result`` a value this key could legally hold?"""
        st = self._st(key)
        if st.determinate:
            return result == st.value
        if result is None:
            return st.delete_attempted
        return result in st.attempted


def _make_value(key: bytes, cid: int, seq, value_bytes: int) -> bytes:
    return f"{key.decode()}|c{cid}|{seq}".encode().ljust(value_bytes, b".")


def run_soak(profile: str = "mixed", seed: int = 42, scale: float = 1.0,
             n_clients: int = 4, n_keys: int = 48, value_bytes: int = 48,
             deadline_ms: int = 100, variant: str = "plain",
             replicas: int = 1,
             schedule: Optional[FaultSchedule] = None) -> dict:
    """One soak cell: one profile, one seed, one verdict row.

    ``variant`` selects the server ablation the storm lands on —
    ``plain``, ``subshard`` (one endpoint, two executor cores, no
    replication hooks), or ``pipelined`` (shared-store worker pool) —
    and ``replicas`` the secondary-ring count; both flow into the
    verdict row so the matrix stays one flat table.
    """
    if variant not in ("plain", "subshard", "pipelined"):
        raise ValueError(f"unknown soak variant {variant!r}")
    storm_start = 150 * _MS
    storm_end = 450 * _MS
    end_at = 700 * _MS
    window_ns = 100 * _MS
    think_ns = max(20_000, int(100_000 / max(scale, 1e-3)))
    deadline_ns = deadline_ms * _MS

    if schedule is None:
        schedule = build_schedule(profile, seed, storm_start, storm_end)
    extras = _profile_overrides(schedule.name)
    variant_extra = {"subshard": {"subshards": 2},
                     "pipelined": {"pipelined_shards": True}}.get(
                         variant, {})
    cfg = SimConfig(seed=seed).with_overrides(
        replication={"replicas": replicas},
        coord={"heartbeat_ns": 50 * _MS, "session_timeout_ns": 200 * _MS},
        hydra={"msg_slots_per_conn": 8, **variant_extra,
               **extras.get("hydra", {})},
        client={"op_timeout_ns": 5 * _MS, "max_inflight_per_conn": 4,
                **extras.get("client", {})},
        traversal=extras.get("traversal", {}),
        memory=extras.get("memory", {}),
        durability=extras.get("durability", {}),
    )
    cluster = HydraCluster(config=cfg, n_server_machines=2,
                           shards_per_server=1, n_client_machines=2)
    ha = cluster.enable_ha()
    # Ground truth the control plane never reads: was a condemned primary
    # still alive (process and NIC) when SWAT's probes condemned it?
    false_verdicts: list[str] = []

    def judge(primary) -> None:
        if primary.alive and primary.nic.alive:
            false_verdicts.append(primary.shard_id)

    ha.swat.verdict_hooks.append(judge)
    cluster.start()
    sim = cluster.sim
    injector = FaultInjector(sim, schedule).attach(cluster)
    injector.start()

    wl = StreamRegistry(seed)
    keys = [f"chaos{i:05d}".encode() for i in range(n_keys)]
    oracle = WriteOracle()
    completions: list[int] = []
    storm_lat: list[int] = []
    stats = {"ops": 0, "typed_errors": 0, "untyped_errors": 0,
             "corrupt_values": 0, "deadline_violations": 0,
             "seal_failures": 0}
    sealed: dict[bytes, bytes] = {}
    # One attempt's worth of slack past the deadline budget: the final
    # retry may be mid-flight when the budget lapses.
    slack_ns = cfg.client.op_timeout_ns + 10 * _MS

    def worker(cid: int, client):
        rng = wl.stream(f"chaos.workload.c{cid}")
        my_keys = keys[cid::n_clients]
        seq = 0
        # Preload (before the storm window opens) so every key has an
        # acked, replicated baseline value.
        for key in my_keys:
            value = _make_value(key, cid, "pre", value_bytes)
            oracle.begin_write(key, value)
            yield from client.put(key, value)
            oracle.end_write(key, value)
        while sim.now < end_at:
            key = my_keys[int(rng.integers(0, len(my_keys)))]
            r = float(rng.random())
            t0 = sim.now
            kind = "get" if r < 0.5 else ("put" if r < 0.9 else "delete")
            try:
                if kind == "get":
                    result = yield from client.get(key)
                    if not oracle.check_read(key, result):
                        stats["corrupt_values"] += 1
                elif kind == "put":
                    seq += 1
                    value = _make_value(key, cid, seq, value_bytes)
                    oracle.begin_write(key, value)
                    yield from client.put(key, value)
                    oracle.end_write(key, value)
                else:
                    oracle.begin_delete(key)
                    yield from client.delete(key)
                    oracle.end_delete(key)
            except HydraError:
                stats["typed_errors"] += 1
                if kind != "get":
                    oracle.fail_mutation(key)
            except Exception:  # noqa: BLE001 - the invariant being tested
                stats["untyped_errors"] += 1
                if kind != "get":
                    oracle.fail_mutation(key)
            dur = sim.now - t0
            if dur > deadline_ns + slack_ns:
                stats["deadline_violations"] += 1
            if t0 >= storm_start and t0 < storm_end:
                storm_lat.append(dur)
            stats["ops"] += 1
            completions.append(sim.now)
            yield sim.timeout(think_ns)
        # Seal round: a fresh acked PUT per key pins the expected final
        # store contents for the lost-acked-write check.
        for key in my_keys:
            value = _make_value(key, cid, "seal", value_bytes)
            for _attempt in range(3):
                try:
                    oracle.begin_write(key, value)
                    yield from client.put(key, value)
                    oracle.end_write(key, value)
                    sealed[key] = value
                    break
                except HydraError:
                    oracle.fail_mutation(key)
            else:
                stats["seal_failures"] += 1

    def aggressor(client):
        """Tenant-profile antagonist: closed-loop batched churn on its
        own keyspace through the QoS layer, sharing the oracle workers'
        connections.  Typed errors are its expected weather (that is the
        point of admission + shed); anything untyped trips the same
        typed-errors-only verdict as the oracle workload."""
        agg_keys = [f"aggr{i:05d}".encode() for i in range(n_keys)]
        value = b"A" * value_bytes
        j = 0
        while sim.now < end_at:
            pairs = [(agg_keys[(j + k) % n_keys], value) for k in range(8)]
            try:
                yield from client.put_many(pairs)
            except HydraError:
                yield sim.timeout(think_ns)
            except Exception:  # noqa: BLE001 - the invariant being tested
                stats["untyped_errors"] += 1
                yield sim.timeout(think_ns)
            j += 8

    if schedule.name == "tenant":
        # The oracle workload becomes a well-behaved weighted tenant and
        # two aggressor handles saturate the same connections, so the
        # storm's flaps and losses land on DRR-arbitrated pipes.
        clients = [cluster.client(c % 2, deadline_us=deadline_ms * 1000,
                                  tenant="wb", qos=QosConfig(weight=4.0))
                   for c in range(n_clients)]
        agg_clients = [cluster.client(m, deadline_us=deadline_ms * 1000,
                                      tenant="agg") for m in range(2)]
    else:
        clients = [cluster.client(c % 2, deadline_us=deadline_ms * 1000)
                   for c in range(n_clients)]
        agg_clients = []
    cluster.run(*[worker(c, cl) for c, cl in enumerate(clients)],
                *[aggressor(cl) for cl in agg_clients])

    # -- verdict ---------------------------------------------------------
    store: dict[bytes, bytes] = {}
    for sid in cluster.routing.shard_ids():
        shard = cluster.routing.resolve(sid)
        store.update(shard.dump_all())
    lost = sum(1 for k, v in sealed.items() if store.get(k) != v)

    completions.sort()
    pre = [t for t in completions
           if storm_start - window_ns <= t < storm_start]
    post = [t for t in completions if t >= end_at - window_ns]
    marks = [storm_start] + [t for t in completions if t >= storm_start]
    blackout = max(b - a for a, b in zip(marks, marks[1:])) if len(
        marks) > 1 else 0
    pre_kops = len(pre) / window_ns * 1e6
    post_kops = len(post) / window_ns * 1e6
    p99 = float(np.percentile(storm_lat, 99)) if storm_lat else 0.0
    counters = cluster.metrics.counter
    return {
        "profile": schedule.name,
        "seed": seed,
        "variant": variant,
        "replicas": replicas,
        "ops": stats["ops"],
        "errors": stats["typed_errors"],
        "error_rate": (stats["typed_errors"] / stats["ops"]
                       if stats["ops"] else 0.0),
        "untyped_errors": stats["untyped_errors"],
        "corrupt_values": stats["corrupt_values"],
        "lost_acked_writes": lost,
        "deadline_violations": stats["deadline_violations"],
        "pre_kops": pre_kops,
        "post_kops": post_kops,
        "recovered_ratio": post_kops / pre_kops if pre_kops else 0.0,
        "p99_ms": p99 / 1e6,
        "blackout_ms": blackout / 1e6,
        "failovers": counters("swat.failovers").value,
        "false_verdicts": len(false_verdicts),
        "log_recoveries": counters("durable.recoveries").value,
        "log_replayed": counters("durable.replayed").value,
        "lease_skew_hazards": counters("client.lease_skew_hazards").value,
        "gray_failures": counters("shard.gray_failures").value,
        "stale_responses": counters("client.stale_responses").value,
        "bucket_reads": counters("client.bucket_reads").value,
        "traversal_races": counters("client.traversal_races").value,
        "demotions": counters("client.demotions").value,
        "injected_faults": injector.injected,
        "schedule_hash": injector.schedule_hash(),
        "converged": stats["seal_failures"] == 0 and len(sealed) == n_keys,
    }


def _cell_args(cell: tuple) -> tuple[str, int, str, int]:
    profile, seed = cell[0], cell[1]
    variant = cell[2] if len(cell) > 2 else "plain"
    replicas = cell[3] if len(cell) > 3 else 1
    return profile, seed, variant, replicas


def chaos_soak(scale: float = 1.0,
               cells: Sequence[tuple] = SOAK_SEEDS) -> list[dict]:
    """The bench experiment: one row per storm cell.

    The first cell is run twice and its injection-log hash and verdict
    compared — the ``deterministic`` column is the replayability proof.
    The same check holds for every cell in the matrix (variants and
    replica counts included); the dedicated determinism test covers a
    variant cell so the storm matrix keeps same-seed replay identity.
    """
    rows = []
    for cell in cells:
        profile, seed, variant, replicas = _cell_args(cell)
        rows.append(run_soak(profile, seed, scale=scale, variant=variant,
                             replicas=replicas))
    if rows:
        profile, seed, variant, replicas = _cell_args(cells[0])
        rerun = run_soak(profile, seed, scale=scale, variant=variant,
                         replicas=replicas)
        verdict = ("ops", "errors", "corrupt_values", "lost_acked_writes",
                   "schedule_hash", "injected_faults")
        rows[0]["deterministic"] = all(
            rows[0][k] == rerun[k] for k in verdict)
    return rows


def main() -> int:  # pragma: no cover - thin CLI
    import argparse
    import json

    ap = argparse.ArgumentParser(
        description="run one seeded chaos soak cell")
    ap.add_argument("--profile", default="mixed", choices=PROFILES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--variant", default="plain",
                    choices=("plain", "subshard", "pipelined"))
    ap.add_argument("--replicas", type=int, default=1)
    ns = ap.parse_args()
    row = run_soak(ns.profile, ns.seed, scale=ns.scale,
                   variant=ns.variant, replicas=ns.replicas)
    print(json.dumps(row, indent=2))
    bad = (row["untyped_errors"] or row["corrupt_values"]
           or row["lost_acked_writes"] or row["deadline_violations"]
           or not row["converged"])
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
