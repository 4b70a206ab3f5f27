"""Multi-tenant fairness bench: aggressor vs well-behaved tenant, one shard.

The scenario the QoS layer exists for: two tenants share one client
machine (one transport, one connection, one slot pool) against a single
shard, with a ~100:1 offered-load skew.  Cells cover the three QoS
levers and the window autotuner:

* ``w1`` / ``w16`` — single tenant, closed-loop GET bursts at a static
  in-flight window of 1 / 16 (the knob AIMD replaces).
* ``auto`` — same workload, but the client starts at window 1 and
  ``qos.autotune`` (AIMD) must climb to the best static window on its
  own: throughput within a few percent of ``max(w1, w16)``.
* ``solo`` — the paced victim alone (one GET per 50 us): its offered
  load and no-contention p99, the latency baselines.
* ``share-nofq`` / ``share-fq`` / ``share-fq-w4`` — closed-loop victim
  (one proc, batch 16) vs closed-loop aggressor (two procs, batch 32).
  Without fair queueing the aggressor's 4x pending-op pressure wins the
  slot races and the victim's throughput share collapses below its fair
  half (Jain < 0.9, the contrast row); DRR restores the weighted share
  (Jain >= 0.9).
* ``throttle`` — paced victim + *admission-shaped* aggressor
  (``qos.rate_ops`` cap, small burst).  Fair queueing alone cannot
  protect tail latency under a saturating aggressor (the shared server
  queue is FIFO); shaping the aggressor leaves headroom, and the
  victim's p99 must stay <= 2x its no-aggressor baseline while the
  aggressor's client-side throttle counter trips (typed, counted —
  never a silent stall).
* ``shed`` — paced victim + unshaped aggressor with the server-side
  per-tenant occupancy cap (``qos.server_shed_slots``): the shard sheds
  the aggressor's surplus as cheap THROTTLED responses the retry engine
  absorbs (shed counter > 0).

Fairness is scored with Jain's index over *demand-satisfaction* shares:
``x_i = min(1, served_i / fair_i)`` where the fair shares come from
weighted water-filling (a tenant is never owed more than it offered,
and unused share spills to the hungry).  A bit-greedy aggressor
therefore does not hurt the score as long as the victim gets its
weighted share.

``BENCH_tenants.json`` records the cells across PRs; the experiment's
check enforces the acceptance floors.
"""

from __future__ import annotations

import math

from ..config import QosConfig, SimConfig
from ..core import HydraCluster
from ..protocol import Op
from .registry import Artifact, Claims, experiment, number

__all__ = ["tenant_fairness"]

#: Default paced-victim op count at scale=1.0.
BASE_VICTIM_OPS = 2_000
_US = 1_000
_THINK_NS = 50 * _US       # paced victim: one GET per 50 us
_VICTIM_BATCH = 16         # closed-loop victim batch (share-* cells)
_AGG_BATCH = 32            # aggressor multi-op batch
_AGG_VALUE = 512           # aggressor PUT payload (keeps slots busy)
_N_KEYS = 256


def _jain(shares: list[float]) -> float:
    """Jain's fairness index over demand-satisfaction shares."""
    if not shares:
        return 1.0
    num = sum(shares) ** 2
    den = len(shares) * sum(x * x for x in shares)
    return num / den if den else 1.0


def _fair_shares(offered: list[float], weights: list[float],
                 capacity: float) -> list[float]:
    """Weighted max-min (water-filling) fair allocation of ``capacity``.

    Tenants whose demand sits below their weighted share keep their
    demand; the surplus is re-divided among the still-hungry by weight.
    """
    n = len(offered)
    alloc = [0.0] * n
    active = list(range(n))
    cap = capacity
    while active and cap > 1e-9:
        wsum = sum(weights[i] for i in active)
        quantum = cap / wsum
        satisfied = [i for i in active if offered[i] <= quantum * weights[i]]
        if not satisfied:
            for i in active:
                alloc[i] = quantum * weights[i]
            return alloc
        for i in satisfied:
            alloc[i] = offered[i]
            cap -= offered[i]
            active.remove(i)
    return alloc


def _cell_jain(victim_kops: float, agg_kops: float, offered_v: float,
               offered_a: float, weights: list[float]) -> float:
    """Jain over demand-satisfaction: each tenant's share is what it was
    served over its water-filling fair allocation, where a tenant's
    demand is capped by its own offered load (an admission-shaped
    aggressor *demands* only its token rate — holding it to that rate is
    fair, not unfair)."""
    total = victim_kops + agg_kops
    fair = _fair_shares([min(offered_v, total), min(offered_a, total)],
                        weights, total)
    shares = [min(1.0, victim_kops / fair[0]) if fair[0] else 1.0,
              min(1.0, agg_kops / fair[1]) if fair[1] else 1.0]
    return _jain(shares)


def _base_config(*, window: int = 16, **qos) -> SimConfig:
    """All-message-path config: 16 slots, caches off."""
    return SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 16},
        client={"max_inflight_per_conn": window,
                "rptr_cache_enabled": False},
        traversal={"enabled": False},
        qos=qos,
    )


def _new_cluster(cfg: SimConfig) -> HydraCluster:
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    for i in range(_N_KEYS):
        key = f"k{i:06d}".encode()
        cluster.route(key).store_for_key(key).upsert(key, b"v" * 64, Op.PUT)
    cluster.start()
    return cluster


def _paced_victim(cluster, client, n_ops, lat_ns, done):
    """Open-loop paced GETs on an absolute schedule (latency does not
    shrink the offered load)."""
    keys = [f"k{i:06d}".encode() for i in range(_N_KEYS)]
    t_next = cluster.sim.now
    for i in range(n_ops):
        t_next += _THINK_NS
        if t_next > cluster.sim.now:
            yield cluster.sim.timeout(t_next - cluster.sim.now)
        t0 = cluster.sim.now
        yield from client.get(keys[i % _N_KEYS])
        lat_ns.append(cluster.sim.now - t0)
    done["at"] = cluster.sim.now


def _closed_victim(cluster, client, served, done, horizon_ns):
    """Closed-loop batched GETs until the horizon (share-* cells)."""
    keys = [f"k{i:06d}".encode() for i in range(_N_KEYS)]
    j = 0
    while cluster.sim.now < horizon_ns:
        batch = [keys[(j + k) % _N_KEYS] for k in range(_VICTIM_BATCH)]
        yield from client.get_many(batch)
        j += _VICTIM_BATCH
        if cluster.sim.now < horizon_ns:
            served["n"] += _VICTIM_BATCH
    done["at"] = cluster.sim.now


def _aggressor(cluster, client, served, done, horizon_ns=None):
    """Closed-loop batched churn until the victim finishes."""
    keys = [f"a{i:06d}".encode() for i in range(_N_KEYS)]
    value = b"w" * _AGG_VALUE
    j = 0
    while "at" not in done:
        pairs = [(keys[(j + k) % _N_KEYS], value) for k in range(_AGG_BATCH)]
        yield from client.put_many(pairs)
        j += _AGG_BATCH
        if "at" not in done and (horizon_ns is None
                                 or cluster.sim.now < horizon_ns):
            served["n"] += _AGG_BATCH


def _single_aggressor(cluster, client, served, done, stagger_ns=0):
    """Closed-loop single-op churn: each PUT passes admission on its
    own, so a ``qos.rate_ops`` cap truly paces the wire (a batched
    aggressor would admit the whole batch, then post it at once).

    ``stagger_ns`` phase-shifts the first op.  The token bucket then
    grants on a fixed beat from that instant; an off-grid stagger keeps
    the deterministic sim's shaped aggressor from beating in lockstep
    with the paced victim's schedule (a real cluster gets this phase
    noise for free)."""
    keys = [f"a{i:06d}".encode() for i in range(_N_KEYS)]
    value = b"w" * _AGG_VALUE
    if stagger_ns:
        yield cluster.sim.timeout(stagger_ns)
    j = 0
    while "at" not in done:
        yield from client.put(keys[j % _N_KEYS], value)
        j += 1
        if "at" not in done:
            served["n"] += 1


def _burst_driver(cluster, client, n_ops, elapsed):
    """Closed-loop GET bursts (the window-tuning workload)."""
    keys = [f"k{i:06d}".encode() for i in range(_N_KEYS)]
    t0 = cluster.sim.now
    for s in range(0, n_ops, _AGG_BATCH):
        batch = [keys[(s + k) % _N_KEYS] for k in range(_AGG_BATCH)]
        yield from client.get_many(batch)
    elapsed["ns"] = cluster.sim.now - t0


def _row(cell, kops, victim_kops, agg_kops, p99_us, jain, throttled, shed):
    return {"cell": cell, "kops": kops, "victim_kops": victim_kops,
            "agg_kops": agg_kops, "victim_p99_us": p99_us, "jain": jain,
            "throttled": throttled, "shed": shed}


def _window_cell(cell: str, n_ops: int) -> dict:
    """Single-tenant window cell: static w1/w16 or AIMD autotune.

    The ``auto`` cell deliberately starts from the *worst* static window
    (1): the AIMD controller has to discover the deeper window itself
    (+1 per clean probe interval) and hold it there, so matching the
    best static cell is a genuine search result, not an initial value.
    """
    if cell == "auto":
        cfg = _base_config(window=1)
        cluster = _new_cluster(cfg)
        client = cluster.client(tenant="tuner", qos=QosConfig(
            autotune=True, aimd_min_window=1, aimd_max_window=16,
            aimd_rtt_inflation=32.0, aimd_probe_interval=4))
    else:
        window = {"w1": 1, "w16": 16}[cell]
        cluster = _new_cluster(_base_config(window=window))
        client = cluster.client()
    elapsed: dict[str, int] = {}
    cluster.run(_burst_driver(cluster, client, n_ops, elapsed))
    kops = n_ops / max(1, elapsed["ns"]) * 1e6
    return _row(cell, kops, kops, 0.0, 0.0, 1.0, 0, 0)


def _metrics_counters(cluster) -> tuple[int, int]:
    m = cluster.metrics
    throttled = (m.counter("client.tenant.agg.throttled").value
                 + m.counter("client.tenant.victim.throttled").value)
    return throttled, m.counter("shard.shed_ops").value


def _p99_us(lat_ns: list[int]) -> float:
    if not lat_ns:
        return 0.0
    lat = sorted(lat_ns)
    return lat[min(len(lat) - 1, int(len(lat) * 0.99))] / 1_000.0


def _paced_cell(cell: str, n_ops: int, offered_kops: float,
                victim_qos: QosConfig, agg_qos: QosConfig | None,
                shed_slots: int = 0, single_op_agg: bool = False) -> dict:
    """Paced victim (+ optional aggressor): the latency cells."""
    cfg = _base_config(server_shed_slots=shed_slots)
    cluster = _new_cluster(cfg)
    victim = cluster.client(tenant="victim", qos=victim_qos)
    lat_ns: list[int] = []
    done: dict[str, int] = {}
    agg_served = {"n": 0}
    procs = [_paced_victim(cluster, victim, n_ops, lat_ns, done)]
    weights = [victim_qos.weight]
    if agg_qos is not None:
        agg = cluster.client(tenant="agg", qos=agg_qos)
        if single_op_agg:
            procs.append(_single_aggressor(cluster, agg, agg_served, done,
                                           stagger_ns=23 * _US))
            procs.append(_single_aggressor(cluster, agg, agg_served, done,
                                           stagger_ns=31 * _US))
        else:
            procs.append(_aggressor(cluster, agg, agg_served, done))
            procs.append(_aggressor(cluster, agg, agg_served, done))
        weights.append(agg_qos.weight)
    t0 = cluster.sim.now
    cluster.run(*procs)
    span = max(1, done["at"] - t0)
    victim_kops = n_ops / span * 1e6
    agg_kops = agg_served["n"] / span * 1e6
    offered_a = math.inf
    if agg_qos is not None and agg_qos.rate_ops > 0:
        offered_a = agg_qos.rate_ops / 1e3  # ops/s -> kops
    jain = (_cell_jain(victim_kops, agg_kops, offered_kops, offered_a,
                       weights)
            if agg_qos is not None else 1.0)
    throttled, shed = _metrics_counters(cluster)
    return _row(cell, victim_kops + agg_kops, victim_kops, agg_kops,
                _p99_us(lat_ns), jain, throttled, shed)


def _share_cell(cell: str, horizon_ns: int, fair_queueing: bool,
                victim_weight: float = 1.0) -> dict:
    """Closed-loop victim vs closed-loop aggressor: the Jain cells."""
    cfg = _base_config()
    cluster = _new_cluster(cfg)
    victim = cluster.client(tenant="victim", qos=QosConfig(
        fair_queueing=fair_queueing, weight=victim_weight))
    agg = cluster.client(tenant="agg", qos=QosConfig(
        fair_queueing=fair_queueing))
    done: dict[str, int] = {}
    v_served, a_served = {"n": 0}, {"n": 0}
    t0 = cluster.sim.now
    horizon = t0 + horizon_ns
    cluster.run(
        _closed_victim(cluster, victim, v_served, done, horizon),
        _aggressor(cluster, agg, a_served, done, horizon_ns=horizon),
        _aggressor(cluster, agg, a_served, done, horizon_ns=horizon),
    )
    span = max(1, done["at"] - t0)
    victim_kops = v_served["n"] / span * 1e6
    agg_kops = a_served["n"] / span * 1e6
    # Both tenants are closed-loop: unbounded demand on each side, so
    # the fair split is purely the weighted share of what was served.
    jain = _cell_jain(victim_kops, agg_kops, math.inf, math.inf,
                      [victim_weight, 1.0])
    throttled, shed = _metrics_counters(cluster)
    return _row(cell, victim_kops + agg_kops, victim_kops, agg_kops,
                0.0, jain, throttled, shed)


def _gate(rows: list[dict]) -> list[str]:
    """The QoS contract: every cell present; Jain's index >= 0.9 in every
    fair-queueing cell; in the admission-capped cell the victim p99 stays
    <= 2x its no-aggressor baseline and the client throttle trips; the
    occupancy-capped cell sheds server-side; and the AIMD autotune cell
    lands within 10% of the best static window."""
    need = Claims()
    cells = {row.get("cell"): row for row in rows}
    for name in ("w1", "w16", "auto", "solo", "share-nofq", "share-fq",
                 "share-fq-w4", "throttle", "shed"):
        need(name in cells, f"missing cell {name!r}")
    solo_p99 = cells.get("solo", {}).get("victim_p99_us")
    for i, row in enumerate(rows):
        cell = row.get("cell")
        label = f"row {i} (cell={cell!r})"
        if not need(isinstance(cell, str), f"{label}: cell must be a string"):
            continue
        jain, p99 = row.get("jain"), row.get("victim_p99_us")
        throttled, shed = row.get("throttled"), row.get("shed")
        best, kops = row.get("best_static_kops"), row.get("kops")
        if cell.startswith("share-fq") or cell == "throttle":
            need(number(jain) and jain >= 0.9, f"{label}: Jain's index must "
                 f"be >= 0.9 with fair queueing on, got {jain!r}")
        if cell == "throttle" and number(solo_p99) and solo_p99 > 0:
            need(number(p99) and p99 <= 2.0 * solo_p99, f"{label}: with the "
                 f"aggressor admission-shaped the victim p99 must stay <= 2x "
                 f"its no-aggressor baseline ({solo_p99!r} us), got {p99!r}")
        if cell == "throttle":
            need(isinstance(throttled, int) and throttled > 0, f"{label}: "
                 f"admission cap must trip the client throttle counter, got "
                 f"{throttled!r}")
        if cell == "shed":
            need(isinstance(shed, int) and shed > 0, f"{label}: occupancy "
                 f"cap must shed server-side, got {shed!r}")
        if cell == "auto":
            need(number(kops) and number(best) and best > 0
                 and kops >= 0.9 * best, f"{label}: AIMD autotune must land "
                 f"within 10% of the best static window ({best!r} kops), "
                 f"got {kops!r}")
    return need.broken


@experiment(
    "tenants", "Multi-tenant QoS — fair queueing, admission throttling, "
    "server shed, AIMD autotune (victim vs aggressor)",
    artifact=Artifact(
        "BENCH_tenants.json", "tenant_fairness",
        "multi-tenant fair queueing / admission control: well-behaved "
        "tenant vs closed-loop aggressor sharing one transport against one "
        "shard (Jain's index over weighted demand-satisfaction, victim p99 "
        "vs solo, AIMD vs static windows)", "kops",
        ("cell", "kops", "victim_kops", "victim_p99_us", "jain", "throttled",
         "shed", "solo_p99_us", "best_static_kops")),
    check=_gate)
def tenant_fairness(scale: float = 1.0) -> list[dict]:
    """Run every cell; see the module docstring for the cell catalog."""
    n_ops = max(200, int(BASE_VICTIM_OPS * scale))
    burst_ops = 4 * n_ops
    horizon_ns = n_ops * 25 * _US  # share cells: half the paced runtime
    rows = [
        _window_cell("w1", burst_ops),
        _window_cell("w16", burst_ops),
        _window_cell("auto", burst_ops),
        _paced_cell("solo", n_ops, 0.0, QosConfig(), None),
    ]
    offered = rows[-1]["victim_kops"]
    rows.append(_share_cell("share-nofq", horizon_ns, fair_queueing=False))
    rows.append(_share_cell("share-fq", horizon_ns, fair_queueing=True))
    rows.append(_share_cell("share-fq-w4", horizon_ns, fair_queueing=True,
                            victim_weight=4.0))
    # Admission-shape the aggressor to a quarter of the victim's demand:
    # fair queueing keeps the slot order honest, the token bucket keeps
    # the server unsaturated, and the victim's p99 stays near solo.
    rows.append(_paced_cell(
        "throttle", n_ops, offered, QosConfig(),
        QosConfig(rate_ops=offered * 250.0, burst=1),
        single_op_agg=True))
    rows.append(_paced_cell(
        "shed", n_ops, offered, QosConfig(), QosConfig(),
        shed_slots=8))
    solo_p99 = next(r for r in rows if r["cell"] == "solo")["victim_p99_us"]
    best_static = max(r["kops"] for r in rows if r["cell"] in ("w1", "w16"))
    for row in rows:
        row["solo_p99_us"] = solo_p99
        row["best_static_kops"] = best_static
    return rows
