"""Per-layer numbers: where host time goes, and what each layer did.

Layers are this repo's packages.  Host self time and call counts come
from a ``cProfile`` run driven from here (no span recorder inside
``src/``); the work counters are read from the program's public
snapshots before and after the measured section.
"""

from __future__ import annotations

import os
import pstats

__all__ = ["LAYERS", "layer_of", "attribute", "counter_metrics"]

LAYERS = ("sim", "rdma", "protocol", "core.client", "core.shard",
          "core.other", "index", "kvmem", "replication", "durable",
          "hardware", "coord", "qos", "harness")

_CORE_FILES = {
    "client.py": "core.client", "rptr.py": "core.client",
    "lease.py": "core.client",
    "shard.py": "core.shard", "subshard.py": "core.shard",
    "pipelined.py": "core.shard", "store.py": "core.shard",
    "server.py": "core.shard",
}
_PERF_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_DIR = os.path.join(os.path.dirname(_PERF_DIR), "src", "repro")


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to, None for stdlib/built-ins."""
    path = os.path.abspath(filename)
    if path.startswith(_PERF_DIR + os.sep):
        return "harness"
    if not path.startswith(_REPRO_DIR + os.sep):
        return None
    parts = path[len(_REPRO_DIR) + 1:].split(os.sep)
    if len(parts) == 1:
        return "core.other"           # repro/config.py and friends
    if parts[0] == "core":
        return _CORE_FILES.get(parts[1], "core.other")
    if parts[0] in LAYERS:
        return parts[0]
    return "harness"                  # repro.bench / workloads / chaos


def attribute(profile) -> tuple[dict[str, float], dict[str, int], float]:
    """Split a profile's self time and calls over the layers.

    A function in one of the layers' files is charged to that layer.
    Built-ins and stdlib functions are charged to whoever called them,
    using the profile's caller table; a stdlib function called by another
    stdlib function passes the charge further up.  Returns
    ``(self_seconds_by_layer, calls_by_layer, attributed_share)``.
    """
    stats = pstats.Stats(profile).stats
    owner = {func: layer_of(func[0]) for func in stats}
    memo: dict = {}

    def shares(func, seen=()) -> dict[str, float]:
        """Fractions of ``func``'s cost owed by each layer."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in seen or func not in stats:
            return {}
        callers = stats[func][4]
        total = sum(c[2] for c in callers.values())
        out: dict[str, float] = {}
        for caller, (_cc, _nc, tt, _ct) in callers.items():
            weight = tt / total if total > 0 else 1.0 / len(callers)
            for lay, frac in shares(caller, seen + (func,)).items():
                out[lay] = out.get(lay, 0.0) + weight * frac
        if not seen:
            memo[func] = out
        return out

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    total_s = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        total_s += tt
        for lay, frac in shares(func).items():
            self_s[lay] += tt * frac
            calls[lay] += nc * frac
    attributed = sum(self_s.values()) / total_s if total_s > 0 else 0.0
    return self_s, {k: round(v) for k, v in calls.items()}, attributed


def _delta(out: dict, group: str) -> dict[str, float]:
    before, after = out["before"][group], out["after"][group]
    return {k: after[k] - before.get(k, 0.0) for k in after}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tally_mean(out: dict, name: str) -> float:
    """Mean of a Tally over the measured section only."""
    b, a = out["before"]["metrics"], out["after"]["metrics"]
    n0, n1 = b.get(f"{name}.count", 0.0), a.get(f"{name}.count", 0.0)
    if n1 <= n0:
        return 0.0
    s0 = b[f"{name}.mean"] * n0 if n0 else 0.0
    return (a[f"{name}.mean"] * n1 - s0) / (n1 - n0)


def _pct(samples: list[int], q: float) -> float:
    """Nearest-rank percentile in microseconds, 0 when there are none."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1e3


def counter_metrics(out: dict) -> dict[str, float]:
    """The exact per-layer counters of one round's measured section.

    ``out`` is ``Round.finish()``'s dict.  A ratio whose denominator is
    zero on this workload (no writes, no replication, ...) reads 0.
    """
    m = _delta(out, "metrics")
    get = lambda name: m.get(name, 0.0)    # noqa: E731
    k = _delta(out, "kernel")
    rptr = _delta(out, "rptr")
    ops = out["ops"]
    kops = ops / 1e3
    window = out["window_ns"]
    # The busy integral is a float product; idle cores can read -1e-12.
    busy = max(0.0, out["after"]["busy_ns"] - out["before"]["busy_ns"])
    writes = sum(get(f"shard.op.{op}") for op in ("PUT", "UPDATE", "INSERT",
                                                  "DELETE"))
    requests = get("shard.requests")
    scheduled = k["events_scheduled"]
    timers = k["timer_rearms"] + k["timer_allocs"]
    lookups = (rptr["successful_hits"] + rptr["invalid_hits"]
               + rptr["expired"] + rptr["misses"])
    reads, rwrites = get("rdma.read.ops"), get("rdma.write.ops")
    doorbells = get("rdma.read.doorbells") + get("rdma.write.doorbells")
    coalesced = get("rdma.read.coalesced") + get("rdma.write.coalesced")
    attempted = out["attempted"]
    return {
        "sim.events_per_op": _ratio(k["events_dispatched"], ops),
        "sim.now_rate": _ratio(k["now_hits"], scheduled),
        "sim.wheel_rate": _ratio(k["wheel_hits"], scheduled),
        "sim.heap_rate": _ratio(k["heap_hits"], scheduled),
        "sim.timer_reuse_rate": _ratio(k["timer_rearms"], timers),
        "sim.peak_calendar": out["after"]["kernel"]["peak_calendar"],
        "rdma.reads_per_op": _ratio(reads, ops),
        "rdma.writes_per_op": _ratio(rwrites, ops),
        "rdma.doorbells_per_op": _ratio(doorbells, ops),
        "rdma.coalesced_ratio": _ratio(coalesced, reads + rwrites),
        "rdma.wire_bytes_per_op": _ratio(
            get("rdma.read.bytes") + get("rdma.write.bytes")
            + get("rdma.send.bytes"), ops),
        "core.client.rptr_hit_ratio": _ratio(rptr["successful_hits"],
                                             lookups),
        "core.client.rptr_invalid_ratio": _ratio(rptr["invalid_hits"],
                                                 lookups),
        "core.client.messages_per_op": _ratio(get("client.messages"), ops),
        "core.client.demotions_per_op": _ratio(get("client.demotions"), ops),
        "core.client.bucket_reads_per_op": _ratio(get("client.bucket_reads"),
                                                  ops),
        "core.client.traversal_races_per_kop": _ratio(
            get("client.traversal_races"), kops),
        "core.client.retries_per_kop": _ratio(get("client.retries"), kops),
        "core.client.stale_responses_per_kop": _ratio(
            get("client.stale_responses"), kops),
        "core.client.failover_latency_ms": _tally_mean(
            out, "client.failover_latency_ns") / 1e6,
        "core.shard.cpu_ns_per_op": _ratio(busy, ops),
        "core.shard.cpu_busy_ratio": _ratio(busy,
                                            window * out["shard_cores"]),
        "core.shard.requests_per_sweep": _ratio(requests,
                                                get("shard.sweeps")),
        "core.shard.probes_per_request": _ratio(get("shard.probes"),
                                                requests),
        "core.shard.resp_doorbells_per_request": _ratio(
            get("shard.resp_doorbells"), requests),
        "core.shard.full_sweeps_per_kop": _ratio(get("shard.full_sweeps"),
                                                 kops),
        "core.shard.age_flushes_per_kop": _ratio(get("shard.age_flushes"),
                                                 kops),
        "core.shard.undeliverable_responses": get(
            "shard.undeliverable_responses"),
        "index.versioned_mutations_per_write": _ratio(
            get("shard.index_mutations_versioned"), writes),
        "kvmem.live_extents": out["live_extents"],
        "kvmem.retired_pending": out["retired_pending"],
        "replication.records_per_write": _ratio(get("repl.records"), writes),
        "replication.records_per_ack_request": _ratio(
            get("repl.records"), get("repl.ack_requests")),
        "replication.batch_mean": _tally_mean(out, "shard.rep_batch"),
        "replication.resends_per_kop": _ratio(get("repl.resends"), kops),
        "durable.records_per_flush": _ratio(get("durable.records"),
                                            get("durable.flushes")),
        "durable.flushes_per_write": _ratio(get("durable.flushes"), writes),
        "durable.log_full": get("durable.log_full"),
        "coord.failovers": get("swat.failovers"),
        "coord.promotion_ms": _tally_mean(out, "swat.promotion_ns") / 1e6,
        "harness.read_p50_us": _pct(out["read_ns"], 0.50),
        "harness.read_p99_us": _pct(out["read_ns"], 0.99),
        "harness.write_p50_us": _pct(out["write_ns"], 0.50),
        "harness.write_p99_us": _pct(out["write_ns"], 0.99),
        "harness.unavailable_ms": out["unavailable_ns"] / 1e6,
        "harness.failed_op_ratio": _ratio(out["failed"], attempted),
        "harness.lost_acked_writes": out["lost_acked_writes"],
    }
