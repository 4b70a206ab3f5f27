"""Command-line experiment harness: ``python -m repro.bench <figure> ...``.

Examples::

    python -m repro.bench fig9              # one figure
    python -m repro.bench fig12out fig12up  # several
    python -m repro.bench all --scale 1.0   # everything (slow)
    python -m repro.bench fig13 --out results.txt

Prints the same rows/series the paper reports; EXPERIMENTS.md records a
reference run of this harness.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from .experiments import (
    ablation_ack_interval,
    chaos_soak,
    failover_availability,
    ablation_lease_length,
    ablation_sleep_backoff,
    ablation_transport,
    ablation_ud_messaging,
    ablation_value_size,
    ablation_subsharding,
    ablation_hash_table,
    ablation_numa,
    ablation_rptr_sharing,
    fig2_mapreduce,
    fig3_sensemaking,
    fig9_overall,
    fig10_rdma_choices,
    fig11_hit_analysis,
    fig12_scale_out,
    fig12_scale_up,
    fig13_replication,
    inflight_sweep,
    multiget_sweep,
    recovery_dualfail,
    server_sweep,
    write_chaos_artifact,
    write_failover_artifact,
    write_inflight_artifact,
    write_multiget_artifact,
    write_recovery_artifact,
    write_sweep_artifact,
)
from .report import format_table
from .scale import scale_matrix, write_scale_artifact
from .simcore import simcore_kernel, write_simcore_artifact
from .tenants import tenant_fairness, write_tenants_artifact

EXPERIMENTS: dict[str, tuple[str, Callable[..., list[dict]], bool]] = {
    # name -> (title, function, takes_scale)
    "fig2": ("Fig. 2 — MapReduce acceleration (speedups vs in-memory HDFS)",
             fig2_mapreduce, True),
    "fig3": ("Fig. 3 — G2 Sensemaking: events/s vs engines",
             fig3_sensemaking, True),
    "fig9": ("Fig. 9 — HydraDB vs Memcached/Redis/RAMCloud (6 YCSB mixes)",
             fig9_overall, True),
    "fig10": ("Fig. 10 — incremental RDMA design choices",
              fig10_rdma_choices, True),
    "fig11": ("Fig. 11 — remote-pointer hit analysis",
              fig11_hit_analysis, True),
    "fig12out": ("Fig. 12(a,b) — scale-out 1..7 machines",
                 fig12_scale_out, True),
    "fig12up": ("Fig. 12(c,d) — scale-up 1..8 shards",
                fig12_scale_up, True),
    "fig13": ("Fig. 13 — replication protocol latency overhead",
              fig13_replication, True),
    "ab-table": ("Ablation — compact vs chained hash table",
                 ablation_hash_table, True),
    "ab-numa": ("Ablation — NUMA placement", ablation_numa, True),
    "ab-sharing": ("Ablation — shared vs exclusive rptr cache",
                   ablation_rptr_sharing, True),
    "ab-subshard": ("Ablation — sub-sharding vs plain shards (§6.3)",
                    ablation_subsharding, True),
    "ab-sleep": ("Ablation — sleep backoff vs busy polling (§4.2.1)",
                 ablation_sleep_backoff, True),
    "ab-lease": ("Ablation — lease length trade-off (§4.2.3 / C-Hint)",
                 ablation_lease_length, True),
    "ab-transport": ("Ablation — HydraDB-RDMA vs HydraDB-TCP",
                     ablation_transport, True),
    "ab-ud": ("Ablation — RC messaging vs HERD-style UD (§3)",
              lambda scale=None: ablation_ud_messaging(), False),
    "ab-valsize": ("Ablation — value size sweep (§6 large items)",
                   lambda scale=None: ablation_value_size(), False),
    "ab-ack": ("Ablation — replication ack interval",
               lambda scale=None: ablation_ack_interval(), False),
    "inflight": ("Pipelined client — throughput vs in-flight window",
                 inflight_sweep, True),
    "multiget": ("Batched one-sided GET fan-out — message vs hybrid vs "
                 "mixed vs cold/mixed-hit index traversal",
                 multiget_sweep, True),
    "failover": ("Availability — blackout + recovered throughput after a "
                 "primary kill", failover_availability, True),
    "recovery": ("Durable-log recovery — correlated primary+secondary "
                 "kill, replay from the PM write-behind log per ack mode",
                 recovery_dualfail, True),
    "server_sweep": ("Server sweep scalability — CPU ns/op vs connections "
                     "(occupancy word / ready hints / resp batching)",
                     server_sweep, True),
    "chaos": ("Chaos soak — seeded fault storms vs the resilience "
              "contract (acked writes, guardian words, typed errors)",
              chaos_soak, True),
    "simcore": ("Kernel microbench — events/sec of the two-tier "
                "calendar + now-queue + pooled timers, digests pinned",
                simcore_kernel, True),
    "tenants": ("Multi-tenant QoS — fair queueing, admission throttling, "
                "server shed, AIMD autotune (victim vs aggressor)",
                tenant_fairness, True),
    "scale": ("Fig. 12 at cluster scale — 64 servers x 2048 clients, "
              "events and schedule digests pinned per shape",
              scale_matrix, True),
}

#: Experiments that also emit a machine-readable perf artifact (one per
#: repo checkout; re-run the matching ``make bench-*`` target to refresh).
ARTIFACTS: dict[str, Callable[[list[dict]], str]] = {
    "inflight": write_inflight_artifact,
    "multiget": write_multiget_artifact,
    "failover": write_failover_artifact,
    "recovery": write_recovery_artifact,
    "server_sweep": write_sweep_artifact,
    "chaos": write_chaos_artifact,
    "simcore": write_simcore_artifact,
    "tenants": write_tenants_artifact,
    "scale": write_scale_artifact,
}


def _profile_table(pr, title: str) -> str:
    """Top-20 cumulative-time hotspots of one profiled experiment."""
    import pstats
    stats = pstats.Stats(pr)
    entries = sorted(stats.stats.items(), key=lambda kv: kv[1][3],
                     reverse=True)[:20]
    rows = []
    for (filename, lineno, func), (_cc, ncalls, tt, ct, _callers) in entries:
        parts = filename.replace("\\", "/").rsplit("/", 3)
        where = "/".join(parts[-2:]) if len(parts) > 1 else filename
        rows.append({
            "function": f"{where}:{lineno}({func})",
            "calls": ncalls,
            "tottime_ns": int(tt * 1e9),
            "cumtime_ns": int(ct * 1e9),
        })
    return format_table(rows, title=title)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the HydraDB paper's figures.")
    parser.add_argument("figures", nargs="+",
                        help=f"one of: {', '.join(EXPERIMENTS)}, or 'all'")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="fraction of the 10k-op default per run "
                             "(default 0.5)")
    parser.add_argument("--out", type=str, default=None,
                        help="also append the tables to this file")
    parser.add_argument("--profile", action="store_true",
                        help="run each experiment under cProfile and "
                             "append a top-20 cumulative-time hotspot "
                             "table to the report")
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if "all" in args.figures else args.figures
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")

    sink = open(args.out, "a") if args.out else None
    try:
        for name in names:
            title, fn, takes_scale = EXPERIMENTS[name]
            t0 = time.time()
            if args.profile:
                import cProfile
                pr = cProfile.Profile()
                pr.enable()
                try:
                    rows = fn(scale=args.scale) if takes_scale else fn()
                finally:
                    pr.disable()
            else:
                rows = fn(scale=args.scale) if takes_scale else fn()
            table = format_table(rows, title=title)
            footer = f"[{name}: {len(rows)} rows in {time.time()-t0:.1f}s " \
                     f"wall at scale={args.scale}]"
            print(table)
            print(footer)
            print()
            if sink:
                sink.write(table + "\n" + footer + "\n\n")
            if args.profile:
                hot = _profile_table(
                    pr, title=f"{name} — top 20 hotspots by cumulative "
                              f"time")
                print(hot)
                print()
                if sink:
                    sink.write(hot + "\n\n")
            if name in ARTIFACTS:
                path = ARTIFACTS[name](rows)
                print(f"[{name}: artifact written to {path}]")
    finally:
        if sink:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
