"""Validate emitted bench artifacts: ``python -m repro.bench.validate F...``.

The bench harness writes machine-readable perf artifacts
(``BENCH_inflight.json``, ``BENCH_multiget.json``,
``BENCH_failover.json``, ``BENCH_recovery.json``, ``BENCH_sweep.json``,
``BENCH_chaos.json``, ``BENCH_simcore.json``, ``BENCH_tenants.json``,
``BENCH_scale.json``) that are tracked
across PRs and consumed by CI's ``bench-smoke`` job.  This module checks
that each file matches its experiment's schema — required top-level
fields, per-row keys and types — plus the semantic invariants the
experiments promise:

* every sweep carries at least one baseline row with speedup 1.0;
* throughputs and speedups are strictly positive finite numbers;
* multiget rows must have ``reconciled`` == True — the remote-pointer
  accounting (``successful_hits + invalid_hits == batch_hits``) balanced
  for every mode/batch cell; the ``cold`` (0% hit rate) cells must show
  one-sided index traversal beating the message path with near-zero
  server CPU ns/GET, and at batch >= 16 with items that fit the inline
  line, at most 1.2 RDMA Reads per GET;
* failover rows must show the availability contract held: zero
  client-visible exceptions, zero lost acked writes, at least one SWAT
  promotion, and post-kill throughput >= 80% of pre-kill;
* server_sweep read rows must carry a linear-sweep baseline (speedup and
  cpu_ratio == 1.0) and, at >= 32 connections, the all-layers mode must
  beat it by >= 2x in throughput or server CPU ns/op; write rows in the
  all-layers mode must show replication-ack batching (rep_batch_mean
  > 1);
* chaos_soak rows must show the resilience contract held under every
  storm: zero lost acked writes, zero corrupt values, zero untyped
  errors, zero deadline violations, convergence and recovered_ratio
  >= 0.8 post-storm, with torn/gray/zk/stale/tenant/dualfail profiles
  all present, the server-variant matrix covered (sub-sharded and
  pipelined cells plus a replicas >= 2 cell), the dualfail cell
  recovering through the durable log (log_recoveries >= 1), and the
  same-seed rerun flagged deterministic;
* recovery_dualfail rows must show the durability contract held per ack
  mode: at least one durable-log recovery, recovered throughput >= 80%
  of pre-kill, a bounded blackout, zero untyped errors everywhere, and
  — hard-required for the ``ack_on_flush`` row — zero lost acked writes
  and pre-kill throughput >= 0.9x the ``ack_on_replicate`` row's (acks
  park behind the flush; the sweep never stalls on it);
* simcore_kernel rows must carry the committed schedule digest of their
  bench (``repro.bench.simcore.DIGESTS``: the kernel still dispatches
  the pinned order) and clear an absolute events/sec floor;
* scale_matrix rows must match the committed constants of their shape
  (``repro.bench.scale.PINNED``: event count and the schedule digest of
  the traced reduced clone), with a 64-server scale-out row and
  per-axis normalized baselines of 1.0;
* tenant_fairness rows must show the QoS contract held: Jain's index
  >= 0.9 and victim p99 <= 2x the no-aggressor baseline in every
  fair-queueing cell, client throttles tripping in the admission-capped
  cell, server sheds in the occupancy-capped cell, and the AIMD
  autotune cell within 10% of the best static window.

Exit status is 0 only if every named file validates; problems are listed
one per line as ``<file>: <complaint>``.
"""

from __future__ import annotations

import json
import math
import sys

__all__ = ["validate_artifact", "main"]

_TOP_KEYS = ("experiment", "description", "unit", "rows")

#: experiment name -> required row keys (and the checks below).
_ROW_KEYS: dict[str, tuple[str, ...]] = {
    "inflight_depth_sweep": (
        "window", "get_kops", "put_kops", "get_speedup", "put_speedup"),
    "multiget_fanout_sweep": (
        "mode", "batch", "value_bytes", "inline", "get_kops",
        "speedup_vs_message", "pointer_hits", "successful_hits",
        "invalid_hits", "demoted", "reconciled", "bucket_reads",
        "traversal_races", "demotions", "reads_per_get",
        "index_mutations_versioned", "server_cpu_ns_per_get"),
    "failover_availability": (
        "clients", "pre_kops", "post_kops", "recovered_ratio",
        "blackout_ms", "failovers", "client_retries", "exceptions",
        "lost_acked_writes"),
    "server_sweep": (
        "conns", "window", "mode", "kops", "speedup",
        "server_cpu_ns_per_op", "cpu_ratio", "sweeps", "probes",
        "resp_doorbells"),
    "chaos_soak": (
        "profile", "seed", "variant", "replicas", "ops", "errors",
        "error_rate", "untyped_errors", "corrupt_values",
        "lost_acked_writes", "deadline_violations", "pre_kops",
        "post_kops", "recovered_ratio", "p99_ms", "blackout_ms",
        "failovers", "log_recoveries", "lease_skew_hazards",
        "injected_faults", "schedule_hash", "converged"),
    "recovery_dualfail": (
        "ack_mode", "clients", "ops", "acked_writes", "pre_kops",
        "post_kops", "recovered_ratio", "blackout_ms", "recoveries",
        "replayed_records", "replay_recs_per_ms", "typed_errors",
        "untyped_errors", "lost_acked_writes"),
    "simcore_kernel": (
        "bench", "events", "wall_s", "events_per_sec", "digest",
        "now_rate", "wheel_rate", "heap_rate", "timer_reuse_rate",
        "peak_calendar"),
    "tenant_fairness": (
        "cell", "kops", "victim_kops", "victim_p99_us", "jain",
        "throttled", "shed", "solo_p99_us", "best_static_kops"),
    "scale_matrix": (
        "axis", "servers", "shards", "clients", "ops", "throughput_mops",
        "normalized", "wall_s", "events", "events_per_sec", "digest"),
}

#: Absolute events/sec floor for every simcore row: the committed
#: artifact shows 0.5-3.5M events/sec; a drop below this
#: order-of-magnitude guard means the kernel itself regressed
#: catastrophically, not that the CI machine is slow.
_SIMCORE_EPS_FLOOR = 150_000.0

#: Reads per cold GET allowed when the items fit the inline line: one
#: frame Read each, plus the few keys sharing a frame with the line's
#: owner.
_MULTIGET_INLINE_READS = 1.2

#: chaos_soak row fields that must be exactly zero for the contract.
_CHAOS_ZERO = ("untyped_errors", "corrupt_values", "lost_acked_writes",
               "deadline_violations")

#: storm profiles the acceptance criteria require in every artifact.
_CHAOS_REQUIRED_PROFILES = ("torn", "gray", "zk", "stale", "tenant",
                            "dualfail")

#: blackout ceiling for the recovery bench (ms): detection is bounded by
#: the 200 ms ZK session, then promotion + log replay + client route
#: replay must land well inside the rest of this budget.
_RECOVERY_BLACKOUT_MS = 500.0


def _positive(row: dict, key: str) -> bool:
    value = row.get(key)
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def validate_artifact(payload: dict) -> list[str]:
    """All schema/semantic complaints for one parsed artifact (empty = ok)."""
    problems: list[str] = []
    for key in _TOP_KEYS:
        if key not in payload:
            problems.append(f"missing top-level field {key!r}")
    experiment = payload.get("experiment")
    row_keys = _ROW_KEYS.get(experiment)
    if row_keys is None:
        problems.append(f"unknown experiment {experiment!r} "
                        f"(expected one of {sorted(_ROW_KEYS)})")
        return problems
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        return problems
    for i, row in enumerate(rows):
        missing = [k for k in row_keys if k not in row]
        if missing:
            problems.append(f"row {i}: missing {', '.join(missing)}")
            continue
        for key in row_keys:
            if key.endswith("_kops") or key.endswith("speedup") \
                    or key == "speedup_vs_message" \
                    or key in ("kops", "server_cpu_ns_per_op", "cpu_ratio",
                               "throughput_mops", "wall_s",
                               "events_per_sec"):
                if not _positive(row, key):
                    problems.append(f"row {i}: {key} must be a positive "
                                    f"number, got {row[key]!r}")
    if experiment == "inflight_depth_sweep":
        if not any(row.get("get_speedup") == 1.0 for row in rows):
            problems.append("no baseline row with get_speedup == 1.0")
    if experiment == "multiget_fanout_sweep":
        if not any(row.get("mode") == "message" for row in rows):
            problems.append("no message-path baseline rows")
        if not any(row.get("mode") == "cold" for row in rows):
            problems.append("no cold-cache (one-sided traversal) rows")
        for i, row in enumerate(rows):
            if row.get("reconciled") is not True:
                problems.append(f"row {i} (mode={row.get('mode')!r}, "
                                f"batch={row.get('batch')!r}): pointer "
                                f"accounting did not reconcile")
        message_cpu = {(row.get("batch"), row.get("value_bytes")):
                       row.get("server_cpu_ns_per_get")
                       for row in rows if row.get("mode") == "message"}
        for i, row in enumerate(rows):
            if row.get("mode") != "cold":
                continue
            label = (f"row {i} (cold, batch={row.get('batch')!r}, "
                     f"value_bytes={row.get('value_bytes')!r})")
            speedup = row.get("speedup_vs_message")
            if isinstance(row.get("batch"), int) and row["batch"] >= 16 \
                    and not (isinstance(speedup, (int, float))
                             and speedup > 1.0):
                # Two dependent RTTs only amortize once the bucket and
                # item Reads pipeline across a real fan-out.
                problems.append(
                    f"{label}: one-sided traversal must beat the message "
                    f"path at 0% hit rate, got speedup "
                    f"{speedup!r}")
            if not _positive(row, "bucket_reads"):
                problems.append(f"{label}: traversal ran but bucket_reads "
                                f"is {row.get('bucket_reads')!r}")
            reads = row.get("reads_per_get")
            if isinstance(row.get("batch"), int) and row["batch"] >= 16 \
                    and row.get("inline") is True \
                    and not (isinstance(reads, (int, float))
                             and reads <= _MULTIGET_INLINE_READS):
                # A small item rides in its bucket frame's inline line:
                # the frame Read alone answers the GET.
                problems.append(
                    f"{label}: cold GETs of inline-sized items must cost "
                    f"<= {_MULTIGET_INLINE_READS} Reads each, got "
                    f"{reads!r}")
            cpu = row.get("server_cpu_ns_per_get")
            baseline = message_cpu.get((row.get("batch"),
                                        row.get("value_bytes")))
            if not (isinstance(cpu, (int, float)) and math.isfinite(cpu)
                    and isinstance(baseline, (int, float)) and baseline > 0
                    and cpu <= 0.05 * baseline):
                problems.append(
                    f"{label}: cold GETs must burn near-zero server CPU "
                    f"(<= 5% of the message path's), got {cpu!r} vs "
                    f"baseline {baseline!r}")
    if experiment == "server_sweep":
        if not any(row.get("mode") == "baseline" and row.get("speedup") == 1.0
                   and row.get("cpu_ratio") == 1.0 for row in rows):
            problems.append("no linear-sweep baseline row with speedup and "
                            "cpu_ratio == 1.0")
        for i, row in enumerate(rows):
            if row.get("mode") != "all" or row.get("conns", 0) < 32:
                continue
            if row.get("workload", "read") == "write":
                # Write-heavy rows promise replication-ack batching, not
                # the read-path CPU headline.
                rep = row.get("rep_batch_mean")
                if not (isinstance(rep, (int, float)) and rep > 1.0):
                    problems.append(
                        f"row {i} (write, conns={row.get('conns')!r}): "
                        f"all-layers mode must batch replication acks "
                        f"(rep_batch_mean > 1), got {rep!r}")
                continue
            speedup, ratio = row.get("speedup"), row.get("cpu_ratio")
            if not ((isinstance(speedup, (int, float)) and speedup >= 2.0)
                    or (isinstance(ratio, (int, float)) and ratio >= 2.0)):
                problems.append(
                    f"row {i} (conns={row.get('conns')!r}): all-layers mode "
                    f"must show >= 2x throughput or >= 2x lower server CPU "
                    f"per op vs the linear sweep, got speedup={speedup!r} "
                    f"cpu_ratio={ratio!r}")
    if experiment == "chaos_soak":
        profiles = {row.get("profile") for row in rows}
        missing = [p for p in _CHAOS_REQUIRED_PROFILES if p not in profiles]
        if missing:
            problems.append(f"missing required storm profiles: "
                            f"{', '.join(missing)}")
        if len(rows) < 5:
            problems.append(f"need >= 5 seeded storm cells, got {len(rows)}")
        if not any(row.get("deterministic") is True for row in rows):
            problems.append("no row carries the deterministic == True "
                            "same-seed replay proof")
        variants = {row.get("variant") for row in rows}
        for variant in ("subshard", "pipelined"):
            if variant not in variants:
                problems.append(f"storm matrix missing a {variant!r} "
                                f"server-variant cell")
        if not any(isinstance(row.get("replicas"), int)
                   and row["replicas"] >= 2 for row in rows):
            problems.append("storm matrix missing a replicas >= 2 cell")
        for i, row in enumerate(rows):
            label = f"row {i} (profile={row.get('profile')!r})"
            for key in _CHAOS_ZERO:
                if row.get(key) != 0:
                    problems.append(f"{label}: {key} must be 0, "
                                    f"got {row.get(key)!r}")
            if row.get("converged") is not True:
                problems.append(f"{label}: workload did not converge "
                                f"post-storm")
            if row.get("profile") == "dualfail" \
                    and not (isinstance(row.get("log_recoveries"), int)
                             and row["log_recoveries"] >= 1):
                problems.append(
                    f"{label}: the correlated storm must recover through "
                    f"the durable log (log_recoveries >= 1), got "
                    f"{row.get('log_recoveries')!r}")
            if "deterministic" in row and row["deterministic"] is not True:
                problems.append(f"{label}: same-seed rerun diverged")
            ratio = row.get("recovered_ratio")
            if not (isinstance(ratio, (int, float))
                    and math.isfinite(ratio) and ratio >= 0.8):
                problems.append(f"{label}: recovered_ratio must be >= 0.8, "
                                f"got {ratio!r}")
    if experiment == "simcore_kernel":
        from .simcore import DIGESTS
        benches = {row.get("bench") for row in rows}
        for bench in DIGESTS:
            if bench not in benches:
                problems.append(f"missing bench {bench!r}")
        for i, row in enumerate(rows):
            label = f"row {i} (bench={row.get('bench')!r})"
            if row.get("digest") != DIGESTS.get(row.get("bench")):
                problems.append(
                    f"{label}: schedule digest {row.get('digest')!r} is not "
                    f"the committed one — the kernel's dispatch order moved")
            if not _positive(row, "events"):
                problems.append(f"{label}: events must be positive, "
                                f"got {row.get('events')!r}")
            eps = row.get("events_per_sec")
            if not (isinstance(eps, (int, float))
                    and eps >= _SIMCORE_EPS_FLOOR):
                problems.append(
                    f"{label}: events/sec regressed below the absolute "
                    f"{_SIMCORE_EPS_FLOOR:.0f}/s floor, got {eps!r}")
    if experiment == "scale_matrix":
        from .scale import PINNED
        axes = {row.get("axis") for row in rows}
        for axis in ("scale_out", "scale_up"):
            if axis not in axes:
                problems.append(f"missing axis {axis!r}")
        if not any(row.get("axis") == "scale_out"
                   and row.get("servers") == 64 for row in rows):
            problems.append("no 64-server scale-out row (the headline "
                            "shape)")
        seen_axis: set = set()
        for i, row in enumerate(rows):
            shape = tuple(row.get(k) for k in ("axis", "servers", "shards",
                                               "clients", "ops"))
            label = f"row {i} {shape}"
            pinned = PINNED.get(shape)
            if pinned is None:
                problems.append(f"{label}: no committed constants for this "
                                f"shape (pinned shapes: --scale 1.0 and "
                                f"the 0.05 smoke)")
            elif (row.get("events"), row.get("digest")) != pinned:
                problems.append(
                    f"{label}: events/digest "
                    f"{(row.get('events'), row.get('digest'))!r} differ from "
                    f"the committed {pinned!r} — the schedule moved")
            axis = row.get("axis")
            if axis not in seen_axis:
                seen_axis.add(axis)
                if row.get("normalized") != 1.0:
                    problems.append(
                        f"{label}: each axis's first row is its own "
                        f"baseline and must have normalized == 1.0, got "
                        f"{row.get('normalized')!r}")
            elif not _positive(row, "normalized"):
                problems.append(f"{label}: normalized must be a positive "
                                f"number, got {row.get('normalized')!r}")
    if experiment == "tenant_fairness":
        cells = {row.get("cell"): row for row in rows}
        for name in ("w1", "w16", "auto", "solo", "share-nofq",
                     "share-fq", "share-fq-w4", "throttle", "shed"):
            if name not in cells:
                problems.append(f"missing cell {name!r}")
        solo = cells.get("solo")
        solo_p99 = solo.get("victim_p99_us") if solo else None
        for i, row in enumerate(rows):
            cell = row.get("cell")
            label = f"row {i} (cell={cell!r})"
            if not isinstance(cell, str):
                problems.append(f"{label}: cell must be a string")
                continue
            if cell.startswith("share-fq") or cell == "throttle":
                jain = row.get("jain")
                if not (isinstance(jain, (int, float)) and jain >= 0.9):
                    problems.append(
                        f"{label}: Jain's index must be >= 0.9 with fair "
                        f"queueing on, got {jain!r}")
            if cell == "throttle":
                p99 = row.get("victim_p99_us")
                if isinstance(solo_p99, (int, float)) and solo_p99 > 0 \
                        and not (isinstance(p99, (int, float))
                                 and p99 <= 2.0 * solo_p99):
                    problems.append(
                        f"{label}: with the aggressor admission-shaped "
                        f"the victim p99 must stay <= 2x its no-aggressor "
                        f"baseline ({solo_p99!r} us), got {p99!r}")
                if not (isinstance(row.get("throttled"), int)
                        and row["throttled"] > 0):
                    problems.append(
                        f"{label}: admission cap must trip the client "
                        f"throttle counter, got {row.get('throttled')!r}")
            if cell == "shed":
                if not (isinstance(row.get("shed"), int)
                        and row["shed"] > 0):
                    problems.append(
                        f"{label}: occupancy cap must shed server-side, "
                        f"got {row.get('shed')!r}")
            if cell == "auto":
                best = row.get("best_static_kops")
                kops = row.get("kops")
                if not (isinstance(kops, (int, float))
                        and isinstance(best, (int, float)) and best > 0
                        and kops >= 0.9 * best):
                    problems.append(
                        f"{label}: AIMD autotune must land within 10% of "
                        f"the best static window ({best!r} kops), "
                        f"got {kops!r}")
    if experiment == "recovery_dualfail":
        if not any(row.get("ack_mode") == "ack_on_flush" for row in rows):
            problems.append("no ack_on_flush row (the durability contract "
                            "under test)")
        pre = {row.get("ack_mode"): row.get("pre_kops") for row in rows}
        flush, rep = pre.get("ack_on_flush"), pre.get("ack_on_replicate")
        if (isinstance(flush, (int, float)) and isinstance(rep, (int, float))
                and flush < 0.9 * rep):
            problems.append(f"ack_on_flush pre_kops {flush!r} is below 0.9x "
                            f"ack_on_replicate's {rep!r}: acks must park "
                            f"behind the flush, not stall the shard sweep")
        for i, row in enumerate(rows):
            label = f"row {i} (ack_mode={row.get('ack_mode')!r})"
            if row.get("untyped_errors") != 0:
                problems.append(f"{label}: {row.get('untyped_errors')!r} "
                                f"untyped errors (must be 0 — the blackout "
                                f"must fail typed)")
            if row.get("ack_mode") == "ack_on_flush" \
                    and row.get("lost_acked_writes") != 0:
                problems.append(f"{label}: {row.get('lost_acked_writes')!r} "
                                f"acked writes lost after log replay "
                                f"(must be 0)")
            if not (isinstance(row.get("recoveries"), int)
                    and row["recoveries"] >= 1):
                problems.append(f"{label}: recoveries must be >= 1, "
                                f"got {row.get('recoveries')!r}")
            if not _positive(row, "replayed_records"):
                problems.append(f"{label}: replayed_records must be "
                                f"positive, got "
                                f"{row.get('replayed_records')!r}")
            blackout = row.get("blackout_ms")
            if not (isinstance(blackout, (int, float))
                    and math.isfinite(blackout)
                    and blackout <= _RECOVERY_BLACKOUT_MS):
                problems.append(f"{label}: blackout_ms must stay <= "
                                f"{_RECOVERY_BLACKOUT_MS}, got {blackout!r}")
            ratio = row.get("recovered_ratio")
            if not (isinstance(ratio, (int, float))
                    and math.isfinite(ratio) and ratio >= 0.8):
                problems.append(f"{label}: recovered_ratio must be >= 0.8, "
                                f"got {ratio!r}")
    if experiment == "failover_availability":
        for i, row in enumerate(rows):
            if row.get("exceptions") != 0:
                problems.append(f"row {i}: {row.get('exceptions')!r} "
                                f"client-visible exceptions (must be 0)")
            if row.get("lost_acked_writes") != 0:
                problems.append(f"row {i}: {row.get('lost_acked_writes')!r} "
                                f"acknowledged writes lost (must be 0)")
            failovers = row.get("failovers")
            if not isinstance(failovers, int) or failovers < 1:
                problems.append(f"row {i}: failovers must be >= 1, "
                                f"got {failovers!r}")
            ratio = row.get("recovered_ratio")
            if not (isinstance(ratio, (int, float))
                    and math.isfinite(ratio) and ratio >= 0.8):
                problems.append(f"row {i}: recovered_ratio must be >= 0.8, "
                                f"got {ratio!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.bench.validate ARTIFACT.json ...",
              file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable ({exc})")
            failed = True
            continue
        problems = validate_artifact(payload)
        for problem in problems:
            print(f"{path}: {problem}")
        if problems:
            failed = True
        else:
            print(f"{path}: ok ({payload['experiment']}, "
                  f"{len(payload['rows'])} rows)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
