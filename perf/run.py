#!/usr/bin/env python3
"""The repo's benchmark: six workloads, two clocks, one command.

One workload, as the driver in ``BENCHMARK.json`` runs it::

    python3 perf/run.py --workload read_hot --seed 7 --seconds 10 --trace 0

prints the end-to-end metrics (``--trace 1``: the per-layer metrics) as
one JSON object on the last line of standard output.  Without
``--workload`` it runs every workload, traced and untraced, each in a
fresh child process, one at a time, prints every metric by name and
writes ``perf/results/<tag>.json``::

    python3 perf/run.py [--seed 42] [--quick] [--tag NAME]

Two clocks, never mixed: *simulated* numbers (``sim_*`` and the layer
counters) are exact functions of ``(workload, seed, seconds)`` and must
repeat bit for bit; *host* numbers (CPU seconds of this interpreter) are
noisy, so they are measured in many short chunks, reported as the lower
quartile and speed-normalised by a calibration loop.  See
``perf/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)

#: Rounds per untraced run: each sets up a fresh cluster from its own
#: sub-seed.  Simulated samples and host chunks are pooled over the
#: rounds; set-up time is the median of the rounds.
ROUNDS = 3
#: ``--seconds`` at which the workloads' op counts apply unscaled.
BASE_SECONDS = 10
#: CPU seconds one calibration loop took on the box the committed
#: baselines were measured on; host metrics are scaled to that speed.
CAL_REF_S = 0.053
CAL_STEPS = 360_000
#: Calibration loops run before, and again after, each timed section.
CALS = 2
#: A round whose calibrations before and after differ by more than this
#: is rerun once.
NOISY = 0.15
#: The timed section of a round is cut into this many chunks.
CHUNKS = 20


class _Cell:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def bump(self, d: int) -> int:
        self.n += d
        return self.n


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop (method calls, dict and
    list traffic — the simulator's instruction mix in miniature)."""
    cell, table, stack = _Cell(), {}, []
    t0 = time.process_time()
    for i in range(CAL_STEPS):
        k = i & 1023
        table[k] = cell.bump(table.get(k, 0) & 7)
        stack.append(k)
        if len(stack) > 64:
            stack.clear()
    return time.process_time() - t0


def clock_of(metric: str) -> str:
    """Which clock a metric is read on."""
    host = (metric.startswith(("host_", "trace_")) or "probe_" in metric
            or metric.endswith((".host_self_share", ".pycalls_per_op",
                                ".host_events_per_sec"))
            or metric in ("setup_s", "peak_rss_mb"))
    return "host" if host else "simulated"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- one round ---------------------------------------------------------------

def timed_round(workload, seed: int, index: int, scale: float,
                profiler=None) -> dict:
    """Set up, warm and measure one round; host times around each part."""
    from workloads import Round

    gc.collect()    # the previous round's cluster, so that peaks do not add
    rnd = Round(workload, seed, index, scale)
    t0 = time.process_time()
    rnd.setup()
    setup_s = time.process_time() - t0
    rnd.warm()
    # The collector is parked for the timed section: a GC pass adds host
    # jitter and touches no simulated result.
    gc.collect()
    gc.disable()
    try:
        pre = [calibrate() for _ in range(CALS)]
        c0 = time.process_time()
        if profiler is not None:
            profiler.enable()
        rnd.measure()
        if profiler is not None:
            profiler.disable()
        cpu_s = time.process_time() - c0
        post = [calibrate() for _ in range(CALS)]
    finally:
        gc.enable()
    chunk_us = chunk_costs([(c0, 0)] + rnd.stamps)
    out = rnd.finish()
    return {
        "index": index,
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "cals_s": pre + post,
        "noisy": abs(min(pre) - min(post)) / min(pre + post) > NOISY,
        "chunk_us": chunk_us,
        "host_us_per_op": host_us_per_op(chunk_us, pre + post),
        "out": out,
    }


def chunk_costs(stamps: list[tuple[float, int]]) -> list[float]:
    """Host microseconds per op of each chunk of a timed section, from
    the ``(cpu seconds, ops done)`` stamps the load generator took."""
    step = max(1, (len(stamps) - 1) // CHUNKS)
    marks = stamps[::step]
    if marks[-1] is not stamps[-1]:
        marks[-1] = stamps[-1]
    return [(t1 - t0) / (n1 - n0) * 1e6
            for (t0, n0), (t1, n1) in zip(marks, marks[1:]) if n1 > n0]


def low(values: list[float]) -> float:
    """Lower quartile.  Interference from other tenants of the box comes
    in bursts that only ever add time, so the lower quartile of many
    short measurements is steadier than the mean or median of few."""
    return sorted(values)[len(values) // 4]


def speed(cals_s: list[float]) -> float:
    """Factor that scales a host time to the reference box's speed."""
    return CAL_REF_S / low(cals_s)


def host_us_per_op(chunk_us: list[float], cals_s: list[float]) -> float:
    """Speed-normalised host cost of one op."""
    return low(chunk_us) * speed(cals_s)


def guarded_round(workload, seed: int, index: int, scale: float,
                  log: list) -> tuple[dict, bool]:
    """One round; rerun once if its calibrations disagree.

    Every attempt is logged, none is dropped silently, and the chunks of
    both feed the host metric; the steadier one gives the round's set-up
    time and simulated numbers.  Returns ``(round, identical)`` where
    ``identical`` is False if the rerun's simulated numbers differ.
    """
    first = timed_round(workload, seed, index, scale)
    log.append(first)
    if not first["noisy"]:
        return first, True
    again = timed_round(workload, seed, index, scale)
    again["rerun"] = True
    log.append(again)

    def gap(r):
        cals = r["cals_s"]
        return abs(min(cals[:CALS]) - min(cals[CALS:]))

    return (min(first, again, key=gap), first["out"] == again["out"])


# -- statistics ---------------------------------------------------------------

def midmean_us(ordered: list[int]) -> float:
    """Mean of the middle half of the sorted samples: a median that still
    moves when the simulator's latencies are quantised."""
    n = len(ordered)
    mid = ordered[n // 4:n - n // 4]
    return sum(mid) / len(mid) / 1e3


def tail_us(ordered: list[int]) -> float:
    """Mean of the slowest 1% of the sorted samples."""
    worst = ordered[-max(1, len(ordered) // 100):]
    return sum(worst) / len(worst) / 1e3


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "cal_ref_s": CAL_REF_S,
    }


def _slim(rnd: dict) -> dict:
    """A round's record without its bulky sample lists and snapshots."""
    out = rnd["out"]
    slim = {k: v for k, v in rnd.items() if k != "out"}
    slim.update(ops=out["ops"], window_ns=out["window_ns"],
                read_calls=len(out["read_ns"]),
                write_calls=len(out["write_ns"]),
                failed=out["failed"], errors=out["errors"],
                lost_acked_writes=out["lost_acked_writes"])
    return slim


# -- one workload ---------------------------------------------------------------

def run_untraced(workload, seed: int, scale: float) -> tuple[dict, dict]:
    """``--trace 0``: the end-to-end metrics of one workload."""
    log: list[dict] = []
    rounds, identical = [], True
    for index in range(ROUNDS):
        rnd, same = guarded_round(workload, seed, index, scale, log)
        rounds.append(rnd)
        identical &= same
    outs = [r["out"] for r in rounds]
    ops = sum(o["ops"] for o in outs)
    calls = sorted(ns for o in outs for ns in o["read_ns"] + o["write_ns"])
    failed = sum(o["failed"] for o in outs)
    lost = sum(o["lost_acked_writes"] for o in outs)
    cals_s = [s for r in log for s in r["cals_s"]]
    metrics = {
        "sim_throughput_kops": ops / sum(o["window_ns"] for o in outs) * 1e6,
        "sim_mid_us": midmean_us(calls),
        "sim_tail_us": tail_us(calls),
        "host_us_per_op": host_us_per_op(
            [us for r in log for us in r["chunk_us"]], cals_s),
        "setup_s": (statistics.median(r["setup_s"] for r in log)
                    * speed(cals_s)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = {
        "correct": failed == 0 and lost == 0 and identical,
        "attempted": sum(o["attempted"] for o in outs),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "host": host_info(),
        "calls": len(calls),
        "lost_acked_writes": lost,
        "reruns_identical": identical,
        "rounds": [_slim(r) for r in log],
    }
    return result, detail


def run_traced(workload, seed: int, scale: float) -> tuple[dict, dict]:
    """``--trace 1``: the per-layer metrics of one workload.

    Round 0 runs twice, plain and under ``cProfile``; the two must agree
    on every simulated number, and their CPU ratio is the tracing
    overhead.
    """
    from layers import LAYERS, attribute, counter_metrics
    from probes import run_probes

    metrics = run_probes(calibrate, CAL_REF_S)
    plain = timed_round(workload, seed, 0, scale)
    profile = cProfile.Profile()
    traced = timed_round(workload, seed, 0, scale, profiler=profile)
    identical = plain["out"] == traced["out"]
    out = traced["out"]
    ops = out["ops"]
    self_s, calls, attributed = attribute(profile)
    total_s = sum(self_s.values())
    for layer in LAYERS:
        metrics[f"{layer}.host_self_share"] = (
            self_s[layer] / total_s if total_s else 0.0)
        metrics[f"{layer}.pycalls_per_op"] = calls[layer] / ops
    metrics.update(counter_metrics(out))
    events = (out["after"]["kernel"]["events_dispatched"]
              - out["before"]["kernel"]["events_dispatched"])
    metrics["sim.host_events_per_sec"] = (
        events / ops / (plain["host_us_per_op"] / 1e6))
    metrics["host_pycalls_per_op"] = sum(calls.values()) / ops
    metrics["host_attributed_share"] = attributed
    metrics["trace_overhead_ratio"] = (traced["host_us_per_op"]
                                       / plain["host_us_per_op"])
    result = {
        "correct": (out["failed"] == 0 and out["lost_acked_writes"] == 0
                    and identical),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    detail = {
        "host": host_info(),
        "traced_equals_plain": identical,
        "rounds": [_slim(plain), _slim(traced)],
    }
    return result, detail


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perf/run.py: no program to measure: {ROOT}/src/repro is "
              "missing", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), PERF_DIR]
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perf/run.py: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scale = args.seconds / BASE_SECONDS
    run = run_traced if args.trace else run_untraced
    result, detail = run(workload, args.seed, scale)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        odd = sorted(set(units) ^ set(result["metrics"]))
        print(f"perf/run.py: metrics differ from BENCHMARK.json: {odd}",
              file=sys.stderr)
        return 3
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": units[name]} for name in units}
    if args.detail:
        print("DETAIL " + json.dumps(detail))
    print(json.dumps(result))
    return 0


# -- every workload ---------------------------------------------------------------

def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--detail"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(line[7:]) for line in lines
                  if line.startswith("DETAIL "))
    result["detail"] = detail
    return result


def _show(name: str, metric: dict) -> None:
    value = metric["value"]
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    extra = (f"  bound {metric['bound']:.0%}" if "bound" in metric else "")
    print(f"  {name:44s} {shown:>12s} {metric['unit']:8s} "
          f"{metric['clock']:9s} {metric['better']}{extra}")


def run_all(args) -> int:
    spec = load_spec()
    seconds = 1 if args.quick else spec["run_seconds"]
    started = time.time()
    report = {
        "meta": {"seed": args.seed, "seconds": seconds, "rounds": ROUNDS,
                 "host": host_info(), "started": started},
        "workloads": {},
    }
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        plain = _child(name, args.seed, seconds, 0)
        traced = _child(name, args.seed, seconds, 1)
        entry = {
            "why": wl["why"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "lost_acked_writes": plain["detail"]["lost_acked_writes"],
            "end_to_end": {}, "per_layer": {},
            "detail": {"untraced": plain["detail"],
                       "traced": traced["detail"]},
        }
        for decl in spec["end_to_end"]:
            m = plain["metrics"][decl["name"]]
            entry["end_to_end"][decl["name"]] = {
                **m, "clock": clock_of(decl["name"]),
                "better": decl["better"], "bound": decl["bound"]}
        for mname in ("host_us_per_op", "setup_s"):
            entry["end_to_end"][mname]["rounds"] = [
                r[mname] for r in plain["detail"]["rounds"]]
        for decl in spec["per_layer"]:
            m = traced["metrics"][decl["name"]]
            entry["per_layer"][decl["name"]] = {
                **m, "clock": clock_of(decl["name"]),
                "better": decl["better"]}
        report["workloads"][name] = entry
        ok &= entry["correct"]
        print(f"\n== {name}: {wl['why']}")
        print(f"  correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']} "
              f"lost_acked_writes={entry['lost_acked_writes']} "
              f"calls={plain['detail']['calls']}")
        print("  -- end to end (tracing off) --")
        for mname, metric in entry["end_to_end"].items():
            _show(mname, metric)
        print("  -- per layer (traced pass) --")
        for mname, metric in entry["per_layer"].items():
            _show(mname, metric)
    report["meta"]["wall_s"] = time.time() - started
    os.makedirs(os.path.join(PERF_DIR, "results"), exist_ok=True)
    path = os.path.join(PERF_DIR, "results", f"{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(path, ROOT)} in "
          f"{report['meta']['wall_s']:.0f} s; all correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload and print "
                    "one JSON object (the BENCHMARK.json contract)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=BASE_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--detail", action="store_true",
                    help="also print a DETAIL line (rounds, calibrations)")
    ap.add_argument("--quick", action="store_true",
                    help="all workloads at --seconds 1")
    ap.add_argument("--tag", default="latest",
                    help="results file name under perf/results/")
    args = ap.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
