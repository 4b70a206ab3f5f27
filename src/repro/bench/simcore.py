"""Kernel microbench: events/sec of the event kernel alone.

Times the kernel — no RDMA, no shards — on the schedule shapes that
dominate Fig. 12-style sweeps, on the two-tier calendar (bucketed wheel
+ overflow heap + inline now-queue + ``step_batch``).  Three workloads:

* ``sweep_loop`` — 64 shard-sweep pollers on pooled recurring timers,
  each tick waking 12 responders through pooled zero-delay timers, over
  a resident population of 32k far-out timers (op deadlines, retry
  timers, leases).  A single heap would pay a log-n push+pop per event
  against that ballast; the wheel/now-queue fast paths do not.
* ``wake_storm`` — processes chained through zero-delay succeeds: the
  now-queue fast path under full process machinery.
* ``mixed_calendar`` — near timers, far timers (overflow heap), wakes
  and AnyOf conditions in one pot: the chaos-storm shape.

Setup (building the ballast and workload closures) happens outside the
timed region; each cell reports the best of ``_REPS`` runs, with GC
parked, same hygiene as the YCSB driver.  Every bench is preceded by an
untimed *traced* run of the same workload at ``_TRACE_SCALE``; its
BLAKE2 schedule digest (``digest``) must equal the committed constant in
:data:`DIGESTS` (``repro.bench.validate`` checks), so a timing only
counts for a kernel that still dispatches the pinned ``(time, seq)``
order.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Callable, Optional

from ..sim import Simulator, kernel_snapshot

__all__ = ["DIGESTS", "simcore_kernel", "write_simcore_artifact"]

#: Repetitions per bench; best-of wins.
_REPS = 3

#: Size of the traced run whose digest is pinned (independent of the
#: timed ``scale``, so one constant per bench covers every run).
_TRACE_SCALE = 0.1

#: bench -> schedule digest of its traced run at ``_TRACE_SCALE``; frozen
#: while the seed heapq kernel still ran beside the calendar kernel and
#: both produced these.
DIGESTS = {
    "sweep_loop": "66d68c92af252e103bbd598f5d0a54f0",
    "wake_storm": "fb71629ecd85998a6efc4b8b5e666884",
    "mixed_calendar": "b1c73ed55b5da37c4b3cb56a7f920ab0",
}

#: Sweep-poll periods (ns): the CPU-cost/backoff band the config uses —
#: all well inside the 4096-slot wheel.
_PERIODS = (120, 250, 400, 650, 900, 1300)

#: Resident far-out timers behind the sweep loop (op deadlines 50 ms,
#: retry timers 2 ms, leases 500 ms — all far beyond the wheel horizon).
_BALLAST = 32_768


def _sweep_loop(sim: Simulator, scale: float) -> Optional[int]:
    """64 sweep pollers + 12 inline wakes per tick over timer ballast."""
    horizon = int(1_000_000 * scale)
    for i in range(_BALLAST):
        sim.timeout(10_000_000 + 137 * i)

    def make(period: int) -> None:
        timer = sim.pooled_timer()
        wake_rearms = [sim.pooled_timer().rearm for _ in range(12)]

        def tick(_ev):
            if sim.now < horizon:
                timer.rearm(period)
                timer.callbacks.append(tick)
            for rearm in wake_rearms:
                rearm(0)

        timer.rearm(period)
        timer.callbacks.append(tick)

    for _ in range(64):
        make(800)
    return horizon


def _wake_storm(sim: Simulator, scale: float) -> Optional[int]:
    """Ping-pong process chains of immediate succeeds."""
    rounds = int(4_000 * scale)

    def chain(idx: int):
        for _ in range(rounds):
            ev = sim.event()
            ev.succeed(idx)
            yield ev
        # Keep at least one calendar entry so run() interleaves chains.
        yield sim.timeout(1)

    for i in range(16):
        sim.process(chain(i), name=f"wake{i}")
    return None


def _mixed_calendar(sim: Simulator, scale: float) -> Optional[int]:
    """Near + far timers, wakes and conditions — the chaos-storm pot."""
    horizon = int(400_000 * scale)

    def near(period: int):
        timer = sim.pooled_timer()
        while sim.now < horizon:
            yield timer.rearm(period)

    def far(period: int):
        # Beyond the wheel limit: every arm lands in the overflow heap.
        while sim.now < horizon:
            yield sim.timeout(period)

    def waker():
        while sim.now < horizon:
            fast = sim.event()
            fast.succeed()
            yield sim.any_of([fast, sim.timeout(700)])
            yield sim.timeout(300)

    for i in range(12):
        sim.process(near(_PERIODS[i % len(_PERIODS)]), name=f"near{i}")
    for i in range(4):
        sim.process(far(5_000 + 1_700 * i), name=f"far{i}")
    for i in range(6):
        sim.process(waker(), name=f"waker{i}")
    return None


_BENCHES: tuple[tuple[str, Callable[[Simulator, float], Optional[int]]],
                ...] = (
    ("sweep_loop", _sweep_loop),
    ("wake_storm", _wake_storm),
    ("mixed_calendar", _mixed_calendar),
)


def _timed_run(build, scale: float) -> tuple[float, Simulator]:
    sim = Simulator()
    until = build(sim, scale)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        sim.run(until=until)
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    return wall, sim


def _digest(build, scale: float) -> str:
    sim = Simulator()
    sim.trace_schedule()
    until = build(sim, scale)
    sim.run(until=until)
    return sim.schedule_digest()


def simcore_kernel(scale: float = 0.5) -> list[dict]:
    """The BENCH_simcore sweep: one row per schedule shape, carrying its
    events/sec, its schedule digest and the kernel's telemetry mix."""
    rows: list[dict] = []
    for bench, build in _BENCHES:
        # Ordering check first, at a size where tracing stays cheap.
        digest = _digest(build, _TRACE_SCALE)
        best: Optional[tuple[float, Simulator]] = None
        for _rep in range(_REPS):
            cell = _timed_run(build, scale)
            if best is None or cell[0] < best[0]:
                best = cell
        wall, sim = best
        snap = kernel_snapshot(sim)
        events = int(snap["events_dispatched"])
        rows.append({
            "bench": bench,
            "events": events,
            "wall_s": round(wall, 4),
            "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
            "digest": digest,
            "now_rate": round(snap["now_rate"], 3),
            "wheel_rate": round(snap["wheel_rate"], 3),
            "heap_rate": round(snap["heap_rate"], 3),
            "timer_reuse_rate": round(snap["timer_reuse_rate"], 3),
            "peak_calendar": int(snap["peak_calendar"]),
        })
    return rows


def write_simcore_artifact(rows: list[dict],
                           path: str = "BENCH_simcore.json") -> str:
    """Dump the kernel microbench as a machine-readable artifact."""
    payload = {
        "experiment": "simcore_kernel",
        "description": "event-kernel events/sec on sweep-loop, wake-storm "
                       "and mixed-calendar schedule shapes (two-tier "
                       "bucketed calendar + inline now-queue + pooled "
                       "timers + step_batch); digest is the BLAKE2 "
                       "schedule digest of a traced run, which must equal "
                       "the committed per-bench constant",
        "unit": "events/sec",
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path
