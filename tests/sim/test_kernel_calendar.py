"""Unit tests for the two-tier calendar kernel.

The flat-array kernel routes every insert to one of three tiers — the
now-deque (delay 0), the 4096-slot bucketed wheel (delay within the
horizon), or the overflow heap (beyond it) — and dispatches whole
timestamps as batches.  These tests pin the tier routing, the ordering
rules at tier boundaries (overflow entries migrating into the wheel must
not be overtaken by same-timestamp wheel inserts), the ``step_batch``
semantics, the :class:`PooledTimer` rearm/release contract, AnyOf loser
detachment, and the derived telemetry arithmetic.  Tests of behaviour
that must not depend on dispatch granularity run twice: ``batched``
drives ``run()`` through ``step_batch``, ``legacy`` through one
``step()`` per event, as the retired single-heap kernel dispatched.
"""

import pytest

from repro.sim import Simulator, kernel_snapshot
from repro.sim.core import _WHEEL_SLOTS
from repro.sim.events import PooledTimer, SimulationError
from repro.sim.resources import Gate

from tests.dispatch import dispatching, granularities

both_granularities = granularities("batched", "legacy")


def _sim(per_event):
    return dispatching(Simulator(), per_event)


def fired(log):
    def cb(tag):
        return lambda ev: log.append(tag)
    return cb


# ---------------------------------------------------------------------------
# tier routing


def test_inserts_route_to_the_right_tier():
    sim = Simulator()
    sim.timeout(0)
    sim.timeout(5)
    sim.timeout(_WHEEL_SLOTS - 1)   # last wheel-reachable delay at t=0
    sim.timeout(_WHEEL_SLOTS)       # first overflow delay
    sim.timeout(10_000_000)
    assert len(sim._now_q) == 1
    assert sim.k_wheel_hits == 2
    assert sim.k_heap_hits == 2
    ev = sim.event()
    ev.succeed()
    assert len(sim._now_q) == 2  # wakes take the now-deque fast path


def test_wheel_horizon_advances_with_the_clock():
    sim = Simulator()
    sim.timeout(3_000)
    sim.run(until=3_000)
    # From now=3000 the wheel covers [3000, 3000+4096); a 4000ns delay
    # lands at 7000 < 7096 — wheel, not overflow.
    before = sim.k_wheel_hits
    sim.timeout(4_000)
    assert sim.k_wheel_hits == before + 1


@both_granularities
def test_overflow_migration_keeps_seq_order(per_event):
    """An overflow entry and a later wheel insert for the same timestamp
    must dispatch in insertion order even though they travelled through
    different tiers."""
    sim = _sim(per_event)
    log = []
    tag = fired(log)
    t = _WHEEL_SLOTS + 50
    sim.timeout(t).callbacks.append(tag("overflow-first"))

    def late_inserter():
        yield sim.timeout(100)
        # now=100: t is within [100, 100+4096) -> wheel insert.
        sim.timeout(t - 100).callbacks.append(tag("wheel-second"))

    sim.process(late_inserter(), name="late")
    sim.run()
    assert log == ["overflow-first", "wheel-second"]


@both_granularities
def test_now_deque_preserves_fifo_and_runs_before_time_advances(per_event):
    sim = _sim(per_event)
    log = []
    tag = fired(log)

    def root(ev):
        log.append("root")
        a = sim.event()
        a.callbacks.append(tag("a"))
        a.succeed()
        b = sim.event()
        b.callbacks.append(tag("b"))
        b.succeed()

    sim.timeout(10).callbacks.append(root)
    sim.timeout(10).callbacks.append(tag("sibling"))
    sim.timeout(11).callbacks.append(tag("next-instant"))
    sim.run()
    # Cascaded wakes at t=10 dispatch after the staged slot but before
    # t=11, in trigger order.
    assert log == ["root", "sibling", "a", "b", "next-instant"]


# ---------------------------------------------------------------------------
# step_batch semantics


def test_step_batch_dispatches_one_whole_timestamp():
    sim = Simulator()
    log = []
    tag = fired(log)
    for i in range(3):
        sim.timeout(7).callbacks.append(tag(f"t7.{i}"))
    sim.timeout(9).callbacks.append(tag("t9"))
    n = sim.step_batch()
    assert n == 3
    assert sim.now == 7
    assert log == ["t7.0", "t7.1", "t7.2"]
    assert sim.step_batch() == 1
    assert sim.now == 9


def test_step_batch_counts_cascading_wakes():
    sim = Simulator()
    hits = []

    def chainer(ev):
        if len(hits) < 4:
            nxt = sim.event()
            nxt.callbacks.append(chainer)
            nxt.succeed()
        hits.append(1)

    sim.timeout(5).callbacks.append(chainer)
    assert sim.step_batch() == 5  # the timeout + four chained wakes
    assert sim.k_dispatched == 5


def test_step_interleaves_with_step_batch():
    # step() must drain the staged batch one event at a time without
    # losing ordering relative to a later step_batch().
    sim = Simulator()
    log = []
    tag = fired(log)
    for i in range(3):
        sim.timeout(4).callbacks.append(tag(i))
    sim.step()
    assert log == [0] and sim.now == 4
    assert sim.step_batch() == 2
    assert log == [0, 1, 2]


def test_peek_reports_next_timestamp():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(42)
    assert sim.peek() == 42
    sim.run()
    assert sim.peek() is None


@both_granularities
def test_run_until_time_stops_inclusively(per_event):
    sim = _sim(per_event)
    log = []
    tag = fired(log)
    sim.timeout(10).callbacks.append(tag("at10"))
    sim.timeout(20).callbacks.append(tag("at20"))
    sim.run(until=15)
    assert log == ["at10"]
    assert sim.now == 15
    sim.run(until=20)
    assert log == ["at10", "at20"]


@both_granularities
def test_run_until_event_stops_at_processing(per_event):
    sim = _sim(per_event)

    def proc():
        yield sim.timeout(30)
        return "done"

    p = sim.process(proc(), name="p")
    sim.timeout(100)  # later traffic must not be consumed
    assert sim.run(until=p) == "done"
    assert sim.now == 30


@both_granularities
def test_run_until_event_leaves_the_rest_of_its_batch_staged(per_event):
    sim = _sim(per_event)
    log = []
    tag = fired(log)
    sim.timeout(10).callbacks.append(tag("a"))
    stop = sim.timeout(10)
    stop.callbacks.append(tag("stop"))
    stop.callbacks.append(lambda ev: sim.event().succeed().callbacks.append(
        tag("wake")))
    sim.timeout(10).callbacks.append(tag("c"))
    sim.run(until=stop)
    assert log == ["a", "stop"] and sim.now == 10
    sim.run()
    assert log == ["a", "stop", "c", "wake"] and sim.now == 10


def _churn(sim, n=40):
    """Timers on every tier plus cascading wakes; returns the last event."""
    def proc(i):
        for k in range(n):
            yield sim.timeout((i * 37 + k * 911) % 9_000)
            yield sim.event().succeed(k)
    procs = [sim.process(proc(i)) for i in range(5)]
    return sim.all_of(procs)


def test_run_until_event_is_stepping_inlined():
    """The inlined loop dispatches exactly what ``step()`` in a loop does:
    same schedule digest, same clock, same telemetry."""
    runs = []
    for inlined in (True, False):
        sim = Simulator()
        sim.trace_schedule()
        done = _churn(sim)
        sim.timeout(50_000_000)  # must stay on the calendar
        if inlined:
            sim.run(until=done)
        else:
            while not done.processed:
                sim.step()
        runs.append((sim.schedule_digest(), sim.now, sim.peek(),
                     kernel_snapshot(sim)))
    assert runs[0] == runs[1]
    assert runs[0][3]["events_dispatched"] > 400


def test_run_until_event_keeps_dispatch_count_exact_on_a_crash():
    sim = Simulator()
    sim.timeout(5)
    sim.timeout(7).callbacks.append(
        lambda ev: sim.event().fail(RuntimeError("boom")))
    sim.timeout(7)
    never = sim.event()
    with pytest.raises(Exception, match="boom"):
        sim.run(until=never)
    # t=5, both t=7 timers, then the failed wake that raised.
    assert sim.k_dispatched == 4 and sim.now == 7


# ---------------------------------------------------------------------------
# PooledTimer contract


@both_granularities
def test_pooled_timer_rearm_cycle(per_event):
    sim = _sim(per_event)
    timer = sim.pooled_timer()
    assert timer.idle
    waits = []

    def loop():
        for _ in range(5):
            yield timer.rearm(100)
            waits.append(sim.now)

    sim.process(loop(), name="loop")
    sim.run()
    assert waits == [100, 200, 300, 400, 500]
    assert timer.idle  # released: processed and rearmable again
    assert sim.k_timer_rearms == 5


@both_granularities
def test_pooled_timer_rearm_in_flight_raises(per_event):
    sim = _sim(per_event)
    timer = sim.pooled_timer()
    timer.rearm(50)
    with pytest.raises(SimulationError):
        timer.rearm(50)
    sim.run()
    timer.rearm(50)  # idle again after processing
    sim.run()


def test_pooled_timer_zero_delay_uses_now_queue():
    sim = Simulator()
    timer = sim.pooled_timer()
    timer.rearm(0)
    assert len(sim._now_q) == 1
    assert sim.k_wheel_hits == 0 and sim.k_heap_hits == 0


@both_granularities
def test_pooled_timer_overflow_delay(per_event):
    sim = _sim(per_event)
    timer = sim.pooled_timer()
    seen = []

    def loop():
        yield timer.rearm(10_000_000)
        seen.append(sim.now)

    sim.process(loop(), name="loop")
    sim.run()
    assert seen == [10_000_000]


def test_pooled_timer_is_event_subclass():
    sim = Simulator()
    assert isinstance(sim.pooled_timer(), PooledTimer)
    assert isinstance(sim.pooled_timer(), type(sim.event()))


# ---------------------------------------------------------------------------
# AnyOf loser detachment


@both_granularities
def test_anyof_losers_drop_condition_callback(per_event):
    sim = _sim(per_event)
    slow = sim.timeout(1_000)

    def racer():
        for _ in range(10):
            yield sim.any_of([sim.timeout(10), slow])

    sim.process(racer(), name="racer")
    sim.run(until=500)
    # Ten races lost by `slow` must not leave ten stale callbacks behind.
    assert slow.callbacks == []


def test_anyof_does_not_subscribe_after_decided():
    sim = Simulator()
    done = sim.event()
    done.succeed("v")
    sim.run()  # process it
    late = sim.timeout(50)
    cond = sim.any_of([done, late])
    assert cond.triggered
    assert late.callbacks == []  # never subscribed: decided by `done`


@both_granularities
def test_allof_gathers_all_values(per_event):
    sim = _sim(per_event)
    t1, t2 = sim.timeout(5, "a"), sim.timeout(9, "b")

    def proc():
        got = yield sim.all_of([t1, t2])
        return [got[t1], got[t2]]

    p = sim.process(proc(), name="p")
    assert sim.run(until=p) == ["a", "b"]


# ---------------------------------------------------------------------------
# Gate: shared pending event

@both_granularities
def test_gate_shares_one_event_across_waiters(per_event):
    sim = _sim(per_event)
    gate = Gate(sim)
    ev1, ev2 = gate.wait(), gate.wait()
    assert ev1 is ev2  # one occurrence, one event
    woken = []

    def waiter(idx, ev):
        got = yield ev
        woken.append((idx, got, sim.now))

    sim.process(waiter(0, ev1), name="w0")
    sim.process(waiter(1, ev2), name="w1")

    def firer():
        yield sim.timeout(25)
        assert gate.fire("sig") == 2

    sim.process(firer(), name="f")
    sim.run()
    assert woken == [(0, "sig", 25), (1, "sig", 25)]


# ---------------------------------------------------------------------------
# derived telemetry


def test_kernel_snapshot_derives_now_hits():
    sim = Simulator()
    timer = sim.pooled_timer()

    def loop():
        for _ in range(4):
            yield timer.rearm(100)      # wheel x4 (rearms, not scheduled)
        for _ in range(3):
            ev = sim.event()
            ev.succeed()                # now-queue x3
            yield ev
        yield sim.timeout(10_000_000)   # overflow heap x1

    p = sim.process(loop(), name="loop")
    sim.run()
    snap = kernel_snapshot(sim)
    assert snap["timer_rearms"] == 4
    assert snap["wheel_hits"] == 4  # the rearms
    assert snap["heap_hits"] == 1   # the far timeout
    # scheduled = k_scheduled + rearms; now = scheduled - wheel - heap.
    assert snap["events_scheduled"] == sim.k_scheduled + 4
    assert snap["now_hits"] == (snap["events_scheduled"]
                                - snap["wheel_hits"] - snap["heap_hits"])
    # 3 explicit wakes + the process start and completion events all land
    # in the now tier.
    assert snap["now_hits"] == 3 + 2
    assert snap["events_dispatched"] == sim.k_dispatched
    assert p.processed


def test_kernel_snapshot_rates_sum_to_one():
    sim = Simulator()
    for i in range(10):
        sim.timeout(i * 7)
    sim.run()
    snap = kernel_snapshot(sim)
    assert snap["now_rate"] + snap["wheel_rate"] + snap["heap_rate"] == (
        pytest.approx(1.0))


def test_peak_calendar_tracks_resident_events():
    sim = Simulator()
    for i in range(100):
        sim.timeout(50 + i)
    sim.run()
    assert kernel_snapshot(sim)["peak_calendar"] == 100
