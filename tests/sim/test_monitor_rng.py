"""Instrument and random-stream tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import (Counter, MetricSet, Simulator, Tally, TimeWeighted,
                       kernel_snapshot)
from repro.sim.rng import StreamRegistry


def test_counter_add_and_reset():
    c = Counter("ops")
    c.add()
    c.add(5)
    assert c.value == 6
    c.reset()
    assert c.value == 0


def test_tally_basic_stats():
    t = Tally("lat")
    for v in (10.0, 20.0, 30.0):
        t.observe(v)
    assert t.count == 3
    assert t.mean == pytest.approx(20.0)
    assert t.min == 10.0 and t.max == 30.0
    assert t.percentile(50) == pytest.approx(20.0)


def test_tally_empty_is_nan():
    t = Tally("lat")
    assert math.isnan(t.mean)
    assert math.isnan(t.percentile(99))
    assert math.isnan(t.min) and math.isnan(t.max)


def test_tally_std():
    t = Tally("x")
    for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
        t.observe(v)
    assert t.std == pytest.approx(np.std([2, 4, 4, 4, 5, 5, 7, 9], ddof=1))


def test_tally_reservoir_mean_stays_exact_beyond_capacity():
    t = Tally("x", max_samples=100)
    for v in range(1000):
        t.observe(float(v))
    assert t.count == 1000
    assert t.mean == pytest.approx(499.5)
    assert len(t._samples) == 100
    # Percentiles are approximate but must stay inside the observed range.
    assert 0.0 <= t.percentile(50) <= 999.0


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False), min_size=1, max_size=200))
def test_tally_matches_numpy_moments(values):
    t = Tally("h")
    for v in values:
        t.observe(v)
    assert t.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-6)
    assert t.min == min(values) and t.max == max(values)


def test_time_weighted_average():
    sim = Simulator()
    g = TimeWeighted("busy", sim)
    events = [(100, 1.0), (300, 0.0), (400, 1.0)]

    def driver():
        for when, val in events:
            yield sim.timeout(when - sim.now)
            g.set(val)

    sim.process(driver())
    sim.run(until=500)
    # busy during [100,300) and [400,500): 300 of 500 ns.
    assert g.time_average() == pytest.approx(300 / 500)


def test_time_weighted_add_and_reset():
    sim = Simulator()
    g = TimeWeighted("q", sim, initial=2.0)
    sim.run(until=100)
    g.add(3.0)
    assert g.value == 5.0
    g.reset()
    sim.run(until=200)
    assert g.time_average() == pytest.approx(5.0)


def test_time_weighted_hold_ends_without_an_event():
    sim = Simulator()
    g = TimeWeighted("busy", sim)
    sim.run(until=100)
    g.hold(1.0, 400)
    before = kernel_snapshot(sim)["events_dispatched"]
    sim.run(until=250)
    assert g.value == 1.0
    g.add(1.0)                      # the level underneath moves freely
    assert g.value == 2.0
    sim.run(until=300)
    g.add(-1.0)
    sim.run(until=1000)
    assert g.value == 0.0
    assert g.time_average() == (300 + 50) / 1000
    assert kernel_snapshot(sim)["events_dispatched"] == before
    g.hold(1.0, 1100)               # the first one has ended
    sim.run(until=2000)
    assert g.time_average() == (350 + 100) / 2000


def test_time_weighted_release_moves_the_end_of_a_hold_forward_only():
    sim = Simulator()
    g = TimeWeighted("busy", sim)
    g.hold(1.0, math.inf)
    sim.run(until=100)
    g.release(125)
    g.release(500)                  # later than the end it has: ignored
    assert g.value == 1.0
    sim.run(until=125)
    assert g.value == 0.0
    sim.run(until=1000)
    g.release(1000)                 # nothing open: ignored
    assert g.time_average() == 125 / 1000


def test_time_weighted_one_hold_at_a_time():
    sim = Simulator()
    g = TimeWeighted("busy", sim)
    g.hold(1.0, 400)
    sim.run(until=100)
    with pytest.raises(AssertionError):
        g.hold(1.0, 800)


def test_time_weighted_set_under_an_open_hold_never_goes_negative():
    # Core.unpin() does busy.set(0.0); a hold still open rides it out.
    sim = Simulator()
    g = TimeWeighted("busy", sim)
    g.hold(1.0, 400)
    sim.run(until=100)
    g.set(0.0)
    assert g.value == 1.0
    g.reset()
    sim.run(until=1000)
    assert g.value == 0.0
    assert g.time_average() == 300 / 900


def test_metricset_lazy_instruments_and_snapshot():
    sim = Simulator()
    m = MetricSet(sim)
    m.counter("ops").add(7)
    m.tally("lat").observe(4.0)
    m.gauge("busy").set(1.0)
    sim.run(until=10)
    snap = m.snapshot()
    assert snap["ops"] == 7.0
    assert snap["lat.mean"] == pytest.approx(4.0)
    assert snap["lat.count"] == 1.0
    assert "busy.avg" in snap
    # Same name returns the same instrument.
    assert m.counter("ops") is m.counter("ops")
    m.reset()
    assert m.counter("ops").value == 0


def test_metricset_gauge_without_sim_rejected():
    m = MetricSet()
    with pytest.raises(ValueError):
        m.gauge("x")


def test_stream_registry_deterministic_across_instances():
    a = StreamRegistry(7).stream("zipf").integers(0, 1 << 30, size=8)
    b = StreamRegistry(7).stream("zipf").integers(0, 1 << 30, size=8)
    assert (a == b).all()


def test_stream_registry_independent_names():
    reg = StreamRegistry(7)
    a = reg.stream("alpha").integers(0, 1 << 30, size=8)
    b = reg.stream("beta").integers(0, 1 << 30, size=8)
    assert not (a == b).all()


def test_stream_registry_insertion_order_invariance():
    r1 = StreamRegistry(3)
    r1.stream("first")
    x1 = r1.stream("second").integers(0, 1 << 30, size=4)
    r2 = StreamRegistry(3)
    x2 = r2.stream("second").integers(0, 1 << 30, size=4)
    assert (x1 == x2).all()


def test_stream_registry_seed_matters():
    a = StreamRegistry(1).stream("s").integers(0, 1 << 30, size=8)
    b = StreamRegistry(2).stream("s").integers(0, 1 << 30, size=8)
    assert not (a == b).all()


def test_stream_registry_reset():
    reg = StreamRegistry(9)
    a = reg.stream("s").integers(0, 1 << 30, size=4)
    reg.reset()
    b = reg.stream("s").integers(0, 1 << 30, size=4)
    assert (a == b).all()
