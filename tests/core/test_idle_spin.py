"""The fused idle tail of the ingest loops (``Shard._idle``).

An idle poller is one wait on its doorbell, not one event per probe.
What a per-probe loop would have done is the spec, so a per-probe
reference poller lives here (``_reference``) and the three shard
variants are held to it: the instant a doorbell is swept, the idle-poll
count a spin resumes with, and the core's busy integral.  Each rig test
runs on a two-slot request buffer (frame plus occupancy word, two
Writes) and has a ``*_one_slot`` twin on the paper's one-slot buffer
(one Write per request).
"""

import functools
import math

import pytest

from repro import HydraCluster, SimConfig
from repro.hardware import Core
from repro.sim import Gate, Simulator, kernel_snapshot
from tests.core.test_shard_variants import VARIANTS, variants

PROBE, POLLS, SLEEP = 25, 64, 100
WINDOW = POLLS * PROBE


class Rig:
    """One shard of ``variant`` with one message-path connection of
    ``slots`` request slots, and a hook that runs ``on_spin(rig)`` at
    ``t0``: the instant the spin that follows a served request begins —
    the first probe of the per-probe reference poller.

    On two slots a request lands as two writes, frame then occupancy
    word, and rings the doorbell twice.  A poller woken from sleep sweeps
    while the word is still in flight, so its sweep serves the request
    but the word's ring leaves the connection flagged and the next sweep
    comes up empty: that sweep is idle poll 1, and ``t0`` is its start.
    A pegged poller probes before the word lands, so the word's ring
    brings the sweep that serves the request and ``t0`` is the idle tail
    right after it.  On one slot a request is one write and one ring: the
    sweep it brings serves the request, and ``t0`` is the idle tail right
    after it either way.  ``sweeps`` lists the sweeps after ``t0``."""

    def __init__(self, variant, on_spin, slots, cpu=None):
        cfg = SimConfig().with_overrides(
            hydra=dict(VARIANTS[variant], msg_slots_per_conn=slots),
            cpu=cpu or {},
            client={"rptr_cache_enabled": False},
            traversal={"enabled": False})
        self.cluster = HydraCluster(config=cfg, n_server_machines=1,
                                    shards_per_server=1)
        self.cluster.start()
        self.sim = self.cluster.sim
        self.shard = self.cluster.shards()[0]
        self.client = self.cluster.client()
        self.cluster.run(self.client.put(b"k", b"v"))
        self.conn = self.shard.conns[0]
        io_cores = self.shard.io_cores
        self.tid = self.conn.conn_id % len(io_cores)
        self.core = io_cores[self.tid]
        self.t0 = None
        self.idle_calls = []   # (time - t0, idle_sweeps, swept)
        self.sweeps = []       # time - t0 of every sweep after t0
        self._on_spin = on_spin
        idle, cost = self.shard._idle, self.shard._sweep_cost
        requests = self.cluster.metrics.counter("shard.requests")

        def spin_begins():
            if self.t0 is None and requests.value > served:
                self.t0 = self.sim.now
                self._on_spin(self)
                return True
            return False

        def idle_spy(core, idle_sweeps, swept, tid):
            if tid == self.tid:
                spin_begins()
                if self.t0 is not None:
                    self.idle_calls.append(
                        (self.sim.now - self.t0, idle_sweeps, swept))
            return idle(core, idle_sweeps, swept, tid)

        def cost_spy(conns):
            if not spin_begins() and self.t0 is not None:
                self.sweeps.append(self.sim.now - self.t0)
            return cost(conns)

        self.sim.run(until=self.sim.now + 10 * WINDOW)  # let it fall asleep
        served = requests.value
        self.shard._idle, self.shard._sweep_cost = idle_spy, cost_spy
        self.sim.process(self.client.get(b"k"))
        while self.t0 is None:       # stop the clock at t0
            self.sim.step()

    def at(self, offset, fn, cascade=False):
        """Call ``fn()`` at ``t0 + offset`` — from a calendar event, or
        (``cascade``) from a zero-delay event that one triggers."""
        def fire(_ev):
            if cascade:
                self.sim.timeout(0).callbacks.append(lambda _e: fn())
            else:
                fn()
        self.sim.timeout(self.t0 + offset - self.sim.now).callbacks.append(
            fire)

    def ring(self, offset, cascade=False):
        """A bare doorbell (hint without a request) at ``t0 + offset``."""
        self.at(offset, lambda: self.shard._mark_ready(self.conn), cascade)

    def run_to(self, offset):
        self.sim.run(until=self.t0 + offset)


def _reference(offset, backoff=True, kill_at=None, busy_at=0):
    """The per-probe poller this PR replaced, on a bare core: one
    ``core.execute`` per empty probe, then sleep.  Returns ``(detected,
    busy)``: when a doorbell rung ``offset`` ns into the spin is seen
    (None if killed first) and the busy average over ``[0, busy_at]``."""
    sim = Simulator()
    core = Core(sim, None, 0, 0)
    gate, flagged, seen = Gate(sim), [], []

    def ring(_ev):
        flagged.append(True)
        gate.fire()

    def poller():
        idle = 0
        while True:
            yield core.execute(PROBE)
            if flagged:
                break
            idle += 1
            if idle < POLLS:
                continue
            if backoff:
                yield gate.wait()
                yield core.execute(SLEEP // 2)
            else:
                core.busy.add(1.0)
                yield gate.wait()
                core.busy.add(-1.0)
                yield core.execute(PROBE)
            break
        seen.append(sim.now)

    # The doorbell is armed before the poller starts, as a fabric delivery
    # always is before the probe that will see it.
    sim.timeout(offset).callbacks.append(ring)
    proc = sim.process(poller())
    if kill_at is not None:
        sim.timeout(kill_at).callbacks.append(
            lambda _ev: proc.interrupt("killed"))
        proc.callbacks.append(lambda ev: ev.defuse())

    sim.run(until=busy_at)
    busy = core.busy.time_average()
    sim.run(until=max(offset, busy_at) + 10 * WINDOW)
    return (seen[0] if seen else None), busy


def _closed_form(offset):
    if offset <= WINDOW:
        return max(1, math.ceil(offset / PROBE)) * PROBE
    return offset + SLEEP // 2


# -- (a) detection instant ---------------------------------------------------
@variants
@pytest.mark.parametrize(
    "offset", [0, 1, 24, 25, 26, 49, 50, 1599, 1600, 1601, 5000])
def test_doorbell_is_swept_at_the_per_probe_instant(variant, offset, slots=2):
    rig = Rig(variant, lambda r: r.ring(offset), slots)
    rig.run_to(offset + 4 * WINDOW)
    assert rig.sweeps[0] == _closed_form(offset) == _reference(offset)[0]


# -- (b) idle-poll count across an empty sweep -------------------------------
@variants
@pytest.mark.parametrize("second,penalty", [(1625, 0), (1626, SLEEP // 2)])
def test_spin_resumed_by_an_empty_sweep_keeps_counting(variant, second,
                                                        penalty, slots=2):
    def bells(r):
        r.ring(110)      # seen by probe 5 (t0 + 125); its sweep finds nothing
        r.ring(second)
    rig = Rig(variant, bells, slots)
    rig.run_to(4 * WINDOW)
    # Probes 1-4 were idle (on two slots, t0's empty sweep is idle poll 1
    # and probes 2-4 spin), the empty sweep is idle poll 5 (ends t0 +
    # 150), and the 59 left of the 64 end at t0 + 150 + 59 * 25 = t0 +
    # 1625.
    spin = ([(0, 0, False)] if slots == 1
            else [(PROBE, 0, True), (PROBE, 1, False)])
    assert rig.idle_calls[:len(spin) + 2] == spin + [(150, 4, True),
                                                     (150, 5, False)]
    assert rig.sweeps[:2] == [125, second + penalty]


# -- (c) busy integral -------------------------------------------------------
@variants
def test_busy_integral_over_spin_sleep_wake(variant, slots=2):
    def setup(r):
        r.core.busy.reset()
        r.ring(3000)
    rig = Rig(variant, setup, slots)
    rig.run_to(1000)
    assert rig.core.busy.time_average() == 1.0          # spinning
    rig.run_to(2000)
    assert rig.core.busy.time_average() == WINDOW / 2000   # asleep, no event
    rig.run_to(3000 + SLEEP // 2)
    assert rig.sweeps == [3000 + SLEEP // 2]
    want = (POLLS * PROBE + SLEEP // 2) / (3000 + SLEEP // 2)
    assert rig.core.busy.time_average() == want
    assert _reference(3000, busy_at=3000 + SLEEP // 2)[1] == want


@variants
@pytest.mark.parametrize("offset", [1, 110, 1600])
def test_busy_integral_of_an_interrupted_spin(variant, offset, slots=2):
    def setup(r):
        r.core.busy.reset()
        r.ring(offset)
    rig = Rig(variant, setup, slots)
    seen = _closed_form(offset)
    rig.run_to(seen)
    assert rig.core.busy.time_average() == 1.0
    assert _reference(offset, busy_at=seen)[1] == 1.0


# -- (d) doorbell at the instant the spin window ends -------------------------
@variants
@pytest.mark.parametrize("cascade", [False, True])
@pytest.mark.parametrize("offset,seen", [(WINDOW, WINDOW),
                                         (WINDOW + 1, WINDOW + 1 + SLEEP // 2)])
def test_no_lost_wakeup_at_the_end_of_the_window(variant, cascade, offset,
                                                 seen, slots=2):
    # No event marks the end of the window, so there is no expiry for the
    # doorbell to race: however it is dispatched within its nanosecond, it
    # is the last probe's if it lands on the boundary and a sleeper's after.
    rig = Rig(variant, lambda r: r.ring(offset, cascade), slots)
    rig.run_to(4 * WINDOW)
    assert rig.sweeps[0] == seen


# -- (e) kill / gray failure mid-spin ----------------------------------------
def _no_live_timer(rig):
    return all(c._timer.idle for c in rig.shard.io_cores)


@variants
def test_kill_mid_spin_charges_to_the_probe_boundary(variant, slots=2):
    def setup(r):
        r.core.busy.reset()
        r.at(110, r.shard.kill)
    rig = Rig(variant, setup, slots)
    rig.run_to(2 * WINDOW)
    assert rig.core.busy.value == 0.0
    assert rig.core.busy.time_average() == 125 / (2 * WINDOW)
    assert _reference(5000, kill_at=110, busy_at=2 * WINDOW)[1] == \
        125 / (2 * WINDOW)
    assert _no_live_timer(rig) and not rig.sweeps


@variants
def test_gray_failure_mid_spin_stops_at_the_probe_boundary(variant, slots=2):
    def setup(r):
        r.core.busy.reset()
        r.at(110, r.shard.gray_fail)
        r.ring(300)                      # lands while wedged: not swept
        r.at(3000, r.shard.gray_recover)
    rig = Rig(variant, setup, slots)
    rig.run_to(2999)
    assert rig.core.busy.value == 0.0
    assert rig.core.busy.time_average() == 125 / 2999
    assert _no_live_timer(rig) and not rig.sweeps
    rig.run_to(2 * WINDOW)
    assert rig.sweeps[0] == 3000         # picked up on recovery


@pytest.mark.parametrize("gray_first", [False, True])
def test_gray_failure_sharing_an_instant_with_a_foreign_doorbell(gray_first,
                                                                 slots=2):
    # Two rings in one instant share one gate event and the spinner sees
    # only the first one's value; when that is the doorbell of the other
    # I/O thread's partition, the control wake behind it must not be lost.
    def setup(r):
        r.core.busy.reset()
        nic = r.cluster.client_machines[0].nic
        other = r.shard.connect(nic)
        while other.conn_id % len(r.shard.io_cores) == r.tid:
            other = r.shard.connect(nic)
        rings = [lambda: r.shard._mark_ready(other), r.shard.gray_fail]
        r.at(110, lambda: [fn() for fn in rings[::-1 if gray_first else 1]])
    rig = Rig("pipelined", setup, slots)
    rig.run_to(2 * WINDOW)
    assert rig.core.busy.value == 0.0
    assert rig.core.busy.time_average() == 125 / (2 * WINDOW)
    assert _no_live_timer(rig) and not rig.sweeps


@variants
@pytest.mark.parametrize("offset,charged", [(110, 125),
                                            (WINDOW + 400, WINDOW)])
def test_last_disconnect_stops_a_spinner_and_spares_a_sleeper(
        variant, offset, charged, slots=2):
    def setup(r):
        r.core.busy.reset()
        r.at(offset, lambda: r.shard.disconnect(r.conn))
    rig = Rig(variant, setup, slots)
    rig.run_to(4 * WINDOW)
    assert not rig.sweeps
    assert rig.core.busy.time_average() == charged / (4 * WINDOW)


@variants
def test_a_late_write_on_a_dropped_connection_does_not_stop_the_sleep(
        variant, slots=2):
    # The flag of a dropped connection can never be swept; left in the
    # ready set it kept the per-probe loop spinning forever.
    def setup(r):
        r.core.busy.reset()
        dropped = r.shard.connect(r.cluster.client_machines[0].nic)
        r.shard.disconnect(dropped)
        r.at(110, lambda: r.shard._mark_ready(dropped))
        r.ring(3000)
    rig = Rig(variant, setup, slots)
    rig.run_to(3000 + SLEEP // 2)
    assert rig.sweeps == [3000 + SLEEP // 2]


# -- (f) the ablations that keep their old shape -----------------------------
@variants
@pytest.mark.parametrize("offset", [110, WINDOW, WINDOW + 1, 5000])
def test_pegged_core_ablation(variant, offset, slots=2):
    def setup(r):
        r.core.busy.reset()
        r.ring(offset)
    rig = Rig(variant, setup, slots, cpu={"sleep_backoff": False})
    seen = _reference(offset, backoff=False)[0]
    rig.run_to(seen)
    # Never sleeps: one probe after the window instead of the sleep
    # penalty, and the core is busy the whole wait.
    assert seen == (_closed_form(offset) if offset <= WINDOW
                    else offset + PROBE)
    assert rig.sweeps == [seen]
    assert rig.core.busy.time_average() == 1.0
    assert _reference(offset, backoff=False, busy_at=seen)[1] == 1.0


# -- one-slot twins ----------------------------------------------------------
def _one_slot(test):
    """``test`` (whose rig runs on two slots) on a one-slot buffer: one
    Write and one doorbell per request, held to the same reference."""
    @functools.wraps(test)
    def twin(**params):
        test(**params, slots=1)
    return twin


test_doorbell_is_swept_at_the_per_probe_instant_one_slot = _one_slot(
    test_doorbell_is_swept_at_the_per_probe_instant)
test_spin_resumed_by_an_empty_sweep_keeps_counting_one_slot = _one_slot(
    test_spin_resumed_by_an_empty_sweep_keeps_counting)
test_busy_integral_over_spin_sleep_wake_one_slot = _one_slot(
    test_busy_integral_over_spin_sleep_wake)
test_busy_integral_of_an_interrupted_spin_one_slot = _one_slot(
    test_busy_integral_of_an_interrupted_spin)
test_no_lost_wakeup_at_the_end_of_the_window_one_slot = _one_slot(
    test_no_lost_wakeup_at_the_end_of_the_window)
test_kill_mid_spin_charges_to_the_probe_boundary_one_slot = _one_slot(
    test_kill_mid_spin_charges_to_the_probe_boundary)
test_gray_failure_mid_spin_stops_at_the_probe_boundary_one_slot = _one_slot(
    test_gray_failure_mid_spin_stops_at_the_probe_boundary)
test_gray_failure_sharing_an_instant_with_a_foreign_doorbell_one_slot = \
    _one_slot(test_gray_failure_sharing_an_instant_with_a_foreign_doorbell)
test_last_disconnect_stops_a_spinner_and_spares_a_sleeper_one_slot = \
    _one_slot(test_last_disconnect_stops_a_spinner_and_spares_a_sleeper)
test_a_late_write_on_a_dropped_connection_does_not_stop_the_sleep_one_slot = \
    _one_slot(test_a_late_write_on_a_dropped_connection_does_not_stop_the_sleep)
test_pegged_core_ablation_one_slot = _one_slot(test_pegged_core_ablation)


# -- event budget ------------------------------------------------------------
def test_idle_polling_costs_no_events():
    cfg = SimConfig().with_overrides(
        client={"rptr_cache_enabled": False}, traversal={"enabled": False})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    client, sim = cluster.client(), cluster.sim

    def app(n):
        for _ in range(n):
            assert (yield from client.get(b"k")) == b"v"
            yield sim.timeout(10_000)

    cluster.run(client.put(b"k", b"v"))
    before = kernel_snapshot(sim)["events_dispatched"]
    cluster.run(app(100))
    per_op = (kernel_snapshot(sim)["events_dispatched"] - before) / 100
    # 91.4 with one event per 25 ns probe; the closed loop itself is ~30.
    assert per_op < 45
