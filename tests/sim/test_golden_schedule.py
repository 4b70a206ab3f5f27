"""Golden determinism tests: batched kernel == seed kernel, bit for bit.

The seed heapq event loop survives behind ``Simulator(legacy=True)`` as
the ordering oracle.  These tests run the same workloads on both
kernels with schedule tracing on and assert the BLAKE2 dispatch digests
match exactly — every event fires at the same time, in the same order,
with the same outcome — so the flat-array calendar is a pure speedup,
not a behaviour change.

Two golden workloads:

* a mixed calendar storm (pooled timers, zero-delay wakes, AnyOf races,
  overflow-heap far timers) exercising every insertion path at once;
* a full chaos soak (fault storm against a replicated HA cluster),
  which drags the whole middleware — NIC batching, SWAT failover,
  reclaim timers — through both kernels and must produce identical
  verdict rows and injection-log hashes.

Plus the BENCH_chaos replay identity re-asserted on the batched kernel.
"""

import pytest

from repro.chaos import harness as chaos_harness
from repro.chaos.harness import run_soak
from repro.core.api import HydraCluster
from repro.sim import Simulator

_SMALL = dict(scale=0.05, n_keys=12, n_clients=2)


# ---------------------------------------------------------------------------
# mixed-workload golden digest


def _build_mixed(sim: Simulator) -> None:
    """Every calendar path in one pot: now-queue (zero-delay wakes and
    pooled rearm(0)), wheel (near timers), overflow heap (far timers),
    AnyOf losers, and plain process timeouts."""
    horizon = 60_000

    def near(period: int):
        timer = sim.pooled_timer()
        while sim.now < horizon:
            yield timer.rearm(period)

    def far(period: int):
        while sim.now < horizon:
            yield sim.timeout(period)

    def waker(idx: int):
        while sim.now < horizon:
            fast = sim.event()
            fast.succeed(idx)
            yield sim.any_of([fast, sim.timeout(700)])
            yield sim.timeout(300)

    def pulse():
        # Callback-driven sweep: recurring pooled timer fanning out
        # twelve zero-delay pooled wakes per tick.
        timer = sim.pooled_timer()
        rearms = [sim.pooled_timer().rearm for _ in range(12)]

        def tick(_ev):
            if sim.now < horizon:
                timer.rearm(800)
                timer.callbacks.append(tick)
            for rearm in rearms:
                rearm(0)

        timer.rearm(800)
        timer.callbacks.append(tick)

    for i, period in enumerate((120, 250, 400, 650)):
        sim.process(near(period), name=f"near{i}")
    for i in range(3):
        sim.process(far(5_000 + 1_700 * i), name=f"far{i}")
    for i in range(4):
        sim.process(waker(i), name=f"waker{i}")
    pulse()


def _mixed_digest(legacy: bool) -> tuple[str, int, int]:
    sim = Simulator(legacy=legacy)
    sim.trace_schedule()
    _build_mixed(sim)
    sim.run(until=60_000)
    return sim.schedule_digest(), sim.now, sim.k_dispatched


def test_mixed_workload_digest_matches_seed_kernel():
    legacy = _mixed_digest(legacy=True)
    batched = _mixed_digest(legacy=False)
    assert batched == legacy
    # and the run was non-trivial — thousands of events, not a no-op
    assert legacy[2] > 5_000


def test_mixed_workload_digest_is_stable_across_reruns():
    assert _mixed_digest(legacy=False) == _mixed_digest(legacy=False)


def test_digest_detects_reordering():
    """Sanity: the digest is not blind — a different schedule hashes
    differently, so digest equality above actually proves something."""

    def one(extra_delay: int) -> str:
        sim = Simulator()
        sim.trace_schedule()

        def proc():
            yield sim.timeout(10)
            yield sim.timeout(10 + extra_delay)

        sim.process(proc(), name="p")
        sim.run()
        return sim.schedule_digest()

    assert one(0) != one(1)


# ---------------------------------------------------------------------------
# chaos-storm golden row + digest


def _soak_on_kernel(monkeypatch, legacy: bool) -> tuple[dict, str]:
    """Run one storm cell with the cluster's Simulator pinned to one
    kernel (``run_soak`` builds its own cluster, so the kernel choice is
    injected by patching the harness's HydraCluster symbol; the real
    class is taken from its home module, not from the possibly-patched
    harness namespace)."""
    sims: list[Simulator] = []

    def make_cluster(*args, **kwargs):
        sim = Simulator(legacy=legacy)
        sim.trace_schedule()
        sims.append(sim)
        kwargs["sim"] = sim
        return HydraCluster(*args, **kwargs)

    monkeypatch.setattr(chaos_harness, "HydraCluster", make_cluster)
    row = run_soak("mixed", 71, **_SMALL)
    assert len(sims) == 1
    assert sims[0].k_dispatched > 0  # the traced sim is the one that ran
    return row, sims[0].schedule_digest()


def test_chaos_storm_reproduces_seed_kernel_exactly(monkeypatch):
    row_legacy, digest_legacy = _soak_on_kernel(monkeypatch, legacy=True)
    row_batched, digest_batched = _soak_on_kernel(monkeypatch, legacy=False)
    # Full verdict rows — ops, errors, latency percentiles, injection
    # hash — are pure functions of the dispatch schedule; they must be
    # equal field-for-field, floats included.
    assert row_batched == row_legacy
    # And the schedules themselves are bit-identical, event by event.
    assert digest_batched == digest_legacy
    assert row_legacy["injected_faults"] > 0  # the storm actually raged


@pytest.mark.soak
def test_bench_chaos_replay_identity_on_batched_kernel():
    """Re-assert the BENCH_chaos determinism column's contract on the
    default (batched) kernel: same seed, same storm, same verdict."""
    a = run_soak("torn", 11, **_SMALL)
    b = run_soak("torn", 11, **_SMALL)
    assert a == b
    assert a["schedule_hash"] == b["schedule_hash"]
    assert a["injected_faults"] > 0
