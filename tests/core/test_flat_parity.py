"""Flat-batch dispatch reproduces the pinned cluster schedules.

The kernel dispatches either a whole timestamp as one flat batch
(``step_batch``, behind ``run()`` and ``run(until=<time>)``) or one event
at a time (``step()``, the granularity of the retired seed heapq kernel,
which ``run(until=<event>)`` inlines).  ``cluster.run`` takes the
per-event loop, so the digests in ``test_schedule_digests`` pin that loop
alone.  Here each scenario's first 40 us are dispatched in flat batches
and the rest per event: a batch that reordered, dropped or duplicated
one event would move the digest off its committed literal.
"""

from tests.core.test_schedule_digests import PINNED, build_scenario, pins
from tests.dispatch import dispatching

_SPLIT_NS = 40_000  # well inside every scenario (the shortest ends ~86 us)


def _digest(scenario, per_event=False):
    cluster, gens = build_scenario(scenario)
    sim = dispatching(cluster.sim, per_event)
    procs = [sim.process(g) for g in gens]  # as cluster.run() spawns them
    done = sim.all_of(procs)
    sim.run(until=_SPLIT_NS)
    assert not done.processed
    sim.run(until=done)
    cluster.stop()
    return pins(sim)


def test_base_shard_flat_parity():
    flat = _digest("plain-default")
    assert flat == _digest("plain-default", per_event=True)
    assert flat == PINNED["plain-default"]
    assert flat[1] > 2_000  # the run was non-trivial


def test_flat_batched_stack_matches_seed_stack():
    """Every pinned scenario — each shard variant and request-path mode —
    dispatched in flat batches reproduces the literal frozen while the
    seed kernel still ran beside the batched one."""
    for scenario, pinned in PINNED.items():
        assert _digest(scenario) == pinned, scenario


def test_flat_parity_is_stable_across_reruns():
    """Back to back in one process: connection numbering, pools and
    counters start afresh with each cluster."""
    first = _digest("pipelined-default")
    assert first == _digest("pipelined-default")
    assert first == PINNED["pipelined-default"]


def _window(per_event):
    """Events dispatched by each turn of ``run()``'s loop over the flat
    window of the base scenario."""
    cluster, gens = build_scenario("plain-default")
    sim = dispatching(cluster.sim, per_event)
    inner, sizes = sim.step_batch, []

    def counted():
        before = sim.k_dispatched
        inner()
        sizes.append(sim.k_dispatched - before)

    sim.step_batch = counted
    for gen in gens:
        sim.process(gen)
    sim.run(until=_SPLIT_NS)
    cluster.stop()
    return sizes


def test_scalar_oracle_actually_selects_scalar_paths():
    """The per-event driver really takes one event per turn and the flat
    one really batches, over the same events — otherwise the parity above
    would compare one path with itself."""
    flat, scalar = _window(False), _window(True)
    assert set(scalar) == {1}
    assert max(flat) > 1
    assert sum(flat) == sum(scalar) == len(scalar) > len(flat)
