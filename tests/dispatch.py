"""The kernel's two dispatch granularities as a test parameter.

``Simulator.run()`` and ``run(until=<time>)`` drain each timestamp as one
flat batch (``step_batch``).  ``step()`` dispatches one event per call —
the granularity of the retired single-heap kernel — and
``run(until=<event>)`` inlines that per-event loop.  Both must dispatch
in the same ``(time, seq)`` order, so anything a test asserts must hold
at either granularity.

``@granularities(flat_id, per_event_id)`` runs a test twice with a
``per_event`` flag; :func:`dispatching` applies it to a
simulator, routing its batch loop through one ``step()`` per iteration.
"""

import pytest


def dispatching(sim, per_event):
    """``sim``, with ``run()``'s batch loop taking one ``step()`` per
    iteration when ``per_event`` is set."""
    if per_event:
        def step_batch():
            sim.step()
            return 1
        sim.step_batch = step_batch
    return sim


def granularities(flat_id, per_event_id):
    return pytest.mark.parametrize("per_event", [False, True],
                                   ids=[flat_id, per_event_id])
