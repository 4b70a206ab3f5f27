"""Event primitives for the discrete-event simulation kernel.

Events are the unit of synchronization: a process yields an event and is
resumed when the event is *processed* (its callbacks run).  The design
follows the classic SimPy model but is trimmed to what the HydraDB
simulation needs and uses integer-nanosecond timestamps throughout.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Simulator

#: Calendar wheel geometry (shared with :mod:`repro.sim.core`, defined
#: here so the timer fast paths below can insert without an import cycle).
#: 4096 integer-ns slots cover every hot-path delay (NIC 25-800 ns,
#: propagation 500 ns, CPU parse/build ~100 ns); only retry timers
#: (2 ms), op deadlines (50 ms) and lease periods overflow.
_WHEEL_BITS = 12
_WHEEL_SLOTS = 1 << _WHEEL_BITS
_WHEEL_MASK = _WHEEL_SLOTS - 1

__all__ = [
    "Event",
    "Timeout",
    "PooledTimer",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
]

_PENDING = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (e.g. a machine-failure record).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence within the simulation.

    Lifecycle: *pending* -> *triggered* (``succeed``/``fail`` called and the
    event is queued) -> *processed* (callbacks have run).  Callbacks receive
    the event itself.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_uid")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables invoked when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        if sim._tracing:
            # Creation-order uid: the identity the schedule hash is built on.
            self._uid = next(sim._trace_uid)

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inline wake fast path: a zero-delay trigger goes straight to
        # the now-deque (the single hottest kernel operation — worth
        # skipping the _enqueue call for).
        sim = self.sim
        sim.k_scheduled += 1
        sim._now_q.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise TypeError(f"{exc!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        sim = self.sim
        sim.k_scheduled += 1
        sim._now_q.append(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another event (callback chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay (integer nanoseconds)."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim.k_timer_allocs += 1
        sim._enqueue(delay, self)


class PooledTimer(Event):
    """A rearmable timer for recurring loops (sweep polls, idle backoff,
    lease/reclaim periods).

    A pooled timer is *idle* after construction and again once a firing has
    been processed (every waiter resumed).  While idle it may be rearmed —
    which recycles the same object instead of allocating a fresh
    :class:`Timeout` plus calendar entry per poll::

        timer = sim.pooled_timer()
        while polling:
            yield timer.rearm(poll_ns)

    Contract: ``rearm()`` is only legal while :attr:`idle` (rearming a timer
    still in flight raises :class:`SimulationError`); a timer may only be
    rearmed by its owning loop — code that hands the event to third parties
    that may outlive the firing (or that may yield it late) must *release*
    the timer (stop rearming it and drop the reference, letting a fresh
    ``Timeout`` take over) because rearming recycles the callback/value
    state in place.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator"):
        super().__init__(sim)
        self.delay = 0
        self.callbacks = None  # idle: nothing scheduled yet

    @property
    def idle(self) -> bool:
        """True when no firing is pending or awaiting processing."""
        return self.callbacks is None

    def rearm(self, delay: int, value: Any = None) -> "PooledTimer":
        if self.callbacks is not None:
            raise SimulationError("rearm() on a pooled timer still in flight")
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        self._defused = False
        sim = self.sim
        sim.k_timer_rearms += 1
        # Inlined calendar insert (== Simulator._enqueue): rearm is the
        # per-tick cost of every poll loop, so it pays not to route the
        # recycled timer through another call frame.  k_scheduled is NOT
        # bumped here — kernel_snapshot folds k_timer_rearms back in.
        if delay == 0:
            sim._now_q.append(self)
            return self
        t = sim._now + delay
        if t < sim._limit:
            sim.k_wheel_hits += 1
            slot = sim._wheel[t & _WHEEL_MASK]
            if not slot:
                heappush(sim._slot_times, t)
            slot.append(self)
        else:
            sim.k_heap_hits += 1
            heappush(sim._heap, (t, next(sim._seq), self))
        return self


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: tuple[Event, ...]):
        super().__init__(sim)
        self.events = events
        self._n_done = 0
        for ev in events:
            if ev.sim is not sim:
                raise SimulationError("events belong to different simulators")
        if not events:
            self.succeed(self._collect())
            return
        for ev in events:
            if self.triggered:
                break  # decided by an earlier event; don't subscribe losers
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def _check(self, ev: Event) -> None:
        if self.triggered:
            if not ev._ok and not ev._defused:
                # Nobody will look at this failure through the condition.
                ev.defuse()
                self.sim._report_orphan_failure(ev)
            return
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            self._detach_pending()
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._collect())
            self._detach_pending()

    def _detach_pending(self) -> None:
        # Once the condition has triggered, the losers must not keep a dead
        # reference to it in their callbacks forever: a long-lived event
        # raced against many short timeouts (deadline vs route_change in the
        # retry gate) would otherwise accumulate one stale callback per race.
        check = self._check
        for ev in self.events:
            cbs = ev.callbacks
            if cbs is not None:
                try:
                    cbs.remove(check)
                except ValueError:
                    pass

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of ``events`` succeeds (or any fails)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class AllOf(_Condition):
    """Fires when all of ``events`` have succeeded (or any fails)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= len(self.events)
