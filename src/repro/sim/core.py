"""The discrete-event simulator core.

A single :class:`Simulator` owns a monotonic integer-nanosecond clock and a
two-tier event calendar:

* a **bucketed wheel** of flat per-timestamp lists covering the near-term
  horizon (``now .. now + 4096`` ns — every NIC/CPU/fabric latency in
  :mod:`repro.config` lands here), indexed by ``t & mask`` with an int-heap
  of armed timestamps so the next instant is found without tuple churn;
* an **overflow heap** of explicit ``(time, seq, event)`` entries for
  far-out timers (retry timeouts, leases, reclaim periods), migrated into
  the wheel as the clock advances.

Zero-delay wakes — process resumes, replication acks, chained-WQE
completions; the dominant event class — skip the calendar entirely and go
to a ``now``-deque drained inline after the scheduled batch.  One dispatch
loop (:meth:`Simulator._drain`, with the clock advance inline) serves
``step()``, ``step_batch()`` and ``run(until=<event>)``.

Determinism: both tiers and the ``now``-deque preserve exact ``(time, seq)``
order, where seq is scheduling order — the order a single binary heap of
``(time, seq, event)`` entries would dispatch in.  The golden
schedule-hash tests pin that order to committed digests.
"""

from __future__ import annotations

import hashlib
from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Iterable, Optional

from .events import (
    _WHEEL_MASK,
    _WHEEL_SLOTS,
    AllOf,
    AnyOf,
    Event,
    PooledTimer,
    SimulationError,
    Timeout,
)
from .process import Process, ProcessGenerator

__all__ = ["Simulator", "UnhandledProcessError"]

#: :meth:`Simulator._drain` modes.
_UNTIL, _INSTANT, _STAGE = 0, 1, 2


class UnhandledProcessError(SimulationError):
    """A process died with an exception nobody was waiting on."""

    def __init__(self, event: Event):
        cause = event.value
        super().__init__(f"unhandled failure in simulation: {cause!r}")
        self.event = event
        self.__cause__ = cause


class Simulator:
    """Event loop with integer-nanosecond virtual time."""

    def __init__(self) -> None:
        self._now: int = 0
        #: Overflow tier: far-out ``(time, seq, event)`` entries.
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = count()
        self._active_process: Optional[Process] = None
        self._wheel: list[list[Event]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._slot_times: list[int] = []  # int-heap of armed wheel timestamps
        self._now_q: deque[Event] = deque()  # zero-delay wakes at this instant
        self._ready: deque[Event] = deque()  # current timestamp, being drained
        self._limit: int = _WHEEL_SLOTS  # == now + wheel horizon
        # Kernel telemetry: plain ints, surfaced via monitor.kernel_snapshot.
        # Pooled rearms deliberately skip k_scheduled, and now-queue hits
        # carry no counter of their own — the snapshot derives both
        # (scheduled = k_scheduled + k_timer_rearms, now = scheduled -
        # wheel - heap), keeping the two hottest paths increment-free.
        self.k_scheduled = 0
        self.k_dispatched = 0
        self.k_wheel_hits = 0
        self.k_heap_hits = 0
        self.k_timer_rearms = 0
        self.k_timer_allocs = 0
        self.k_peak_pending = 0
        # Schedule tracing (off by default; see trace_schedule()).
        self._tracing = False
        self._trace_uid: Optional[count] = None
        self._trace_hash = None
        self._wire_hash = None
        #: Stop event of the batch-mode drains: never triggered.
        self._never = Event(self)

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, int(delay), value)

    def pooled_timer(self) -> PooledTimer:
        """A rearmable timer for recurring loops (see :class:`PooledTimer`)."""
        return PooledTimer(self)

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, tuple(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, tuple(events))

    # -- scheduling ---------------------------------------------------------
    def _enqueue(self, delay: int, event: Event) -> None:
        self.k_scheduled += 1
        if delay == 0:
            # Immediate-event fast path: succeed()/fail() wakes and
            # zero-delay timeouts dispatch after the current batch without
            # a calendar round-trip.
            self._now_q.append(event)
            return
        t = self._now + delay
        if t < self._limit:
            self.k_wheel_hits += 1
            slot = self._wheel[t & _WHEEL_MASK]
            if not slot:
                heappush(self._slot_times, t)
            slot.append(event)
        else:
            self.k_heap_hits += 1
            heappush(self._heap, (t, next(self._seq), event))

    def _report_orphan_failure(self, event: Event) -> None:
        # A failure absorbed by an already-triggered condition; schedule a
        # crash so silent data loss cannot occur.
        raise UnhandledProcessError(event)

    # -- schedule tracing ---------------------------------------------------
    def trace_schedule(self) -> None:
        """Start folding every dispatch into a schedule hash.

        Events created after this call get a creation-order uid; each
        dispatch folds ``(now, uid, ok, type)`` into a blake2b digest, so
        two runs hash equal only if every event fired at the same time, in
        the same order, with the same outcome — the golden tests hold
        whole workloads to committed digests.
        """
        self._tracing = True
        self._trace_uid = count()
        self._trace_hash = hashlib.blake2b(digest_size=16)
        self._wire_hash = hashlib.blake2b(digest_size=16)

    def schedule_digest(self) -> str:
        """Hex digest of the dispatch schedule observed since tracing began."""
        if self._trace_hash is None:
            raise SimulationError("trace_schedule() was never called")
        return self._trace_hash.hexdigest()

    def wire_digest(self) -> str:
        """Hex digest of every delivery the modelled fabric made since
        tracing began (see :meth:`trace_wire`).

        Unlike the schedule digest it is blind to kernel bookkeeping —
        event types, uids, how many events a hop took — and pins only what
        the cluster observably did: which bytes landed where, and when.
        """
        if self._wire_hash is None:
            raise SimulationError("trace_schedule() was never called")
        return self._wire_hash.hexdigest()

    def trace_wire(self, where: bytes, offset: int, data) -> None:
        """Fold one delivery — ``(now, where, offset, length, bytes)`` —
        into the wire digest.

        ``where`` names the landing site (a region's rkey, a receive
        queue, a socket).  Only called while tracing: every delivery site
        tests ``sim._tracing`` first, so an untraced run pays one
        attribute test per delivery.
        """
        h = self._wire_hash
        h.update(b"%d|%s|%d|%d|" % (self._now, where, offset, len(data)))
        h.update(data)
        h.update(b";")

    def _trace_event(self, event: Event) -> None:
        uid = getattr(event, "_uid", -1)
        self._trace_hash.update(
            b"%d|%d|%d|%s;" % (self._now, uid, 1 if event._ok else 0,
                               type(event).__name__.encode()))

    # -- execution ------------------------------------------------------------
    def _next_time(self) -> Optional[int]:
        if self._ready or self._now_q:
            return self._now
        if self._slot_times:
            return self._slot_times[0]
        if self._heap:
            return self._heap[0][0]
        return None

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or ``None`` if none remain."""
        return self._next_time()

    def _drain(self, stop: Event, mode: int) -> int:
        """The dispatch loop behind :meth:`step`, :meth:`step_batch` and
        ``run(until=<event>)``.

        Dispatches in ``(time, seq)`` order — the staged slot, then the
        ``now``-deque (which may keep growing as wakes cascade) — until
        ``stop`` has been processed (``_UNTIL``), the current timestamp is
        drained (``_INSTANT``), or the calendar is empty.  ``_STAGE`` only
        advances the clock.  Returns the events dispatched since the last
        advance; on an error the undispatched tail stays staged, so a
        caller that handles it can keep running from there.

        Advancing the clock is inline — this is its one copy.  ``now``
        moves to the next armed timestamp; overflow entries entering the
        horizon are migrated first, before any callback runs, so a
        same-timestamp wheel insert can never slip in front of an older
        overflow entry (seq order is append order within a slot).
        """
        ready = self._ready
        nq = self._now_q
        st = self._slot_times
        heap = self._heap
        tracing = self._tracing
        n = 0  # dispatched since k_dispatched was last brought up to date
        try:
            while stop.callbacks is not None:
                if ready:
                    event = ready.popleft()
                elif nq:
                    event = nq.popleft()
                else:
                    if (n and mode) or not (st or heap):
                        break
                    # -- advance the clock --------------------------------
                    self.k_dispatched += n  # the peak sample below reads it
                    n = 0
                    t = st[0] if st else heap[0][0]
                    self._now = t
                    limit = self._limit = t + _WHEEL_SLOTS
                    wheel = self._wheel
                    while heap and heap[0][0] < limit:
                        ht, _s, hev = heappop(heap)
                        slot = wheel[ht & _WHEEL_MASK]
                        if not slot:
                            heappush(st, ht)
                        slot.append(hev)
                    heappop(st)  # == t: the slot we are about to drain
                    slot = wheel[t & _WHEEL_MASK]
                    ready.extend(slot)
                    slot.clear()
                    pending = (self.k_scheduled + self.k_timer_rearms
                               - self.k_dispatched)
                    if pending > self.k_peak_pending:
                        self.k_peak_pending = pending
                    if mode == _STAGE:
                        break
                    event = ready.popleft()
                n += 1
                if tracing:
                    self._trace_event(event)
                callbacks, event.callbacks = event.callbacks, None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    raise UnhandledProcessError(event)
        finally:
            self.k_dispatched += n
        return n

    def step(self) -> None:
        """Process exactly one event (kept one-per-call for API compat)."""
        ready = self._ready
        if not ready and not self._now_q:
            if not self._slot_times and not self._heap:
                raise SimulationError("step() on an empty event calendar")
            self._drain(self._never, _STAGE)
        event = ready.popleft() if ready else self._now_q.popleft()
        self.k_dispatched += 1
        if self._tracing:
            self._trace_event(event)
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            raise UnhandledProcessError(event)

    def step_batch(self) -> int:
        """Dispatch every event of the next timestamp as one flat batch;
        returns the number of events dispatched."""
        return self._drain(self._never, _INSTANT)

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the calendar drains), an integer
        time (run up to and including that instant), or an :class:`Event`
        (run until it is processed and return its value).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[int] = None
        if isinstance(until, Event):
            stop_event = until
            # run() re-raises the stop event's failure itself; keep step()
            # from treating it as an orphaned error.
            if not stop_event.processed:
                stop_event.callbacks.append(
                    lambda ev: None if ev._ok else ev.defuse()
                )
        elif until is not None:
            stop_time = int(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})"
                )
        if stop_event is not None:
            self._drain(stop_event, _UNTIL)
        else:
            step_batch = self.step_batch
            next_time = self._next_time
            if stop_time is None:
                while next_time() is not None:
                    step_batch()
            else:
                while True:
                    nt = next_time()
                    if nt is None:
                        break
                    if nt > stop_time:
                        self._now = stop_time
                        break
                    step_batch()
        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError(
                    "run() ended before the awaited event triggered"
                )
            if stop_event._ok:
                return stop_event.value
            stop_event.defuse()
            raise stop_event.value
        if stop_time is not None and self._now < stop_time:
            self._now = stop_time
        return None
