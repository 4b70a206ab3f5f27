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
to a ``now``-deque drained inline after the scheduled batch
(:meth:`Simulator.step_batch`).

Determinism: both tiers and the ``now``-deque preserve exact ``(time, seq)``
order, where seq is scheduling order — the order a single binary heap of
``(time, seq, event)`` entries would dispatch in.  The golden
schedule-hash tests pin that order to committed digests.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
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
                heapq.heappush(self._slot_times, t)
            slot.append(event)
        else:
            self.k_heap_hits += 1
            heapq.heappush(self._heap, (t, next(self._seq), event))

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

    def schedule_digest(self) -> str:
        """Hex digest of the dispatch schedule observed since tracing began."""
        if self._trace_hash is None:
            raise SimulationError("trace_schedule() was never called")
        return self._trace_hash.hexdigest()

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

    def _advance_clock(self) -> None:
        """Advance ``now`` to the next armed timestamp and stage its batch.

        Overflow entries entering the horizon are migrated first — on every
        advance, before any callback runs — so a same-timestamp wheel insert
        can never slip in front of an older overflow entry (seq order is
        append order within a slot).
        """
        st = self._slot_times
        heap = self._heap
        if st:
            t = st[0]
        elif heap:
            t = heap[0][0]
        else:
            raise SimulationError("step() on an empty event calendar")
        self._now = t
        limit = t + _WHEEL_SLOTS
        self._limit = limit
        if heap and heap[0][0] < limit:
            wheel = self._wheel
            push, pop = heapq.heappush, heapq.heappop
            while heap and heap[0][0] < limit:
                ht, _s, hev = pop(heap)
                slot = wheel[ht & _WHEEL_MASK]
                if not slot:
                    push(st, ht)
                slot.append(hev)
        heapq.heappop(st)  # == t: the slot we are about to drain
        slot = self._wheel[t & _WHEEL_MASK]
        self._ready.extend(slot)
        slot.clear()
        pending = self.k_scheduled + self.k_timer_rearms - self.k_dispatched
        if pending > self.k_peak_pending:
            self.k_peak_pending = pending

    def _dispatch(self, event: Event) -> None:
        self.k_dispatched += 1
        if self._tracing:
            self._trace_event(event)
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            raise UnhandledProcessError(event)

    def step(self) -> None:
        """Process exactly one event (kept one-per-call for API compat)."""
        ready = self._ready
        if ready:
            self._dispatch(ready.popleft())
        elif self._now_q:
            self._dispatch(self._now_q.popleft())
        else:
            self._advance_clock()
            self._dispatch(self._ready.popleft())

    def step_batch(self) -> int:
        """Dispatch every event of the next timestamp as one flat batch.

        Drains the staged slot list in seq order, then the ``now``-deque
        FIFO (which may keep growing as wakes cascade); returns the number
        of events dispatched.
        """
        ready = self._ready
        nq = self._now_q
        if not ready and not nq:
            self._advance_clock()
        n = 0
        tracing = self._tracing
        if ready:
            # The staged slot cannot grow mid-batch (delay > 0 is strictly
            # future, delay 0 goes to the now-deque), so it drains with a
            # plain iteration — no per-event popleft.
            try:
                for event in ready:
                    if tracing:
                        self._trace_event(event)
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
                    n += 1
                    if not event._ok and not event._defused:
                        raise UnhandledProcessError(event)
            except BaseException:
                # Leave the undispatched tail staged, so a caller that
                # handles the error can keep running from there.
                for _ in range(n):
                    ready.popleft()
                self.k_dispatched += n
                raise
            ready.clear()
        popleft = nq.popleft
        while nq:  # wakes may cascade: the deque can grow while draining
            event = popleft()
            if tracing:
                self._trace_event(event)
            callbacks, event.callbacks = event.callbacks, None
            if callbacks:
                for cb in callbacks:
                    cb(event)
            n += 1
            if not event._ok and not event._defused:
                self.k_dispatched += n
                raise UnhandledProcessError(event)
        self.k_dispatched += n
        return n

    def _run_until_processed(self, stop_event: Event) -> None:
        """``step()`` in a loop, inlined: dispatch one event at a time and
        stop the moment ``stop_event`` has been processed, leaving the rest
        of its batch staged.  Returns early if the calendar drains first.
        """
        ready = self._ready
        nq = self._now_q
        n = 0  # dispatched since k_dispatched was last brought up to date
        try:
            while stop_event.callbacks is not None:
                if ready:
                    event = ready.popleft()
                elif nq:
                    event = nq.popleft()
                elif self._slot_times or self._heap:
                    # _advance_clock samples k_peak_pending from it.
                    self.k_dispatched += n
                    n = 0
                    self._advance_clock()
                    event = ready.popleft()
                else:
                    return
                n += 1
                if self._tracing:
                    self._trace_event(event)
                callbacks, event.callbacks = event.callbacks, None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    raise UnhandledProcessError(event)
        finally:
            self.k_dispatched += n

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
            self._run_until_processed(stop_event)
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
