"""Shared-resource primitives: FIFO stores, counted resources, mutexes.

These model contended server-side structures in the baselines (thread pools,
global locks) and bounded queues inside NICs.  HydraDB's own shards are
deliberately lock-free (single-threaded), so the heavy users of this module
are the Memcached/Redis/pipelined-execution models.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, TYPE_CHECKING

from .events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

__all__ = ["Store", "Resource", "Mutex", "Gate"]


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, sim: "Simulator", item: Any):
        super().__init__(sim)
        self.item = item


class Store:
    """An unbounded-or-bounded FIFO queue of Python objects.

    ``put`` returns an event that succeeds once the item is accepted
    (immediately unless the store is full); ``get`` returns an event that
    succeeds with the oldest item once one is available.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[_StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        ev = _StorePut(self.sim, item)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(None)
        elif not self.full:
            self.items.append(item)
            ev.succeed(None)
        else:
            self._putters.append(ev)
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.full:
            return False
        self.items.append(item)
        return True

    def get(self) -> Event:
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putter()
        elif self._putters:
            putter = self._putters.popleft()
            putter.succeed(None)
            ev.succeed(putter.item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return True, item
        if self._putters:
            putter = self._putters.popleft()
            putter.succeed(None)
            return True, putter.item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            putter = self._putters.popleft()
            self.items.append(putter.item)
            putter.succeed(None)


class Request(Event):
    """A pending claim on a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, sim: "Simulator", resource: "Resource"):
        super().__init__(sim)
        self.resource = resource


class Resource:
    """A counted resource (semaphore) with FIFO granting."""

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of grants currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        req = Request(self.sim, self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed(None)
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        if request.resource is not self:
            raise SimulationError("releasing a request of another resource")
        if not request.triggered:
            # Cancel a queued request.
            try:
                self._waiters.remove(request)
            except ValueError:
                raise SimulationError("request not held nor queued") from None
            request.succeed(None)  # unblock the canceller if it is waiting
            return
        if self._in_use <= 0:  # pragma: no cover - invariant guard
            raise SimulationError("release without matching grant")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use unchanged.
            self._waiters.popleft().succeed(None)
        else:
            self._in_use -= 1


class Mutex(Resource):
    """A capacity-1 resource; models coarse-grained baseline locks."""

    def __init__(self, sim: "Simulator"):
        super().__init__(sim, capacity=1)


class RwLock:
    """A readers-writer lock: shared readers, exclusive writers, FIFO-ish.

    Writers wait for all active readers to drain; arriving readers queue
    behind a waiting writer (no writer starvation).
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._readers = 0
        self._writer = False
        self._wait_writers: Deque[Event] = deque()
        self._wait_readers: Deque[Event] = deque()

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_held(self) -> bool:
        return self._writer

    def read_acquire(self) -> Event:
        ev = Event(self.sim)
        if not self._writer and not self._wait_writers:
            self._readers += 1
            ev.succeed(None)
        else:
            self._wait_readers.append(ev)
        return ev

    def read_release(self) -> None:
        if self._readers <= 0:
            raise SimulationError("read_release without readers")
        self._readers -= 1
        self._dispatch()

    def write_acquire(self) -> Event:
        ev = Event(self.sim)
        if not self._writer and self._readers == 0:
            self._writer = True
            ev.succeed(None)
        else:
            self._wait_writers.append(ev)
        return ev

    def write_release(self) -> None:
        if not self._writer:
            raise SimulationError("write_release without writer")
        self._writer = False
        self._dispatch()

    def _dispatch(self) -> None:
        if self._writer:
            return
        if self._wait_writers and self._readers == 0:
            self._writer = True
            self._wait_writers.popleft().succeed(None)
            return
        if not self._wait_writers:
            while self._wait_readers:
                self._readers += 1
                self._wait_readers.popleft().succeed(None)


class Gate:
    """A re-arming broadcast signal.

    ``wait()`` returns an event that succeeds at the next ``fire(value)``.
    Used for doorbells (e.g. waking a sleeping poller) where every waiter
    must observe the signal.

    All waiters of one firing observe the same occurrence, so they share a
    single pending event: a gate that is waited on every poll round but
    rarely fires holds one event total, not one per ``wait()``.  Waiters
    still resume in ``wait()`` order (callback order on the shared event).
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._pending: Optional[Event] = None
        self._n_waiting = 0

    def wait(self) -> Event:
        ev = self._pending
        if ev is None:
            ev = self._pending = Event(self.sim)
        self._n_waiting += 1
        return ev

    @property
    def waiting(self) -> bool:
        """True when ``wait()`` was called since the last firing (its
        waiter may have moved on since, e.g. past a timeout it raced)."""
        return self._pending is not None

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        ev, self._pending = self._pending, None
        n, self._n_waiting = self._n_waiting, 0
        if ev is not None:
            ev.succeed(value)
        return n
