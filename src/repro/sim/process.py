"""Generator-coroutine processes for the simulation kernel.

A process wraps a Python generator that yields :class:`~repro.sim.events.Event`
instances.  The process suspends on each yielded event and resumes with the
event's value (or has the event's exception thrown in).  A process is itself
an event: it triggers when the generator returns (value = ``StopIteration``
value) or raises.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from .events import Event, Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

__all__ = ["Process"]

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """An active simulation entity driven by a generator."""

    __slots__ = ("gen", "name", "_target", "_alive", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = ""):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(f"{gen!r} is not a generator")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None
        self._alive = True
        #: One bound resume callback for the process's lifetime (appending
        #: ``self._resume`` would allocate a fresh bound method per yield).
        self._resume_cb = self._resume
        # Kick off at the current time via an immediately-successful event.
        init = Event(sim)
        init.callbacks.append(self._resume_cb)
        init.succeed(None)

    @property
    def is_alive(self) -> bool:
        return self._alive

    @property
    def target(self) -> Optional[Event]:
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        twice before it handles the first interrupt queues both.
        """
        if not self._alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        ev = Event(self.sim)
        ev.callbacks.append(self._resume_interrupt)
        ev.succeed(Interrupt(cause))

    # -- internal -------------------------------------------------------
    def _resume_interrupt(self, trigger: Event) -> None:
        if not self._alive:
            return  # finished before the interrupt was delivered
        # Detach from whatever we were waiting on; its later processing
        # must not resume us again.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._step(trigger.value, throw=True)

    def _resume(self, event: Event) -> None:
        if not self._alive:
            return
        if not event._ok:
            event.defuse()
            self._step(event._value, throw=True)
            return
        # Fast path — the common wake: send the value and park on the
        # event the generator yields next, in this one frame.  Anything
        # else it yields (an already-processed event, a non-event) goes
        # through _park / _step's drive loop.
        sim = self.sim
        self._target = None
        sim._active_process = self
        try:
            target = self.gen.send(event._value)
        except BaseException as exc:
            sim._active_process = None
            self._exit(exc)
            return
        sim._active_process = None
        if isinstance(target, Event) and target.sim is sim \
                and target.callbacks is not None:
            self._target = target
            target.callbacks.append(self._resume_cb)
            return
        value, throw = self._park(target)
        self._step(value, throw)

    def _step(self, value: Any, throw: bool) -> None:
        # Iterative drive loop: yielding an already-processed event resumes
        # the generator immediately without growing the Python stack.
        sim = self.sim
        while True:
            self._target = None
            sim._active_process = self
            try:
                if throw:
                    target = self.gen.throw(value)
                else:
                    target = self.gen.send(value)
            except BaseException as exc:
                sim._active_process = None
                self._exit(exc)
                return
            sim._active_process = None
            nxt = self._park(target)
            if nxt is None:
                return
            value, throw = nxt

    def _park(self, target: Any) -> Optional[tuple[Any, bool]]:
        """Wait on ``target`` if it is a pending event of this simulator;
        otherwise return the ``(value, throw)`` to resume with at once."""
        if not isinstance(target, Event):
            return SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"), True
        if target.sim is not self.sim:
            return SimulationError(
                "yielded event belongs to another simulator"), True
        if target.callbacks is None:
            # Already processed: resume immediately with its value.
            if target._ok:
                return target._value, False
            target.defuse()
            return target._value, True
        self._target = target
        target.callbacks.append(self._resume_cb)
        return None

    def _exit(self, exc: BaseException) -> None:
        """The generator returned (``StopIteration``) or raised."""
        self._alive = False
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        else:
            self.fail(exc)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name!r} {'alive' if self._alive else 'done'}>"
