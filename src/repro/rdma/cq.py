"""Completion queues.

HydraDB's data path never blocks on a CQ — shards poll request buffers in
memory and every data-path Write is posted unsignaled, so it produces no
CQE at all — but the Send/Recv baseline mode (§6.2) and the RAMCloud
baseline drain CQs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..sim import Gate, Simulator
from ..sim.events import Event
from .verbs import Completion

__all__ = ["CompletionQueue"]


class CompletionQueue:
    """An unbounded FIFO of completions with optional blocking wait."""

    def __init__(self, sim: Simulator, name: str = "cq"):
        self.sim = sim
        self.name = name
        self._entries: Deque[Completion] = deque()
        self._gate = Gate(sim)
        #: Persistent push notifications (simulation doorbells for pollers).
        self.on_push: list = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, completion: Completion) -> None:
        self._entries.append(completion)
        self._gate.fire()
        for cb in self.on_push:
            cb(self)

    def poll(self, max_entries: int = 16) -> list[Completion]:
        """Non-blocking drain of up to ``max_entries`` completions."""
        out: list[Completion] = []
        self.poll_into(out, max_entries)
        return out

    def poll_into(self, out: list[Completion],
                  max_entries: int = 16) -> int:
        """Allocation-free :meth:`poll` into a caller-owned scratch list.

        A poll loop can reuse one scratch list per drain instead of
        allocating.  Entries may be pooled records (``CompletionPool``);
        they pass through by reference and releasing them back to their
        pool remains the consumer's job.  Returns the number appended.
        """
        n = 0
        while self._entries and n < max_entries:
            out.append(self._entries.popleft())
            n += 1
        return n

    def poll_one(self) -> Optional[Completion]:
        return self._entries.popleft() if self._entries else None

    def wait(self) -> Event:
        """Event that fires when the CQ is (or becomes) non-empty.

        The waiter must still :meth:`poll`; multiple waiters may race for
        the same entry, exactly like event-channel wakeups on real verbs.
        """
        if self._entries:
            ev = Event(self.sim)
            ev.succeed(None)
            return ev
        return self._gate.wait()
