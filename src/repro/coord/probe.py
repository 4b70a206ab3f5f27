"""One-sided heartbeat probes: the SWAT leader's failure detector.

Every primary shard keeps an 8 B heartbeat word in a region registered on
its NIC and bumps it every ``bump_ns`` while its process lives
(:meth:`repro.core.shard.Shard.heartbeat`).  The :class:`Prober` runs on
the SWAT coordinator machine: it holds one RC queue pair to each machine
it probes and, every ``period_ns``, posts one RDMA Read of each watched
word.  Nothing else tells it whether a target lives — it sees exactly what
the Reads return, and when.

A probe **misses** when

* it has not completed within the target's deadline D = max(
  :data:`PROBE_DEADLINE_FLOOR_NS`, SRTT + 4·RTTVAR), where SRTT and RTTVAR
  are RFC 6298 estimators (gains 1/8 and 1/4) of that target's own
  successful probe round trips — late ones included, so a path that
  starts delaying Reads stretches its own deadline.  Before the first
  sample there is no deadline: the RC transport's retry timeout decides;
* its completion fails — ``RETRY_EXC`` (the target NIC is dead, or the
  Read was dropped), ``REM_ACCESS_ERR``, or the queue pair can no longer
  post — unless it was already counted overdue; or
* it succeeds but the word has not advanced although the bumper must have
  bumped since the Read that saw that value.  The two DMA snapshots lie
  inside their Reads' [post, completion] spans, so a Read posted more than
  ``bump_ns`` after the completion of a Read that saw the same value has a
  bump strictly between them whatever the bump and probe phases are.  A
  Read posted sooner is *inconclusive*: neither a miss nor proof of life.

A miss re-probes at once, and a stall miss as soon as the next Read can
be conclusive again: ``bump_ns`` after it, so each stall miss covers a
bump period of its own.  So a dead machine is condemned within
P + K·D of its death (K = ``misses``), not K retry timeouts.  A re-probe
after any other miss is :data:`REPROBE_READS` Reads of the word posted
together: one probe, which misses only if none of them completes in
time.  A live path that delays some Reads by more than D then has to
delay every Read of every re-probe to be condemned, at the cost of one
more Read per miss; the probe rate of a healthy target stays one per
period.

A success whose word advanced past an earlier snapshot is proof of life
— also when it lands after its deadline — and clears the misses of every
probe no newer than it (the first snapshot of a target is only its
baseline).  ``misses`` probe misses newer than the last proof of life
**condemn** the target: it is no longer probed and the owner is signalled
(:meth:`Prober.condemnation`, and ``on_condemn``).  A wedged CPU that
still bumps is never condemned (gray failure stays undetected), and a
dropped or long-delayed Read is a miss like any other, so a verdict can
be wrong: SWAT fences what it deposes (see :mod:`repro.coord.swat`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..rdma import Nic, QpError, QueuePair, RemotePointer, WcStatus
from ..sim import Gate, Simulator
from ..sim.events import Event

__all__ = ["Prober", "PROBE_DEADLINE_FLOOR_NS", "REPROBE_READS"]

#: D_floor: the shortest a probe Read is given before it counts as a
#: miss: 138x the largest probe round trip measured on a live target
#: outside fault windows (1.853 us, docs/CALIBRATION.md), so only a dead
#: path or a fault-delayed Read ever reaches it.
PROBE_DEADLINE_FLOOR_NS = 256_000

#: Reads posted by the re-probe that follows a failed or overdue probe.
REPROBE_READS = 2


class _Target:
    """Probe state of one watched heartbeat word."""

    __slots__ = ("shard_id", "nic", "rptr", "seq", "alive_seq", "alive_at",
                 "missed", "word", "word_at", "condemned", "srtt", "rttvar",
                 "due_seq", "due_at", "timer", "wake")

    def __init__(self, shard_id: str, nic: Nic, rptr: RemotePointer,
                 now: int):
        self.shard_id = shard_id
        self.nic = nic
        self.rptr = rptr
        #: Sequence number of the last posted probe.
        self.seq = 0
        #: Sequence of the newest probe that proved life, and when it
        #: completed (watch time until one has).
        self.alive_seq = 0
        self.alive_at = now
        #: Sequences of the misses newer than :attr:`alive_seq`.
        self.missed: list[int] = []
        #: Highest word seen, and the completion time of a Read that saw
        #: it (the stall rule's reference point).
        self.word = -1
        self.word_at = 0
        self.condemned = False
        #: RFC 6298 round-trip estimators (None until the first sample).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        #: The newest probe under a deadline (0: none) and its deadline.
        self.due_seq = 0
        self.due_at = 0
        self.timer = None
        self.wake = None


class Prober:
    """Probe heartbeat words from one coordinator NIC.

    ``on_condemn(target, silence_ns)`` is called at each condemnation
    with the condemned :class:`_Target` and the time since its last
    proof of life."""

    def __init__(self, sim: Simulator, nic: Nic, period_ns: int,
                 misses: int, bump_ns: int,
                 on_condemn: Optional[Callable[[_Target, int], None]] = None):
        self.sim = sim
        self.nic = nic
        self.period_ns = period_ns
        self.misses = misses
        self.bump_ns = bump_ns
        self.on_condemn = on_condemn
        self._targets: dict[str, _Target] = {}
        #: One RC queue pair per probed NIC, made on first use.
        self._qps: dict[int, QueuePair] = {}
        self._condemned = Gate(sim)
        self._running = True
        self._timer = sim.pooled_timer()
        self._tick()

    # -- targets -----------------------------------------------------------
    def watch(self, shard_id: str, nic: Nic, rptr: RemotePointer) -> None:
        """Start probing ``shard_id``'s heartbeat word at ``rptr``."""
        target = _Target(shard_id, nic, rptr, self.sim.now)
        target.timer = self.sim.pooled_timer()
        target.wake = partial(self._due, target)
        self._targets[shard_id] = target

    def forget(self, shard_id: str) -> Optional[_Target]:
        """Stop probing ``shard_id`` (it was deposed); returns the target
        dropped, if it was watched."""
        return self._targets.pop(shard_id, None)

    def watched(self) -> set[str]:
        return set(self._targets)

    def condemned(self) -> list[str]:
        """Condemned targets still watched, in id order."""
        return sorted(sid for sid, t in self._targets.items()
                      if t.condemned)

    def condemnation(self) -> Event:
        """An event that fires at the next condemnation."""
        return self._condemned.wait()

    def deadline_ns(self, shard_id: str) -> Optional[int]:
        """D of the watched ``shard_id``: how long its next probe is given
        (None before its first round-trip sample)."""
        return self._deadline(self._targets[shard_id])

    def path_deadline_ns(self, nic: Nic) -> int:
        """How long a round trip to ``nic`` is given: the longest
        deadline of a target watched there, floored at D_floor."""
        deadlines = [self._deadline(t) for t in self._targets.values()
                     if t.nic is nic]
        return max([PROBE_DEADLINE_FLOOR_NS]
                   + [d for d in deadlines if d is not None])

    def post_write(self, nic: Nic, rptr: RemotePointer, data: bytes) -> None:
        """One unsignaled Write of ``data`` at ``rptr`` on ``nic``, on the
        probe queue pair; one that cannot be posted is dropped (its
        receiver's silence tells the caller)."""
        try:
            self._qp(nic).post_write(rptr, data, signaled=False)
        except QpError:
            self._drop_qp(nic)

    def stop(self) -> None:
        """Stop probing and tear down every queue pair (leader change)."""
        self._running = False
        self._targets.clear()
        for qp in self._qps.values():
            self.nic.fabric.disconnect(qp)
        self._qps.clear()

    # -- the probe loop ------------------------------------------------------
    def _qp(self, nic: Nic) -> QueuePair:
        qp = self._qps.get(nic.nic_id)
        if qp is None:
            qp, _peer = self.nic.fabric.connect(self.nic, nic)
            self._qps[nic.nic_id] = qp
        return qp

    def _drop_qp(self, nic: Nic) -> None:
        qp = self._qps.pop(nic.nic_id, None)
        if qp is not None:
            self.nic.fabric.disconnect(qp)

    def _judged(self, target: _Target) -> bool:
        """True once ``target`` needs no more probes: condemned,
        forgotten, or the prober stopped."""
        return (target.condemned
                or self._targets.get(target.shard_id) is not target)

    def _tick(self, _ev: Optional[Event] = None) -> None:
        if not self._running:
            return
        for target in self._targets.values():
            if not target.condemned:
                self._post(target)
        self._timer.rearm(self.period_ns).callbacks.append(self._tick)

    def _deadline(self, target: _Target) -> Optional[int]:
        if target.srtt is None:
            return None
        return max(PROBE_DEADLINE_FLOOR_NS,
                   int(target.srtt + 4 * target.rttvar))

    def _post(self, target: _Target, reads: int = 1) -> None:
        target.seq += 1
        seq, posted = target.seq, self.sim.now
        try:
            qp = self._qp(target.nic)
            events = [qp.post_read(target.rptr) for _ in range(reads)]
        except QpError:
            # The queue pair cannot post (torn down, or the word's rkey no
            # longer resolves): a miss; the re-probe reconnects.
            self._drop_qp(target.nic)
            self._miss(target, seq)
            return
        for ev in events:
            ev.callbacks.append(
                lambda e: self._done(target, seq, posted, e.value))
        deadline = self._deadline(target)
        if deadline is not None:
            # One deadline per target, the newest probe's; the timer is
            # re-armed lazily if it is already set for an earlier one.
            target.due_seq, target.due_at = seq, posted + deadline
            if target.timer.idle:
                target.timer.rearm(deadline).callbacks.append(target.wake)

    def _due(self, target: _Target, _ev: Event) -> None:
        seq = target.due_seq
        if not seq or self._judged(target):
            return
        left = target.due_at - self.sim.now
        if left > 0:
            target.timer.rearm(left).callbacks.append(target.wake)
            return
        target.due_seq = 0
        self._miss(target, seq)  # overdue

    def _done(self, target: _Target, seq: int, posted: int, wc) -> None:
        if self._judged(target):
            return
        if target.due_seq == seq:
            target.due_seq = 0
        if wc.status is not WcStatus.SUCCESS:
            self._miss(target, seq)
            return
        now = self.sim.now
        rtt = now - posted
        if target.srtt is None:
            target.srtt, target.rttvar = float(rtt), rtt / 2
        else:
            target.rttvar += (abs(target.srtt - rtt) - target.rttvar) / 4
            target.srtt += (rtt - target.srtt) / 8
        word = int.from_bytes(wc.data, "little")
        if word > target.word:
            baseline = target.word < 0
            target.word, target.word_at = word, now
            if baseline:
                return  # one snapshot proves nothing about a frozen word
            # Snapshots are taken in post order (one FIFO responder), so a
            # higher word is also a newer probe.
            if seq > target.alive_seq:
                target.alive_seq, target.alive_at = seq, now
            target.missed = [s for s in target.missed if s > seq]
        elif word == target.word and posted - target.word_at > self.bump_ns:
            # Stalled: the bumper is gone.  This Read becomes the stall
            # rule's reference, so the next one is conclusive only once
            # another bump period has passed.
            target.word_at = now
            self._miss(target, seq, stalled=True)

    def _miss(self, target: _Target, seq: int, stalled: bool = False) -> None:
        if seq <= target.alive_seq or seq in target.missed:
            return  # older than the last proof of life, or counted already
        target.missed.append(seq)
        if len(target.missed) >= self.misses:
            target.condemned = True
            if self.on_condemn is not None:
                self.on_condemn(target, self.sim.now - target.alive_at)
            self._condemned.fire()
        elif stalled:
            self.sim.timeout(self.bump_ns + 1).callbacks.append(
                lambda _e: self._judged(target) or self._post(target))
        else:
            self._post(target, REPROBE_READS)
