"""One-sided heartbeat probes: the SWAT leader's failure detector.

Every primary shard keeps an 8 B heartbeat word in a region registered on
its NIC and bumps it every ``bump_ns`` while its process lives
(:meth:`repro.core.shard.Shard.heartbeat`).  The :class:`Prober` runs on
the SWAT coordinator machine: it holds one RC queue pair to each machine
it probes and, every ``period_ns``, posts one RDMA Read of each watched
word.  Nothing else tells it whether a target lives — it sees exactly what
the Reads return.

A probe **misses** when

* its completion fails — ``RETRY_EXC`` (the target NIC is dead, or the
  Read was dropped), ``REM_ACCESS_ERR``, or the queue pair can no longer
  post; or
* it succeeds but the word has not advanced although the bumper must have
  bumped since the Read that saw that value.  The two DMA snapshots lie
  inside their Reads' [post, completion] spans, so a Read posted more than
  ``bump_ns`` after the completion of the Read it is compared with has a
  bump strictly between them whatever the bump and probe phases are.  A
  Read posted sooner is *inconclusive*: neither a miss nor proof of life.

A success whose word advanced past an earlier snapshot is proof of life
and clears the misses of every older probe (the first snapshot of a
target is only its baseline).  ``misses`` probe misses newer than the last proof of
life **condemn** the target: it is no longer probed and the owner is
signalled (:meth:`Prober.condemnation`).  A wedged CPU that still bumps is
never condemned (gray failure stays undetected), and a dropped Read is a
miss like any other, so a verdict can be wrong: SWAT fences what it
deposes (see :mod:`repro.coord.swat`).
"""

from __future__ import annotations

from typing import Optional

from ..rdma import Nic, QpError, QueuePair, RemotePointer, WcStatus
from ..sim import Gate, Simulator
from ..sim.events import Event

__all__ = ["Prober"]


class _Target:
    """Probe state of one watched heartbeat word."""

    __slots__ = ("shard_id", "nic", "rptr", "seq", "alive_seq", "missed",
                 "word", "word_at", "condemned", "verdicts")

    def __init__(self, shard_id: str, nic: Nic, rptr: RemotePointer):
        self.shard_id = shard_id
        self.nic = nic
        self.rptr = rptr
        #: Sequence number of the last posted probe.
        self.seq = 0
        #: Sequence of the newest probe that proved life.
        self.alive_seq = 0
        #: Sequences of the misses newer than :attr:`alive_seq`.
        self.missed: list[int] = []
        #: Highest word seen, and the completion time of the first Read
        #: that saw it (the stall rule's reference point).
        self.word = -1
        self.word_at = 0
        self.condemned = False
        #: Events awaiting the next conclusive result (:meth:`verdict`).
        self.verdicts: list[Event] = []


class Prober:
    """Probe heartbeat words from one coordinator NIC."""

    def __init__(self, sim: Simulator, nic: Nic, period_ns: int,
                 misses: int, bump_ns: int):
        self.sim = sim
        self.nic = nic
        self.period_ns = period_ns
        self.misses = misses
        self.bump_ns = bump_ns
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
        self._targets[shard_id] = _Target(shard_id, nic, rptr)

    def forget(self, shard_id: str) -> None:
        """Stop probing ``shard_id`` (it was deposed)."""
        self._targets.pop(shard_id, None)

    def watched(self) -> set[str]:
        return set(self._targets)

    def condemned(self) -> list[str]:
        """Condemned targets still watched, in id order."""
        return sorted(sid for sid, t in self._targets.items()
                      if t.condemned)

    def condemnation(self) -> Event:
        """An event that fires at the next condemnation."""
        return self._condemned.wait()

    def verdict(self, shard_id: str) -> Event:
        """An event that fires True at the next proof of life of the
        watched ``shard_id`` and False once it is condemned (at once if
        it already is)."""
        ev = Event(self.sim)
        target = self._targets[shard_id]
        if target.condemned:
            ev.succeed(False)
        else:
            target.verdicts.append(ev)
        return ev

    def reach(self, nic: Nic, rptr: RemotePointer):
        """One probe Read of ``rptr`` on ``nic``, outside the period
        (generator): True if it completes successfully."""
        try:
            wc = yield self._qp(nic).post_read(rptr)
        except QpError:
            self._drop_qp(nic)
            return False
        return wc.status is WcStatus.SUCCESS

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

    def _tick(self, _ev: Optional[Event] = None) -> None:
        if not self._running:
            return
        for target in self._targets.values():
            if not target.condemned:
                self._post(target)
        self._timer.rearm(self.period_ns).callbacks.append(self._tick)

    def _post(self, target: _Target) -> None:
        target.seq += 1
        seq, posted = target.seq, self.sim.now
        try:
            ev = self._qp(target.nic).post_read(target.rptr)
        except QpError:
            # The queue pair cannot post (torn down, or the word's rkey no
            # longer resolves): a miss; the next period reconnects.
            self._drop_qp(target.nic)
            self._miss(target, seq)
            return
        ev.callbacks.append(
            lambda e: self._done(target, seq, posted, e.value))

    def _done(self, target: _Target, seq: int, posted: int, wc) -> None:
        if target.condemned \
                or self._targets.get(target.shard_id) is not target:
            return  # judged already, forgotten, or the prober stopped
        if wc.status is not WcStatus.SUCCESS:
            self._miss(target, seq)
            return
        word = int.from_bytes(wc.data, "little")
        if word > target.word:
            baseline = target.word < 0
            target.word, target.word_at = word, self.sim.now
            if baseline:
                return  # one snapshot proves nothing about a frozen word
            # Snapshots are taken in post order (one FIFO responder), so a
            # higher word is also a newer probe.
            target.alive_seq = seq
            target.missed = [s for s in target.missed if s > seq]
            self._conclude(target, True)
        elif word == target.word and posted - target.word_at > self.bump_ns:
            self._miss(target, seq)  # stalled: the bumper is gone

    def _miss(self, target: _Target, seq: int) -> None:
        if seq <= target.alive_seq:
            return  # an older probe than the last proof of life
        target.missed.append(seq)
        if len(target.missed) >= self.misses:
            target.condemned = True
            self._conclude(target, False)
            self._condemned.fire()

    def _conclude(self, target: _Target, alive: bool) -> None:
        verdicts, target.verdicts = target.verdicts, []
        for ev in verdicts:
            ev.succeed(alive)
