"""A ZooKeeper-like coordination service (§5.1).

Models the 3–5 node ensemble HydraDB deploys for membership: a znode tree
with versioned data, ephemeral and sequential nodes, sessions expired by
missed heartbeats, and one-shot watches.  Every mutating or reading
operation pays ``zk_op_ns`` (a quorum round on the ensemble); the ensemble
itself is abstracted — HydraDB only consumes its client semantics.

All operations are generator methods: ``path = yield from zk.create(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from ..config import CoordConfig
from ..sim import Simulator
from ..sim.events import Event

__all__ = ["ZooKeeper", "ZkSession", "ZkError", "WatchEvent"]


class ZkError(Exception):
    """NodeExists / NoNode / NotEmpty / SessionExpired."""


@dataclass
class WatchEvent:
    """Delivered to a one-shot watch when its condition fires."""

    path: str
    kind: str  # "deleted" | "children"


@dataclass
class _Znode:
    data: bytes = b""
    version: int = 0
    ephemeral_session: Optional[int] = None
    children: set[str] = field(default_factory=set)
    seq_counter: int = 0


class _Session:
    def __init__(self, session_id: int, owner: str, now: int):
        self.session_id = session_id
        self.owner = owner
        self.last_heartbeat = now
        self.alive = True


class ZooKeeper:
    """The ensemble: znode tree + sessions + watches."""

    def __init__(self, sim: Simulator, config: CoordConfig):
        self.sim = sim
        self.config = config
        self._nodes: dict[str, _Znode] = {"/": _Znode()}
        self._sessions: dict[int, _Session] = {}
        self._session_ids = count(1)
        #: (path, kind) -> list of one-shot events.
        self._watches: dict[tuple[str, str], list[Event]] = {}
        #: Optional chaos hook (:class:`repro.chaos.FaultInjector`): when
        #: set, watch delivery may be delayed and sessions force-expired.
        self.fault_injector = None
        self._expiry_proc = sim.process(self._expiry_loop(), name="zk.expiry")

    # -- sessions ---------------------------------------------------------
    def connect(self, owner: str = "") -> "ZkSession":
        """Open a new session (heartbeat it or it expires)."""
        sid = next(self._session_ids)
        self._sessions[sid] = _Session(sid, owner, self.sim.now)
        return ZkSession(self, sid)

    def _session(self, sid: int) -> _Session:
        sess = self._sessions.get(sid)
        if sess is None or not sess.alive:
            raise ZkError(f"session {sid} expired")
        return sess

    def _expire_session(self, sess: _Session) -> None:
        sess.alive = False
        for path in [p for p, n in self._nodes.items()
                     if n.ephemeral_session == sess.session_id]:
            if path in self._nodes:  # may have been removed via a parent
                self._delete_node(path)

    def _expiry_loop(self):
        while True:
            yield self.sim.timeout(self.config.heartbeat_ns)
            deadline = self.sim.now - self.config.session_timeout_ns
            for sess in list(self._sessions.values()):
                if sess.alive and sess.last_heartbeat < deadline:
                    self._expire_session(sess)

    # -- watches ---------------------------------------------------------
    def watch(self, path: str, kind: str) -> Event:
        """One-shot watch; fires with a :class:`WatchEvent`."""
        if kind not in ("deleted", "children"):
            raise ValueError(f"unknown watch kind {kind!r}")
        ev = Event(self.sim)
        self._watches.setdefault((path, kind), []).append(ev)
        return ev

    def _fire(self, path: str, kind: str) -> None:
        events = self._watches.pop((path, kind), [])
        if not events:
            return
        delay = 0
        if self.fault_injector is not None:
            delay = self.fault_injector.watch_delay(path, kind)
        if delay > 0:
            # Injected slow watch delivery: the notification sat in the
            # ensemble/client channel before reaching the watcher.
            timer = self.sim.timeout(delay)

            def _deliver(_e: Event) -> None:
                for ev in events:
                    ev.succeed(WatchEvent(path=path, kind=kind))

            timer.callbacks.append(_deliver)
            return
        for ev in events:
            ev.succeed(WatchEvent(path=path, kind=kind))

    # -- chaos helpers -----------------------------------------------------
    def expire_sessions_of(self, owner: str) -> int:
        """Force-expire every live session registered by ``owner``.

        Models the ensemble dropping a client (partition, GC pause past
        the session timeout).  The owner's ephemerals vanish and its next
        operation raises ``SessionExpired``.  Returns how many sessions
        were expired.  Chaos-injection entry point.
        """
        expired = 0
        for sess in list(self._sessions.values()):
            if sess.alive and sess.owner == owner:
                self._expire_session(sess)
                expired += 1
        return expired

    # -- tree primitives (no latency; sessions add it) ----------------------
    @staticmethod
    def _parent(path: str) -> str:
        parent = path.rsplit("/", 1)[0]
        return parent or "/"

    def _create_node(self, path: str, data: bytes,
                     ephemeral_session: Optional[int]) -> None:
        if path in self._nodes:
            raise ZkError(f"NodeExists: {path}")
        parent = self._parent(path)
        pnode = self._nodes.get(parent)
        if pnode is None:
            raise ZkError(f"NoNode (parent): {parent}")
        self._nodes[path] = _Znode(data=data,
                                   ephemeral_session=ephemeral_session)
        pnode.children.add(path.rsplit("/", 1)[1])
        self._fire(parent, "children")

    def _delete_node(self, path: str) -> None:
        node = self._nodes.get(path)
        if node is None:
            raise ZkError(f"NoNode: {path}")
        if node.children:
            raise ZkError(f"NotEmpty: {path}")
        del self._nodes[path]
        parent = self._parent(path)
        if parent in self._nodes:
            self._nodes[parent].children.discard(path.rsplit("/", 1)[1])
        self._fire(path, "deleted")
        self._fire(parent, "children")

    def node_exists(self, path: str) -> bool:
        """Instant (no-latency) existence check — test/debug helper."""
        return path in self._nodes


class ZkSession:
    """A client handle; all ops are generators costing one quorum round."""

    def __init__(self, zk: ZooKeeper, session_id: int):
        self.zk = zk
        self.session_id = session_id

    @property
    def alive(self) -> bool:
        """Whether the session is still live at the ensemble."""
        sess = self.zk._sessions.get(self.session_id)
        return bool(sess and sess.alive)

    def _op_delay(self):
        return self.zk.sim.timeout(self.zk.config.zk_op_ns)

    def heartbeat(self) -> None:
        """Instant local stamp (the wire cost rides on other ops/pings)."""
        self.zk._session(self.session_id).last_heartbeat = self.zk.sim.now

    def keepalive(self, while_alive=lambda: True):
        """Run as a process: heartbeat until ``while_alive()`` is False."""
        while while_alive() and self.alive:
            self.heartbeat()
            yield self.zk.sim.timeout(self.zk.config.heartbeat_ns)

    # -- operations --------------------------------------------------------
    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequential: bool = False):
        """Create a znode; returns the (possibly sequence-suffixed) path."""
        yield self._op_delay()
        self.zk._session(self.session_id)  # validates liveness
        if sequential:
            parent = self.zk._parent(path)
            pnode = self.zk._nodes.get(parent)
            if pnode is None:
                raise ZkError(f"NoNode (parent): {parent}")
            pnode.seq_counter += 1
            path = f"{path}{pnode.seq_counter:010d}"
        self.zk._create_node(
            path, data, self.session_id if ephemeral else None)
        return path

    def delete(self, path: str):
        """Delete a childless znode."""
        yield self._op_delay()
        self.zk._session(self.session_id)
        self.zk._delete_node(path)

    def set_data(self, path: str, data: bytes):
        """Write znode data; returns its new version."""
        yield self._op_delay()
        self.zk._session(self.session_id)
        node = self.zk._nodes.get(path)
        if node is None:
            raise ZkError(f"NoNode: {path}")
        node.data = data
        node.version += 1
        return node.version

    def get_data(self, path: str):
        """Returns ``(data, version)``."""
        yield self._op_delay()
        self.zk._session(self.session_id)
        node = self.zk._nodes.get(path)
        if node is None:
            raise ZkError(f"NoNode: {path}")
        return node.data, node.version

    def get_children(self, path: str):
        """Sorted child names of a znode."""
        yield self._op_delay()
        self.zk._session(self.session_id)
        node = self.zk._nodes.get(path)
        if node is None:
            raise ZkError(f"NoNode: {path}")
        return sorted(node.children)
