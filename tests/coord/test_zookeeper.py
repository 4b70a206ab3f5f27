"""ZooKeeper model: tree ops, sessions, ephemerals, watches."""

import pytest

from repro.config import CoordConfig
from repro.coord import ZkError, ZooKeeper
from repro.sim import Simulator


@pytest.fixture()
def zk():
    sim = Simulator()
    return sim, ZooKeeper(sim, CoordConfig())


def go(sim, gen):
    return sim.run(until=sim.process(gen))


def test_create_get_set_delete(zk):
    sim, z = zk
    s = z.connect("t")

    def app():
        yield from s.create("/a", b"one")
        data, version = yield from s.get_data("/a")
        assert (data, version) == (b"one", 0)
        v = yield from s.set_data("/a", b"two")
        assert v == 1
        data, version = yield from s.get_data("/a")
        assert (data, version) == (b"two", 1)
        yield from s.delete("/a")

    go(sim, app())
    assert not z.node_exists("/a")
    assert sim.now > 0  # ops cost quorum rounds


def test_create_duplicate_and_missing_parent(zk):
    sim, z = zk
    s = z.connect()

    def app():
        yield from s.create("/a")
        with pytest.raises(ZkError):
            yield from s.create("/a")
        with pytest.raises(ZkError):
            yield from s.create("/nope/child")
        with pytest.raises(ZkError):
            yield from s.get_data("/ghost")
        with pytest.raises(ZkError):
            yield from s.delete("/ghost")

    go(sim, app())


def test_delete_nonempty_rejected(zk):
    sim, z = zk
    s = z.connect()

    def app():
        yield from s.create("/a")
        yield from s.create("/a/b")
        with pytest.raises(ZkError):
            yield from s.delete("/a")
        yield from s.delete("/a/b")
        yield from s.delete("/a")

    go(sim, app())


def test_sequential_nodes(zk):
    sim, z = zk
    s = z.connect()
    got = []

    def app():
        yield from s.create("/q")
        for _ in range(3):
            got.append((yield from s.create("/q/n-", sequential=True)))
        children = yield from s.get_children("/q")
        return children

    children = go(sim, app())
    assert got == ["/q/n-0000000001", "/q/n-0000000002", "/q/n-0000000003"]
    assert children == sorted(c.rsplit("/", 1)[1] for c in got)


def test_ephemeral_removed_on_session_expiry(zk):
    sim, z = zk
    cfg = z.config
    s = z.connect("dying")

    def app():
        yield from s.create("/e", ephemeral=True)

    go(sim, app())
    assert z.node_exists("/e")
    # No heartbeats: expire after session_timeout (+ sweep period).
    sim.run(until=sim.now + cfg.session_timeout_ns + 2 * cfg.heartbeat_ns)
    assert not z.node_exists("/e")
    assert not s.alive


def test_keepalive_prevents_expiry(zk):
    sim, z = zk
    s = z.connect("living")
    stop = {"flag": True}

    def app():
        yield from s.create("/e", ephemeral=True)

    go(sim, app())
    sim.process(s.keepalive(while_alive=lambda: stop["flag"]))
    sim.run(until=sim.now + 5 * z.config.session_timeout_ns)
    assert z.node_exists("/e") and s.alive
    stop["flag"] = False
    sim.run(until=sim.now + 3 * z.config.session_timeout_ns)
    assert not z.node_exists("/e")


def test_expired_session_cannot_operate(zk):
    sim, z = zk
    s = z.connect()
    sim.run(until=2 * z.config.session_timeout_ns + z.config.heartbeat_ns)

    def app():
        with pytest.raises(ZkError):
            yield from s.create("/x")

    go(sim, app())


def test_watch_deleted_and_children(zk):
    sim, z = zk
    s = z.connect()
    fired = []

    def app():
        yield from s.create("/w")
        yield from s.create("/w/child")
        del_watch = z.watch("/w/child", "deleted")
        kid_watch = z.watch("/w", "children")
        yield from s.delete("/w/child")
        ev = yield del_watch
        fired.append(("deleted", ev.path))
        ev = yield kid_watch
        fired.append(("children", ev.path))

    go(sim, app())
    assert ("deleted", "/w/child") in fired
    assert ("children", "/w") in fired


def test_watch_kind_validated(zk):
    _, z = zk
    for kind in ("sideways", "created", "data"):
        with pytest.raises(ValueError):
            z.watch("/a", kind)
