"""The SWAT failure detector: one-sided Reads of each primary's heartbeat
word, K misses to a verdict, and a fence before every promotion."""

import ast
from pathlib import Path

from repro import HydraCluster, SimConfig
from repro.coord.swat import (PROBE_MISSES, SHARDS_PATH, bump_period_ns,
                              probe_period_ns)
from repro.protocol import Status
from repro.replication import SecondaryShard

MS = 1_000_000
S = 1_000_000_000


def ha_cluster(replicas=1, n_client_machines=1):
    cfg = SimConfig().with_overrides(
        replication={"replicas": replicas},
        client={"op_timeout_ns": 5 * MS},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1,
                           n_client_machines=n_client_machines)
    ha = cluster.enable_ha()
    cluster.start()
    cluster.sim.run(until=30 * MS)  # leader elected, word probed
    return cluster, ha


def verdict_times(cluster, ha) -> list[int]:
    """Simulated ns of the leader's next condemnation, once it happens."""
    times: list[int] = []
    ha.swat.prober.condemnation().callbacks.append(
        lambda _ev: times.append(cluster.sim.now))
    return times


def fenced(cluster) -> int:
    return cluster.metrics.counter("swat.fenced").value


def test_machine_kill_gets_a_verdict_within_k_periods_plus_retry_timeout():
    cluster, ha = ha_cluster()
    cfg = cluster.config
    times = verdict_times(cluster, ha)
    killed_at = cluster.sim.now
    cluster.servers[0].kill()
    cluster.sim.run(until=killed_at + 100 * MS)
    bound = PROBE_MISSES * probe_period_ns(cfg) + cfg.fabric.retry_timeout_ns
    assert len(times) == 1
    assert times[0] - killed_at <= bound
    # Misses on a dead NIC are RETRY_EXC completions: none lands before
    # the retry timeout of the first Read posted after the kill.
    assert times[0] - killed_at > cfg.fabric.retry_timeout_ns
    assert ha.swat.failovers == 1 and fenced(cluster) == 1


def test_process_kill_with_nic_up_gets_a_verdict_from_a_stalled_word():
    cluster, ha = ha_cluster()
    cfg = cluster.config
    shard = cluster.routing.resolve(cluster.routing.shard_ids()[0])
    times = verdict_times(cluster, ha)
    killed_at = cluster.sim.now
    shard.kill()  # the process dies; the NIC still answers every Read
    cluster.sim.run(until=killed_at + 100 * MS)
    assert len(times) == 1
    # Every probe completed, so the verdict came from the frozen word: at
    # most one Read after the kill still sees a fresh bump, then K stall
    # misses, each one period apart.
    assert times[0] - killed_at <= (PROBE_MISSES + 1) * probe_period_ns(cfg) \
        + bump_period_ns(cfg)
    assert times[0] - killed_at < PROBE_MISSES * probe_period_ns(cfg) \
        + cfg.fabric.retry_timeout_ns
    assert ha.swat.failovers == 1 and fenced(cluster) == 1
    promoted = cluster.routing.resolve(shard.shard_id)
    assert promoted is not shard

    client = cluster.client()

    def app():
        assert (yield from client.put(b"k", b"v")) is Status.OK
        assert (yield from client.get(b"k")) == b"v"

    cluster.run(app())


def test_primary_dead_before_its_agent_registers_still_fails_over():
    """No znode ever advertised the word: SWAT probes the word where the
    shard was placed, and the frozen word condemns it."""
    cfg = SimConfig().with_overrides(replication={"replicas": 1},
                                     client={"op_timeout_ns": 5 * MS})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    ha = cluster.enable_ha()
    cluster.start()
    cluster.sim.run(until=500_000)  # before the agent's first ZK round
    shard_id = cluster.routing.shard_ids()[0]
    assert not ha.zk.node_exists(f"{SHARDS_PATH}/{shard_id}")
    cluster.servers[0].kill()
    cluster.sim.run(until=100 * MS)
    assert ha.swat.failovers == 1 and fenced(cluster) == 1
    assert ha.zk.node_exists(f"{SHARDS_PATH}/{shard_id}")


def test_zk_expiry_of_a_live_primary_reregisters_it_without_failover():
    cluster, ha = ha_cluster()
    shard_id = cluster.routing.shard_ids()[0]
    original = cluster.routing.resolve(shard_id)
    assert ha.zk.expire_sessions_of(shard_id) == 1
    cluster.sim.run(until=cluster.sim.now + 4 * S)
    assert cluster.routing.resolve(shard_id) is original
    assert ha.swat.failovers == 0 and fenced(cluster) == 0
    assert ha.zk.node_exists(f"{SHARDS_PATH}/{shard_id}")
    assert shard_id in ha.swat.prober.watched()
    assert not ha.swat.prober.condemned()


def test_gray_primary_gets_no_verdict_while_gray():
    """Stated limit: gray failure is undetected.  The wedged shard stops
    sweeping, but its process still bumps its heartbeat word."""
    cluster, ha = ha_cluster()
    shard_id = cluster.routing.shard_ids()[0]
    shard = cluster.routing.resolve(shard_id)
    times = verdict_times(cluster, ha)
    shard.gray_fail()
    cluster.sim.run(until=cluster.sim.now + 500 * MS)
    assert times == [] and not ha.swat.prober.condemned()
    assert ha.swat.failovers == 0 and fenced(cluster) == 0
    shard.gray_recover()
    client = cluster.client()

    def app():
        assert (yield from client.put(b"k", b"v")) is Status.OK

    cluster.run(app())
    assert cluster.routing.resolve(shard_id) is shard


class _DropReadsTo:
    """Fault hook: every one-sided Read to ``nic`` is dropped (so it
    fails with RETRY_EXC), every other verb is clean."""

    def __init__(self, nic):
        self.nic = nic
        self.dropped = 0

    def rdma_read_fault(self, nic, qp, region, offset, length):
        if qp.peer.nic is self.nic:
            self.dropped += 1
            return {"drop": True}
        return None

    def rdma_write_fault(self, nic, qp, region, offset, data):
        return None


def test_false_verdict_fences_the_live_primary_before_the_drain(
        monkeypatch):
    """Stated limit: a false verdict causes a fenced failover.  Reads to a
    live primary are all dropped, so its probes miss exactly as if it
    were dead; SWAT powers it off before the promoted secondary drains,
    and no acked write is lost or read stale afterwards."""
    cluster, ha = ha_cluster(n_client_machines=2)
    sim = cluster.sim
    shard_id = cluster.routing.shard_ids()[0]
    old = cluster.routing.resolve(shard_id)
    alive_at_drain: list[bool] = []
    drain = SecondaryShard.promote_drain

    def watched_drain(sec):
        alive_at_drain.append(old.alive)
        return drain(sec)

    monkeypatch.setattr(SecondaryShard, "promote_drain", watched_drain)
    promoted_at: list[int] = []
    cluster.route_change.wait().callbacks.append(
        lambda _ev: promoted_at.append(sim.now))

    n_keys = 16
    keys = [f"k{i:02d}".encode() for i in range(n_keys)]
    #: key -> [(issued, acked or None, value)], in issue order.
    writes: dict[bytes, list] = {k: [(-1, -1, b"v0")] for k in keys}
    stale_reads: list = []
    reads_after_promotion = {"n": 0}

    def preload():
        client = cluster.client()
        for key in keys:
            assert (yield from client.put(key, b"v0")) is Status.OK

    cluster.run(preload())
    sim.run(until=sim.now + 5 * MS)  # replication settles
    hook = _DropReadsTo(old.nic)
    cluster.fabric.fault_injector = hook
    end_at = sim.now + 30 * MS  # verdict ~5 ms in, route swap ~5 ms on

    def writer(cid, client):
        mine, seq = keys[cid::2], 0
        while sim.now < end_at:
            key = mine[seq % len(mine)]
            seq += 1
            value = f"c{cid}-{seq}".encode()
            entry = [sim.now, None, value]
            writes[key].append(entry)
            if (yield from client.put(key, value)) is Status.OK:
                entry[1] = sim.now
            yield sim.timeout(20_000)

    def admissible(key, value, issued) -> bool:
        history = writes[key]
        floor = max(i for i, (_t, acked, _v) in enumerate(history)
                    if acked is not None and acked <= issued)
        return any(v == value for _t, _a, v in history[floor:])

    def reader(client):
        i = 0
        while sim.now < end_at:
            key = keys[i % n_keys]
            i += 1
            issued = sim.now
            value = yield from client.get(key)
            if promoted_at and issued > promoted_at[0]:
                reads_after_promotion["n"] += 1
                if not admissible(key, value, issued):
                    stale_reads.append((key, value))
            yield sim.timeout(15_000)

    clients = [cluster.client(c % 2) for c in range(3)]
    cluster.run(writer(0, clients[0]), writer(1, clients[1]),
                reader(clients[2]))
    assert hook.dropped > 0
    assert ha.swat.failovers == 1 and fenced(cluster) == 1
    assert alive_at_drain == [False]  # fenced before the drain
    assert not old.alive
    new = cluster.routing.resolve(shard_id)
    assert new is not old and new.nic is not old.nic
    survivor = new.store.dump()
    acked_last = {k: [v for _t, a, v in h if a is not None][-1]
                  for k, h in writes.items()}
    assert {k: v for k, v in acked_last.items()
            if survivor.get(k) != v} == {}
    assert reads_after_promotion["n"] > 100
    assert stale_reads == []


def test_coord_reads_no_liveness_ground_truth():
    """The control plane decides only from what it can observe: no
    ``.alive`` read of a shard, NIC or machine anywhere in ``coord/``.
    A ZooKeeper session's own liveness is the one allowed ``.alive``
    (``self`` inside the ZooKeeper model is a session)."""
    coord = Path(__file__).resolve().parents[2] / "src" / "repro" / "coord"
    offenders = []
    for path in sorted(coord.glob("*.py")):
        sessions = {"session", "self.session", "sess"}
        if path.name == "zookeeper.py":
            sessions.add("self")
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "alive"
                    and isinstance(node.ctx, ast.Load)):
                owner = ast.unparse(node.value)
                if owner not in sessions:
                    offenders.append(f"{path.name}:{node.lineno} "
                                     f"{owner}.alive")
            elif isinstance(node, ast.Constant) and node.value == "alive":
                offenders.append(f"{path.name}:{node.lineno} 'alive'")
    assert offenders == []
