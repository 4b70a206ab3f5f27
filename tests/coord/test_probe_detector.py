"""The SWAT failure detector: one-sided Reads of each primary's heartbeat
word, each judged at an RTT-derived deadline, K misses to a verdict, and
a fence before every promotion."""

import ast
import random
from pathlib import Path

import pytest

from repro import HydraCluster, SimConfig
from repro.coord.probe import PROBE_DEADLINE_FLOOR_NS
from repro.coord.swat import (PROBE_MISSES, SHARDS_PATH, bump_period_ns,
                              probe_period_ns, verdict_bound_ns)
from repro.protocol import Status
from repro.rdma import MemoryRegion
from repro.rdma.memory import AccessViolation
from repro.replication import LogRecord, RecordType, SecondaryShard

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


#: Room for probe round trips (about 1.5 us each) in the verdict bounds.
RTT_SLACK_NS = 10_000


@pytest.mark.parametrize("phase_ns", [0, 250_000, 600_000, 999_000])
def test_machine_kill_is_condemned_within_p_plus_k_deadlines(
        phase_ns):
    """A dead NIC answers no Read: the first probe after the kill and its
    two re-probes each overrun D_floor, so the verdict lands within
    P + K·D_floor of the kill, whatever the probe phase, and long before
    the RC retry timeout of the first of them."""
    cluster, ha = ha_cluster()
    cfg = cluster.config
    cluster.sim.run(until=cluster.sim.now + phase_ns)
    shard_id = cluster.routing.shard_ids()[0]
    assert ha.swat.prober.deadline_ns(shard_id) == PROBE_DEADLINE_FLOOR_NS
    times = verdict_times(cluster, ha)
    killed_at = cluster.sim.now
    cluster.servers[0].kill()
    cluster.sim.run(until=killed_at + 100 * MS)
    assert len(times) == 1
    since = times[0] - killed_at
    assert since <= verdict_bound_ns(cfg) + RTT_SLACK_NS
    # K deadlines in a row, the first on a Read posted at most one round
    # trip before the kill.
    assert since >= PROBE_MISSES * PROBE_DEADLINE_FLOOR_NS - RTT_SLACK_NS
    assert since < cfg.fabric.retry_timeout_ns
    # SWAT tallies the silence from the last proof of life to the verdict.
    silence = cluster.metrics.tally("swat.verdict_ns")
    assert silence.count == 1
    assert PROBE_MISSES * PROBE_DEADLINE_FLOOR_NS <= silence.mean \
        <= since + probe_period_ns(cfg)
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
    # most one Read after the kill still sees a fresh bump, the next
    # periodic probe stalls, and each re-probe waits one bump period so
    # every one of the K stall misses covers a bump of its own.
    assert times[0] - killed_at <= 2 * probe_period_ns(cfg) \
        + (PROBE_MISSES - 1) * bump_period_ns(cfg) + RTT_SLACK_NS
    assert ha.swat.failovers == 1 and fenced(cluster) == 1
    promoted = cluster.routing.resolve(shard.shard_id)
    assert promoted is not shard

    client = cluster.client()

    def app():
        assert (yield from client.put(b"k", b"v")) is Status.OK
        assert (yield from client.get(b"k")) == b"v"

    cluster.run(app())


class _DelayHeartbeatReads:
    """Fault hook: Reads of ``nic``'s heartbeat word are delayed — by the
    next entry of ``script`` while it lasts, else with probability ``p``
    by 0.1-2 ms (the ``stale`` storm's read-delay window) — from
    ``start`` to ``end``; every other verb is clean."""

    def __init__(self, nic, start, end, p=0.0, script=(), seed=0):
        self.nic, self.start, self.end, self.p = nic, start, end, p
        self.script = list(script)
        self.rng = random.Random(seed)
        #: (post instant, delay) of every delayed Read.
        self.delayed: list[tuple[int, int]] = []

    def rdma_read_fault(self, nic, qp, region, offset, length):
        now = nic.sim.now
        if (qp.peer.nic is not self.nic or not region.name.endswith(".hb")
                or not self.start <= now < self.end):
            return None
        if self.script:
            delay = self.script.pop(0)
        elif self.rng.random() < self.p:
            delay = self.rng.randint(100_000, 2_000_000)
        else:
            return None
        self.delayed.append((now, delay))
        return {"delay_ns": delay}

    def rdma_write_fault(self, nic, qp, region, offset, data):
        return None


def test_live_target_with_delayed_probe_reads_is_never_condemned():
    """For one second, 45% of the probe Reads of a live primary are held
    back 0.1-2 ms, far past D_floor: its deadline stretches with the
    late round trips, and no run of overdue probes and re-probes
    condemns it.  Once the delays stop, D returns to its floor."""
    cluster, ha = ha_cluster()
    sim = cluster.sim
    shard_id = cluster.routing.shard_ids()[0]
    shard = cluster.routing.resolve(shard_id)
    prober = ha.swat.prober
    start, seq0 = sim.now, prober._targets[shard_id].seq
    hook = _DelayHeartbeatReads(shard.nic, start, start + 1_000 * MS,
                                p=0.45, seed=7)
    cluster.fabric.fault_injector = hook
    deadlines: list[int] = []

    def watch():
        while sim.now < start + 1_000 * MS:
            deadlines.append(prober.deadline_ns(shard_id))
            yield sim.timeout(probe_period_ns(cluster.config))

    sim.process(watch())
    times = verdict_times(cluster, ha)
    sim.run(until=start + 1_100 * MS)
    assert len(hook.delayed) > 300
    # Probes overran their deadline and were re-probed (more probes than
    # periods)...
    assert prober._targets[shard_id].seq - seq0 > 1_100
    assert max(deadlines) > 4 * PROBE_DEADLINE_FLOOR_NS
    # ...but the target was never condemned.
    assert times == [] and not prober.condemned()
    assert ha.swat.failovers == 0 and fenced(cluster) == 0
    assert cluster.routing.resolve(shard_id) is shard
    assert prober.deadline_ns(shard_id) == PROBE_DEADLINE_FLOOR_NS


def test_late_success_after_an_overdue_miss_clears_that_miss():
    """A probe held back 700 us misses its deadline, and so do its two
    re-probes (all four Reads held back 1.5 ms).  When the first probe's
    Read lands late with an advanced word, before the third deadline, it
    is proof of life, at its landing: its own miss is cleared, the
    first re-probe's stays, and the third deadline makes two misses, not
    a verdict."""
    cluster, ha = ha_cluster()
    sim = cluster.sim
    shard_id = cluster.routing.shard_ids()[0]
    shard = cluster.routing.resolve(shard_id)
    prober = ha.swat.prober
    target = prober._targets[shard_id]
    hook = _DelayHeartbeatReads(shard.nic, sim.now, sim.now + 10 * MS,
                                script=(700_000,) + (1_500_000,) * 4)
    cluster.fabric.fault_injector = hook
    while len(hook.delayed) < 3:
        sim.run(until=sim.now + 10_000)
    posted = hook.delayed[0][0]
    first = target.seq - 1  # the probe, then its two-Read re-probe
    sim.run(until=posted + 2 * PROBE_DEADLINE_FLOOR_NS - 1_000)
    assert target.missed == [first]  # the probe is overdue
    assert target.alive_seq < first and target.alive_at < posted
    sim.run(until=posted + 700_000 + RTT_SLACK_NS)
    assert target.missed == [first + 1] and target.alive_seq == first
    assert 700_000 <= target.alive_at - posted <= 700_000 + RTT_SLACK_NS
    sim.run(until=posted + 3 * PROBE_DEADLINE_FLOOR_NS + RTT_SLACK_NS)
    assert len(hook.delayed) == 5  # the third deadline re-probed...
    assert target.missed == []  # ...and its Reads proved life at once
    sim.run(until=sim.now + 20 * MS)
    assert not prober.condemned() and ha.swat.failovers == 0


def test_a_path_turning_slow_all_at_once_is_condemned():
    """Stated limit: when every probe Read of a live primary suddenly
    takes 1.5 ms, the probe and both re-probes overrun D_floor before
    the first late round trip lands, exactly as on a dead NIC: a false
    verdict, K deadlines after the first delayed post, and a fence."""
    cluster, ha = ha_cluster()
    sim = cluster.sim
    shard = cluster.routing.resolve(cluster.routing.shard_ids()[0])
    hook = _DelayHeartbeatReads(shard.nic, sim.now, sim.now + 100 * MS,
                                script=(1_500_000,) * 100)
    cluster.fabric.fault_injector = hook
    times = verdict_times(cluster, ha)
    sim.run(until=sim.now + 100 * MS)
    assert len(times) == 1
    assert times[0] - hook.delayed[0][0] == \
        PROBE_MISSES * PROBE_DEADLINE_FLOOR_NS
    assert ha.swat.failovers == 1 and fenced(cluster) == 1


def test_primary_killed_before_a_leader_is_elected_still_fails_over():
    """The registration exists from the start, before any leader: the
    first leader probes the advertised word of a primary already dead,
    and its silence condemns it."""
    cfg = SimConfig().with_overrides(replication={"replicas": 1},
                                     client={"op_timeout_ns": 5 * MS})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    ha = cluster.enable_ha()
    cluster.start()
    cluster.sim.run(until=500_000)  # before the first ZK round ends
    shard_id = cluster.routing.shard_ids()[0]
    assert ha.zk.node_exists(f"{SHARDS_PATH}/{shard_id}")
    assert ha.swat.leader_id is None and ha.swat.prober is None
    cluster.servers[0].kill()
    cluster.sim.run(until=100 * MS)
    assert ha.swat.failovers == 1 and fenced(cluster) == 1
    promoted = cluster.routing.resolve(shard_id)
    assert ha.swat.prober._targets[shard_id].nic is promoted.nic


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


class _LastRecordsInFlight(_DropReadsTo):
    """As :class:`_DropReadsTo`, and while ``armed()`` every ring Write
    ``nic`` posts is delayed by ``delay_ns``: the primary's last records
    are still in flight when it is fenced.  Responses go out at once, as
    soon as the shard releases them."""

    def __init__(self, nic, armed, delay_ns):
        super().__init__(nic)
        self.armed = armed
        self.delay_ns = delay_ns
        self.delayed = 0

    def rdma_write_fault(self, nic, qp, region, offset, data):
        if nic is self.nic and region.name.endswith(".ring") \
                and self.armed():
            self.delayed += 1
            return {"delay_ns": self.delay_ns}
        return None


def _ring_record(data: bytes):
    """The replication record a ring Write carries (None: a wrap marker
    or an ack request)."""
    size = int.from_bytes(data[:8], "little") & 0xFFFFFFFF
    if size == 0 or 16 + size > len(data):
        return None
    record = LogRecord.decode(data[8:8 + size])
    return record if record.rtype is RecordType.DATA else None


def _false_verdict_failover(monkeypatch, delay_ns):
    """Reads to a live primary are all dropped, so its probes miss
    exactly as if it were dead, and the ring Writes it posts once one
    more miss condemns it are delayed by ``delay_ns``.  Two writers and a
    reader run through the fenced failover that follows; returns what
    the checks need."""
    cluster, ha = ha_cluster(n_client_machines=2)
    sim = cluster.sim
    shard_id = cluster.routing.shard_ids()[0]
    old = cluster.routing.resolve(shard_id)
    alive_at_drain: list[bool] = []
    drain = SecondaryShard.promote_drain
    drained: list = []  # (when, the store the new primary starts from)

    def watched_drain(sec):
        alive_at_drain.append(old.alive)
        applied = drain(sec)
        drained.append((sim.now, sec.store.dump()))
        return applied

    monkeypatch.setattr(SecondaryShard, "promote_drain", watched_drain)
    #: (key, value) of every replication record a revoked ring refused.
    refused: list = []
    dma_write = MemoryRegion.dma_write

    def watched_dma_write(region, rkey, offset, data):
        try:
            return dma_write(region, rkey, offset, data)
        except AccessViolation:
            record = _ring_record(data) if region.name.endswith(".ring") \
                else None
            if record is not None:
                refused.append((record.key, record.value))
            raise

    monkeypatch.setattr(MemoryRegion, "dma_write", watched_dma_write)
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

    def armed():
        target = ha.swat.prober._targets.get(shard_id)
        return target is not None \
            and len(target.missed) == PROBE_MISSES - 1

    hook = _LastRecordsInFlight(old.nic, armed, delay_ns)
    cluster.fabric.fault_injector = hook
    end_at = sim.now + 30 * MS  # verdict, fence and swap come early on

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
    assert reads_after_promotion["n"] > 100
    assert hook.delayed
    # At the end of the run the new primary holds every key's last acked
    # write.
    survivor = new.store.dump()
    acked_last = {k: [v for _t, a, v in h if a is not None][-1]
                  for k, h in writes.items()}
    assert {k: v for k, v in acked_last.items()
            if survivor.get(k) != v} == {}
    (drained_at, handed_over), = drained
    # Keys whose store handed to the new primary misses a write acked
    # before the handover.
    lost = {k for k in keys if not admissible(k, handed_over[k], drained_at)}
    # Refused records whose client held an ack from the deposed primary:
    # one given before the handover (a replay may later be acked by the
    # new primary, which applied it itself).
    acked_refused = [(k, v) for k, v in refused
                     if any(val == v and a is not None and a <= drained_at
                            for _t, a, val in writes[k])]
    return cluster, refused, acked_refused, lost, stale_reads


def test_false_verdict_fences_the_live_primary_before_the_drain(
        monkeypatch):
    """A false verdict causes a fenced failover: SWAT powers the live
    primary off before the promoted secondary drains, and revokes its
    ring rkey at once.  The ring records it posted last are still in
    flight, 1 ms behind, at the fence.  None of them was acked -- a write
    is acked only once its record has landed -- so each reaches a
    revoked ring and is refused (``REM_ACCESS_ERR``) while its client
    holds no ack; no acked write is missing from the store handed to the
    new primary, and no read after the promotion is stale."""
    cluster, refused, acked_refused, lost, stale_reads = \
        _false_verdict_failover(monkeypatch, delay_ns=1 * MS)
    assert cluster.metrics.counter("rdma.rem_access_err").value >= 1
    assert refused
    assert acked_refused == []
    assert lost == set()
    assert stale_reads == []


def test_a_ring_write_outliving_the_retry_timeout_is_refused(monkeypatch):
    """The same guarantee when the fenced primary's ring Writes are
    delayed past the RC retry timeout: each reaches a ring whose rkey the
    secondary has revoked, completes ``REM_ACCESS_ERR`` and changes no
    byte, instead of landing in a ring already drained; its client holds
    no ack, so no acked write is missing from the handed-over store and
    no read after the promotion is stale."""
    retry_ns = SimConfig().fabric.retry_timeout_ns
    cluster, refused, acked_refused, lost, stale_reads = \
        _false_verdict_failover(monkeypatch, delay_ns=retry_ns + 1 * MS)
    assert cluster.metrics.counter("rdma.rem_access_err").value >= 1
    assert refused
    assert acked_refused == []
    assert lost == set()
    assert stale_reads == []


def _session_bound(call: ast.Call) -> bool:
    """Whether ``call`` creates a znode tied to a ZK session: an
    ``ephemeral`` keyword, or a ``_create_node`` owner session, that is
    not the constant ``False`` / ``None``."""
    owners = [kw.value for kw in call.keywords
              if kw.arg in ("ephemeral", "ephemeral_session")]
    if isinstance(call.func, ast.Attribute) \
            and call.func.attr == "_create_node":
        owners += call.args[2:]
    return any(not (isinstance(v, ast.Constant) and v.value in (False, None))
               for v in owners)


def test_coord_reads_no_liveness_ground_truth():
    """The control plane decides only from what it can observe: no
    ``.alive`` read of a shard, NIC or machine anywhere in ``coord/``.
    A ZooKeeper session's own liveness is the one allowed ``.alive``
    (``self`` inside the ZooKeeper model is a session).  Nor does
    liveness ride on a ZK session: outside the ZooKeeper model, the one
    znode ``coord/`` ties to a session is a SWAT member's election node
    (``SwatTeam._member``); every ``/shards`` registration is
    persistent."""
    coord = Path(__file__).resolve().parents[2] / "src" / "repro" / "coord"
    offenders = []
    session_bound = []
    for path in sorted(coord.glob("*.py")):
        sessions = {"session", "self.session", "sess"}
        if path.name == "zookeeper.py":
            sessions.add("self")
        tree = ast.parse(path.read_text())
        scopes = [n for n in ast.walk(tree)
                  if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "alive"
                    and isinstance(node.ctx, ast.Load)):
                owner = ast.unparse(node.value)
                if owner not in sessions:
                    offenders.append(f"{path.name}:{node.lineno} "
                                     f"{owner}.alive")
            elif isinstance(node, ast.Constant) and node.value == "alive":
                offenders.append(f"{path.name}:{node.lineno} 'alive'")
            elif (isinstance(node, ast.Call) and _session_bound(node)
                    and path.name != "zookeeper.py"):
                # Enclosing scopes, outermost first (ast.walk is BFS).
                session_bound.append(".".join(
                    s.name for s in scopes
                    if s.lineno <= node.lineno <= s.end_lineno))
    assert offenders == []
    assert session_bound == ["SwatTeam._member"]
