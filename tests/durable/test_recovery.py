"""Full-crash recovery, typed blackout errors, salvage and skew guards.

Covers the correlated-failure path end to end (primary *and* secondary
die; SWAT rebuilds the shard from the durable log with zero lost acked
writes), the :class:`RecoveryInProgress` typed error clients see when a
deadline lapses mid-replay, the ``promote_drain()`` contract for a
secondary stopped on a merge fault, and the clock-skew lease guard.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.bench.experiments import recovery_dualfail
from repro.core.errors import (
    HydraError,
    RecoveryInProgress,
    ShardUnavailable,
)
from repro.protocol import Status

_MS = 1_000_000


# -- dual-failure recovery ----------------------------------------------------

@pytest.mark.parametrize("ack_mode", ["ack_on_flush", "ack_on_replicate"])
def test_dual_crash_recovers_from_durable_log(ack_mode):
    row = recovery_dualfail(scale=0.05, ack_modes=(ack_mode,),
                            n_clients=2, n_keys=32)[0]
    assert row["recoveries"] == 1
    assert row["replayed_records"] > 0
    assert row["untyped_errors"] == 0
    assert row["recovered_ratio"] >= 0.8
    assert row["blackout_ms"] <= 500.0
    if ack_mode == "ack_on_flush":
        # The hard durability gate: an ack meant the group commit landed.
        assert row["lost_acked_writes"] == 0


# The commit pipeline (stage -> park -> release) lives in the base Shard;
# the sub-sharded and pipelined variants must carry a correlated crash
# through it too.  (Sub-sharded instances take no replication hooks, so
# their "every copy" is the primary alone.)
@pytest.mark.parametrize("hydra, replicas", [
    ({"subshards": 2}, 0),
    ({"pipelined_shards": True}, 1),
], ids=["subshard", "pipelined"])
def test_variant_dual_crash_loses_no_flush_acked_write(hydra, replicas):
    cfg = SimConfig().with_overrides(
        hydra=hydra, replication={"replicas": replicas},
        durability={"enabled": True, "ack_mode": "ack_on_flush"},
        coord={"heartbeat_ns": 50 * _MS, "session_timeout_ns": 200 * _MS},
        client={"op_timeout_ns": 5 * _MS},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.enable_ha()
    cluster.start()
    sim = cluster.sim
    sid = cluster.routing.shard_ids()[0]
    old_shard = cluster.routing.resolve(sid)
    acked: dict[bytes, bytes] = {}
    finished = []

    def writer(cid, client):
        # Disjoint keys per writer, so "last acked value" is unambiguous.
        for i in range(120):
            key, value = f"w{cid}-{i % 8}".encode(), f"{cid}-{i}".encode()
            status = yield from client.put(key, value)
            assert status is Status.OK
            acked[key] = value
        finished.append(cid)

    def killer():
        yield sim.timeout(500_000)  # mid-stream: writes staged and parked
        assert acked and not finished
        cluster.servers[0].kill()
        for sec in cluster.secondaries.get(sid, []):
            sec.kill()
            sec.machine.nic.fail()

    sim.process(killer())
    cluster.run(*[writer(c, cluster.client()) for c in range(3)])
    m = cluster.metrics
    assert m.counter("durable.recoveries").value == 1
    assert m.counter("shard.parked_batches").value > 0
    assert cluster.routing.resolve(sid) is not old_shard
    survivor = cluster.routing.resolve(sid).store.dump()
    assert {k: survivor.get(k) for k in acked} == acked


def test_recovery_bumps_routing_generation_and_clears_flag():
    cfg = SimConfig().with_overrides(
        durability={"enabled": True, "ack_mode": "ack_on_flush"},
        coord={"heartbeat_ns": 50 * _MS, "session_timeout_ns": 200 * _MS},
        client={"op_timeout_ns": 5 * _MS},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.enable_ha()
    cluster.start()
    sim = cluster.sim
    client = cluster.client()
    sid = cluster.routing.shard_ids()[0]
    old_shard = cluster.routing.resolve(sid)
    gen_before = cluster.generation

    def app():
        for i in range(16):
            yield from client.put(f"g{i:03d}".encode(), b"v" * 16)
        cluster.servers[0].kill()
        # Ride out detection + replay; failover-aware retries replay
        # every op through the bumped routing generation.
        yield sim.timeout(400 * _MS)
        for i in range(16):
            got = yield from client.get(f"g{i:03d}".encode())
            assert got == b"v" * 16

    cluster.run(app())
    assert cluster.generation > gen_before
    assert cluster.routing.resolve(sid) is not old_shard
    assert not cluster.routing.is_recovering(sid)
    assert cluster.metrics.counter("durable.recoveries").value == 1
    assert cluster.metrics.counter("swat.log_recoveries").value == 1


_OPS = {
    "get": lambda client: client.get(b"k"),
    "put": lambda client: client.put(b"k", b"v2"),
    "get_many": lambda client: client.get_many([b"k", b"k2"]),
    "put_many": lambda client: client.put_many([(b"k", b"v2"),
                                                (b"k2", b"v2")]),
}


@pytest.mark.parametrize("op", list(_OPS))
def test_recovery_in_progress_is_typed_and_raised_mid_replay(op):
    assert issubclass(RecoveryInProgress, ShardUnavailable)
    assert issubclass(RecoveryInProgress, HydraError)
    cfg = SimConfig().with_overrides(
        durability={"enabled": True},
        client={"op_timeout_ns": 1 * _MS},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.start()
    client = cluster.client(deadline_us=3_000)
    sid = cluster.routing.shard_ids()[0]
    call = _OPS[op]

    def app():
        yield from client.put(b"k", b"v")
        # Freeze the shard in the mid-replay state recover_shard holds it
        # in: marked recovering, unreachable.
        cluster.routing.mark_recovering(sid)
        cluster.servers[0].kill()
        with pytest.raises(RecoveryInProgress):
            yield from call(client)
        # Once recovery clears, the same lapse degrades to the generic
        # typed unavailability error.
        cluster.routing.clear_recovering(sid)
        with pytest.raises(ShardUnavailable) as exc:
            yield from call(client)
        assert not isinstance(exc.value, RecoveryInProgress)

    cluster.run(app())


# -- promote_drain contract (satellite: merge-faulted secondary) --------------

def test_promote_drain_applies_unmerged_tail_but_not_failed_stream():
    cfg = SimConfig().with_overrides(replication={"replicas": 1})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.start()
    client = cluster.client()
    sid = cluster.routing.shard_ids()[0]
    sec = cluster.secondaries[sid][0]

    def app():
        for i in range(8):
            yield from client.put(f"d{i:03d}".encode(), b"v")
        # Let the merge thread drain fully, then halt it between records
        # so the next batch stays in the ring as an in-sequence tail.
        yield cluster.sim.timeout(2 * _MS)
        sec.stop()
        for i in range(8, 16):
            yield from client.put(f"d{i:03d}".encode(), b"v")

    cluster.run(app())
    assert sec.applied_seq == 8
    applied_before = sec.applied_seq
    # Stopped on a merge fault: the stream past the failure is
    # unrecoverable, so promotion must NOT silently re-ack it.
    sec.failing = True
    assert sec.promote_drain() == 0
    assert sec.applied_seq == applied_before
    # The same ring, healthy: the in-sequence tail folds in exactly once.
    sec.failing = False
    drained = sec.promote_drain()
    assert drained > 0
    assert sec.applied_seq == applied_before + drained
    assert sec.promote_drain() == 0  # nothing left, nothing re-applied


# -- clock-skew lease guard (satellite) ---------------------------------------

def _skewed_reads(guard_ns):
    cfg = SimConfig(seed=7).with_overrides(
        hydra={"lease_min_ns": 300_000, "lease_max_ns": 300_000,
               "lease_renew_period_ns": 10 ** 9},
        client={"lease_skew_guard_ns": guard_ns},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.start()
    # The machine's clock runs 1 ms behind true time: unguarded, cached
    # pointers look live long past their real lease horizon.
    cluster.client_machines[0].clock_skew_ns = -1_000_000
    client = cluster.client()
    sim = cluster.sim
    wrong = [0]

    def app():
        yield from client.put(b"skew", b"v0")
        for _ in range(40):
            yield sim.timeout(400_000)
            got = yield from client.get(b"skew")
            if got != b"v0":
                wrong[0] += 1

    cluster.run(app())
    return (cluster.metrics.counter("client.lease_skew_hazards").value,
            wrong[0])


def test_skewed_clock_without_guard_trusts_dead_leases():
    hazards, wrong = _skewed_reads(guard_ns=0)
    assert hazards > 0  # pointers used past their true lease horizon
    assert wrong == 0


def test_skew_guard_keeps_reads_inside_lease_horizon():
    hazards, wrong = _skewed_reads(guard_ns=1_000_000)
    assert hazards == 0
    assert wrong == 0
