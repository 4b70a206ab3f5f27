"""Tenant-scoped client API: golden default-path digest, typed
throttling (never a silent stall), fairness under skew, server-side
shed, and the flat-config deprecation shim."""

import pytest

from repro import (
    HydraCluster,
    QosConfig,
    SimConfig,
    TenantThrottled,
)
from repro.sim import Simulator

US = 1_000
MS = 1_000_000


def _cfg(**qos):
    return SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 8},
        client={"max_inflight_per_conn": 8, "rptr_cache_enabled": False},
        traversal={"enabled": False},
        qos=qos,
    )


def _mixed_ops(cluster, client, n=60):
    keys = [f"k{i:04d}".encode() for i in range(16)]

    def app():
        for i in range(n):
            key = keys[i % len(keys)]
            if i % 3 == 0:
                yield from client.put(key, b"v" * 32)
            elif i % 3 == 1:
                yield from client.get(key)
            else:
                yield from client.get_many(keys[:8])

    cluster.run(app())


# ---------------------------------------------------------------------------
# golden: the default tenant IS the anonymous client


def _digest(tenant_kwargs) -> tuple[str, int, str]:
    sim = Simulator()
    sim.trace_schedule()
    cluster = HydraCluster(config=_cfg(), n_server_machines=1,
                           shards_per_server=1, n_client_machines=1,
                           sim=sim)
    cluster.start()
    client = cluster.client(**tenant_kwargs)
    _mixed_ops(cluster, client)
    return sim.schedule_digest(), sim.k_dispatched, sim.wire_digest()


#: Pinned (schedule digest, events dispatched, wire digest) of the
#: anonymous client and of a named tenant on the same workload.
ANONYMOUS_PINNED = ("9697412ab1cf06af051e906c7e54524d", 3266,
                    "b3f5b2569aba8c34a98c1017c69ad5b9")
NAMED_PINNED = ("954345874e2b9aa29f4125541a2fc3e0", 3266,
                "a76312f6010d733e7422d055b9b45913")


def test_default_tenant_schedule_is_bit_identical_to_anonymous():
    """``tenant="default"`` (no qos) must add ZERO events: same digest,
    same dispatch count, as the anonymous pre-tenant client."""
    anonymous = _digest({})
    default_tenant = _digest({"tenant": "default"})
    assert default_tenant == anonymous == ANONYMOUS_PINNED
    assert anonymous[1] > 1_000  # the run was non-trivial


def test_named_tenant_changes_the_wire_but_still_completes():
    named = _digest({"tenant": "team-a"})
    assert named == NAMED_PINNED
    assert named[1] > 1_000


# ---------------------------------------------------------------------------
# admission: typed errors, never silent stalls


def test_throttled_raises_promptly_without_retry_budget():
    cluster = HydraCluster(config=_cfg(), n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.start()
    client = cluster.client(tenant="t", deadline_us=0,
                            qos=QosConfig(rate_ops=1_000.0, burst=1))
    hits = {}

    def app():
        yield from client.put(b"k", b"v")  # burst token
        t0 = cluster.sim.now
        with pytest.raises(TenantThrottled) as err:
            yield from client.put(b"k", b"v")
        hits["elapsed"] = cluster.sim.now - t0
        hits["retry_after"] = err.value.retry_after_ns
        hits["tenant"] = err.value.tenant

    cluster.run(app())
    # Prompt refusal with an actionable hint — not a stall-until-timeout.
    assert hits["elapsed"] < 1 * MS
    assert 0 < hits["retry_after"] <= 1 * MS
    assert hits["tenant"] == "t"
    assert cluster.metrics.counter("client.tenant.t.throttled").value > 0


def test_throttled_with_budget_sleeps_and_completes():
    """With a retry budget the op waits out the refill and succeeds —
    throttling shapes, it does not lose work."""
    cluster = HydraCluster(config=_cfg(), n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.start()
    client = cluster.client(tenant="t",
                            qos=QosConfig(rate_ops=10_000.0, burst=1))
    done = {}

    def app():
        t0 = cluster.sim.now
        for _ in range(5):
            yield from client.put(b"k", b"v")
        done["elapsed"] = cluster.sim.now - t0

    cluster.run(app())
    # Four ops waited ~100us each for the bucket; none failed.
    assert done["elapsed"] >= 4 * 100 * US
    assert done["elapsed"] < 10 * MS


def test_batch_larger_than_burst_is_admitted_in_chunks():
    cluster = HydraCluster(config=_cfg(), n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.start()
    client = cluster.client(tenant="t",
                            qos=QosConfig(rate_ops=100_000.0, burst=2))
    ok = {}

    def app():
        pairs = [(f"k{i}".encode(), b"v") for i in range(8)]
        yield from client.put_many(pairs)  # 8 ops through a 2-deep bucket
        ok["done"] = True

    cluster.run(app())
    assert ok.get("done")


# ---------------------------------------------------------------------------
# fairness under skew


def _contended_victim_share(fair_queueing: bool) -> float:
    cluster = HydraCluster(config=_cfg(), n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.start()
    victim = cluster.client(
        tenant="victim", qos=QosConfig(fair_queueing=fair_queueing))
    agg = cluster.client(
        tenant="agg", qos=QosConfig(fair_queueing=fair_queueing))
    horizon = cluster.sim.now + 3 * MS
    served = {"victim": 0, "agg": 0}
    keys = [f"k{i:04d}".encode() for i in range(16)]

    def preload():
        for key in keys:
            yield from victim.put(key, b"v" * 32)

    cluster.run(preload())

    def pound(client, name, batch):
        while cluster.sim.now < horizon:
            if name == "victim":
                yield from client.get_many(keys[:batch])
            else:
                yield from client.put_many([(k, b"w" * 32)
                                            for k in keys[:batch]])
            if cluster.sim.now < horizon:
                served[name] += batch

    cluster.run(pound(victim, "victim", 8),
                pound(agg, "agg", 8), pound(agg, "agg", 8))
    total = served["victim"] + served["agg"]
    return served["victim"] / total if total else 0.0


def test_fair_queueing_lifts_victim_share_under_skew():
    """One victim process vs two aggressor processes on shared slots:
    DRR arbitration must pull the victim's share toward half."""
    without = _contended_victim_share(fair_queueing=False)
    with_fq = _contended_victim_share(fair_queueing=True)
    assert with_fq > without
    assert with_fq >= 0.35  # near-equal split, not a starved straggler


# ---------------------------------------------------------------------------
# server-side shed


def test_server_shed_is_typed_and_counted():
    cluster = HydraCluster(config=_cfg(server_shed_slots=2),
                           n_server_machines=1, shards_per_server=1,
                           n_client_machines=1)
    cluster.start()
    client = cluster.client(tenant="flood", deadline_us=0)
    seen = {"throttled": 0, "ok": 0}

    def flood():
        pairs = [(f"k{i:04d}".encode(), b"v" * 32) for i in range(32)]
        for _ in range(4):
            try:
                yield from client.put_many(pairs)
                seen["ok"] += 1
            except TenantThrottled as exc:
                assert exc.retry_after_ns > 0
                seen["throttled"] += 1

    cluster.run(flood())
    assert seen["throttled"] > 0
    assert cluster.metrics.counter("shard.shed_ops").value > 0
    assert cluster.metrics.counter(
        "client.tenant.flood.server_shed").value > 0


# ---------------------------------------------------------------------------
# config shim


@pytest.fixture(autouse=True)
def _fresh_deprecation_state():
    """The moved-key warning fires once per process; reset per test."""
    from repro import config as config_mod
    config_mod._warned_moved_keys.clear()
    yield
    config_mod._warned_moved_keys.clear()


def test_moved_hydra_keys_resolve_with_deprecation_warning():
    cfg = SimConfig()
    with pytest.warns(DeprecationWarning, match="max_inflight_per_conn"):
        assert cfg.hydra.max_inflight_per_conn == \
            cfg.client.max_inflight_per_conn
    with pytest.warns(DeprecationWarning, match="index_traversal"):
        assert cfg.hydra.index_traversal == cfg.traversal.enabled


def test_moved_hydra_key_writes_forward_to_new_section():
    cfg = SimConfig()
    with pytest.warns(DeprecationWarning):
        cfg.hydra.op_timeout_ns = 123_456
    assert cfg.client.op_timeout_ns == 123_456


def test_with_overrides_accepts_legacy_flat_keys():
    with pytest.warns(DeprecationWarning):
        cfg = SimConfig().with_overrides(
            hydra={"max_inflight_per_conn": 5})
    assert cfg.client.max_inflight_per_conn == 5


def test_unknown_hydra_key_still_raises():
    cfg = SimConfig()
    with pytest.raises(AttributeError):
        _ = cfg.hydra.definitely_not_a_knob
