"""The client retry engine's contract, one table for every op.

Every public operation runs as rounds of one engine (a single key is a
round of one), so a failure must look the same whichever op meets it.
Each case drives one op against one injected failure, in single-attempt
mode (``deadline_us=0``) and under a budget, and asserts what the caller
sees: the raised type, ``client.retries``, whether the connection object
was replaced, and the simulated time the call took.

* **server shed** — the shard answers ``Status.THROTTLED`` for one
  round.  The shard is alive: the engine sleeps out the retry hint on the
  same connection, with no retry counted, or raises
  :class:`TenantThrottled` when there is no budget.
* **silent shard** — gray failure: requests land and rot.  One round
  costs one ``op_timeout_ns`` however many keys it carries; under a
  budget the engine tears down the connection and replays until the
  budget lapses.
* **dead server NIC** — the same, except that even single-attempt mode
  finds the connection's QP unusable and reconnects.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.core.errors import (RequestTimeout, ShardUnavailable,
                               TenantThrottled)
from repro.protocol import Op, Status

US = 1_000
MS = 1_000_000
TIMEOUT = 5 * MS
BUDGET_US = 20_000
#: The shard's ``qos.shed_retry_after_ns`` hint (its default).
HINT = 200 * US
#: A few round trips of slack on every elapsed-time bound.
SLACK = 20 * US
KEYS = [b"k%02d" % i for i in range(16)]


def _cluster(deadline_us: int):
    cfg = SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 16},
        client={"op_timeout_ns": TIMEOUT, "max_inflight_per_conn": 16,
                "rptr_cache_enabled": False},
        traversal={"enabled": False},
        # A cap no test round reaches on its own: only _shed_one_round
        # sheds.
        qos={"server_shed_slots": 64})
    cluster = HydraCluster(cfg, n_server_machines=1, shards_per_server=1)
    for key in KEYS:
        cluster.route(key).store_for_key(key).upsert(key, b"v", Op.PUT)
    cluster.start()
    return cluster, cluster.client(tenant="t", deadline_us=deadline_us)


def _shed_one_round(shard, until_ns: int) -> None:
    """Make the shard shed every request that reaches it before
    ``until_ns``, through its own shed path: each sweep starts with the
    tenant's share already used up."""
    admit = shard._tenant_admit

    def shedding(conn, slot, op, rid, tenant, batch, core):
        if shard.sim.now < until_ns:
            batch.tenant_slots[tenant.decode()] = (
                shard.qos_cfg.server_shed_slots)
        return admit(conn, slot, op, rid, tenant, batch, core)

    shard._tenant_admit = shedding


#: op -> (keys, call, result once the shed round is slept out).
_OPS = {
    "get": (1, lambda c: c.get(KEYS[0]), b"v"),
    "put": (1, lambda c: c.put(KEYS[0], b"w"), Status.OK),
    "insert": (1, lambda c: c.insert(b"fresh", b"w"), Status.OK),
    "get_many": (4, lambda c: c.get_many(KEYS[:4]), [b"v"] * 4),
    "put_many": (4, lambda c: c.put_many([(k, b"w") for k in KEYS[:4]]),
                 [Status.OK] * 4),
}

_FAILURES = {
    "shed": lambda cluster, shard: _shed_one_round(
        shard, cluster.sim.now + 100 * US),
    "silent": lambda cluster, shard: shard.gray_fail(),
    "dead_nic": lambda cluster, shard: shard.machine.nic.fail(),
}


def _expected(op: str, failure: str, budget: bool, keys: int):
    """``(raised, retries, connection replaced, elapsed ns)``.

    Under the 20 ms budget a dead shard takes four rounds: 5 ms timeout,
    1 ms backoff, 5 ms, 2 ms, 5 ms, then a backoff clipped to the 2 ms
    left and a last round with no time left.  INSERT is never replayed:
    it gives up after its first round.
    """
    if failure == "shed":
        if budget:
            return None, 0, False, HINT
        return TenantThrottled, 0, False, 0
    if not budget:
        return RequestTimeout, 0, failure == "dead_nic", TIMEOUT
    if op == "insert":
        return ShardUnavailable, keys, True, TIMEOUT
    return ShardUnavailable, 4 * keys, True, BUDGET_US * US


@pytest.mark.parametrize("budget", [False, True], ids=["single", "budget"])
@pytest.mark.parametrize("failure", list(_FAILURES))
@pytest.mark.parametrize("op", list(_OPS))
def test_retry_engine_contract(op, failure, budget):
    cluster, client = _cluster(BUDGET_US if budget else 0)
    shard = cluster.shards()[0]
    keys, call, done = _OPS[op]
    raised, retries, replaced, elapsed = _expected(op, failure, budget, keys)
    seen = {}

    def app():
        yield from client.put(KEYS[0], b"v")  # connect
        conn = client.conns[shard]
        _FAILURES[failure](cluster, shard)
        t0 = cluster.sim.now
        try:
            result = yield from call(client)
        except (TenantThrottled, RequestTimeout) as exc:
            seen["raised"] = type(exc)
        else:
            seen["raised"] = None
            seen["result"] = result
        seen["elapsed"] = cluster.sim.now - t0
        seen["replaced"] = client.conns.get(shard) is not conn

    cluster.run(app())
    assert seen["raised"] is raised
    assert cluster.metrics.counter("client.retries").value == retries
    assert seen["replaced"] is replaced
    assert elapsed <= seen["elapsed"] < elapsed + SLACK
    if raised is None:
        assert seen["result"] == done


@pytest.mark.parametrize("keys", [1, 4, 16])
@pytest.mark.parametrize("op", ["get_many", "put_many"])
def test_a_round_has_one_deadline(op, keys):
    """k keys on a killed shard cost one ``op_timeout_ns``, not k: every
    wait of a round gives up at the round's one end instant."""
    cluster, client = _cluster(0)
    shard = cluster.shards()[0]

    def app():
        yield from client.put(KEYS[0], b"v")
        shard.kill()
        t0 = cluster.sim.now
        with pytest.raises(RequestTimeout):
            if op == "get_many":
                yield from client.get_many(KEYS[:keys])
            else:
                yield from client.put_many([(k, b"w") for k in KEYS[:keys]])
        assert TIMEOUT <= cluster.sim.now - t0 < TIMEOUT + SLACK

    cluster.run(app())


def test_a_budget_bounds_a_multi_key_call():
    """Under a budget the deadline holds for a whole fan-out too: 16 keys
    on a killed shard fail within ``op_deadline_us`` (plus a round trip),
    not 16 timeouts past it."""
    budget_us = 7_000
    cluster, client = _cluster(budget_us)
    shard = cluster.shards()[0]

    def app():
        yield from client.put(KEYS[0], b"v")
        shard.kill()
        t0 = cluster.sim.now
        with pytest.raises(ShardUnavailable):
            yield from client.put_many([(k, b"w") for k in KEYS])
        assert cluster.sim.now - t0 < budget_us * US + SLACK

    cluster.run(app())
