"""Pinned schedule digests: one shard request body, held to committed
literals in every mode it serves.

Each scenario runs the same mixed workload — three default clients and
one named tenant over puts, gets, updates, inserts, deletes and a
``get_many`` fan-out (the pooled-CQE gather path) — with schedule
tracing on, and asserts the BLAKE2 dispatch digest and the dispatch
count equal the literals below: every event fires at the same time, in
the same order, with the same outcome.  The scenarios cover each input
the shard's request body branches on — shard variant (plain,
sub-sharded, pipelined), RDMA-Write vs Send/Recv messaging, batched vs
per-response doorbells (``resp_doorbell_batch=0``), named-tenant
admission with server-side shedding, blocking strict replication,
relaxed replication, a mid-run shard kill (the undeliverable-response
flush path) and the TCP transport.

The literals were frozen while the flat-array hot paths, the original
per-object (scalar) paths and the seed heapq event kernel still existed
side by side, and all three dispatched every scenario bit-identically.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.core.errors import RequestTimeout
from repro.sim import Simulator

from tests.variants import VARIANTS

_HYDRA = {"msg_slots_per_conn": 4}
_CLIENT = {"max_inflight_per_conn": 4}

#: Request-path modes, as ``SimConfig.with_overrides`` sections.
_MODES = {
    "default": {},
    "replicated": {"replication": {"replicas": 1}},
    "shard_kill": {},
    "sendrecv": {"hydra": {"rdma_write_messaging": False}},
    "unbatched": {"hydra": {"resp_doorbell_batch": 0}},
    "shed": {"qos": {"server_shed_slots": 1}},
    "strict_unbatched": {"hydra": {"resp_doorbell_batch": 0},
                         "replication": {"replicas": 1, "mode": "strict"}},
    "tcp": {"hydra": {"transport": "tcp"}},
}

#: ``"<variant>-<mode>"`` -> (schedule digest, events dispatched).
PINNED = {
    "plain-default": ("4cd592ec76af708b7b11dda2f97dd235", 2167),
    "subshard-default": ("8c00c07dc9e2c7ad7986dcb6171b9e54", 2953),
    "pipelined-default": ("5555ce00cc0f021f9610021b0377ecb0", 2642),
    "plain-replicated": ("ece0fb5dd202653ef1355346cc9cdf5d", 2569),
    "plain-shard_kill": ("4029e43916958701935d7fd9bac0a289", 6260),
    "plain-sendrecv": ("0faeb68740e0e99de5f9f0418b0df7e9", 2076),
    "subshard-sendrecv": ("79ac8e017785312457744b9d0f2a3512", 2790),
    "pipelined-sendrecv": ("5b2d238afb892bb4c2ca459e95348733", 2491),
    "plain-unbatched": ("48d6ca500db6c9170279b01e8d77992b", 2157),
    "subshard-unbatched": ("bcc544853309ba8abedf6fcf49a9495b", 2960),
    "pipelined-unbatched": ("397801b95562047f856ea0ea2ea3a448", 2620),
    "plain-shed": ("bb7bfc01982ff27158967ecda1a4aaa0", 4253),
    "subshard-shed": ("5de3c786690791e3b4c13393de628b20", 4838),
    "pipelined-shed": ("0c752c6239dc10e0ace24a38a2d98934", 5774),
    "plain-strict_unbatched": ("48e37d262423618a2d1418cbe398df35", 3163),
    "pipelined-strict_unbatched": ("09ef8527a2c1dbc642b6c8d7b0741d4b", 3674),
    "plain-tcp": ("5b383adf5ad35cf8858e8883d0c3d330", 3393),
}

#: What each mode must visibly exercise, so a pin cannot silently stop
#: covering its path: ``mode -> check(counter value by name, variant)``.
_EXERCISED = {
    "sendrecv": lambda c, _v: c("rdma.send.ops") > 0,
    "unbatched": lambda c, _v: (c("shard.resp_doorbells") > 0
                                and c("shard.resp_coalesced") == 0),
    # Sub-shard executors run no tenant admission: nothing is shed there.
    "shed": lambda c, v: (c("shard.shed_ops") > 0) != (v == "subshard"),
    "strict_unbatched": lambda c, _v: c("repl.ack_requests") > 0,
    "tcp": lambda c, _v: c("shard.requests") > 0 and c("rdma.write.ops") == 0,
}


def _mixed_procs(cluster):
    """Three default clients + one named tenant over a mixed op soup:
    puts, gets, updates, inserts, deletes, and a get_many fan-out (the
    pooled-CQE gather path)."""
    clients = [cluster.client(machine_index=0) for _ in range(3)]
    tenant = cluster.client(machine_index=0, tenant="gold")

    def app(ci, client):
        for i in range(24):
            key = b"c%d.k%d" % (ci, i % 5)
            kind = (ci + i) % 6
            try:
                if kind == 0:
                    yield from client.put(key, b"v%d.%d" % (ci, i))
                elif kind == 1:
                    yield from client.get(key)
                elif kind == 2:
                    yield from client.update(key, b"u%d" % i)
                elif kind == 3:
                    yield from client.insert(key, b"i%d" % i)
                elif kind == 4:
                    yield from client.get_many(
                        [b"c%d.k%d" % (ci, k) for k in range(4)])
                else:
                    yield from client.delete(key)
            except RequestTimeout:
                pass  # only reachable in the shard-kill scenario

    procs = [app(ci, c) for ci, c in enumerate(clients)]
    procs.append(app(7, tenant))
    return procs


def _chaos_procs(cluster):
    """Kill one server mid-run; a bounded-deadline client keeps hitting
    its shards so ops time out, retry and flush undeliverables."""
    sim = cluster.sim
    victim = cluster.servers[1]
    victim_shards = set(victim.shards)
    dead_keys = [k for k in (b"dead%d" % i for i in range(64))
                 if cluster.route(k) in victim_shards][:6]
    live_keys = [k for k in (b"live%d" % i for i in range(64))
                 if cluster.route(k) not in victim_shards][:6]
    doomed = cluster.client(machine_index=0, deadline_us=2_000)

    def storm():
        yield sim.timeout(40_000)
        for shard in victim.shards:
            if shard.alive:
                shard.kill()
        for dead_key, live_key in zip(dead_keys, live_keys):
            try:
                yield from doomed.get(dead_key)
            except RequestTimeout:
                pass
            try:
                yield from doomed.put(live_key, b"v")
            except RequestTimeout:
                pass

    return storm()


def _burst_procs(cluster):
    """A second handle of the named tenant pushes ``put_many`` bursts, so
    one sweep finds several of its requests on a connection — past the
    shed cap."""
    gold = cluster.client(machine_index=0, tenant="gold")

    def burst():
        for r in range(3):
            yield from gold.put_many(
                [(b"burst%d" % i, b"r%d" % r) for i in range(32)])

    return burst()


def build_scenario(scenario: str):
    """A started, traced cluster for one pinned scenario and the
    generators to run on it; returns ``(cluster, generators)``."""
    variant, mode = scenario.split("-", 1)
    sections = {name: dict(fields)
                for name, fields in _MODES[mode].items()}
    sections["hydra"] = dict(_HYDRA, **VARIANTS[variant],
                             **sections.get("hydra", {}))
    sections["client"] = dict(_CLIENT)
    sim = Simulator()
    sim.trace_schedule()
    cluster = HydraCluster(SimConfig().with_overrides(**sections),
                           n_server_machines=2, shards_per_server=2,
                           n_client_machines=1, sim=sim)
    cluster.start()
    procs = _mixed_procs(cluster)
    if mode == "shard_kill":
        procs.append(_chaos_procs(cluster))
    elif mode == "shed":
        procs.append(_burst_procs(cluster))
    return cluster, procs


def run_scenario(scenario: str):
    """Run one pinned scenario traced; returns ``(digest, events,
    cluster)``."""
    cluster, procs = build_scenario(scenario)
    cluster.run(*procs)
    cluster.stop()
    sim = cluster.sim
    return sim.schedule_digest(), sim.k_dispatched, cluster


@pytest.mark.parametrize("scenario", list(PINNED))
def test_schedule_digest_is_pinned(scenario):
    digest, events, cluster = run_scenario(scenario)
    assert (digest, events) == PINNED[scenario]
    assert PINNED[scenario][1] > 2_000  # every run is non-trivial
    variant, mode = scenario.split("-", 1)
    check = _EXERCISED.get(mode)
    if check is not None:
        assert check(lambda name: cluster.metrics.counter(name).value,
                     variant)

