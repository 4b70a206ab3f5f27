"""Pinned schedule digests: one shard request body, held to committed
literals in every mode it serves.

Each scenario runs the same mixed workload — three default clients and
one named tenant over puts, gets, updates, inserts, deletes and a
``get_many`` fan-out (the pooled-CQE gather path) — with schedule
tracing on, and asserts the BLAKE2 dispatch digest and the dispatch
count equal the literals below: every event fires at the same time, in
the same order, with the same outcome.  The scenarios cover each input
the shard's request body branches on — shard variant (plain,
sub-sharded, pipelined), RDMA-Write messaging (doorbell-batched
responses) vs Send/Recv (one Send per response), named-tenant admission
with server-side shedding, relaxed replication, strict replication whose
ack wait blocks the batch-less Send/Recv path, a mid-run shard kill (the
undeliverable-response flush path) and the TCP transport.

The literals were frozen while the flat-array hot paths, the original
per-object (scalar) paths and the seed heapq event kernel still existed
side by side, and all three dispatched every scenario bit-identically.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.core.errors import RequestTimeout
from repro.sim import Simulator

from tests.core.test_shard_variants import VARIANTS

_HYDRA = {"msg_slots_per_conn": 4}
_CLIENT = {"max_inflight_per_conn": 4}

#: Request-path modes, as ``SimConfig.with_overrides`` sections.
_MODES = {
    "default": {},
    "replicated": {"replication": {"replicas": 1}},
    "shard_kill": {},
    "sendrecv": {"hydra": {"rdma_write_messaging": False}},
    "shed": {"qos": {"server_shed_slots": 1}},
    "strict_sendrecv": {"hydra": {"rdma_write_messaging": False},
                        "replication": {"replicas": 1, "mode": "strict"}},
    "tcp": {"hydra": {"transport": "tcp"}},
}

#: ``"<variant>-<mode>"`` -> (schedule digest, events dispatched, wire
#: digest).  The wire digests were frozen before the NIC hops moved onto
#: pooled timers; a later change may re-pin a schedule digest only while
#: its events and wire digest hold.  The two ``*-shed`` pins moved, wire
#: digests included, when a round whose every failure is a server shed
#: stopped being treated as a transport failure: the gold ``put_many``
#: burst now sleeps out the shard's retry hint on its live connection
#: instead of tearing it down and backing off.  Every scenario whose
#: ``get_many`` fan-out walks an exported index moved, wire digests
#: included, when bucket frames grew to 128 B with an inline item line:
#: the first frame Read lands 13 ns later (64 more bytes on the wire),
#: and small items answer from the frame without an item Read, so those
#: runs dispatch fewer events.  The shared workload went from 24 to 28
#: ops per client then, to keep every run above the 2,000-event floor;
#: at either length the sub-sharded and TCP pins (no exported index, no
#: one-sided Read) are the parent's.  ``subshard-shed`` moved, wire digest
#: included, when sub-shard executor lanes started running the same tenant
#: admission as every other path: its first shed request is charged at
#: 3,872 ns on lane ``sub1``'s core, where it used to reach the store.
#: The ``*-strict_sendrecv`` pins were frozen on the code that still had
#: per-response RDMA-Write doorbells and TCP's own request body, and held
#: unchanged when both were retired (with the ``*-unbatched`` pins).
PINNED = {
    "plain-default": ("184f8364acb0d5b89e014a608d030430", 2255,
                      "bc0ed8cdd06a32b8662ac36705c3737f"),
    "subshard-default": ("32673c5162ca889713eb1e39ac640604", 3473,
                         "b867a08e02bf60eb2780cd008fa39c34"),
    "pipelined-default": ("4cd889fc1386948825f7be47792a4a29", 2775,
                          "cc03b50c6e1fce9003db4915048d0d3d"),
    "plain-replicated": ("da704fe50f32bc983132ead734d1f5ad", 2734,
                         "0d83bc02c10bb1dbdd4a1ac5ca9d6ad8"),
    "plain-shard_kill": ("d20c53493525bfcaeda5e3d81db5ee34", 7058,
                         "6139627a99bdd349c05d90a222b19dde"),
    "plain-sendrecv": ("fff43f9b2012c6c2465d0ee151e7f2eb", 2122,
                       "13f148e3494e689a5f7d34325c8d6464"),
    "subshard-sendrecv": ("fb9e29b24b3555fe857bac1132f939be", 3278,
                          "bf704ddc6ebf41efeba2f013a0100369"),
    "pipelined-sendrecv": ("006d1485c7104697816bab9d022b73d4", 2610,
                           "279c2beb3cdc40d0e464a39355ed4679"),
    "plain-shed": ("5d51e42cb165bee550bcf8bfc7ddb413", 4288,
                   "ae0bf59abb3e49f93f00b199258a4b3b"),
    "subshard-shed": ("4d93e7431bc780e793fc3b040927afe9", 6390,
                      "0393e8c99364e90a8994b7ef30fc7d9c"),
    "pipelined-shed": ("7c90da039224dad2e9c7349c284c4ff7", 5869,
                       "52ac21e6565bbf0ac2b393255b5ad16b"),
    "plain-strict_sendrecv": ("9e85a55a09de7877c26bed68a54c8a71", 3318,
                              "b0e6c3193d8953ba2b10b606f2b8010e"),
    "pipelined-strict_sendrecv": ("5a4bdd4c479433fb1ef6d96d6884f4af", 3833,
                                  "e7d377ce18b02a8e1394be18ad724e0f"),
    "plain-tcp": ("86fa4944ae363367650780611fce8c1c", 3968,
                  "99640aa42456166a6e99b469b99a3795"),
}

#: What each mode must visibly exercise, so a pin cannot silently stop
#: covering its path: ``mode -> check(counter value by name, variant)``.
_EXERCISED = {
    "sendrecv": lambda c, _v: c("rdma.send.ops") > 0,
    "shed": lambda c, _v: c("shard.shed_ops") > 0,
    "strict_sendrecv": lambda c, _v: (c("repl.ack_requests") > 0
                                      and c("rdma.send.ops") > 0),
    "tcp": lambda c, _v: c("shard.requests") > 0 and c("rdma.write.ops") == 0,
}


def _mixed_procs(cluster):
    """Three default clients + one named tenant over a mixed op soup:
    puts, gets, updates, inserts, deletes, and a get_many fan-out (the
    pooled-CQE gather path)."""
    clients = [cluster.client(machine_index=0) for _ in range(3)]
    tenant = cluster.client(machine_index=0, tenant="gold")

    def app(ci, client):
        for i in range(28):
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


def pins(sim) -> tuple[str, int, str]:
    """``(schedule digest, events dispatched, wire digest)`` of a traced
    run — the shape of every :data:`PINNED` value."""
    return sim.schedule_digest(), sim.k_dispatched, sim.wire_digest()


def run_scenario(scenario: str):
    """Run one pinned scenario traced; returns ``(pins, cluster)``."""
    cluster, procs = build_scenario(scenario)
    cluster.run(*procs)
    cluster.stop()
    return pins(cluster.sim), cluster


@pytest.mark.parametrize("scenario", list(PINNED))
def test_schedule_digest_is_pinned(scenario):
    pinned, cluster = run_scenario(scenario)
    assert pinned == PINNED[scenario]
    assert PINNED[scenario][1] > 2_000  # every run is non-trivial
    variant, mode = scenario.split("-", 1)
    check = _EXERCISED.get(mode)
    if check is not None:
        assert check(lambda name: cluster.metrics.counter(name).value,
                     variant)

