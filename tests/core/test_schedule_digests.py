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

#: ``"<variant>-<mode>"`` -> (schedule digest, events dispatched, wire
#: digest).  The wire digests were frozen before the NIC hops moved onto
#: pooled timers; a later change may re-pin a schedule digest only while
#: its events and wire digest hold.  The two ``*-shed`` pins moved, wire
#: digests included, when a round whose every failure is a server shed
#: stopped being treated as a transport failure: the gold ``put_many``
#: burst now sleeps out the shard's retry hint on its live connection
#: instead of tearing it down and backing off.
PINNED = {
    "plain-default": ("6d05ad6ec0d414ce0190858a572fc731", 2167,
                      "9c5730b6ec28e0b6f8ab9ecb6574ea13"),
    "subshard-default": ("8c62b9c855789d769e450b6e27fcad3c", 2953,
                         "a2f4f373d3f340a41ee16f8151386ede"),
    "pipelined-default": ("9537ec65a73ea926c3f0446ac2ad4218", 2642,
                          "5506aa8006b98917774b6a1933aa163f"),
    "plain-replicated": ("0f4aab2a0a57812dd4e180ddd095c474", 2569,
                         "e8de95cd89f81d2e2f9cb7fb558a5622"),
    "plain-shard_kill": ("f605832f19cd8843adfa1aaae2b79cc9", 6260,
                         "d8565a5f18c651251c120d202f65bf06"),
    "plain-sendrecv": ("56d7f7164276f921abf577322f1c3e14", 2076,
                       "6984fc3079224ff8dca432e7373e593f"),
    "subshard-sendrecv": ("fd12767a342a668c61af7ac60e75f7da", 2790,
                          "63499becc989c541edab9717243b1cf5"),
    "pipelined-sendrecv": ("798f7c5a3b8cdf1536b1e57464092874", 2491,
                           "528d6725ae2ba191d9b8cc7b43550dce"),
    "plain-unbatched": ("5128317e715463537be3f3d422e807ac", 2157,
                        "5260b73be639ffd8f6a0a443284af20f"),
    "subshard-unbatched": ("6934af8656db8d8b4b2e41fb13caac21", 2960,
                           "ec6622a3361da4bded6db1f30d9d0f10"),
    "pipelined-unbatched": ("e5520ec47bee162e0e907108f816243c", 2620,
                            "82d1c84697b4a49cd489a90d0349e1cc"),
    "plain-shed": ("2a40a1b1e4ca5aa5159c895ecf40249e", 4229,
                   "5ee868c6cd5f5db61734321e7492cbe3"),
    "subshard-shed": ("6c5c6312db0048ce5c83b58a6fb03b71", 4838,
                      "9a9d6f1f379a9c6baba4c0a7804f230c"),
    "pipelined-shed": ("fff9121a4d5563a900c25d3e0a3364d4", 5716,
                       "c3772cf9f3fed15006a5789e5387c266"),
    "plain-strict_unbatched": ("35725aed79fc4b69eb38b5b63c0336a4", 3163,
                               "f700110538dfdd7286aa466e790363eb"),
    "pipelined-strict_unbatched": ("ca32548b209d9033192389a3ab540a1b", 3674,
                                   "d950de901298238c1947db9f0d704933"),
    "plain-tcp": ("5b383adf5ad35cf8858e8883d0c3d330", 3393,
                  "24b5725c281deac0e7da3c462145e4b9"),
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

