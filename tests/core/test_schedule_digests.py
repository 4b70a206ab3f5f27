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
    # The paper's layout and the default: one message slot per connection.
    "oneslot": {"hydra": {"msg_slots_per_conn": 1}},
    "oneslot_replicated": {"hydra": {"msg_slots_per_conn": 1},
                           "replication": {"replicas": 1}},
}

#: Ops per client where a mode needs more than the shared 28 to stay
#: clear of the 2,000-event floor.
_OPS = {"oneslot": 36, "oneslot_replicated": 36}

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
#: Every scenario with a lone cold ``get`` over an exported index moved,
#: wire digests included, when such a GET started walking its bucket
#: frame once the client machine had Read and message RTT samples: one
#: frame Read where a message round trip was, so fewer events.  The
#: sub-sharded (no exported index) and TCP pins held.  The
#: ``*-oneslot*`` pins run the workload on the paper's one-slot buffers,
#: 36 ops per client (sub-shards take no replication hooks, so there is
#: no ``subshard-oneslot_replicated``).  All five moved, wire digests
#: included, when a one-slot request became one Write with no occupancy
#: word.  The first divergence is the client NIC's TX engine: it no
#: longer serializes the first request's chained word WQE (done at
#: 269 ns) and next finishes the following client's frame (at 315 ns).
#: The first frame lands at offset 0 instead of 8, and each run
#: dispatches 15-23% fewer events.  Every multi-slot pin held.  The
#: three replicated pins moved, wire digests included, when a sweep's
#: ring records started going to the secondary as one chain posted at
#: the sweep's end: the primary's core no longer pays a post mid-sweep,
#: so its first write's sweep runs on (``plain-replicated``: a core
#: step done at 41,591 ns) where the ring Write's TX engine used to
#: finish at 41,667 ns; ``plain-oneslot_replicated`` diverges at
#: 40,645 ns and ``pipelined-oneslot_replicated`` at 6,355 ns, the
#: same way.  Each now dispatches 1-2% fewer events; the strict pins
#: held.
PINNED = {
    "plain-default": ("6fe6be569f94e3cceef8386bc3d0fceb", 2208,
                      "a44e4a0fec0bcd65ca9460fe85a55771"),
    "subshard-default": ("32673c5162ca889713eb1e39ac640604", 3473,
                         "b867a08e02bf60eb2780cd008fa39c34"),
    "pipelined-default": ("0c7f98112ef2d09cdc4f2911badc0ae9", 2650,
                          "0ac7b987f301fa779f52fde0b45b9f9f"),
    "plain-replicated": ("7948abcfee463472c10f2b55b509d5fe", 2651,
                         "4a6c1a0c01ac636f772013a9e3657120"),
    "plain-shard_kill": ("a94440baac231fed7670057f3d152f3f", 5719,
                         "776fa880da60eb466ee40adc20effc1a"),
    "plain-sendrecv": ("8c706a015f272c104c6f8f44dc85df88", 2062,
                       "f3db7361aec5abacafa6cf4c32df5579"),
    "subshard-sendrecv": ("fb9e29b24b3555fe857bac1132f939be", 3278,
                          "bf704ddc6ebf41efeba2f013a0100369"),
    "pipelined-sendrecv": ("ff827e030b51ec4a7fca964d7bd11375", 2505,
                           "7203770d1a331d46fcf17143a64ad4c7"),
    "plain-shed": ("1fa281789df125efa0c63d20468f68d7", 4239,
                   "72bbe39ae117d776b21777a8e2195329"),
    "subshard-shed": ("4d93e7431bc780e793fc3b040927afe9", 6390,
                      "0393e8c99364e90a8994b7ef30fc7d9c"),
    "pipelined-shed": ("0c2265a4895308426fbb3a864a3fb5da", 5843,
                       "95467a8b4c8f44297e95760e9e4af8f9"),
    "plain-strict_sendrecv": ("74d7d0d3fd2a67fcdf4abf7f69e3765b", 3254,
                              "2221bc644fcf64c01b340a41c902b67a"),
    "pipelined-strict_sendrecv": ("325c3a1bd1312b9f983d8c051f11149e", 3728,
                                  "f8dd3017245d4975400e780d9e5e4cb7"),
    "plain-tcp": ("86fa4944ae363367650780611fce8c1c", 3968,
                  "99640aa42456166a6e99b469b99a3795"),
    "plain-oneslot": ("15cd54ce060107b29f87a1384972c5bd", 2276,
                      "2e25476ad06fa8fb19cf022b4e755ecb"),
    "subshard-oneslot": ("a8d6c896aed97a6fccc01a5d0ac607ad", 3421,
                         "b6b5cd7248a244f3bf001a06380b82b8"),
    "pipelined-oneslot": ("d35f2534f013035f1c8ef6f7163b7a62", 2807,
                          "a950cc2829a56664ba21ee76440b168f"),
    "plain-oneslot_replicated": ("616968d32dcda181b20576b1cbd2deb0", 2860,
                                 "254aeaf309fbd308d4120a73ee8d80fc"),
    "pipelined-oneslot_replicated": ("6c1fa1f5d85d39319a691add050615fe",
                                     3398,
                                     "ab8070cd2489ef3d1d25176b92da9675"),
}

#: What each mode must visibly exercise, so a pin cannot silently stop
#: covering its path: ``mode -> check(counter value by name, variant)``.
_EXERCISED = {
    "sendrecv": lambda c, _v: c("rdma.send.ops") > 0,
    "shed": lambda c, _v: c("shard.shed_ops") > 0,
    "strict_sendrecv": lambda c, _v: (c("repl.ack_requests") > 0
                                      and c("rdma.send.ops") > 0),
    "tcp": lambda c, _v: c("shard.requests") > 0 and c("rdma.write.ops") == 0,
    "oneslot_replicated": lambda c, _v: c("repl.records") > 0,
}


def _mixed_procs(cluster, ops=28):
    """Three default clients + one named tenant over a mixed op soup:
    puts, gets, updates, inserts, deletes, and a get_many fan-out (the
    pooled-CQE gather path)."""
    clients = [cluster.client(machine_index=0) for _ in range(3)]
    tenant = cluster.client(machine_index=0, tenant="gold")

    def app(ci, client):
        for i in range(ops):
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
    procs = _mixed_procs(cluster, _OPS.get(mode, 28))
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

