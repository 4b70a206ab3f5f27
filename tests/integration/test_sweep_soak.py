"""Behavior-identity soak: the transport must not change results.

The same randomized op sequence runs over RDMA-Write messaging (occupancy
word, ready hints, doorbell-batched responses), two-sided Send/Recv (one
Send per response) and kernel TCP, all through the shard's one request
body; final store contents, per-op statuses/values, and item versions
must be identical — a transport may only change *when* work happens,
never *what* happens.
"""

import random

from repro import HydraCluster, SimConfig
from repro.protocol import Op, Status

N_WORKERS = 3
OPS_PER_WORKER = 50

#: Transport -> ``hydra`` overrides.  TCP serves plain shards only.
TRANSPORTS = {
    "rdma-write": {},
    "sendrecv": {"rdma_write_messaging": False},
    "tcp": {"transport": "tcp"},
}


def soak_config(transport, **extra):
    return SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 8, **TRANSPORTS[transport], **extra},
        client={"max_inflight_per_conn": 8})


def op_script(seed=1234):
    """Deterministic per-worker op tapes (each worker owns its keys, so
    per-key ordering — and therefore every status — is deterministic
    regardless of cross-worker interleaving)."""
    rng = random.Random(seed)
    tapes = []
    for w in range(N_WORKERS):
        tape = []
        for i in range(OPS_PER_WORKER):
            key = f"w{w}-k{rng.randrange(8)}".encode()
            roll = rng.random()
            if roll < 0.35:
                tape.append((Op.PUT, key, f"p{w}-{i}".encode()))
            elif roll < 0.5:
                tape.append((Op.INSERT, key, f"i{w}-{i}".encode()))
            elif roll < 0.65:
                tape.append((Op.UPDATE, key, f"u{w}-{i}".encode()))
            elif roll < 0.8:
                tape.append((Op.GET, key, None))
            else:
                tape.append((Op.DELETE, key, None))
        tapes.append(tape)
    return tapes


def run_soak(config, **cluster_kw):
    cluster_kw.setdefault("n_server_machines", 1)
    cluster_kw.setdefault("shards_per_server", 2)
    cluster = HydraCluster(config=config, **cluster_kw)
    cluster.start()
    tapes = op_script()
    results = [[] for _ in range(N_WORKERS)]

    def worker(w, client):
        for op, key, value in tapes[w]:
            if op is Op.GET:
                results[w].append((yield from client.get(key)))
            elif op is Op.PUT:
                results[w].append((yield from client.put(key, value)))
            elif op is Op.INSERT:
                results[w].append((yield from client.insert(key, value)))
            elif op is Op.UPDATE:
                results[w].append((yield from client.update(key, value)))
            else:
                results[w].append((yield from client.delete(key)))

    cluster.run(*(worker(w, cluster.client()) for w in range(N_WORKERS)))
    # Final state: contents and versions straight from the stores.
    state = {}
    for w in range(N_WORKERS):
        for k in range(8):
            key = f"w{w}-k{k}".encode()
            res = cluster.route(key).store_for_key(key).get(key)
            state[key] = (res.status, res.value, res.version)
    return results, state


def test_all_transports_behave_identically():
    baseline_results, baseline_state = run_soak(soak_config("rdma-write"))
    assert any(s is Status.OK for r in baseline_results for s in r)
    for transport in ("sendrecv", "tcp"):
        results, state = run_soak(soak_config(transport))
        assert results == baseline_results, f"op results diverged: {transport}"
        assert state == baseline_state, f"store state diverged: {transport}"


def test_transports_identical_under_strict_replication():
    # Batched replication waits (RDMA-Write) and per-request blocking ones
    # (Send/Recv, TCP) must ack the same writes: strict mode acks every
    # record, so result identity covers the ack path.
    rep = {"replicas": 1, "mode": "strict"}
    runs = [run_soak(soak_config(t).with_overrides(replication=rep))
            for t in TRANSPORTS]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_transports_identical_on_subsharded_instances():
    base, other = (run_soak(soak_config(t, subshards=2), shards_per_server=1)
                   for t in ("rdma-write", "sendrecv"))
    assert other == base


def test_transports_identical_on_pipelined_instances():
    base, other = (run_soak(soak_config(t, pipelined_shards=True),
                            shards_per_server=1)
                   for t in ("rdma-write", "sendrecv"))
    assert other == base
