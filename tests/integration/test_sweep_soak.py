"""Behavior-identity soak: the three sweep layers must not change results.

The same randomized op sequence runs under every combination of
(occupancy-word x ready-hints x response-batching); final store contents,
per-op statuses/values, and item versions must be identical — the layers
may only change *when* work happens, never *what* happens.
"""

import random

from repro import HydraCluster, SimConfig
from repro.protocol import Op, Status

N_WORKERS = 3
OPS_PER_WORKER = 50


def soak_config(occupancy, hints, batching, **extra):
    over = {
        "msg_slots_per_conn": 8,
        "occupancy_word": occupancy,
        "ready_hints": hints,
        "resp_doorbell_batch": 8 if batching else 0,
    }
    over.update(extra)
    return SimConfig().with_overrides(
        hydra=over, client={"max_inflight_per_conn": 8})


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


COMBOS = [(occ, hints, batching)
          for occ in (True, False)
          for hints in (True, False)
          for batching in (True, False)]


def test_all_layer_combos_behave_identically():
    baseline_results, baseline_state = run_soak(
        soak_config(False, False, False))
    # The all-off combo is the seed design; sanity-check it did real work.
    assert any(s is Status.OK for r in baseline_results for s in r)
    for occ, hints, batching in COMBOS[:-1]:
        results, state = run_soak(soak_config(occ, hints, batching))
        label = f"occ={occ} hints={hints} batch={batching}"
        assert results == baseline_results, f"op results diverged: {label}"
        assert state == baseline_state, f"store state diverged: {label}"


def test_layers_identical_under_strict_replication():
    # Batched replication waits must not reorder acked writes: strict
    # mode acks every record, so result identity covers the ack path.
    rep = {"replicas": 1, "mode": "strict"}
    base = run_soak(soak_config(False, False, False)
                    .with_overrides(replication=rep))
    full = run_soak(soak_config(True, True, True)
                    .with_overrides(replication=rep))
    assert full == base


def test_layers_identical_on_subsharded_instances():
    cfgs = [soak_config(occ, occ, occ, subshards=2) for occ in (False, True)]
    base = run_soak(cfgs[0], shards_per_server=1)
    full = run_soak(cfgs[1], shards_per_server=1)
    assert full == base


def test_layers_identical_on_pipelined_instances():
    cfgs = [soak_config(occ, occ, occ, pipelined_shards=True)
            for occ in (False, True)]
    base = run_soak(cfgs[0], shards_per_server=1)
    full = run_soak(cfgs[1], shards_per_server=1)
    assert full == base
