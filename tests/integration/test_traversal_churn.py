"""Cold one-sided index traversal racing live PUT/DELETE churn.

The reader's pointer cache is wiped before every multi-GET, so each
batch walks the exported buckets remotely while a writer concurrently
replaces and deletes the same keys.  With scribble-on-reclaim armed, a
traversal that ever followed a reclaimed extent would surface poison
bytes — the legality check below would catch it.
"""

import numpy as np

from repro import HydraCluster, SimConfig


def test_cold_get_many_under_put_delete_churn():
    cfg = SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 16, "buckets_per_shard": 4},
        client={"max_inflight_per_conn": 16}, traversal={"min_fanout": 1})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=2, n_client_machines=2,
                           scribble_on_reclaim=True)
    cluster.start()
    reader, writer = cluster.client(0), cluster.client(1)
    keys = [f"churn-{i:02d}".encode() for i in range(24)]
    # Per-key single writer: the legal observations for a key are exactly
    # None (deleted / not yet written) or a value that writer ever wrote.
    written: dict[bytes, set[bytes]] = {k: set() for k in keys}
    stop = {"done": False}

    def mutator(rng):
        r = 0
        while not stop["done"]:
            r += 1
            for k in keys:
                if stop["done"]:
                    return
                if rng.random() < 0.3:
                    yield from writer.delete(k)
                else:
                    v = f"{k.decode()}:r{r}".encode()
                    written[k].add(v)
                    yield from writer.put(k, v)

    def reader_proc():
        for _round in range(12):
            for k in keys:
                reader.cache.invalidate(k)
            values = yield from reader.get_many(keys + [b"never-there"])
            assert values[-1] is None
            for k, v in zip(keys, values):
                # Never torn, never poison, never another key's value.
                assert v is None or v in written[k], (k, v)
        stop["done"] = True

    cluster.run(reader_proc(), mutator(np.random.default_rng(7)))
    counters = cluster.metrics.counter
    # The batches really went one-sided: bucket walks happened, and every
    # shard mutation versioned the exported index for the walkers.
    assert counters("client.bucket_reads").value > 0
    assert counters("shard.index_mutations_versioned").value > 0
