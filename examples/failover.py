#!/usr/bin/env python3
"""High-availability walkthrough (§5): replication, crash, SWAT failover.

A primary shard replicates every mutation to a secondary through the RDMA
logging protocol.  We then kill the whole server machine: the SWAT
leader's one-sided Reads of the shard's heartbeat word start failing,
three misses condemn it, and the leader fences it, promotes the secondary
around its existing store and republishes the routing metadata — and the
failover-aware client *rides through*: a GET
issued mid-blackout retries inside its deadline budget, re-routes via
the bumped routing generation, and completes against the promoted shard
with every acknowledged write intact.  A legacy single-attempt client
(``deadline_us=0``) sees the blackout as a ``RequestTimeout`` instead.

Run with::

    python examples/failover.py
"""

from repro import HydraCluster, SimConfig
from repro.core import RequestTimeout
from repro.protocol import Status

MS = 1_000_000


def main() -> None:
    cfg = SimConfig().with_overrides(
        replication={"replicas": 1, "mode": "rdma_log"},
        client={"op_timeout_ns": 5 * MS},
    )
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    ha = cluster.enable_ha(n_swat=3)
    cluster.start()
    client = cluster.client()
    sim = cluster.sim
    shard_id = cluster.routing.shard_ids()[0]
    acked = {}

    def phase_write():
        for i in range(40):
            key, value = f"order:{i:04d}".encode(), f"item-{i}".encode()
            status = yield from client.put(key, value)
            if status is Status.OK:
                acked[key] = value
        print(f"[{sim.now/MS:9.2f}ms] {len(acked)} writes acknowledged "
              f"on primary {cluster.routing.resolve(shard_id).shard_id!r} "
              f"(machine {cluster.routing.resolve(shard_id).machine.machine_id})")

    cluster.run(phase_write())
    sim.run(until=sim.now + 20 * MS)  # let replication drain

    sec = cluster.secondaries[shard_id][0]
    print(f"[{sim.now/MS:9.2f}ms] secondary applied_seq={sec.applied_seq}, "
          f"store size={len(sec.store)}")

    print(f"[{sim.now/MS:9.2f}ms] killing server machine "
          f"{cluster.servers[0].machine.machine_id} (shards + NIC)...")
    cluster.servers[0].kill()

    legacy = cluster.client(deadline_us=0)  # pre-taxonomy single attempt

    def phase_blackout():
        try:
            yield from legacy.get(b"order:0000")
            print("unexpected: request served by a dead machine")
        except RequestTimeout:
            print(f"[{sim.now/MS:9.2f}ms] legacy client (deadline_us=0) "
                  f"timed out: primary dead, failover in progress")
        # The failover-aware client issued at the same moment retries
        # through the blackout and lands on the promoted secondary.
        t0 = sim.now
        got = yield from client.get(b"order:0000")
        print(f"[{sim.now/MS:9.2f}ms] failover-aware client rode through "
              f"in {(sim.now - t0)/MS:.1f} ms -> {got!r} "
              f"(retries={cluster.metrics.counter('client.retries').value}, "
              f"failovers="
              f"{cluster.metrics.counter('client.failovers').value})")

    cluster.run(phase_blackout())

    # Let SWAT finish republishing routing metadata.
    sim.run(until=sim.now + 4_000 * MS)
    new_shard = cluster.routing.resolve(shard_id)
    print(f"[{sim.now/MS:9.2f}ms] SWAT failovers={ha.swat.failovers}; "
          f"shard {shard_id!r} now served from machine "
          f"{new_shard.machine.machine_id}")

    def phase_verify():
        lost = 0
        for key, value in acked.items():
            got = yield from client.get(key)
            if got != value:
                lost += 1
        print(f"[{sim.now/MS:9.2f}ms] verified {len(acked)} acknowledged "
              f"writes on the promoted shard: {lost} lost")
        status = yield from client.put(b"order:after", b"post-failover")
        print(f"[{sim.now/MS:9.2f}ms] new write after failover -> "
              f"{status.name}")

    cluster.run(phase_verify())


if __name__ == "__main__":
    main()
