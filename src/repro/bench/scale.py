"""Fig. 12 at cluster scale: 64 servers x 2048 closed-loop clients.

The paper's scalability study (Fig. 12) stops at the testbed's 8
machines.  This bench extends both axes to cluster scale:

* **scale-out** — weak scaling: 1..64 single-shard servers, 32
  closed-loop clients per server (2048 at the top).  Client machines
  scale with the population (32 handles per machine, 64 machines at the
  top) and handles share their host transport
  (``share_transport=True``) — constant per-machine density, because
  thousands of exclusive QPs per shard is Fig. 12's QP-wall, not this
  bench's subject, and oversubscribing a shared transport past its
  service rate trips the RC transport's 2 ms ``retry_timeout_ns`` into
  retry storms that would measure fault handling instead of scaling.
* **scale-up** — 1..8 shards on one server under a fixed 64-client
  population (sized so a single shard still serves the closed loop
  within the RC retry window; more clients measure overload, not
  shards).

Each row reports the simulator's wall clock and event rate for its cell
next to two pinned numbers: ``events``, the cell's dispatch count, and
``digest``, the BLAKE2 schedule digest of a traced run at a reduced
clone of the row's shape (same topology, capped clients/ops so tracing
stays cheap).  Both must equal the committed constants in
:data:`PINNED` — frozen while the original per-object paths on the seed
heapq kernel still ran beside today's stack and dispatched every cell
identically — so a timing is only reported for a schedule that has not
moved.  With no second stack to run, a cell costs one timed run.

The workload is a deterministic closed loop (not YCSB: no numpy
streams, no latency tallies — this bench measures the simulator, the
simulated curves are the ``normalized`` column): each client owns one
preloaded key and issues ``get`` with every 8th op (``j & 7 == 3``) a
``put`` — ~12.5% writes, Fig. 12's write mix.  Remote-pointer caching
and one-sided traversal are disabled so every op exercises the message
hot path end to end: client marshal -> NIC WQE chain -> shard sweep ->
parse/execute/respond -> doorbell batch -> client drain.

Sizing at 64 servers is explicit: cells run with a 1 MB arena (chosen
when the default 64 MB one was 4 GB of eagerly committed bytearrays;
arenas are demand-paged now, the sizing is kept so rows stay comparable)
and 1k-bucket tables (the working set is one key per client),
and 8 message slots per connection so clients sharing a
(machine, shard) connection pipeline instead of convoying.
"""

from __future__ import annotations

import gc
import time

from ..config import SimConfig
from ..core import HydraCluster
from ..protocol import Op
from ..sim import Simulator, kernel_snapshot
from .registry import Artifact, Claims, experiment, positive

__all__ = ["PINNED", "scale_matrix"]

#: Weak-scaling server counts (1 shard each); the top shape is the
#: 64-server x 2048-client headline cell.
_SCALE_OUT_SERVERS = (1, 2, 4, 8, 16, 32, 64)
#: Scale-up shard counts on a single server.
_SCALE_UP_SHARDS = (1, 2, 4, 8)
_CLIENTS_PER_SERVER = 32
_SCALE_UP_CLIENTS = 64
#: Client-machine sizing, measured against the RC transport's 2 ms
#: ``retry_timeout_ns``: a machine's shared transport sustains ~4
#: closed-loop handles per (machine, shard) connection, or ~8 handles
#: total when the machine has only one or two connections — past
#: either, an attempt queues beyond the retry window and the cell
#: degenerates into a RETRY_EXC storm (ev/op jumps from ~25 to 60-90,
#: sim throughput collapses ~100x).  Machines therefore scale with the
#: population at ``min(32, max(8, 4 * total_shards))`` handles each, so
#: every cell stays on the service-rate side of that cliff.
_CLIENTS_PER_MACHINE_CAP = 32
_CLIENTS_PER_CONN = 4
_OPS_PER_CLIENT = 16
_VALUE = bytes(100)
#: Digest-proof clone caps: same topology, fewer clients/ops.
_TRACE_CLIENTS = 48
_TRACE_OPS = 6
#: Best-of reps on cells small enough to repeat cheaply.
_REPS_SMALL = 2
_SMALL_CLIENTS = 256

#: ``(axis, servers, shards, clients, ops)`` -> (events dispatched, digest
#: of the traced reduced clone), for the full-scale matrix and the
#: ``--scale 0.05`` smoke cells.  The 8-server scale-out cell went 73,208
#: -> 73,227 events (7.6598 -> 7.6158 Mops) when a client that frees a
#: slot started re-ringing the doorbell for window-full waiters: its 256
#: ``share_transport`` handles are the only full cell that waits on full
#: windows.  Its reduced clone's schedule and wire digests held.
PINNED = {
    ("scale_out", 1, 1, 32, 512): (10418, "051033688ef36403ab494c7a9cd7ba52"),
    ("scale_out", 2, 2, 64, 1024): (18140, "b8c56aa5858d70926713c7b8e8edfdf0"),
    ("scale_out", 4, 4, 128, 2048): (35903,
                                     "8a6791a8a6f0c60f65dfab7c9a79c42e"),
    ("scale_out", 8, 8, 256, 4096): (73227,
                                     "89daf8fb68a991172440f972ee93dd38"),
    ("scale_out", 16, 16, 512, 8192): (131710,
                                       "4ebd654bc52f726803e06685ebc32e78"),
    ("scale_out", 32, 32, 1024, 16384): (253465,
                                         "41e31c2609e944122b2c3941668e4dab"),
    ("scale_out", 64, 64, 2048, 32768): (500608,
                                         "6488b1236d4b46da7e04e274db0840e7"),
    ("scale_up", 1, 1, 64, 1024): (20730, "5629c648edef907bb599d33dadc2ac86"),
    ("scale_up", 1, 2, 64, 1024): (17635, "aa05e6dcedb1afeef45cafae21a4a73d"),
    ("scale_up", 1, 4, 64, 1024): (18186, "8337afa55b289ddc28955f280ded588a"),
    ("scale_up", 1, 8, 64, 1024): (20563, "cb64a85e823c095d9435ba7f53009c70"),
    ("scale_out", 1, 1, 8, 32): (677, "7bb6e9347ebc40bdf8cd86d26375f4d4"),
    ("scale_out", 8, 8, 12, 48): (985, "bc6d95ce15eb2a9b8b963657f8504f53"),
    ("scale_out", 64, 64, 102, 408): (8160,
                                      "5edcdffc8498a1186a43412519075ca6"),
    ("scale_up", 1, 1, 8, 32): (677, "7bb6e9347ebc40bdf8cd86d26375f4d4"),
    ("scale_up", 1, 8, 8, 32): (655, "0e7e772facb0ef8d82e177eafcd57a84"),
}


def _config() -> SimConfig:
    """The bench configuration, identical across cells."""
    return SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 8,
               "buckets_per_shard": 1 << 10},
        client={"max_inflight_per_conn": 8,
                "rptr_cache_enabled": False},
        traversal={"enabled": False},
        memory={"arena_bytes": 1 << 20},
    )


def _client_loop(client, key: bytes, ops: int):
    """Deterministic closed loop: ~12.5% puts, rest gets, one key."""
    for j in range(ops):
        if (j & 7) == 3:
            yield from client.put(key, _VALUE)
        else:
            value = yield from client.get(key)
            if value is None:
                raise AssertionError(
                    f"GET returned None for preloaded key {key!r}")


def _build(servers: int, shards: int, n_clients: int, ops: int,
           trace: bool):
    """Construct one cell: cluster, preloaded keys, client processes.

    Returns ``(sim, cluster, procs, total_ops)`` ready to run.
    """
    sim = Simulator()
    if trace:
        sim.trace_schedule()
    total_shards = servers * shards
    per_machine = min(_CLIENTS_PER_MACHINE_CAP,
                      max(8, _CLIENTS_PER_CONN * total_shards))
    n_machines = max(1, -(-n_clients // per_machine))
    cluster = HydraCluster(_config(), n_server_machines=servers,
                           shards_per_server=shards,
                           n_client_machines=n_machines, sim=sim)
    keys = [b"scale.k%06d" % i for i in range(n_clients)]
    for key in keys:
        shard = cluster.route(key)
        result = shard.store_for_key(key).upsert(key, _VALUE, Op.PUT)
        if result.status.name != "OK":
            raise RuntimeError(f"preload failed for {key!r}: "
                               f"{result.status.name}")
    cluster.start()
    clients = [cluster.client(machine_index=i % n_machines,
                              share_transport=True)
               for i in range(n_clients)]
    procs = [sim.process(_client_loop(c, keys[i], ops),
                         name=f"scale.c{i}")
             for i, c in enumerate(clients)]
    return sim, cluster, procs, n_clients * ops


def _timed_cell(servers: int, shards: int, n_clients: int,
                ops: int) -> tuple[float, int, int, int]:
    """Run one timed cell; returns (wall_s, sim_ns, events, total_ops)."""
    sim, cluster, procs, total = _build(servers, shards, n_clients, ops,
                                        trace=False)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        sim.run(until=sim.all_of(procs))
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    cluster.stop()
    events = int(kernel_snapshot(sim)["events_dispatched"])
    return wall, sim.now, events, total


def _digest_cell(servers: int, shards: int, n_clients: int,
                 ops: int) -> str:
    """Traced run of a reduced clone; returns the BLAKE2 digest."""
    sim, cluster, procs, _total = _build(servers, shards, n_clients, ops,
                                         trace=True)
    sim.run(until=sim.all_of(procs))
    cluster.stop()
    return sim.schedule_digest()


def _cell_rows(axis: str, servers: int, shards: int, n_clients: int,
               ops: int) -> dict:
    """Measure one matrix cell end to end and build its artifact row."""
    digest = _digest_cell(servers, shards, min(n_clients, _TRACE_CLIENTS),
                          min(ops, _TRACE_OPS))
    reps = _REPS_SMALL if n_clients <= _SMALL_CLIENTS else 1
    wall, sim_ns, events, total = min(
        _timed_cell(servers, shards, n_clients, ops) for _rep in range(reps))
    mops = (total / (sim_ns * 1e-9)) / 1e6 if sim_ns > 0 else 0.0
    return {
        "axis": axis,
        "servers": servers,
        "shards": servers * shards,
        "clients": n_clients,
        "ops": total,
        "throughput_mops": round(mops, 4),
        "normalized": 0.0,  # filled per axis below
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "digest": digest,
    }


def _gate(rows: list[dict]) -> list[str]:
    """Both axes present with the 64-server headline row; every row's
    events and digest equal the committed constants of its shape; each
    axis normalized against its own first row (1.0)."""
    need = Claims()
    axes = {row.get("axis") for row in rows}
    for axis in ("scale_out", "scale_up"):
        need(axis in axes, f"missing axis {axis!r}")
    need(any(row.get("axis") == "scale_out" and row.get("servers") == 64
             for row in rows), "no 64-server scale-out row (the headline "
         "shape)")
    seen_axis: set = set()
    for i, row in enumerate(rows):
        shape = tuple(row.get(k) for k in ("axis", "servers", "shards",
                                           "clients", "ops"))
        label, pinned = f"row {i} {shape}", PINNED.get(shape)
        measured = (row.get("events"), row.get("digest"))
        need(pinned is not None, f"{label}: no committed constants for this "
             f"shape (pinned shapes: --scale 1.0 and the 0.05 smoke)")
        need(pinned in (None, measured), f"{label}: events/digest "
             f"{measured!r} differ from the committed {pinned!r} — the "
             f"schedule moved")
        if row.get("axis") not in seen_axis:
            seen_axis.add(row.get("axis"))
            need(row.get("normalized") == 1.0, f"{label}: each axis's first "
                 f"row is its own baseline and must have normalized == 1.0, "
                 f"got {row.get('normalized')!r}")
        else:
            need(positive(row, "normalized"), f"{label}: normalized must be "
                 f"a positive number, got {row.get('normalized')!r}")
    return need.broken


@experiment(
    "scale", "Fig. 12 at cluster scale — 64 servers x 2048 clients, events "
    "and schedule digests pinned per shape",
    artifact=Artifact(
        "BENCH_scale.json", "scale_matrix",
        "Fig. 12 scale-out/scale-up matrix extended to 64 servers x 2048 "
        "closed-loop clients (~12.5% writes, message hot path only).  "
        "wall_s and events_per_sec time the simulator; events and digest "
        "(BLAKE2 schedule digest of a traced reduced clone of the shape) "
        "must equal the committed per-shape constants, proving the "
        "schedule did not move.", "normalized throughput / events/sec",
        ("axis", "servers", "shards", "clients", "ops", "throughput_mops",
         "normalized", "wall_s", "events", "events_per_sec", "digest")),
    check=_gate)
def scale_matrix(scale: float = 1.0) -> list[dict]:
    """The BENCH_scale matrix: Fig. 12 axes at 64-server scale.

    ``scale`` shrinks the client population and per-client op count for
    smoke runs; the server/shard axes keep their full range so every
    topology is exercised.
    """
    ops = max(4, int(_OPS_PER_CLIENT * scale))
    # Smoke runs keep the shape extremes (including the 64-server
    # topology) but skip the interior of each axis.
    out_servers = _SCALE_OUT_SERVERS if scale >= 0.25 else (1, 8, 64)
    up_shards = _SCALE_UP_SHARDS if scale >= 0.25 else (1, 8)
    rows: list[dict] = []
    for servers in out_servers:
        n_clients = max(8, int(_CLIENTS_PER_SERVER * servers * scale))
        rows.append(_cell_rows("scale_out", servers, 1, n_clients, ops))
    for shards in up_shards:
        n_clients = max(8, int(_SCALE_UP_CLIENTS * scale))
        rows.append(_cell_rows("scale_up", 1, shards, n_clients, ops))
    # Normalize throughput within each axis against its first cell, the
    # way Fig. 12 plots "normalized throughput".
    for axis in ("scale_out", "scale_up"):
        base = next(r["throughput_mops"] for r in rows
                    if r["axis"] == axis)
        for r in rows:
            if r["axis"] == axis and base > 0:
                r["normalized"] = round(r["throughput_mops"] / base, 3)
    return rows
