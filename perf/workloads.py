"""The six benchmark workloads and the closed-loop load generator.

Everything here drives the program through its public surface only
(``HydraCluster``, ``cluster.client()``, ``get``/``update``/``get_many``/
``put_many``, ``enable_ha``, ``server.kill()``) plus the documented
out-of-band preload (``store_for_key(key).upsert``), and reads counters
through ``cluster.metrics.snapshot()``, ``kernel_snapshot(sim)``,
``cluster.rptr_stats()`` and ``core.busy`` afterwards.

The load is generated from one host thread: simulated clients are
coroutines.  Inputs come from ``random.Random`` seeded by
``(workload, seed, round)`` and from a Zipf table built here, so a change
to the program's own workload generators cannot move the benchmark's
inputs.

An **op** is one key read or written: a ``get_many`` of 16 keys is 16 ops
and one read *call*; latency is per call.
"""

from __future__ import annotations

import itertools
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field

from repro import HydraCluster, SimConfig
from repro.core.errors import HydraError
from repro.protocol import Op, Status
from repro.sim import kernel_snapshot

__all__ = ["Workload", "WORKLOADS", "Round"]

_MS = 1_000_000
#: Warm-up is the first 20% of each client's stream, i.e. a quarter of
#: the measured part; every cache starts empty and fills during it.
WARM_DIVISOR = 4


def key(i: int) -> bytes:
    """16-byte key of record ``i``."""
    return b"k%015d" % i


def value(i: int, ticket: int) -> bytes:
    """32-byte value: the record it belongs to and the write that made it
    (ticket 0 is the preload), so a returned value names its own origin."""
    return b"%015d:%016d" % (i, ticket)


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Counts are per round at ``--seconds 10``."""

    name: str
    why: str
    records: int
    zipf: bool
    clients: int
    shards: int
    #: Measured calls per client per round (count-terminated workloads).
    calls_per_client: int
    #: 1 = ``get``/``update``; K > 1 = ``get_many``/``put_many`` of K keys.
    keys_per_call: int
    write_share: float
    #: Per-shard arena, ~4x what the run can allocate (preload + every
    #: out-of-place write of a round landing on the fullest shard).
    arena_bytes: int
    overrides: dict = field(default_factory=dict)
    #: Paced, time-terminated failover run (0 = closed loop by count).
    think_ns: int = 0
    warm_until_ns: int = 0
    kill_at_ns: int = 0
    end_at_ns: int = 0


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "read_hot",
        "100% GET, zipfian 0.99 over 4,096 records that fit the rptr cache: "
        "the one-sided Read path does the work, shards only idle-poll",
        records=4096, zipf=True, clients=8, shards=4,
        calls_per_client=700, keys_per_call=1, write_share=0.0,
        arena_bytes=1 << 20),
    Workload(
        "update_heavy",
        "50% GET / 50% UPDATE, zipfian over 4,096 records: updates flip "
        "guardians, invalidate cached pointers and allocate out of place",
        records=4096, zipf=True, clients=8, shards=4,
        calls_per_client=500, keys_per_call=1, write_share=0.5,
        arena_bytes=2 << 20),
    Workload(
        "msg_uniform",
        "100% GET, uniform over 32,768 records, rptr cache and traversal "
        "off: pure RDMA-Write message path through the shard sweep",
        records=32768, zipf=False, clients=8, shards=4,
        calls_per_client=500, keys_per_call=1, write_share=0.0,
        arena_bytes=8 << 20,
        overrides={"client": {"rptr_cache_enabled": False},
                   "traversal": {"enabled": False}}),
    Workload(
        "multiget_cold",
        "get_many of 16 uniform keys over 20,000 records, 400-entry rptr "
        "cache (~2% hit): one-sided index traversal, slowest of 16 parts "
        "sets each call",
        records=20000, zipf=False, clients=8, shards=4,
        calls_per_client=60, keys_per_call=16, write_share=0.0,
        arena_bytes=4 << 20,
        overrides={"hydra": {"msg_slots_per_conn": 16},
                   "client": {"max_inflight_per_conn": 16,
                              "max_inflight_reads": 16,
                              "rptr_cache_entries": 400},
                   "traversal": {"enabled": True}}),
    Workload(
        "write_durable",
        "put_many of 8 uniform keys over 8,192 records, one rdma_log "
        "replica, durable log with ack_on_flush: the whole write pipeline",
        records=8192, zipf=False, clients=8, shards=4,
        calls_per_client=80, keys_per_call=8, write_share=1.0,
        arena_bytes=4 << 20,
        overrides={"hydra": {"msg_slots_per_conn": 8},
                   "client": {"max_inflight_per_conn": 8},
                   "replication": {"replicas": 1, "mode": "rdma_log"},
                   "durability": {"enabled": True,
                                  "ack_mode": "ack_on_flush"}}),
    Workload(
        "failover_kill",
        "paced 50/50 GET/UPDATE on one replicated shard, primary killed at "
        "150 ms simulated: coord detection, promotion and client retries",
        records=256, zipf=False, clients=2, shards=1,
        calls_per_client=0, keys_per_call=1, write_share=0.5,
        arena_bytes=1 << 20,
        overrides={"replication": {"replicas": 1},
                   "coord": {"heartbeat_ns": 50 * _MS,
                             "session_timeout_ns": 200 * _MS},
                   "client": {"op_timeout_ns": 5 * _MS}},
        think_ns=200_000, warm_until_ns=30 * _MS, kill_at_ns=150 * _MS,
        end_at_ns=450 * _MS),
)}


def _zipf_cdf(n: int, theta: float = 0.99) -> list[float]:
    weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
    total = sum(weights)
    return list(itertools.accumulate(w / total for w in weights))


class _Write:
    """One write of one record, for the admissibility check."""

    __slots__ = ("issued", "acked", "dead_at")

    def __init__(self, issued: int, acked=None):
        self.issued = issued
        self.acked = acked      # simulated ns of the ack, None in flight
        self.dead_at = None     # when an acked later write superseded it


class _Oracle:
    """Which values a read may return.

    Write B supersedes write A once B is acked, if A was acked before B
    was issued; a read issued after that may no longer return A's value.
    Writes that overlap in time are unordered, so either may win, and a
    write still in flight (or never acked) may already be visible.
    """

    def __init__(self):
        #: record -> {value: _Write}; the preload counts as acked at -1.
        self.writes: dict[int, dict[bytes, _Write]] = {}
        self.tickets = 0

    def _of(self, i: int) -> dict[bytes, _Write]:
        writes = self.writes.get(i)
        if writes is None:
            writes = self.writes[i] = {value(i, 0): _Write(-1, acked=-1)}
        return writes

    def issue(self, i: int, now: int) -> tuple[bytes, _Write]:
        self.tickets += 1
        val = value(i, self.tickets)
        write = self._of(i)[val] = _Write(now)
        return val, write

    def ack(self, i: int, write: _Write, now: int) -> None:
        write.acked = now
        for other in self._of(i).values():
            if (other.dead_at is None and other.acked is not None
                    and other.acked <= write.issued and other is not write):
                other.dead_at = now

    def admissible(self, i: int, val, read_issued: int) -> bool:
        writes = self.writes.get(i)
        if writes is None:
            return val == value(i, 0)
        write = writes.get(val)
        return write is not None and (write.dead_at is None
                                      or write.dead_at > read_issued)


class Round:
    """One cluster, set up fresh, driven through warm-up and measurement.

    ``setup()``, ``warm()`` and ``measure()`` are separate so the caller
    can time and profile exactly the measured section; ``finish()`` reads
    every written record back and returns the round's exact numbers.
    """

    def __init__(self, workload: Workload, seed: int, index: int,
                 scale: float):
        self.w = w = workload
        self.rng = random.Random(f"{w.name}/{seed}/{index}")
        self.calls = max(1, round(w.calls_per_client * scale))
        self.think_ns = int(w.think_ns / scale) if w.think_ns else 0
        self.cdf = _zipf_cdf(w.records) if w.zipf else None
        self.oracle = _Oracle()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.read_ns: list[int] = []
        self.write_ns: list[int] = []
        self.done_at: list[int] = []
        self.ops = 0
        #: (host CPU seconds, ops done) stamped by client 0 as it goes.
        self.stamps: list[tuple[float, int]] = []

    # -- inputs -------------------------------------------------------------
    def _draw(self) -> int:
        if self.cdf is None:
            return self.rng.randrange(self.w.records)
        return min(bisect_left(self.cdf, self.rng.random()),
                   self.w.records - 1)

    def _streams(self, n_calls: int, until_ns: int) -> list:
        """One call stream per client: ``(is_write, record indices)``."""
        if self.w.think_ns:
            return [self._paced(until_ns) for _ in self.clients]
        return [[self._call() for _ in range(n_calls)] for _ in self.clients]

    def _call(self) -> tuple[bool, list[int]]:
        w = self.w
        return (self.rng.random() < w.write_share,
                [self._draw() for _ in range(w.keys_per_call)])

    def _paced(self, until_ns: int):
        """Calls drawn as they are needed, until simulated time is up."""
        while self.sim.now < until_ns:
            yield self._call()

    # -- phases -------------------------------------------------------------
    def setup(self) -> None:
        """Cluster construction + preload + ``start()`` + client connect."""
        w = self.w
        overrides = {s: dict(f) for s, f in w.overrides.items()}
        overrides.setdefault("memory", {})["arena_bytes"] = w.arena_bytes
        cfg = SimConfig().with_overrides(**overrides)
        self.cluster = cluster = HydraCluster(
            config=cfg, n_server_machines=1, shards_per_server=w.shards,
            n_client_machines=2)
        if w.kill_at_ns:
            cluster.enable_ha()
        else:
            for i in range(w.records):
                k = key(i)
                result = cluster.route(k).store_for_key(k).upsert(
                    k, value(i, 0), Op.PUT)
                if result.status is not Status.OK:
                    raise RuntimeError(f"preload of record {i} failed: "
                                       f"{result.status.name}")
        cluster.start()
        self.sim = cluster.sim
        self.clients = [cluster.client(c % 2) for c in range(w.clients)]
        self.cores = {id(s.core): s.core for s in cluster.shards()}
        if w.kill_at_ns:
            # The out-of-band preload bypasses replication, and a promoted
            # secondary must hold every record: load through the client.
            def preload():
                for i in range(w.records):
                    yield from self.clients[0].put(key(i), value(i, 0))
            cluster.run(preload())

    def warm(self) -> None:
        self._run_phase(self._streams(max(1, self.calls // WARM_DIVISOR),
                                      self.w.warm_until_ns), record=False)

    def measure(self) -> None:
        w = self.w
        streams = self._streams(self.calls, w.end_at_ns)
        self._before = self._counters()
        self.t_start = self.sim.now
        if w.kill_at_ns:
            self.sim.process(self._killer())
        self._run_phase(streams, record=True)
        self.t_end = self.sim.now
        self._after = self._counters()

    def _killer(self):
        yield self.sim.timeout(self.w.kill_at_ns - self.sim.now)
        self.cluster.servers[0].kill()

    def _run_phase(self, streams: list, record: bool) -> None:
        self.cluster.run(*[self._client(c, client, streams[c], record)
                           for c, client in enumerate(self.clients)])

    def _client(self, cid: int, client, stream, record: bool):
        """Closed loop: the next call goes out when the last one returned
        (after the think time, on the paced workload)."""
        sim = self.sim
        for is_write, idxs in stream:
            if self.think_ns:
                yield sim.timeout(self.think_ns)
            t0 = sim.now
            self.attempted += len(idxs)
            try:
                if is_write:
                    yield from self._write(client, idxs)
                else:
                    yield from self._read(client, idxs, t0)
            except HydraError as exc:
                self._fail(len(idxs), f"{type(exc).__name__}: {exc}")
            if record:
                (self.write_ns if is_write else self.read_ns).append(
                    sim.now - t0)
                self.done_at.append(sim.now)
                self.ops += len(idxs)
                if cid == 0:
                    self.stamps.append((time.process_time(), self.ops))

    def _fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(why)

    def _read(self, client, idxs: list[int], t0: int):
        if len(idxs) == 1:
            vals = [(yield from client.get(key(idxs[0])))]
        else:
            vals = yield from client.get_many([key(i) for i in idxs])
        for i, val in zip(idxs, vals):
            if not self.oracle.admissible(i, val, t0):
                self._fail(1, f"read of record {i} returned {val!r}")

    def _write(self, client, idxs: list[int]):
        now = self.sim.now
        issued = [self.oracle.issue(i, now) for i in idxs]
        if len(idxs) == 1:
            statuses = [(yield from client.update(key(idxs[0]),
                                                  issued[0][0]))]
        else:
            statuses = yield from client.put_many(
                [(key(i), val) for i, (val, _w) in zip(idxs, issued)])
        for i, (_val, write), status in zip(idxs, issued, statuses):
            if status is Status.OK:
                self.oracle.ack(i, write, self.sim.now)
            else:
                self._fail(1, f"write of record {i}: {status.name}")

    # -- exact numbers ------------------------------------------------------
    def _counters(self) -> dict:
        cluster = self.cluster
        for shard in cluster.shards():
            self.cores.setdefault(id(shard.core), shard.core)
        now = self.sim.now
        return {
            "metrics": cluster.metrics.snapshot(),
            "kernel": kernel_snapshot(self.sim),
            "rptr": cluster.rptr_stats(),
            # Cores exist from t=0, so the busy integral is the
            # time-average utilisation times elapsed simulated time.
            "busy_ns": sum(core.busy.time_average() * now
                           for core in self.cores.values()),
        }

    def finish(self) -> dict:
        """Read every written record back, then return this round's exact
        (simulated and counted) numbers."""
        written = sorted(self.oracle.writes)
        lost = 0
        t_read = self.sim.now

        def readback():
            nonlocal lost
            client = self.clients[0]
            step = max(self.w.keys_per_call, 8)
            for s in range(0, len(written), step):
                idxs = written[s:s + step]
                vals = yield from client.get_many([key(i) for i in idxs])
                lost += sum(not self.oracle.admissible(i, val, t_read)
                            for i, val in zip(idxs, vals))

        try:
            self.cluster.run(readback())
        except HydraError as exc:
            lost = len(written)
            self.errors.append(f"read-back: {type(exc).__name__}: {exc}")
        shards = self.cluster.shards()
        unavailable_ns = 0
        if self.w.kill_at_ns:
            after = [self.w.kill_at_ns] + [t for t in self.done_at
                                           if t >= self.w.kill_at_ns]
            unavailable_ns = max(b - a for a, b in zip(after, after[1:]))
        out = {
            "ops": self.ops,
            "attempted": self.attempted,
            "failed": self.failed,
            "lost_acked_writes": lost,
            "errors": self.errors,
            "window_ns": self.t_end - self.t_start,
            "read_ns": self.read_ns,
            "write_ns": self.write_ns,
            "unavailable_ns": unavailable_ns,
            "before": self._before,
            "after": self._after,
            "shard_cores": len(self.cores),
            "live_extents": sum(s.store.alloc.live_extents for s in shards),
            "retired_pending": sum(s.store.reclaimer.pending
                                   for s in shards),
        }
        self.cluster.stop()
        return out
