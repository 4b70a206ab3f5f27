"""Layer probes: the host cost of one layer's hot primitive, alone.

Each probe times a public function of one layer from outside, for a
fixed amount of work, and is speed-normalised like ``host_us_per_op``.
They are the per-layer ceilings a later performance change sizes its
claim against; they belong to no workload.
"""

from __future__ import annotations

import time

from repro.index import CompactHashTable, hash64
from repro.kvmem import SlabAllocator
from repro.protocol import Op, Request, Response, Status
from repro.rdma import MemoryRegion
from repro.sim import Simulator

__all__ = ["run_probes"]


def _sim_events(n: int = 60_000) -> float:
    """Seconds for ``n`` bare kernel timeouts in one process."""
    sim = Simulator()

    def ticker():
        for _ in range(n):
            yield sim.timeout(1)

    proc = sim.process(ticker())
    t0 = time.process_time()
    sim.run(until=proc)
    return (time.process_time() - t0) / n


def _codec(n: int = 20_000) -> float:
    """Seconds per request + response encode and decode."""
    req = Request(op=Op.GET, key=b"k" * 16, req_id=7)
    resp = Response(op=Op.GET, status=Status.OK, req_id=7, value=b"v" * 32,
                    rkey=3, roffset=4096, rlen=72, lease_expiry_ns=1 << 30,
                    version=9)
    t0 = time.process_time()
    for _ in range(n):
        Request.decode(req.encode())
        Response.decode(resp.encode())
    return (time.process_time() - t0) / n


def _index_lookup(n: int = 20_000, n_buckets: int = 1 << 15) -> float:
    """Seconds per hit lookup in a 32k-bucket compact table."""
    keys = [b"k%015d" % i for i in range(4096)]
    table = CompactHashTable(n_buckets, lambda offset: keys[offset])
    hashed = [(k, hash64(k)) for k in keys]
    for offset, (k, h) in enumerate(hashed):
        table.put(k, h, offset)
    t0 = time.process_time()
    for i in range(n):
        k, h = hashed[i & 4095]
        if table.lookup(k, h) is None:
            raise RuntimeError("probe lookup missed a stored key")
    return (time.process_time() - t0) / n


def _alloc_free(n: int = 60_000) -> float:
    """Seconds per slab alloc + free cycle."""
    alloc = SlabAllocator(MemoryRegion(1 << 20), (64, 96, 128))
    t0 = time.process_time()
    for _ in range(n):
        alloc.free(alloc.alloc(72))
    return (time.process_time() - t0) / n


def run_probes(calibrate, cal_ref_s: float) -> dict[str, float]:
    """All four probes, each normalised by the calibration loop run
    around it (``calibrate()`` returns that loop's CPU seconds)."""
    def normalised(probe) -> float:
        before = calibrate()
        seconds = probe()
        return seconds * cal_ref_s / ((before + calibrate()) / 2)

    return {
        "sim.probe_events_per_sec": 1.0 / normalised(_sim_events),
        "protocol.probe_codec_ns": normalised(_codec) * 1e9,
        "index.probe_lookup_ns": normalised(_index_lookup) * 1e9,
        "kvmem.probe_alloc_free_ns": normalised(_alloc_free) * 1e9,
    }
