"""Per-site injector behavior: scope rules, decisions, end-to-end torn writes."""

import pytest

from repro import HydraCluster, SimConfig
from repro.chaos import FaultInjector, FaultSchedule
from repro.chaos.schedule import FaultWindow
from repro.core.errors import HydraError
from repro.sim import Simulator

ALWAYS = 10**12  # window end far past any test run


class _Region:
    def __init__(self, name):
        self.name = name


def _injector(*windows):
    sched = FaultSchedule(name="unit", seed=1, windows=tuple(windows))
    return FaultInjector(Simulator(), sched)


def test_write_faults_only_hit_message_regions():
    inj = _injector(FaultWindow("write_drop", 0, ALWAYS, p=1.0))
    data = b"x" * 64
    assert inj.rdma_write_fault(None, None, _Region("s0.0.req"), 0, data) \
        == {"drop": True}
    assert inj.rdma_write_fault(None, None, _Region("c0.resp"), 0, data) \
        == {"drop": True}
    # Replication ring / ack / arena regions are exempt by design.
    for name in ("s0.0.ring", "s0.0.ack", "s0.0.arena", "s0.0.repwait"):
        assert inj.rdma_write_fault(None, None, _Region(name), 0,
                                    data) is None
    assert inj.injected == 2


def test_torn_writes_are_word_aligned_proper_prefixes():
    inj = _injector(FaultWindow("write_torn", 0, ALWAYS, p=1.0))
    for size in (9, 16, 24, 129):
        fault = inj.rdma_write_fault(None, None, _Region("a.req"), 0,
                                     b"x" * size)
        cut = fault["torn_bytes"]
        assert cut % 8 == 0 and 8 <= cut < size, size
    # An 8-byte write (an occupancy word) cannot tear between words.
    assert inj.rdma_write_fault(None, None, _Region("a.req"), 0,
                                b"x" * 8) is None


def test_duplicates_restricted_to_response_regions():
    inj = _injector(FaultWindow("write_dup", 0, ALWAYS, p=1.0))
    data = b"x" * 32
    assert inj.rdma_write_fault(None, None, _Region("c.resp"), 0, data) \
        == {"duplicate": True}
    # A duplicated *request* could re-execute a stale mutation.
    assert inj.rdma_write_fault(None, None, _Region("s.req"), 0,
                                data) is None


def test_delay_sampling_within_window_bounds():
    inj = _injector(FaultWindow("write_delay", 0, ALWAYS, p=1.0,
                                min_delay_ns=500, max_delay_ns=900),
                    FaultWindow("read_delay", 0, ALWAYS, p=1.0,
                                min_delay_ns=100, max_delay_ns=200))
    for _ in range(20):
        f = inj.rdma_write_fault(None, None, _Region("a.req"), 0, b"x" * 32)
        assert 500 <= f["delay_ns"] < 900
        f = inj.rdma_read_fault(None, None, _Region("a.arena"), 0, 64)
        assert 100 <= f["delay_ns"] < 200


def test_tcp_and_watch_and_replication_hooks():
    inj = _injector(FaultWindow("tcp_reset", 0, ALWAYS, p=1.0),
                    FaultWindow("watch_delay", 0, ALWAYS, p=1.0,
                                min_delay_ns=1000, max_delay_ns=2000),
                    FaultWindow("rep_fault", 0, ALWAYS, p=1.0))
    assert inj.tcp_fault(None, b"p", 1) == "reset"
    assert 1000 <= inj.watch_delay("/shards/s0.0", "deleted") < 2000

    class _Sec:
        shard_id = "s0.0"

    assert inj.replication_fault(_Sec()) is True
    inj2 = _injector()  # no windows: everything clean
    assert inj2.tcp_fault(None, b"p", 1) is None
    assert inj2.watch_delay("/x", "created") == 0
    assert inj2.replication_fault(_Sec()) is False
    assert inj2.injected == 0


def test_injection_log_and_hash_are_replayable():
    def sample():
        inj = _injector(FaultWindow("write_drop", 0, ALWAYS, p=0.5))
        for i in range(50):
            inj.rdma_write_fault(None, None, _Region("a.req"), 0, b"x" * 32)
        return inj.log, inj.schedule_hash()

    log_a, hash_a = sample()
    log_b, hash_b = sample()
    assert log_a == log_b and hash_a == hash_b
    assert 0 < len(log_a) < 50  # p=0.5 actually sampled, not constant


def test_torn_write_storm_end_to_end():
    """Under a 100% torn-write storm no PUT lands garbage and every
    failure is typed — the guardian/indicator contract at full blast."""
    sched = FaultSchedule(
        name="torn-e2e", seed=3,
        windows=(FaultWindow("write_torn", 0, ALWAYS, p=1.0),))
    cfg = SimConfig().with_overrides(client={"op_timeout_ns": 2_000_000})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1, n_client_machines=1)
    cluster.start()
    inj = FaultInjector(cluster.sim, sched).attach(cluster)
    inj.start()
    client = cluster.client(deadline_us=20_000)
    outcome = []

    def app():
        try:
            yield from client.put(b"k1", b"v" * 64)
            outcome.append("ok")
        except HydraError as exc:
            outcome.append(exc)

    cluster.run(app())
    # Every request frame tore, so the op must have failed typed...
    assert len(outcome) == 1 and isinstance(outcome[0], HydraError)
    # ...nothing half-written ever entered the store...
    shard = cluster.shards()[0]
    assert shard.store.dump() == {}
    # ...and the injector actually tore frames (initial + retries).
    torn = [entry for entry in inj.log if entry[1] == "write_torn"]
    assert len(torn) >= 2


def test_injector_requires_attach_before_start():
    inj = _injector()
    with pytest.raises(RuntimeError):
        inj.start()
