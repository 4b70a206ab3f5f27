"""Edge cases: oversized messages, NIC recovery, mid-request crashes."""

import pytest

from repro import HydraCluster, SimConfig
from repro.core import BadStatus
from repro.protocol import Status


def test_oversized_request_raises_cleanly():
    cfg = SimConfig().with_overrides(hydra={"conn_buf_bytes": 1024})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    client = cluster.client()

    def app():
        with pytest.raises(ValueError, match="conn_buf_bytes"):
            yield from client.put(b"k", b"v" * 2048)
        # The connection remains usable afterwards.
        assert (yield from client.put(b"k", b"small")) is Status.OK

    cluster.run(app())


def test_oversized_response_degrades_to_error_status():
    # PUT through a big-buffer connection, then GET through a small one.
    small = SimConfig().with_overrides(hydra={"conn_buf_bytes": 512},
                                       client={"rptr_cache_enabled": False})
    cluster = HydraCluster(config=small, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    shard = cluster.shards()[0]
    # Install an item too large for any 512B response directly.
    from repro.protocol import Op
    shard.store.upsert(b"big", b"v" * 900, Op.PUT)
    client = cluster.client()

    def app():
        with pytest.raises(BadStatus, match="unexpected status ERROR") as exc:
            yield from client.get(b"big")
        assert exc.value.status is Status.ERROR
        # Clean failure, not a timeout; the shard logged the overflow.
        assert cluster.metrics.counter("shard.resp_overflow").value == 1
        # Small items still work on the same connection.
        assert (yield from client.put(b"s", b"x")) is Status.OK
        assert (yield from client.get(b"s")) == b"x"

    cluster.run(app())


def test_nic_recovery_restores_service():
    cfg = SimConfig().with_overrides(client={"op_timeout_ns": 3_000_000})
    cluster = HydraCluster(config=cfg, n_server_machines=1,
                           shards_per_server=1)
    cluster.start()
    client = cluster.client()
    from repro.core import RequestTimeout

    def app():
        yield from client.put(b"k", b"v")
        cluster.server_machines[0].nic.fail()
        with pytest.raises(RequestTimeout):
            yield from client.get(b"k")
        cluster.server_machines[0].nic.recover()
        # Shard never died; once the NIC is back, service resumes.
        assert (yield from client.get(b"k")) == b"v"

    cluster.run(app())


def test_shard_killed_between_requests_leaves_memory_consistent():
    cluster = HydraCluster(n_server_machines=1, shards_per_server=1)
    cluster.start()
    client = cluster.client()
    shard = cluster.shards()[0]

    def app():
        for i in range(10):
            yield from client.put(f"k{i}".encode(), b"v")
        shard.kill()
        yield cluster.sim.timeout(1_000_000)

    cluster.run(app())
    # Store is still readable out-of-band (failover would migrate it).
    assert len(shard.store.dump()) == 10
    assert not shard.alive


def test_empty_value_roundtrip():
    cluster = HydraCluster(n_server_machines=1, shards_per_server=1)
    cluster.start()
    client = cluster.client()

    def app():
        assert (yield from client.put(b"k", b"")) is Status.OK
        assert (yield from client.get(b"k")) == b""
        assert (yield from client.get(b"k")) == b""  # RDMA-read path

    cluster.run(app())


def test_binary_keys_with_framing_magic_bytes():
    """Keys/values containing the framing magic must not confuse anything."""
    from repro.protocol import HEAD_MAGIC, TAIL_MAGIC
    import struct
    cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
    cluster.start()
    client = cluster.client()
    evil_value = (struct.pack("<Q", TAIL_MAGIC)
                  + struct.pack("<Q", (HEAD_MAGIC << 32) | 8)
                  + b"\x00" * 16)
    evil_key = struct.pack("<Q", TAIL_MAGIC)

    def app():
        assert (yield from client.put(evil_key, evil_value)) is Status.OK
        assert (yield from client.get(evil_key)) == evil_value
        assert (yield from client.get(evil_key)) == evil_value

    cluster.run(app())
