"""The QoS seam: every tenant decision lives in ``repro.qos``, and a
default handle carries no tenant state and makes no tenant call."""

import ast
import re
import sys
from pathlib import Path

import pytest

from repro import HydraCluster, QosConfig, SimConfig
from repro.core.errors import RequestTimeout

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
QOS = SRC / "qos"
#: The building blocks only the tenant policy may construct.
BLOCKS = {"SlotArbiter", "AimdController", "TokenBucket"}
#: A transport or pipeline field named like this is tenant state.
TENANT_FIELD = re.compile(r"tenant|arbiter|ctl|aimd|drr|weight|issued|"
                          r"read_use|bucket|grant")


def _names(expr):
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_only_qos_constructs_the_building_blocks():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if QOS in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                hit = BLOCKS.intersection(_names(node.func))
                if hit:
                    offenders.append(f"{path.relative_to(SRC)}:"
                                     f"{node.lineno} {sorted(hit)}")
    assert offenders == []


def _class(tree, name):
    return next(n for n in ast.walk(tree)
                if isinstance(n, ast.ClassDef) and n.name == name)


def test_transport_and_pipeline_declare_no_tenant_field():
    tree = ast.parse((SRC / "core" / "client.py").read_text())
    transport = _class(tree, "ClientTransport")
    slots = next(n.value for n in transport.body
                 if isinstance(n, ast.Assign)
                 and ast.unparse(n.targets[0]) == "__slots__")
    assert ast.literal_eval(slots) == ("conns", "tcp_conns", "pipes",
                                       "req_ids")
    assigned = {t.attr for n in ast.walk(transport)
                if isinstance(n, (ast.Assign, ast.AnnAssign))
                for t in (n.targets if isinstance(n, ast.Assign)
                          else [n.target])
                if isinstance(t, ast.Attribute)}
    assert assigned == {"conns", "tcp_conns", "pipes", "req_ids"}
    pipeline = _class(tree, "_ConnPipeline")
    fields = {n.target.id: ast.unparse(n.annotation)
              for n in pipeline.body if isinstance(n, ast.AnnAssign)}
    assert [f for f in fields if TENANT_FIELD.search(f)] == []
    qos_fields = [f for f, ann in fields.items() if "PipeQos" in ann]
    assert qos_fields == ["qos"]
    assert fields["qos"] == "Optional['PipeQos']"


def _cfg():
    return SimConfig().with_overrides(
        hydra={"msg_slots_per_conn": 8},
        client={"max_inflight_per_conn": 4, "op_timeout_ns": 200_000})


def _mixed(cluster, client):
    keys = [f"k{i:03d}".encode() for i in range(12)]

    def app():
        for key in keys:
            yield from client.put(key, b"v" * 24)
        for key in keys:
            yield from client.get(key)
        yield from client.get_many(keys)
        yield from client.put_many([(k, b"w" * 24) for k in keys[:6]])
        yield from client.get_many(keys[:6])

    cluster.run(app())


def _qos_calls(fn) -> list[str]:
    """Every function of ``repro.qos`` entered while ``fn`` runs."""
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and str(QOS) in frame.f_code.co_filename:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_default_handle_carries_no_tenant_state_and_makes_no_tenant_call():
    cluster = HydraCluster(config=_cfg(), n_server_machines=1,
                           shards_per_server=2, n_client_machines=1)
    cluster.start()
    client = cluster.client(deadline_us=0)
    calls = _qos_calls(lambda: _mixed(cluster, client))
    assert client.policy is None
    assert client._pipes
    assert all(pipe.qos is None for pipe in client._pipes.values())

    def abandon():
        # A silent shard: the message-path request is abandoned at its
        # deadline (single-attempt mode raises the timeout).
        for shard in cluster.routing.shard_ids():
            cluster.routing.resolve(shard).kill()

        def app():
            with pytest.raises(RequestTimeout):
                yield from client.put(b"k000", b"lost")

        cluster.run(app())

    calls += _qos_calls(abandon)
    assert calls == []


def test_tenant_handle_attaches_pipeline_state():
    cluster = HydraCluster(config=_cfg(), n_server_machines=1,
                           shards_per_server=2, n_client_machines=1)
    cluster.start()
    gold = cluster.client(tenant="gold", qos=QosConfig(autotune=True))
    again = cluster.client(tenant="gold", qos=QosConfig(weight=9.0))
    assert gold.policy is again.policy  # the first policy wins
    _mixed(cluster, gold)
    pipes = list(gold._pipes.values())
    assert pipes and all(pipe.qos is not None for pipe in pipes)
    assert all(pipe.qos.arbiter is not None and pipe.qos.ctl is not None
               for pipe in pipes)
    assert cluster.metrics.counter("client.tenant.gold.ops").value == 27
