"""The YCSB driver and tiny-scale smoke runs of every experiment."""

import pytest

from repro import HydraCluster
from repro.bench.experiments import (
    ablation_ack_interval,
    ablation_hash_table,
    ablation_numa,
    ablation_rptr_sharing,
    fig2_mapreduce,
    fig3_sensemaking,
    fig9_overall,
    fig10_rdma_choices,
    fig11_hit_analysis,
    fig12_scale_out,
    fig12_scale_up,
    fig13_replication,
)
from repro.bench.runner import drive_ycsb, preload_hydra, run_hydra_ycsb
from repro.workloads.ycsb import YcsbSpec, YcsbWorkload

TINY = 0.06  # 600 ops


def tiny_workload(get_fraction=0.9, distribution="zipfian"):
    return YcsbWorkload(YcsbSpec(name="tiny", n_records=600, n_ops=600,
                                 get_fraction=get_fraction,
                                 distribution=distribution))


def test_preload_installs_every_record():
    wl = tiny_workload()
    cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
    preload_hydra(cluster, wl)
    assert sum(len(s.store) for s in cluster.shards()) == 600


def test_drive_ycsb_measures_and_validates():
    wl = tiny_workload()
    cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
    res = run_hydra_ycsb(cluster, wl, n_clients=4)
    assert res.measured_ops == pytest.approx(600 * 0.9, rel=0.08)
    assert res.throughput_mops > 0
    assert res.get_latency.count > 0
    assert res.get_latency.mean_us > 1.0
    assert "rptr" in res.extras


def test_drive_ycsb_update_only_has_no_get_latency():
    wl = tiny_workload(get_fraction=0.0)
    cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
    res = run_hydra_ycsb(cluster, wl, n_clients=2)
    assert res.get_latency.count == 0
    assert res.update_latency.count > 0


def test_drive_ycsb_detects_missing_preload():
    wl = tiny_workload()
    cluster = HydraCluster(n_server_machines=1, shards_per_server=2)
    cluster.start()
    clients = [cluster.client()]
    with pytest.raises(AssertionError):
        drive_ycsb(cluster.sim, clients, wl)


# -- one tiny smoke per experiment: wiring + row schema, not shape ----------

def test_fig9_smoke():
    rows = fig9_overall(scale=TINY, n_clients=6,
                        systems=("hydradb", "memcached"),
                        subset=["(b) 90% GET zipf"])
    assert len(rows) == 2
    assert {r["system"] for r in rows} == {"hydradb", "memcached"}
    assert all(r["throughput_mops"] > 0 for r in rows)


def test_fig10_smoke():
    rows = fig10_rdma_choices(scale=TINY, n_clients=6,
                              subset=["(b) 90% GET zipf"],
                              variants=["RDMA Write Only", "Send/Recv"])
    assert len(rows) == 2


def test_fig11_smoke():
    rows = fig11_hit_analysis(scale=TINY, n_clients=6)
    assert len(rows) == 6
    assert all(r["successful_hits"] >= 0 for r in rows)


def test_fig12_smoke():
    rows = fig12_scale_out(scale=TINY, n_clients=6, server_counts=(1, 2),
                           subset=["(e) 90% GET unif"])
    assert [r["servers"] for r in rows] == [1, 2]
    assert rows[0]["normalized"] == 1.0
    rows = fig12_scale_up(scale=TINY, n_clients=6, shard_counts=(1, 2),
                          subset=["(e) 90% GET unif"])
    assert [r["shards"] for r in rows] == [1, 2]


def test_fig13_smoke():
    rows = fig13_replication(client_counts=(2,), inserts_per_client=20)
    assert len(rows) == 5
    base = [r for r in rows if r["protocol"] == "no replication"][0]
    assert base["overhead_pct"] == 0.0


def test_fig2_smoke():
    from repro.workloads import AppProfile
    rows = fig2_mapreduce(apps=(AppProfile("t", "hadoop", input_mb=16,
                                           compute_ns_per_mb=0, n_tasks=2),))
    assert rows[0]["speedup_rdma"] > 1


def test_fig3_smoke():
    rows = fig3_sensemaking(scale=0.2, engine_counts=(1, 2))
    assert len(rows) == 2 and rows[0]["ratio"] > 1


def test_ablation_smokes():
    assert len(ablation_hash_table(scale=TINY, n_clients=6)) == 2
    assert len(ablation_numa(scale=TINY, n_clients=6)) == 3
    assert len(ablation_rptr_sharing(scale=TINY, n_clients=4)) == 2
    assert len(ablation_ack_interval(intervals=(8, 32), inserts=30)) == 2


def test_experiments_regenerate_deterministically():
    a = fig11_hit_analysis(scale=TINY, n_clients=4)
    b = fig11_hit_analysis(scale=TINY, n_clients=4)
    assert a == b


def test_fig13_deterministic():
    a = fig13_replication(client_counts=(2,), inserts_per_client=15)
    b = fig13_replication(client_counts=(2,), inserts_per_client=15)
    assert a == b
