"""The artifact schema validator behind `make bench-smoke`."""

import json
from pathlib import Path

import pytest

from repro.bench.registry import by_artifact, registered
from repro.bench.validate import main, validate_artifact


def _mg_row(**kw):
    row = {"mode": "hybrid", "batch": 16, "value_bytes": 32,
           "inline": True, "get_kops": 250.0,
           "speedup_vs_message": 2.5, "pointer_hits": 10,
           "successful_hits": 10, "invalid_hits": 0, "demoted": 0,
           "reconciled": True, "bucket_reads": 0, "traversal_races": 0,
           "demotions": 0, "reads_per_get": 1.0,
           "index_mutations_versioned": 0, "server_cpu_ns_per_get": 0.0}
    row.update(kw)
    return row


def good_multiget_payload():
    return {
        "experiment": "multiget_fanout_sweep",
        "description": "d", "unit": "kops",
        "rows": [
            _mg_row(mode="message", get_kops=100.0,
                    speedup_vs_message=1.0, pointer_hits=0,
                    successful_hits=0, demoted=10,
                    server_cpu_ns_per_get=700.0),
            _mg_row(),
            _mg_row(mode="cold", get_kops=120.0, speedup_vs_message=1.2,
                    pointer_hits=0, successful_hits=0, demoted=10,
                    bucket_reads=10),
        ],
    }


def test_good_payload_validates():
    assert validate_artifact(good_multiget_payload()) == []


def test_unreconciled_row_rejected():
    payload = good_multiget_payload()
    payload["rows"][1]["reconciled"] = False
    assert any("reconcile" in p for p in validate_artifact(payload))


def test_missing_row_key_and_bad_speedup_rejected():
    payload = good_multiget_payload()
    del payload["rows"][0]["demoted"]
    payload["rows"][1]["speedup_vs_message"] = 0
    problems = validate_artifact(payload)
    assert any("demoted" in p for p in problems)
    assert any("speedup_vs_message" in p for p in problems)


def test_cold_rows_must_beat_message_with_near_zero_cpu():
    payload = good_multiget_payload()
    payload["rows"][2]["speedup_vs_message"] = 0.9
    assert any("0% hit rate" in p for p in validate_artifact(payload))
    payload = good_multiget_payload()
    payload["rows"][2]["server_cpu_ns_per_get"] = 500.0
    assert any("near-zero server CPU" in p
               for p in validate_artifact(payload))
    payload = good_multiget_payload()
    del payload["rows"][2]
    assert any("cold" in p for p in validate_artifact(payload))


def test_cold_inline_rows_must_cost_one_read_per_get():
    payload = good_multiget_payload()
    payload["rows"][2]["reads_per_get"] = 2.0
    assert any("Reads each" in p for p in validate_artifact(payload))
    # Items past the inline line pay frame + item: no Read gate there.
    payload["rows"][2]["inline"] = False
    assert validate_artifact(payload) == []


def test_unknown_experiment_rejected():
    problems = validate_artifact({"experiment": "nope", "description": "d",
                                  "unit": "kops", "rows": [{}]})
    assert any("unknown experiment" in p for p in problems)


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(good_multiget_payload()))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([str(good)]) == 0
    assert "ok" in capsys.readouterr().out
    assert main([str(good), str(bad)]) == 1
    assert main([]) == 2


def good_sweep_payload():
    return {
        "experiment": "server_sweep",
        "description": "d", "unit": "kops / ns-per-op",
        "rows": [
            {"conns": 32, "window": 16, "mode": "baseline", "kops": 150.0,
             "speedup": 1.0, "server_cpu_ns_per_op": 6000.0,
             "cpu_ratio": 1.0, "sweeps": 100, "probes": 10000,
             "resp_doorbells": 500},
            {"conns": 32, "window": 16, "mode": "all", "kops": 151.0,
             "speedup": 1.01, "server_cpu_ns_per_op": 1000.0,
             "cpu_ratio": 6.0, "sweeps": 120, "probes": 400,
             "resp_doorbells": 120},
        ],
    }


def test_good_sweep_payload_validates():
    assert validate_artifact(good_sweep_payload()) == []


def test_sweep_all_mode_must_win_2x_at_32_conns():
    payload = good_sweep_payload()
    payload["rows"][1]["cpu_ratio"] = 1.4
    assert any("2x" in p for p in validate_artifact(payload))


def test_sweep_needs_a_unity_baseline_row():
    payload = good_sweep_payload()
    payload["rows"][0]["cpu_ratio"] = 1.1
    assert any("baseline" in p for p in validate_artifact(payload))


def test_recovery_ack_on_flush_must_keep_pace_with_ack_on_replicate():
    # The committed artefact doubles as the fixture: it must pass as is.
    artefact = Path(__file__).parents[2] / "BENCH_recovery.json"
    payload = json.loads(artefact.read_text())
    assert validate_artifact(payload) == []
    # The durability tax the parked-response pipeline removed: a flush
    # row that again trails the replicate row by > 10% is a regression.
    flush = next(r for r in payload["rows"]
                 if r["ack_mode"] == "ack_on_flush")
    flush["pre_kops"] = 26.3
    assert any("0.9x" in p for p in validate_artifact(payload))


def _committed(name):
    return json.loads((Path(__file__).parents[2] / name).read_text())


def test_simcore_rows_are_gated_on_pinned_digest_and_eps_floor():
    payload = _committed("BENCH_simcore.json")
    assert validate_artifact(payload) == []
    payload["rows"][0]["digest"] = "0" * 32
    assert any("dispatch order moved" in p
               for p in validate_artifact(payload))
    payload = _committed("BENCH_simcore.json")
    payload["rows"][1]["events_per_sec"] = 1_000.0
    assert any("floor" in p for p in validate_artifact(payload))


def test_scale_rows_must_match_their_shape_constants():
    payload = _committed("BENCH_scale.json")
    assert validate_artifact(payload) == []
    headline = next(r for r in payload["rows"] if r["servers"] == 64)
    assert headline["events"] == 500_608
    headline["events"] += 1
    assert any("schedule moved" in p for p in validate_artifact(payload))
    payload = _committed("BENCH_scale.json")
    payload["rows"][0]["clients"] = 33
    assert any("no committed constants" in p
               for p in validate_artifact(payload))


# -- the registry is the contract: every declared artifact is committed and
# -- validates, and each semantic gate rejects the row it exists for --------

ARTIFACTS = sorted(exp.artifact.file for exp in registered().values()
                   if exp.artifact)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_committed_artifact_validates(name):
    payload = _committed(name)
    exp = by_artifact(payload["experiment"])
    assert exp is not None and exp.artifact.file == name
    assert validate_artifact(payload) == []


def _complaints(name, mutate):
    payload = _committed(name)
    mutate(payload["rows"])
    return validate_artifact(payload)


def test_inflight_needs_a_unity_baseline_row():
    def drop_baseline(rows):
        del rows[0]
    assert any("get_speedup == 1.0" in p
               for p in _complaints("BENCH_inflight.json", drop_baseline))


@pytest.mark.parametrize("key, value, complaint", [
    ("exceptions", 1, "client-visible exceptions"),
    ("lost_acked_writes", 2, "acknowledged writes lost"),
    ("recovered_ratio", 0.5, "recovered_ratio must be >= 0.8"),
])
def test_failover_contract_rejects_a_broken_row(key, value, complaint):
    def breaks(rows):
        rows[1][key] = value
    assert any(complaint in p
               for p in _complaints("BENCH_failover.json", breaks))


def _drop_profile(profile):
    def mutate(rows):
        rows[:] = [r for r in rows if r["profile"] != profile]
    return mutate


def _set_chaos(profile, key, value):
    def mutate(rows):
        next(r for r in rows if r["profile"] == profile)[key] = value
    return mutate


def _set_all(key, value):
    def mutate(rows):
        for r in rows:
            r[key] = value
    return mutate


@pytest.mark.parametrize("mutate, complaint", [
    (_drop_profile("stale"), "missing required storm profiles: stale"),
    (_set_chaos("gray", "corrupt_values", 1), "corrupt_values must be 0"),
    (_set_chaos("zk", "untyped_errors", 3), "untyped_errors must be 0"),
    (_set_chaos("dualfail", "log_recoveries", 0), "through the durable log"),
    (_set_chaos("torn", "deterministic", False), "same-seed rerun diverged"),
    (_set_chaos("torn", "deterministic", None), "deterministic == True"),
    (_set_all("variant", "plain"), "'subshard' server-variant cell"),
    (_set_all("variant", "plain"), "'pipelined' server-variant cell"),
    (_set_all("replicas", 1), "replicas >= 2 cell"),
])
def test_chaos_contract_rejects_a_broken_storm(mutate, complaint):
    assert any(complaint in p
               for p in _complaints("BENCH_chaos.json", mutate))


def _set_cell(cell, key, value):
    def mutate(rows):
        next(r for r in rows if r["cell"] == cell)[key] = value
    return mutate


@pytest.mark.parametrize("mutate, complaint", [
    (_set_cell("share-fq", "jain", 0.85), "Jain's index must be >= 0.9"),
    (_set_cell("throttle", "victim_p99_us", 5.0), "victim p99 must stay"),
    (_set_cell("throttle", "throttled", 0), "client throttle counter"),
    (_set_cell("shed", "shed", 0), "must shed server-side"),
    (_set_cell("auto", "kops", 1000.0), "AIMD autotune"),
])
def test_tenant_contract_rejects_a_broken_cell(mutate, complaint):
    assert any(complaint in p
               for p in _complaints("BENCH_tenants.json", mutate))
