"""The artifact schema validator behind `make bench-smoke`."""

import json
from pathlib import Path

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
