"""The `python -m repro.bench` command-line harness."""

import dataclasses
import inspect

import pytest

from repro.bench.__main__ import main
from repro.bench.registry import registered


def test_every_registered_name_is_unique_and_documented():
    experiments = registered()
    assert len(experiments) >= 12
    for name, exp in experiments.items():
        assert exp.name == name and exp.title and callable(exp.run)
        assert "scale" in inspect.signature(exp.run).parameters
        assert callable(exp.check), f"{name} declares no check"


def test_unknown_figure_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-figure"])


def test_single_figure_runs_and_prints(capsys):
    rc = main(["ab-sleep", "--scale", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sleep backoff" in out.lower()
    assert "rows in" in out


def test_out_file_appended(tmp_path, capsys):
    target = tmp_path / "results.txt"
    assert main(["ab-ack", "--out", str(target)]) == 0
    first = target.read_text()
    assert "ack interval" in first
    assert main(["ab-ack", "--out", str(target)]) == 0
    assert len(target.read_text()) > len(first)  # appended, not replaced


def test_scale_flag_forwarded(capsys):
    rc = main(["fig11", "--scale", "0.06"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "remote-pointer" in out.lower() or "hit" in out.lower()


def test_broken_claims_are_printed_and_exit_1(monkeypatch, capsys):
    exp = registered()["ab-ack"]
    monkeypatch.setitem(registered(), "ab-ack", dataclasses.replace(
        exp, check=lambda rows: [f"claim over {len(rows)} rows"]))
    assert main(["ab-ack"]) == 1
    assert "[ab-ack: check failed: claim over 4 rows]" in \
        capsys.readouterr().out


def test_a_figure_check_names_each_broken_claim_with_its_value():
    overhead = {"no replication": 0.0, "rdma logging x1": 12.0,
                "rdma logging x2": 40.0, "strict req/ack x1": 100.0,
                "strict req/ack x2": 105.0}
    rows = [{"clients": n, "protocol": p, "overhead_pct": pct}
            for n in (1, 10, 20, 40) for p, pct in overhead.items()]
    check = registered()["fig13"].check
    assert check(rows) == []
    rows[13]["overhead_pct"] = 49.2  # 20 clients, strict req/ack x1
    assert check(rows) == ["20 clients: strict x1 overhead 49.2% > 60%"]
