"""Self-check of the benchmark: schema, names, determinism, correctness.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run it
explicitly, about two minutes::

    python -m pytest perf/test_perf.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)

import compare  # noqa: E402
import run as perf_run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
SIMULATED = ("sim_throughput_kops", "sim_mid_us", "sim_tail_us")


@pytest.fixture(scope="module")
def spec() -> dict:
    return perf_run.load_spec()


def invoke(workload: str, seed: int, trace: int, cwd: str = ROOT,
           script: str = os.path.join(PERF, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_meets_the_contract(spec):
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 << 10
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p
        assert os.path.isdir(os.path.join(ROOT, p))
    assert len(spec["command"]) <= 32
    assert all(len(arg) <= 200 for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for wl in spec["workloads"]:
        assert set(wl) == {"name", "why"}
        assert len(wl["why"]) <= 200 and "\n" not in wl["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for group in ("workloads", "end_to_end", "per_layer")
             for x in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 5) < 3420


def test_every_metric_has_unit_clock_direction_bound(spec):
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        assert perf_run.clock_of(m["name"]) in ("simulated", "host")
    assert perf_run.clock_of("sim_mid_us") == "simulated"
    assert perf_run.clock_of("rdma.reads_per_op") == "simulated"
    assert perf_run.clock_of("host_us_per_op") == "host"
    assert perf_run.clock_of("sim.host_self_share") == "host"
    assert perf_run.clock_of("sim.probe_events_per_sec") == "host"


def test_workloads_match_the_spec(spec):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why
               for w in spec["workloads"])


@pytest.mark.parametrize("workload", [
    "read_hot", "update_heavy", "msg_uniform", "multiget_cold",
    "write_durable", "failover_kill"])
def test_quick_run_is_correct_named_and_deterministic(spec, workload):
    first, again, other = (result_of(invoke(workload, seed, 0))
                           for seed in (5, 5, 6))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for res in (first, again, other):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 1
        assert {n: m["unit"] for n, m in res["metrics"].items()} == declared
        assert all(m["value"] > 0 for m in res["metrics"].values())
    for name in SIMULATED:
        # Simulated numbers are exact functions of (workload, seed, seconds).
        assert first["metrics"][name] == again["metrics"][name]
    assert any(first["metrics"][n] != other["metrics"][n] for n in SIMULATED)
    assert first["attempted"] == again["attempted"]

    traced = result_of(invoke(workload, 5, 1))
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == layered
    # correct also means the profiled pass reproduced the plain pass.
    assert traced["correct"] is True and traced["failed"] == 0
    value = {n: m["value"] for n, m in traced["metrics"].items()}
    assert value["harness.lost_acked_writes"] == 0
    assert value["harness.failed_op_ratio"] == 0
    assert value["host_attributed_share"] >= 0.95
    assert value["coord.failovers"] == (workload == "failover_kill")


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = invoke("read_hot", 1, 0, cwd=str(tmp_path),
                  script=str(tmp_path / "perf" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    exact = {"value": 100.0}
    assert compare.verdict(exact, {"value": 101.0}, "lower", 0.02)[0] == "ok"
    assert compare.verdict(exact, {"value": 103.0}, "lower",
                           0.02)[0] == "worse"
    assert compare.verdict(exact, {"value": 97.0}, "higher",
                           0.02)[0] == "worse"
    assert compare.verdict(exact, {"value": 50.0}, "lower", 0.02)[0] == "ok"
    noisy = {"value": 100.0, "rounds": [90.0, 100.0, 115.0]}
    assert compare.verdict(noisy, {"value": 130.0}, "lower",
                           0.10)[0] == "unresolved"
    steady = {"value": 100.0, "rounds": [99.0, 100.0, 101.0]}
    assert compare.verdict(steady, {"value": 130.0}, "lower",
                           0.10)[0] == "worse"
