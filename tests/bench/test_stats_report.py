"""Bench stats containers and the table formatter."""

import math

import pytest

from repro.bench.report import format_table
from repro.bench.stats import LatencySummary, RunResult, summarize
from repro.sim import Tally


def test_summarize_tally_to_microseconds():
    t = Tally("lat")
    for v in (1000.0, 2000.0, 3000.0):
        t.observe(v)
    s = summarize(t)
    assert s.count == 3
    assert s.mean_us == pytest.approx(2.0)
    assert s.p50_us == pytest.approx(2.0)
    assert s.max_us == pytest.approx(3.0)
    assert "mean=2.0us" in str(s)


def test_summarize_empty():
    s = summarize(Tally("lat"))
    assert s.count == 0 and math.isnan(s.mean_us)
    assert str(s) == "n=0"


def test_run_result_throughput():
    r = RunResult(name="x", measured_ops=1000, duration_ns=1_000_000)
    assert r.throughput_mops == pytest.approx(1.0)
    zero = RunResult(name="z", measured_ops=10, duration_ns=0)
    assert zero.throughput_mops == 0.0


def test_latency_summary_empty_factory():
    s = LatencySummary.empty()
    assert s.count == 0 and math.isnan(s.p99_us)


def test_format_table_alignment_and_missing():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "c": "x"}]
    out = format_table(rows, title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1] and "c" in lines[1]
    assert "-" in lines[2]
    assert "1" in lines[3] and "2.500" in lines[3]
    assert "10" in lines[4] and "x" in lines[4]


def test_format_table_empty_and_large_numbers():
    assert "(no rows)" in format_table([], title="E")
    out = format_table([{"n": 123456.0, "nan": math.nan, "none": None}])
    assert "123,456" in out and "nan" in out and "-" in out
