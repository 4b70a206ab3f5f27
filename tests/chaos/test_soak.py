"""Small chaos soaks: the resilience contract + same-seed replayability.

Scaled-down versions of the bench cells — fewer keys, slower pacing —
but the invariants are the full contract: no acked write lost, no
corrupt value surfaced, typed bounded errors only, post-storm recovery.
"""

import pytest

from repro.chaos.harness import run_soak
from repro.index.export import fits_inline

_SMALL = dict(scale=0.05, n_keys=16, n_clients=2)


def _check_contract(row):
    assert row["untyped_errors"] == 0
    assert row["corrupt_values"] == 0
    assert row["lost_acked_writes"] == 0
    assert row["deadline_violations"] == 0
    assert row["converged"] is True
    assert row["recovered_ratio"] >= 0.8
    assert row["ops"] > 0


def test_torn_storm_contract_and_replay():
    a = run_soak("torn", 11, **_SMALL)
    _check_contract(a)
    assert a["injected_faults"] > 0
    b = run_soak("torn", 11, **_SMALL)
    assert a == b  # identical seed -> identical storm AND verdict
    c = run_soak("torn", 12, **_SMALL)
    assert c["schedule_hash"] != a["schedule_hash"]


@pytest.mark.soak
def test_gray_failure_storm_is_survived_by_deadlines():
    row = run_soak("gray", 23, **_SMALL)
    _check_contract(row)
    # The shard went gray (QPs alive, no sweeping): SWAT must NOT have
    # promoted — only client deadlines carried the workload through.
    assert row["gray_failures"] >= 1
    assert row["failovers"] == 0
    assert row["errors"] > 0  # deadline-bounded typed failures surfaced


def test_mixed_storm_drives_a_real_failover():
    row = run_soak("mixed", 71, **_SMALL)
    _check_contract(row)
    assert row["failovers"] >= 1
    assert row["injected_faults"] > 0


@pytest.mark.parametrize("profile,seed,value_bytes", [
    pytest.param("zk", 37, 48, id="zk-37"),
    pytest.param("flap", 53, 48, id="flap-53"),
    # Values that fit the inline line: lone GETs walk their bucket frames
    # and inline lines answer them while links flap.
    pytest.param("flap", 53, 24, id="flap-53-inline"),
])
def test_coordination_and_flap_storms(profile, seed, value_bytes):
    row = run_soak(profile, seed, value_bytes=value_bytes, **_SMALL)
    _check_contract(row)
    assert row["injected_faults"] > 0
    if fits_inline(len(b"chaos00000"), value_bytes):  # the soak's keys
        assert row["bucket_reads"] > 0


def test_stale_pointer_storm_traversal_contract_and_replay():
    """Delayed Reads race bucket snapshots and primed pointers against
    shrunken leases and reclaim; the oracle proves no torn or reclaimed
    value ever surfaces from a traversal, and the storm replays bit-
    identically."""
    a = run_soak("stale", 89, **_SMALL)
    _check_contract(a)
    assert a["injected_faults"] > 0
    # The storm actually exercised the one-sided traversal path.
    assert a["bucket_reads"] > 0
    b = run_soak("stale", 89, **_SMALL)
    assert a == b  # same seed -> same storm, same traversal outcome


@pytest.mark.soak
def test_dualfail_storm_recovers_through_the_durable_log():
    """Correlated primary+secondary kill: no survivor to promote, so the
    shard must come back from the durable write-behind log, the skew
    guard must keep leases honest, and the whole storm must replay
    bit-identically."""
    a = run_soak("dualfail", 113, **_SMALL)
    _check_contract(a)
    assert a["injected_faults"] > 0
    assert a["failovers"] >= 1
    assert a["log_recoveries"] >= 1
    assert a["log_replayed"] > 0
    # The profile arms lease_skew_guard_ns wider than the injected skew:
    # no client may read a dead item past its skew-adjusted horizon.
    assert a["lease_skew_hazards"] == 0
    b = run_soak("dualfail", 113, **_SMALL)
    assert a == b  # same seed -> same dual failure, same recovery


@pytest.mark.parametrize("profile,seed,variant", [
    ("torn", 131, "subshard"),
    ("gray", 149, "pipelined"),
])
def test_storm_matrix_variants_hold_the_contract(profile, seed, variant):
    replicas = 0 if variant == "subshard" else 1
    a = run_soak(profile, seed, variant=variant, replicas=replicas, **_SMALL)
    _check_contract(a)
    assert a["variant"] == variant
    assert a["injected_faults"] > 0
    b = run_soak(profile, seed, variant=variant, replicas=replicas, **_SMALL)
    assert a == b  # the variant cells replay bit-identically too


@pytest.mark.soak
def test_storm_matrix_double_replica_survives_mixed():
    row = run_soak("mixed", 167, replicas=2, **_SMALL)
    _check_contract(row)
    assert row["replicas"] == 2
    assert row["failovers"] >= 1
