# Convenience targets for the HydraDB reproduction.

PYTEST ?= python -m pytest
RUFF ?= ruff

.PHONY: test test-fast lint bench bench-quick bench-inflight bench-multiget \
	bench-failover bench-recovery bench-sweep bench-simcore \
	bench-tenants bench-scale bench-smoke chaos-soak perf perf-quick \
	perf-compare figures examples loc clean

test:
	$(PYTEST) tests/

# Inner loop: everything but the seven `soak`-marked tests (~2 min of the
# ~16).  `make test` and CI still run all of them.
test-fast:
	$(PYTEST) tests/ -m "not soak"

lint:
	@if command -v $(RUFF) >/dev/null 2>&1; then \
		$(RUFF) check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to a syntax check"; \
		python -m compileall -q src tests benchmarks examples; \
	fi

bench:
	PYTHONPATH=$(CURDIR)/src $(PYTEST) benchmarks/ --benchmark-only

bench-quick:
	REPRO_SCALE=0.2 PYTHONPATH=$(CURDIR)/src $(PYTEST) benchmarks/ \
		--benchmark-only

bench-inflight:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench inflight --scale 1.0
	PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate BENCH_inflight.json

bench-multiget:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench multiget --scale 1.0
	PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate BENCH_multiget.json

bench-failover:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench failover --scale 1.0
	PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate BENCH_failover.json

# Full-crash recovery from the per-shard durable write-behind log: a
# correlated primary+secondary kill per ack mode — zero lost acked
# writes hard-required in ack_on_flush, bounded blackout, replay
# throughput reported.
bench-recovery:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench recovery --scale 1.0
	PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate BENCH_recovery.json

bench-sweep:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench server_sweep --scale 1.0
	PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate BENCH_sweep.json

# Event-kernel microbench: events/sec of the two-tier calendar + now-queue
# + pooled timers, each schedule shape gated on a committed BLAKE2
# schedule digest (the dispatch order has not moved) and an absolute
# events/sec floor.
bench-simcore:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench simcore --scale 1.0
	PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate BENCH_simcore.json

# Seeded chaos soak: fault-storm profiles (torn writes, gray failure,
# ZK expiry, QP flaps, mixed, stale pointers, tenant contention, and the
# correlated dualfail storm recovered through the durable log) across a
# server-variant matrix (plain / sub-sharded / pipelined, replicas up to
# 2) against the resilience contract — no acked write lost, no corrupt
# value surfaced, typed bounded errors, post-storm recovery — plus a
# same-seed replay determinism check.
chaos-soak:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench chaos --scale 0.5
	PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate BENCH_chaos.json

# Multi-tenant QoS: DRR slot fairness, admission throttling, server-side
# shed and AIMD window autotune — victim vs aggressor cells scored with
# Jain's index over weighted water-filling fair shares.
bench-tenants:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench tenants --scale 1.0
	PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate BENCH_tenants.json

# Fig. 12 at cluster scale: 64 servers x 2048 closed-loop clients, each
# cell's event count and the BLAKE2 schedule digest of its traced reduced
# clone gated on committed per-shape constants.
bench-scale:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench scale --scale 1.0
	PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate BENCH_scale.json

# Tiny end-to-end run of the artifact-emitting benches plus schema
# validation of what they wrote; fast enough for CI.
bench-smoke:
	rm -rf .bench-smoke && mkdir -p .bench-smoke
	cd .bench-smoke && \
		PYTHONPATH=$(CURDIR)/src python -m repro.bench inflight multiget \
			failover recovery server_sweep chaos simcore tenants scale \
			--scale 0.05 && \
		PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate \
			BENCH_inflight.json BENCH_multiget.json BENCH_failover.json \
			BENCH_recovery.json BENCH_sweep.json BENCH_chaos.json \
			BENCH_simcore.json BENCH_tenants.json BENCH_scale.json

# The repo's benchmark (BENCHMARK.json): six workloads, untraced +
# traced, every metric by name -> perf/results/latest.json (~2 min;
# perf-quick ~35 s, plumbing smoke only).  Compare two result files
# against the BENCHMARK.json bounds with
# `make perf-compare A=perf/results/baseline_a.json B=perf/results/latest.json`.
perf:
	python3 perf/run.py

perf-quick:
	python3 perf/run.py --quick

perf-compare:
	python3 perf/compare.py $(A) $(B)

figures:
	PYTHONPATH=$(CURDIR)/src python -m repro.bench all --scale 0.5

examples:
	@for ex in examples/*.py; do echo "== $$ex"; \
		PYTHONPATH=$(CURDIR)/src python $$ex; done

# Code lines per package (physical minus blank / comment / docstring):
# the measure a PR reports its src/ delta with.
loc:
	python3 tools/loc.py src/repro

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks .hypothesis .bench-smoke
