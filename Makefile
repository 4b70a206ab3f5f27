# Convenience targets for the HydraDB reproduction.

PYTEST ?= python -m pytest
RUFF ?= ruff
BENCH = PYTHONPATH=$(CURDIR)/src python -m repro.bench
VALIDATE = PYTHONPATH=$(CURDIR)/src python -m repro.bench.validate
# Figures and ablations whose shape checks hold at the bench scale; fig2,
# fig12out and ab-subshard need at least 0.25, 1.2 and 0.8.
SHAPES = fig3 fig9 fig10 fig11 fig12up fig13 ab-table ab-numa ab-sharing \
	ab-sleep ab-lease ab-transport ab-ud ab-valsize ab-ack

.PHONY: test test-fast lint bench bench-quick bench-inflight bench-multiget \
	bench-failover bench-recovery bench-sweep bench-simcore \
	bench-tenants bench-scale bench-smoke chaos-soak perf perf-quick \
	perf-compare figures examples loc clean

test:
	$(PYTEST) tests/

# Inner loop: everything but the seven `soak`-marked tests (1,018 tests in
# 67 s, against 1,025 in 4 m 26 s for the whole tier-1 suite, measured on
# a 2-core machine).  `make test` and CI still run all of them.
test-fast:
	$(PYTEST) tests/ -m "not soak"

lint:
	@if command -v $(RUFF) >/dev/null 2>&1; then \
		$(RUFF) check src tests examples; \
	else \
		echo "ruff not installed; falling back to a syntax check"; \
		python -m compileall -q src tests examples; \
	fi

# Every figure and ablation with its shape check: all run, then the
# target fails if any check printed a broken claim.
bench:
	$(BENCH) $(SHAPES) fig2 --scale 0.4; s=$$?; \
	$(BENCH) fig12out --scale 1.2 || s=1; \
	$(BENCH) ab-subshard --scale 0.8 || s=1; \
	exit $$s

bench-quick:
	$(BENCH) $(SHAPES) --scale 0.2; s=$$?; \
	$(BENCH) fig2 --scale 0.25 || s=1; \
	$(BENCH) fig12out --scale 1.2 || s=1; \
	$(BENCH) ab-subshard --scale 0.8 || s=1; \
	exit $$s

# Each artifact target writes its BENCH_*.json and exits non-zero if the
# rows break the experiment's declared schema or check.
bench-inflight:
	$(BENCH) inflight --scale 1.0

bench-multiget:
	$(BENCH) multiget --scale 1.0

bench-failover:
	$(BENCH) failover --scale 1.0

# Full-crash recovery from the per-shard durable write-behind log: a
# correlated primary+secondary kill per ack mode — zero lost acked
# writes hard-required in ack_on_flush, bounded blackout, replay
# throughput reported.
bench-recovery:
	$(BENCH) recovery --scale 1.0

bench-sweep:
	$(BENCH) server_sweep --scale 1.0

# Event-kernel microbench: events/sec of the two-tier calendar + now-queue
# + pooled timers, each schedule shape gated on a committed BLAKE2
# schedule digest (the dispatch order has not moved) and an absolute
# events/sec floor.
bench-simcore:
	$(BENCH) simcore --scale 1.0

# Seeded chaos soak: fault-storm profiles (torn writes, gray failure,
# ZK watch delays + SWAT leader churn, QP flaps, mixed, stale pointers,
# tenant contention, and the correlated dualfail storm recovered through
# the durable log) across a server-variant matrix (plain / sub-sharded /
# pipelined, replicas up to 2) against the resilience contract — no
# acked write lost, no corrupt value surfaced, typed bounded errors,
# post-storm recovery — plus a same-seed replay determinism check.
chaos-soak:
	$(BENCH) chaos --scale 0.5

# Multi-tenant QoS: DRR slot fairness, admission throttling, server-side
# shed and AIMD window autotune — victim vs aggressor cells scored with
# Jain's index over weighted water-filling fair shares.
bench-tenants:
	$(BENCH) tenants --scale 1.0

# Fig. 12 at cluster scale: 64 servers x 2048 closed-loop clients, each
# cell's event count and the BLAKE2 schedule digest of its traced reduced
# clone gated on committed per-shape constants.
bench-scale:
	$(BENCH) scale --scale 1.0

# Tiny end-to-end run of the artifact-emitting benches plus schema
# validation of what they wrote; fast enough for CI.
bench-smoke:
	rm -rf .bench-smoke && mkdir -p .bench-smoke
	cd .bench-smoke && \
		$(BENCH) inflight multiget failover recovery server_sweep chaos \
			simcore tenants scale --scale 0.05 && \
		$(VALIDATE) BENCH_*.json

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
	$(BENCH) all --scale 0.5

examples:
	@for ex in examples/*.py; do echo "== $$ex"; \
		PYTHONPATH=$(CURDIR)/src python $$ex; done

# Code lines per package (physical minus blank / comment / docstring):
# the measure a PR reports its src/ delta with.
loc:
	python3 tools/loc.py src/repro

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .bench-smoke
