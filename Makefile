PYTHON ?= python

.PHONY: test goldens perfbench-test perfbench-goldens bench bench-update bench-micro profile sweep-bench sweep-smoke chaos-smoke billing-smoke fabric-smoke control-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Regenerate the pinned experiment tables (tests/goldens/quick_seed0.txt)
# that tests/test_runner.py compares byte for byte.
goldens:
	$(PYTHON) tool/goldens.py

# Tests of the repository benchmark itself (perfbench/), which the
# tier-1 suite does not collect: among other things they check that
# every simulator entry point perfbench/spans.py wraps by name exists.
perfbench-test:
	PYTHONPATH=src $(PYTHON) -m pytest -q perfbench/tests

# One pass of every benchmark workload, its outputs checked against
# perfbench/goldens.json: fails if any paper or extension table, or a
# data-plane digest, moved.  run.py itself exits 0 on a failed check,
# so the gate reads its last line (the result JSON).
PERFBENCH_WORKLOADS = paper-quick dataplane-saturated sweep-mixed

perfbench-goldens:
	@for w in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 0 --seconds 1 \
			--trace 0 > perfbench-goldens.$$w.log || exit 1; \
		tail -n 1 perfbench-goldens.$$w.log | grep -q '"correct": true' \
			|| { cat perfbench-goldens.$$w.log; exit 1; }; \
		echo "$$w: outputs match perfbench/goldens.json"; \
		rm -f perfbench-goldens.$$w.log; \
	done

# Run the benchmark suite and fail if any benchmark regressed more
# than 20% against the recorded baseline (BENCH_fastpath.json).
bench:
	$(PYTHON) tool/bench.py

# Re-record the baseline after an intentional performance change.
bench-update:
	$(PYTHON) tool/bench.py --update

# Just the hot-loop micro-benchmarks (flow-table, VEB, frame copy,
# megaflow, jitter draws): a fast early-failing regression gate for the
# lookup and batching primitives, before the full suite runs.  The two
# jitter benchmarks also feed the same-run jitter_lane_speedup_factor
# gate (lane draws at least 2x the per-member unit() calls).
bench-micro:
	$(PYTHON) tool/bench.py --targets \
		benchmarks/test_microbench.py::test_flow_table_lookup_rate \
		benchmarks/test_microbench.py::test_flow_table_emc_hit_rate \
		benchmarks/test_microbench.py::test_veb_forwarding_rate \
		benchmarks/test_microbench.py::test_frame_copy_rate \
		benchmarks/test_microbench.py::test_megaflow_hit_rate \
		benchmarks/test_microbench.py::test_jitter_scalar_draw_rate \
		benchmarks/test_microbench.py::test_jitter_lane_draw_rate

# cProfile the Fig. 5 e2e scenario: top-20 cumulative for the batched
# fast path and the per-frame oracle, then the batched Baseline p2v and
# L2(2) v2v shapes, the L2(2) p2v Fig. 5 latency load (4 x 2.5 kpps),
# then the L1 noisy-neighbor overload, the L1 policy-injection
# (cache-busting) shape and the L2(2) fault-isolation shape (4 x 5 kpps,
# compartment 0 down for the middle third; the before/after tables in
# EXPERIMENTS.md come from exactly these commands).
profile:
	$(PYTHON) tool/profile.py
	$(PYTHON) tool/profile.py --oracle
	$(PYTHON) tool/profile.py --level baseline --traffic p2v
	$(PYTHON) tool/profile.py --level l2 --traffic v2v
	$(PYTHON) tool/profile.py --level l2 --shape latency --duration 0.15
	$(PYTHON) tool/profile.py --level l1 --shape noisy-neighbor --duration 0.06
	$(PYTHON) tool/profile.py --level l1 --shape policy-injection --duration 0.06
	$(PYTHON) tool/profile.py --level l2 --shape fault-isolation --duration 0.12

# Just the sweep/backends benchmarks: records the warm-pool speedup
# factor into BENCH_fastpath.json and gates on it (>= 1.5x required
# when >= 4 cores are available; recorded-only below that).
sweep-bench:
	$(PYTHON) tool/bench.py --targets benchmarks/test_sweep.py

# End-to-end smoke of the sweep runner: a 4-point grid through the
# process pool, written to a throwaway cache, then re-run to prove
# every point comes back from the store.
sweep-smoke:
	rm -rf .sweep-smoke
	PYTHONPATH=src $(PYTHON) -m repro sweep \
		--levels baseline l1 --tenants 4 \
		--duration 0.05 --traffic p2p p2v --jobs 2 \
		--cache-dir .sweep-smoke/cache --out .sweep-smoke/sweep.jsonl
	PYTHONPATH=src $(PYTHON) -m repro sweep \
		--levels baseline l1 --tenants 4 \
		--duration 0.05 --traffic p2p p2v --jobs 2 \
		--cache-dir .sweep-smoke/cache --out .sweep-smoke/sweep2.jsonl \
		> .sweep-smoke/second.txt
	cat .sweep-smoke/second.txt
	grep -q "0 computed" .sweep-smoke/second.txt
	rm -rf .sweep-smoke

# End-to-end smoke of the chaos layer: crash one vswitch per
# configuration, let the watchdog + supervisor heal it, and fail if
# any run ends unrepaired or with an accounting violation (--check).
# Crash plans run on the batched chain; the checked-in ingress link
# flap (examples/plans/ingress-link-flap.json) acts upstream of every
# batch station, so it runs on the per-frame oracle.
chaos-smoke:
	rm -rf .chaos-smoke
	PYTHONPATH=src $(PYTHON) -m repro chaos \
		--duration 0.12 --check \
		--cache-dir .chaos-smoke/cache \
		--events-out .chaos-smoke/events.jsonl
	test -s .chaos-smoke/events.jsonl
	PYTHONPATH=src $(PYTHON) -m repro chaos \
		--duration 0.12 --check --warm-standby \
		--cache-dir .chaos-smoke/cache
	PYTHONPATH=src $(PYTHON) -m repro chaos \
		--duration 0.12 --check \
		--plan examples/plans/ingress-link-flap.json \
		--cache-dir .chaos-smoke/cache
	rm -rf .chaos-smoke

# End-to-end smoke of the fabric engine: place a small fleet, run the
# flows under study through the hybrid (fluid background + per-packet
# foreground) AND through the pure-DES oracle, and fail unless the two
# agree within the pinned 5% bound (--validate --check).
fabric-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fabric \
		--servers 4 --tenants 16 --study-flows 1 \
		--duration 0.1 --validate --check

# End-to-end smoke of the resident control plane: 30 s of simulated
# tenant churn with three compartment crashes, the autoscaler live and
# the watchdog migrating crash victims.  --check fails on any lifecycle
# invariant violation or a migrated tenant that never resumed
# forwarding; the events file proves the lifecycle log shipped.
control-smoke:
	rm -rf .control-smoke
	mkdir -p .control-smoke
	PYTHONPATH=src $(PYTHON) -m repro serve \
		--duration 30 --arrival-rate 2 --crashes 3 \
		--repair-after 10 --seed 42 --check \
		--cache-dir .control-smoke/cache \
		--events-out .control-smoke/events.jsonl
	test -s .control-smoke/events.jsonl
	rm -rf .control-smoke

# End-to-end smoke of the billing pipeline: meter the noisy-neighbor
# workload on every level (clean + compartment-crash runs), fail
# unless every run's windowed usage reconciles exactly with the
# core/accounting ground truth (--check).
billing-smoke:
	rm -rf .billing-smoke
	mkdir -p .billing-smoke
	PYTHONPATH=src $(PYTHON) -m repro billing \
		--duration 0.05 --check \
		--cache-dir .billing-smoke/cache \
		--usage-out .billing-smoke/usage.jsonl \
		--invoices-out .billing-smoke/invoices.jsonl
	test -s .billing-smoke/usage.jsonl
	test -s .billing-smoke/invoices.jsonl
	rm -rf .billing-smoke
