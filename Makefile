# Offline mirror of .github/workflows/ci.yml — `make check` runs the
# same gates CI does.

CARGO ?= cargo

# PR number stamped into the bench trajectory file (BENCH_$(BENCH_PR).json).
BENCH_PR ?= 10
BENCH_JSONL ?= $(CURDIR)/target/criterion-run.jsonl
# The perf-critical suites the trajectory tracks (the full figure
# suite is minutes-scale; these cover the ingest hot path and the
# live-service overhead).
BENCH_SUITES = --bench pipeline_throughput --bench live_latency --bench policy_overhead --bench propagation_massive --bench classifier_mining

.PHONY: check fmt fmt-check build test test-release clippy doc quickstart bench bench-check \
	bench-json bench-baseline bench-compare

check: fmt-check build test clippy bench-check doc quickstart bench-compare

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

build:
	$(CARGO) build --release

# Runs every unit test plus the integration suite under tests/
# (fleet ingestion golden equivalence, MRT round-trip proptests, …).
test:
	$(CARGO) test -q

# The heap-merge and proptest suites again, optimized — what the CI
# release-test job runs (debug_assert-free, so it also exercises the
# release-mode code paths of the merge).
test-release:
	$(CARGO) test -q --release

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

quickstart:
	$(CARGO) run --release -p bh-examples --example quickstart

bench:
	$(CARGO) bench -p bh-bench

# Compile (but do not run) the 21 harness=false bench targets, so they
# cannot silently rot: clippy lints them, this proves they still link.
bench-check:
	$(CARGO) bench -p bh-bench --no-run

# Record the perf-critical suites into the trajectory file's "current"
# section (BENCH_$(BENCH_PR).json at the repo root). Run bench-baseline
# BEFORE a perf change and bench-json after it, so the file carries the
# before/after pair.
bench-json:
	rm -f $(BENCH_JSONL)
	CRITERION_JSON=$(BENCH_JSONL) $(CARGO) bench -p bh-bench $(BENCH_SUITES)
	$(CARGO) run --release -p bh-bench --bin bench_compare -- \
		collect $(BENCH_JSONL) BENCH_$(BENCH_PR).json --pr $(BENCH_PR) --section current

# Record the pre-change baseline section of the trajectory file.
bench-baseline:
	rm -f $(BENCH_JSONL)
	CRITERION_JSON=$(BENCH_JSONL) $(CARGO) bench -p bh-bench $(BENCH_SUITES)
	$(CARGO) run --release -p bh-bench --bin bench_compare -- \
		collect $(BENCH_JSONL) BENCH_$(BENCH_PR).json --pr $(BENCH_PR) --section baseline

# Gate gross regressions across the two newest committed trajectory
# points; a no-op while fewer than two BENCH_*.json files exist.
bench-compare:
	$(CARGO) run --release -p bh-bench --bin bench_compare -- check .
