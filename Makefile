# Tier-1 gate: `make check` is what CI (and every PR) must keep green.
# It formats-checks, vets, lints (the custom hcalint analyzers), builds
# and tests the whole module and the benchmark module under e2ebench/,
# then re-runs the concurrent packages (the fork-join helper, the
# compilation service, the solver core/mapper and the delta-engine
# packages whose flows cross goroutines) under the race detector.

GO ?= go

# Output file for `make bench`: the BENCH entry of the change under test.
OUT ?= BENCH_22.json

.PHONY: check fmt vet lint lint-json build test bench-module race race-stress fuzz-smoke bench bench-smoke daemon

check: fmt vet lint build test bench-module race race-stress

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# hcalint enforces the repo's own invariants (ctx-first API, zero-alloc
# hot paths, journal balance, span End, typed validation errors, flow
# lifecycle, shared-capture discipline). See README "Static analysis".
lint:
	$(GO) run ./cmd/hcalint ./...

# Same findings as machine-readable JSON (an array of
# {file, line, col, analyzer, message}); CI validates the shape with jq.
lint-json:
	$(GO) run ./cmd/hcalint -json ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark under e2ebench/ is a Go module of its own, which the
# root-level vet, build and test skip; vetting and testing it here
# catches a root API change that would break the benchmark build.
bench-module:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Race-detector sweep over every package whose flows cross goroutines
# (exact: core runs its solves on sibling subproblems in parallel, on
# flows from the shared pg slabs).
race:
	$(GO) test -race ./internal/par/... ./internal/service/... \
		./internal/service/middleware/... ./internal/store/... \
		./internal/see/... ./internal/pg/... ./internal/driver/... \
		./internal/trace/... ./internal/core/... ./internal/mapper/... \
		./internal/dse/... ./internal/exact/...

# A named stress test under the race detector, run twice. The
# crash-recovery test replays orphaned tmp files, torn records and
# quarantine-and-heal — the invariant the whole persistence layer hangs
# off. The package-wide sweep only hits these interleavings
# incidentally.
race-stress:
	$(GO) test -race -run TestStoreCrashRecovery -count=2 ./internal/store/

# Each native fuzz target for 10 s: the recurrence bound against its
# whole-graph reference search, the SCC partition, DDG build and
# interpretation, and the service's compile, explore and batch request
# bodies. `go test -fuzz` takes one target per run. A failing input is
# written under the package's testdata/fuzz/ and replays in every later
# `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzMaxCycleRatio$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzSCCPartition$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzBuildAndInterpret$$' -fuzztime 10s ./internal/ddg/
	$(GO) test -run '^$$' -fuzz '^FuzzRequestBodies$$' -fuzztime 10s ./internal/service/

# Record a BENCH entry: every e2ebench workload on seeds 1-5 for
# BENCHMARK.json's run length, plus one traced run, summarized as each
# end-to-end metric's median, min and max, the per-layer metrics and
# provenance. `go run ./cmd/perfbench -compare OLD.json NEW.json` flags
# the metrics that moved beyond their bound and the old entry's spread.
bench:
	$(GO) run ./cmd/perfbench -out $(OUT)

# CI smoke: each e2ebench workload once, for one second, with its output
# check; an incorrect output fails the target.
bench-smoke:
	$(GO) run ./cmd/perfbench -quick > /dev/null

# Convenience: run the compilation daemon locally.
daemon:
	$(GO) run ./cmd/hcad -addr :8080
