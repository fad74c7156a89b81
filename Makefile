# Development and CI entry points. `make ci` is the tier run before
# merging: static checks, the full test suite under the race detector,
# and a one-iteration benchmark smoke proving the perf-path still builds
# and schedules at every size.

GO ?= go

.PHONY: all build fmt-check vet test race race-concurrent cluster-chaos bench-smoke fuzz-smoke perfbench-check scale service-bench stream-bench ci

all: build

build:
	$(GO) build ./...

# gofmt over every tracked Go file: the target fails if it lists any.
fmt-check:
	@files=$$(git ls-files '*.go') && out=$$(gofmt -l $$files) && \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi

# go vet always; staticcheck when the host has it (not vendored, so CI
# images without it still pass the tier).
vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "vet: staticcheck not installed, skipped"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the concurrency-heavy subsystems: the
# experiment repetition worker pool, the schedd service (worker pool,
# cache, graceful shutdown, singleflight coalescing, the batch fan-out
# and the 3-node consistent-hash ring e2e — routing, peer-cache
# probes, failover, cold-key bursts, plus the dynamic-membership
# layer: heartbeat failure detection, cache replication with hinted
# handoff, the kill/restart/rejoin e2e and join/leave churn racing
# in-flight batches), the speculative-transaction layer (including
# cloned comm-state trials under contended models), the speculative
# trials of listsched.Param that ILS, DSH and BTDH run, the
# contention-aware wrappers, the differential suite
# with the per-processor trial workers forced on (and the parallel
# level-set rank kernels plus selection heap forced through every
# algorithm), the fault replay/repair path (exercised concurrently
# through the service and experiment tiers), the adversary's parallel
# population evaluator, the streaming engine (invariant-13 equivalence
# plus the NDJSON session endpoint's worker-slot lifecycle), and the
# dag/timeline substrate the sharded kernels read concurrently. `race`
# already covers them once; this tier re-runs them with fresh state so
# interleavings differ between passes.
race-concurrent:
	$(GO) test -race -count=1 ./internal/experiment/... ./internal/service/... ./internal/stream ./internal/sched ./internal/sched/timeline ./internal/dag ./internal/algo/suite ./internal/algo/listsched ./internal/core ./internal/sim ./internal/algo/resched ./internal/adversary

# Chaos tier: the kill/restart/rejoin e2e repeated under the race
# detector with fresh process state each run, so detector timings,
# replication pushes and rejoin sweeps interleave differently every
# time. CHAOS_RUNS overrides the repetition count.
CHAOS_RUNS ?= 5
cluster-chaos:
	$(GO) test -race -count=$(CHAOS_RUNS) -run 'TestClusterKillRestartRejoin|TestChurnDuringBatchProperty' ./internal/service

# One iteration of the scheduler-throughput benchmark at every size,
# plus the transaction-layer micro-benchmarks (trial begin/rollback,
# TryDuplication, MCP ready-queue scaling, ILS end-to-end) — a smoke
# test of the hot paths, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkAlgorithms -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkTxn|BenchmarkTryDuplication|BenchmarkRankLevelSets' -benchtime 1x ./internal/sched ./internal/algo
	$(GO) test -run '^$$' -bench 'BenchmarkMCPScaling' -benchtime 1x ./internal/algo/listsched
	$(GO) test -run '^$$' -bench 'BenchmarkILSEndToEnd' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkPopulationEval' -benchtime 1x ./internal/adversary
	$(GO) test -run '^$$' -bench 'BenchmarkBatchEndpoint|BenchmarkScheduleHandler' -benchtime 1x ./internal/service
	$(GO) test -run '^$$' -bench 'BenchmarkStreamAppend' -benchtime 1x ./internal/stream

# The benchmark under perfbench/ is a nested module, so `go build ./...`
# at the root never compiles it: vet and test it in place, so a rename
# of anything it calls fails here rather than in a benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# A few seconds of coverage-guided fuzzing per parser entry point.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime 5s ./internal/dag
	$(GO) test -run '^$$' -fuzz FuzzReadDAX -fuzztime 5s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzReadGraphJSON -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz FuzzScheduleRequest -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzStreamEvents -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzRingMessages -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzFaultPlan -fuzztime 5s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzSpec -fuzztime 5s ./internal/adversary

# Regenerate BENCH_sched.json (real measurement; takes a minute).
scale:
	$(GO) run ./cmd/schedbench -scale -out BENCH_sched.json

# Regenerate BENCH_service.json: serving-tier batch throughput over
# real HTTP against an in-process schedd.
service-bench:
	$(GO) run ./cmd/schedbench -service -out BENCH_service.json

# Regenerate BENCH_stream.json: the streaming engine's incremental
# re-planning against full recomputation over identical event logs,
# guarded by static-oracle schedule-digest equivalence.
stream-bench:
	$(GO) run ./cmd/schedbench -stream -out BENCH_stream.json

ci: fmt-check vet race race-concurrent bench-smoke perfbench-check
