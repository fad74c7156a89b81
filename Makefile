# Development and CI entry points. `make ci` is the tier run before
# merging: static checks, the full test suite under the race detector,
# and a one-iteration benchmark smoke proving the perf-path still builds
# and schedules at every size.

GO ?= go

.PHONY: all build fmt-check vet test race race-concurrent cluster-chaos bench-smoke fuzz-smoke perfbench-check scale service-bench stream-bench loc ci

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
# in-flight batches), the scheduling substrate and algorithm suites
# (schedd runs them on concurrent requests, so any shared package state
# would race there), the fault replay/repair path (exercised concurrently through the service and experiment
# tiers), the adversary's parallel population evaluator, and the
# streaming engine (invariant-13 equivalence plus the NDJSON session
# endpoint's worker-slot lifecycle). `race` already covers them once;
# this tier re-runs them with fresh state so interleavings differ
# between passes.
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
# plus the trial-journal micro-benchmarks (Mark/Undo trial,
# TryDuplication, the data-ready row, instance build on 32 and 512
# processors, MCP and ready-order scaling, ILS end-to-end) — a smoke test
# of the hot paths, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkAlgorithms -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkTrialMarkUndo|BenchmarkTryDuplication|BenchmarkReadyRow|BenchmarkInstanceBuild' -benchtime 1x ./internal/sched ./internal/algo
	$(GO) test -run '^$$' -bench 'BenchmarkMCPScaling|BenchmarkReadyOrderScaling' -benchtime 1x ./internal/algo/listsched
	$(GO) test -run '^$$' -bench 'BenchmarkILSEndToEnd' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkPopulationEval' -benchtime 1x ./internal/adversary
	$(GO) test -run '^$$' -bench 'BenchmarkBatchEndpoint|BenchmarkScheduleHandler|BenchmarkClientCodec|BenchmarkRequestDecode' -benchtime 1x -benchmem ./internal/service
	$(GO) test -run '^$$' -bench 'BenchmarkStreamAppend' -benchtime 1x ./internal/stream

# The benchmark under perfbench/ is a nested module, so `go build ./...`
# at the root never compiles it: vet and test it in place, so a rename
# of anything it calls fails here rather than in a benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# A few seconds of coverage-guided fuzzing per parser entry point (the
# /v1/schedule decode also against a plain json.Decoder), the client's
# request encoder against json.Marshal, the client's answer decode and
# raw-field validator and schedd's request decode against encoding/json,
# plus the streaming graph's live growth against a fresh seal, the gap
# index against the linear slot scan, the link reservation state against a
# span-list scan, a plan's data-ready row against DataReady on every
# processor, the uniform links' mean cost against the pair-by-pair
# sum, each stream flush's upward ranks against a full sweep of the
# grown graph, and the greedy list orders against their ready-list
# scans. Minimizing a new input may take 100 runs, not the default 60 s:
# at the default a target can spend its whole 5 s minimizing.
FUZZ = $(GO) test -run '^$$' -fuzztime 5s -fuzzminimizetime 100x -fuzz

fuzz-smoke:
	$(FUZZ) FuzzReadJSON ./internal/dag
	$(FUZZ) FuzzAppendableGrow ./internal/dag
	$(FUZZ) FuzzGapIndex ./internal/sched/timeline
	$(FUZZ) FuzzReadyRow ./internal/sched
	$(FUZZ) FuzzLinkState ./internal/platform
	$(FUZZ) FuzzMeanCommCost ./internal/platform
	$(FUZZ) FuzzStreamRanks ./internal/stream
	$(FUZZ) FuzzGreedyOrder ./internal/algo
	$(FUZZ) FuzzReadDAX ./internal/workload
	$(FUZZ) FuzzReadGraphJSON .
	$(FUZZ) FuzzScheduleRequest ./internal/service
	$(FUZZ) FuzzDecodeFirst ./internal/service
	$(FUZZ) FuzzRequestBody ./internal/service
	$(FUZZ) FuzzDecodeAnswer ./internal/service
	$(FUZZ) FuzzDecodeRequest ./internal/service
	$(FUZZ) FuzzStreamEvents ./internal/service
	$(FUZZ) FuzzRingMessages ./internal/service
	$(FUZZ) FuzzFaultPlan ./internal/sim
	$(FUZZ) FuzzSpec ./internal/adversary

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

# Non-test Go lines per package directory, the size figure a change
# reports before and after. perfbench/ is its own module, listed apart
# and left out of the total. Untracked files count unless ignored.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; if (sub("/[^/]*$$", "", d) == 0) d = "."; \
		if (d ~ /^perfbench(\/|$$)/) pb[d] += $$1; else { n[d] += $$1; tot += $$1 } } \
	END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%6d  total\n", tot; \
		for (d in pb) printf "%6d  %s (own module, not in the total)\n", pb[d], d }'

ci: fmt-check vet race race-concurrent bench-smoke perfbench-check
