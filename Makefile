GO ?= go

.PHONY: build test vet fmt race bench bench-rpc bench-cache bench-write bench-reshard bench-wal bench-statefun wal-fuzz cover verify chaos chaos-short flake-check doclint alloc-guard

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (listing the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the telemetry-overhead spot check plus the RPC hot-path
# microbenchmark suite (which refreshes BENCH_rpc.json).
bench: bench-rpc bench-cache bench-write bench-reshard
	$(GO) test -run '^$$' -bench 'BenchmarkInvokeTelemetry' -benchtime 2000x .

# bench-rpc runs the wire-codec and RPC hot-path microbenchmarks and
# commits their aggregate (min ns/op over 5 runs, allocs/op) to
# BENCH_rpc.json via cmd/benchfmt. The *Gob benchmarks are the retained
# pre-codec encoder, kept as the before/after baseline.
bench-rpc:
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeInvocation|BenchmarkDecodeInvocation|BenchmarkInvocationRoundTrip|BenchmarkResponseRoundTrip' \
		-benchmem -count=5 ./internal/core/ > /tmp/bench_rpc_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRPCEcho' -benchmem -count=5 \
		./internal/rpc/ >> /tmp/bench_rpc_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkInvokeObject' -benchmem -count=5 \
		./internal/client/ >> /tmp/bench_rpc_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTrackerObserve' -benchmem -count=5 \
		./internal/telemetry/ >> /tmp/bench_rpc_raw.txt
	$(GO) run ./cmd/benchfmt < /tmp/bench_rpc_raw.txt > BENCH_rpc.json
	@echo "wrote BENCH_rpc.json"

# bench-cache runs the read-path microbenchmarks (the same hot-object Get
# with the lease cache off and on) and commits their aggregate to
# BENCH_cache.json via cmd/benchfmt. The throughput-level view of the same
# story is `crucial-bench -exp cache` (EXPERIMENTS.md).
bench-cache:
	$(GO) test -run '^$$' -bench 'BenchmarkReadUncached|BenchmarkReadCached' \
		-benchmem -count=5 ./internal/cluster/ > /tmp/bench_cache_raw.txt
	$(GO) run ./cmd/benchfmt < /tmp/bench_cache_raw.txt > BENCH_cache.json
	@echo "wrote BENCH_cache.json"

# bench-write runs the write-path group-commit benchmarks (parallel
# hot-counter increments with batching off and on, plus a batch-size and
# linger ablation) and commits their aggregate to BENCH_write.json via
# cmd/benchfmt. DESIGN.md §5e explains the protocol being measured.
bench-write:
	$(GO) test -run '^$$' -bench 'BenchmarkWrite' \
		-benchmem -count=5 ./internal/cluster/ > /tmp/bench_write_raw.txt
	$(GO) run ./cmd/benchfmt < /tmp/bench_write_raw.txt > BENCH_write.json
	@echo "wrote BENCH_write.json"

# bench-reshard runs the elastic-resharding benchmarks (a zipfian
# hot-spot workload under the ServiceTime capacity gate: static
# placement vs sharded counters vs sharded + rebalancer) and commits
# their aggregate to BENCH_reshard.json via cmd/benchfmt. Fixed
# iteration counts keep go test from re-probing b.N — each probe would
# pay a full cluster start plus, for Elastic, the rebalancer
# convergence warmup. Acceptance: Elastic ≥ 3x the ops/s of Static
# (DESIGN.md §5g, EXPERIMENTS.md).
bench-reshard:
	$(GO) test -run '^$$' -bench 'BenchmarkReshard' -benchtime 1500x \
		-benchmem -count=5 ./internal/cluster/ > /tmp/bench_reshard_raw.txt
	$(GO) run ./cmd/benchfmt < /tmp/bench_reshard_raw.txt > BENCH_reshard.json
	@echo "wrote BENCH_reshard.json"

# bench-wal runs the durability-overhead benchmarks (the bench-write
# contended hot-counter workload with the durability tier off,
# snapshot-only, group-fsynced every 64 records, and fsynced per op) and
# commits their aggregate to BENCH_wal.json via cmd/benchfmt. Acceptance:
# GroupFsync within ~2x of Off (DESIGN.md §5h, EXPERIMENTS.md).
bench-wal:
	$(GO) test -run '^$$' -bench 'BenchmarkWAL' \
		-benchmem -count=5 ./internal/cluster/ > /tmp/bench_wal_raw.txt
	$(GO) run ./cmd/benchfmt < /tmp/bench_wal_raw.txt > BENCH_wal.json
	@echo "wrote BENCH_wal.json"

# bench-statefun runs the stateful-functions sustained-throughput
# benchmarks (one op = one message pushed, dispatched, handled, and
# atomically committed; per-instance drain probes close each run) across
# 100 and 1000 instances with the durability tier off and on, and
# commits their aggregate to BENCH_statefun.json via cmd/benchfmt. Fixed
# iteration counts keep go test from re-probing b.N — each probe pays a
# full runtime boot. The table-level view is `crucial-bench -exp
# statefun` (DESIGN.md §5i, EXPERIMENTS.md).
bench-statefun:
	$(GO) test -run '^$$' -bench 'BenchmarkStatefun' -benchtime 3000x \
		-benchmem -count=3 . > /tmp/bench_statefun_raw.txt
	$(GO) run ./cmd/benchfmt < /tmp/bench_statefun_raw.txt > BENCH_statefun.json
	@echo "wrote BENCH_statefun.json"

# wal-fuzz fuzzes the WAL segment decoder — the one parser fed raw bytes
# off cold storage, where torn flushes and bit rot are the expected input.
# Invariants: no panics, and accepted records re-encode byte-identically.
wal-fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSegment' -fuzztime 30s ./internal/durability/

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# chaos runs the nemesis suite under the race detector: ten seeded
# linearizability schedules (partitions, drop/delay, duplication,
# crash/restart, combined, with the lease cache on, with write batching
# on, with live migration mid-partition), the kill-everything
# full-cluster recovery audit, the stateful-functions kill-everything
# delivery audit, and the at-most-once blackhole regressions. Schedules
# are deterministic in their seeds, so a failure reproduces.
chaos:
	$(GO) test -race -count=1 -run 'TestNemesis|TestAtMostOnce' ./internal/chaos/

# chaos-short is the verify-gate slice of the nemesis: one partition
# schedule, one crash/restart schedule, the cache-on partition schedule
# (with its invalidation-blackhole window), the group-commit partition
# schedule (write batching on), the live-migration partition schedule
# (hot object migrated mid-partition), the kill-everything schedule
# (full-cluster crash recovered from cold storage), and the stateful-
# functions kill-everything schedule (exactly-once-visible delivery
# audited across the same full-cluster crash), shrunk by -short.
chaos-short:
	$(GO) test -race -count=1 -short -run 'TestNemesisPartition|TestNemesisCrashRestart|TestNemesisCachePartition|TestNemesisWriteBatchPartition|TestNemesisMigrationPartition|TestNemesisKillEverything|TestNemesisStatefunKillEverything' ./internal/chaos/

# flake-check reruns the tests that used to fail under CPU contention —
# the two whose clocks are now under the test's control, the cache-on
# crash/restart nemesis that caught the fork-check bug (DESIGN.md §5c) and
# the migration race that lost an rf=1 write across the hand-off (§5g) —
# 30 times each at one and two CPUs (about half a minute on an idle box).
# Not part of verify. To reproduce the contention itself, run any CPU hog
# beside it (e.g. four copies of a `go test -c ./internal/chaos` binary).
flake-check:
	$(GO) test -count=30 -cpu 1,2 -run 'TestCheckFailuresConcurrentWithMembershipChurn' ./internal/membership/
	$(GO) test -count=30 -cpu 1,2 -run 'TestBillingUsesModeledTime|TestBillingAccumulates' ./internal/faas/
	$(GO) test -count=30 -cpu 1,2 -run 'TestNemesisCacheCrashRestart' ./internal/chaos/
	$(GO) test -count=30 -cpu 1,2 -run 'TestInvokeDuringMigrationLosesNothing' ./internal/cluster/

# doclint fails when an exported identifier in the public API (the root
# package) has no doc comment.
doclint:
	$(GO) run ./cmd/doclint .

# alloc-guard enforces the hot-path allocation budgets: the invocation
# round trip must hold PR 3's 8 allocs/op, the per-object tracker's
# warm-path Observe must stay allocation-free (the telemetry-overhead
# guard for the always-on accounting plane), one sequential RF-2 write
# on the zero WritePolicy — a round of one — must not allocate more than
# it did before the write paths were merged, and the lease read path must
# keep a 95/5 read/write sequence cached (hit ratio, one grant per
# invalidation) without building a hash ring per hit or per grant. These
# tests self-skip under -race, so they need this dedicated non-race
# invocation to actually bite; the measured numbers live in BENCH_rpc.json
# and in internal/cluster/alloc_budget_test.go.
alloc-guard:
	$(GO) test -count=1 -run 'AllocBudget|TrackerObserveAllocs' \
		./internal/core/ ./internal/telemetry/ ./internal/cluster/

# verify is the tier-1 gate (see ROADMAP.md): everything must be gofmt
# clean, compile, vet clean, doc-complete on the public API, hold the
# hot-path allocation budgets, pass under the race detector, and survive
# the short nemesis slice (which includes one cache-on schedule).
verify: fmt vet build doclint alloc-guard race chaos-short
