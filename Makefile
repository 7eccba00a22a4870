GO ?= go

.PHONY: build test vet fmt race bench wal-fuzz codec-fuzz cover verify chaos chaos-short flake-check doclint alloc-guard

build:
	$(GO) build ./...

# vet covers the benchmark driver too: it is its own module, so nothing
# else in verify compiles it against the API it uses.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

# fmt fails (listing the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the composed benchmark (benchmark/, what BENCHMARK.json
# declares). The per-package microbenchmarks run with plain go test, e.g.
# `go test -run '^$' -bench . -benchmem ./internal/core/`.
bench:
	bash benchmark/run.sh

# wal-fuzz fuzzes the WAL segment decoder — the one parser fed raw bytes
# off cold storage, where torn flushes and bit rot are the expected input.
# Invariants: no panics, and accepted records re-encode byte-identically.
wal-fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSegment' -fuzztime 30s ./internal/durability/

# codec-fuzz fuzzes the tag-encoded wire codecs for 15 s each: the
# invocation round trip, the invocation and response decoders, the five
# ACCEPT and lease control frame decoders, and FuzzStateBodies in the three
# packages that decode state — the built-in objects' Restore, the statefun
# mailbox values and drain-pass frames, and the transfer and fetch frames
# that rebalancing and checkpoints ship. These are every parser a peer, a
# client or cold storage feeds on each operation. Invariants: no panics,
# and a frame that decodes re-encodes to one that decodes the same. Not
# part of verify.
codec-fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzInvocationRoundTrip$$' -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInvocation$$' -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzControlFrames$$' -fuzztime 15s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzStateBodies$$' -fuzztime 15s ./internal/objects/
	$(GO) test -run '^$$' -fuzz '^FuzzStateBodies$$' -fuzztime 15s ./internal/statefun/
	$(GO) test -run '^$$' -fuzz '^FuzzStateBodies$$' -fuzztime 15s ./internal/server/

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# chaos runs the nemesis suite under the race detector: ten seeded
# linearizability schedules (partitions, drop/delay, duplication,
# crash/restart, combined, with the lease cache on, with enough writers
# that writes queue for group commit, with live migration mid-partition),
# the kill-everything full-cluster recovery audit, the stateful-functions
# kill-everything delivery audit, and the at-most-once blackhole
# regressions. Schedules are deterministic in their seeds, so a failure
# reproduces. The stateful-functions audit runs three times: its engine
# is woken by a doorbell whose waits the schedule's attempt timeouts cut
# short.
chaos:
	$(GO) test -race -count=1 -run 'TestNemesis|TestAtMostOnce' -skip 'TestNemesisStatefunKillEverything' ./internal/chaos/
	$(GO) test -race -count=3 -run 'TestNemesisStatefunKillEverything' ./internal/chaos/

# chaos-short is the verify-gate slice of the nemesis: one partition
# schedule, one crash/restart schedule, the cache-on partition schedule
# (with its invalidation-blackhole window), the group-commit partition
# schedule (ten workers in lockstep, so writes queue and share rounds), the
# live-migration partition schedule (hot object migrated mid-partition),
# the kill-everything schedule (full-cluster crash recovered from cold
# storage), and the stateful-functions kill-everything schedule
# (exactly-once-visible delivery audited across the same full-cluster
# crash), shrunk by -short.
chaos-short:
	$(GO) test -race -count=1 -short -run 'TestNemesisPartition|TestNemesisCrashRestart|TestNemesisCachePartition|TestNemesisWriteBatchPartition|TestNemesisMigrationPartition|TestNemesisKillEverything|TestNemesisStatefunKillEverything' ./internal/chaos/

# flake-check reruns the tests that used to fail under CPU contention —
# the two whose clocks are now under the test's control, the cache-on
# crash/restart nemesis that caught the fork-check bug (DESIGN.md §5c), the
# migration race that lost an rf=1 write across the hand-off (§5g) — the
# two that pin the rf=1 round of one: a write racing a Join hand-off, and
# concurrent durable writes recovered after a full crash (§5h) — and the
# rf=2 routing test: every cache-less read reaches the primary and is
# served there without a round, and a follower bounces reads (§5d) — and
# the three that pin the per-object order (§5c): two coordinators in two
# views are never both acked, a member applies an overtaking round only
# after its predecessor, and a lost ACCEPT parks the next round until the
# member pulls — and the three statefun dispatch tests that time a
# wake-up: a push to an idle instance is handled within 100 ms while idle
# instances get no drain pass, a doorbell owner's crash makes the engine
# re-list, and the push after one that errored in doubt still rings
# (§5i). 30 times each at one and two CPUs (about three minutes on an
# idle box).
# Not part of verify. To reproduce the contention itself, run any CPU hog
# beside it (e.g. four copies of a `go test -c ./internal/chaos` binary).
flake-check:
	$(GO) test -count=30 -cpu 1,2 -run 'TestCheckFailuresConcurrentWithMembershipChurn' ./internal/membership/
	$(GO) test -count=30 -cpu 1,2 -run 'TestBillingUsesModeledTime|TestBillingAccumulates' ./internal/faas/
	$(GO) test -count=30 -cpu 1,2 -run 'TestNemesisCacheCrashRestart' ./internal/chaos/
	$(GO) test -count=30 -cpu 1,2 -run 'TestInvokeDuringMigrationLosesNothing|TestDurabilityRecoversConcurrentRFOneWrites|TestRF2ReadsServedAtPrimary|TestDroppedAcceptParksPullsAndConverges' ./internal/cluster/
	$(GO) test -count=30 -cpu 1,2 -run 'TestRoundOfOneAcrossHandOff|TestTwoCoordinatorsInTwoViewsNotBothAcked|TestAcceptAppliesInSeqOrder' ./internal/server/
	$(GO) test -count=30 -cpu 1,2 -run 'TestDispatchIdleInstancesCostNothing|TestDispatchDoorbellOwnerCrashRelists|TestDispatchPushInDoubtActivatesNext' ./internal/statefun/

# doclint fails when an exported identifier in the public API (the root
# package) has no doc comment.
doclint:
	$(GO) run ./cmd/doclint .

# alloc-guard enforces the hot-path allocation budgets: a warmed rpc echo
# call, plain or bounded by CallTimeout, must allocate nothing (pooled
# handler workers, per-connection frame headers, pooled buffer boxes and
# attempt timers), the invocation round trip must hold PR 3's 8
# allocs/op, the per-object tracker's warm-path Observe must stay
# allocation-free (the telemetry-overhead guard for the always-on
# accounting plane), one sequential RF-2 write — an inline round of one —
# must stay near the ~34 allocations it costs as one
# tag-encoded ACCEPT round trip (53 with a goroutine and a context per rpc
# frame, ~96 under the Skeen PROPOSE/FINAL exchange), an rf=1 write (a
# group of one) and read must stay near the ~10 and ~11 they cost outside
# rounds, and the lease read path must keep a 95/5 read/write sequence
# cached (hit ratio, one grant per invalidation) without building a hash
# ring per hit, miss or grant, and a grant and a whole 256-byte KV miss
# (grant plus Restore) must stay near the ~6 and ~18 allocations they
# cost with tag-encoded state bodies (a gob body alone costs more). These
# tests self-skip under -race, so they need this dedicated non-race
# invocation to actually bite; the measured numbers live next to each
# budget in its test.
alloc-guard:
	$(GO) test -count=1 -run 'AllocBudget|TrackerObserveAllocs' \
		./internal/rpc/ ./internal/core/ ./internal/telemetry/ ./internal/cluster/

# verify is the tier-1 gate (see ROADMAP.md): everything must be gofmt
# clean, compile, vet clean (benchmark module included), doc-complete on
# the public API, hold the
# hot-path allocation budgets, pass under the race detector, and survive
# the short nemesis slice (which includes one cache-on schedule).
verify: fmt vet build doclint alloc-guard race chaos-short
