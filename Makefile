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
# ACCEPT and lease control frame decoders, the in-place round payload
# walker a member and WAL replay read rounds with (FuzzRoundPayload: every
# invocation on the ACCEPT's ref, and a re-encode byte for byte the batch
# container of its invocations), and FuzzStateBodies in the three
# packages that decode state — the built-in objects' Restore, the statefun
# mailbox values and drain-pass frames, and the transfer and fetch frames
# that rebalancing and checkpoints ship. These are every parser a peer, a
# client or cold storage feeds on each operation. Invariants: no panics,
# and a frame that decodes re-encodes to one that decodes the same. It
# also fuzzes the gob descriptor cache (FuzzGobValue): a cached decode and
# a fresh gob decoder agree on success or failure and on the value. Not
# part of verify.
codec-fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzInvocationRoundTrip$$' -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInvocation$$' -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzGobValue$$' -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzControlFrames$$' -fuzztime 15s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzRoundPayload$$' -fuzztime 15s ./internal/server/
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
# the two whose clocks are now under the test's control, the two seed-707
# crash/restart nemeses (cache on, and writes queued for group commit)
# whose interleaving positions and the epoch open close (DESIGN.md §5c), the
# migration race that lost an rf=1 write across the hand-off (§5g) — the
# two that pin the rf=1 round of one: a write racing a Join hand-off, and
# concurrent durable writes recovered after a full crash (§5h) — and the
# rf=2 routing test: every cache-less read reaches the primary and is
# served there without a round, and a follower bounces reads (§5d) — the
# group-commit test whose writes must overrun their lane (§5e) — and
# the four that pin the per-object order (§5c): two coordinators in two
# views are never both acked, a member applies an overtaking round only
# after its predecessor, a round that overtakes the genesis round creating
# its copy waits for that copy, and a lost ACCEPT parks the next round
# until the member pulls — and the three statefun dispatch tests that time a
# wake-up: a push to an idle instance is handled within 100 ms while idle
# instances get no drain pass, a doorbell owner's crash makes the engine
# re-list, and the push after one that errored in doubt still rings
# (§5i) — and the two record tests that step through view changes and
# pulls: every lifecycle transition of a ref's record, and a table that
# stays one record per copy across pulls, a migration, a Join and a Leave
# (§5c). 30 times each at one and two CPUs (about six and a half minutes
# on an idle 2-vCPU box).
# Not part of verify. To reproduce the contention itself, run any CPU hog
# beside it (e.g. four copies of a `go test -c ./internal/chaos` binary).
flake-check:
	$(GO) test -count=30 -cpu 1,2 -run 'TestCheckFailuresConcurrentWithMembershipChurn' ./internal/membership/
	$(GO) test -count=30 -cpu 1,2 -run 'TestBillingUsesModeledTime|TestBillingAccumulates' ./internal/faas/
	$(GO) test -count=30 -cpu 1,2 -run 'TestNemesisCacheCrashRestart|TestNemesisWriteBatchCrashRestart' ./internal/chaos/
	$(GO) test -count=30 -cpu 1,2 -run 'TestInvokeDuringMigrationLosesNothing|TestDurabilityRecoversConcurrentRFOneWrites|TestRF2ReadsServedAtPrimary|TestDroppedAcceptParksPullsAndConverges|TestWriteBatchingExactlyOnce' ./internal/cluster/
	$(GO) test -count=30 -cpu 1,2 -run 'TestRoundOfOneAcrossHandOff|TestTwoCoordinatorsInTwoViewsNotBothAcked|TestAcceptAppliesInSeqOrder|TestRoundOvertakingGenesisWaitsForIt|TestRecordLifecycle|TestTableStaysFlat' ./internal/server/
	$(GO) test -count=30 -cpu 1,2 -run 'TestDispatchIdleInstancesCostNothing|TestDispatchDoorbellOwnerCrashRelists|TestDispatchPushInDoubtActivatesNext' ./internal/statefun/

# doclint fails when an exported identifier in the public API (the root
# package) has no doc comment.
doclint:
	$(GO) run ./cmd/doclint .

# alloc-guard enforces the hot-path allocation budgets: a warmed rpc echo
# call, plain or bounded by CallTimeout, must allocate nothing (pooled
# handler workers, per-connection frame headers, pooled buffer boxes and
# attempt timers), eight parallel echo callers on one in-process
# connection at most one allocation per twenty calls (their frames share
# pooled write and queue buffers), the invocation round trip must hold its
# ~6 allocs/op (type and method decode to shared copies), EncodeInvocation
# and a round's payload must be sized once, a call on its expected ref
# without arguments must decode with none however long its Init list (it
# stays encoded until a copy is created), a control frame's reader must
# stay on the stack (an ACCEPT on a ref the node holds decodes with no
# allocation, 1 while each decode copied the key; an ACCEPT reply with
# none), a warm ACCEPT and a warm fetch must hand their replies back to
# the payload pool (an ACCEPT ~0.1 KiB beyond its frame, 4.1 KiB when the
# coordinator dropped the member's reply; a fetch 11 allocations, 12
# before), a pull that finds the member at its own position must take no
# copy (under 1 KiB, ~70 bytes; 9.8 KB while every fetch reply shipped
# the snapshot and its dedup window), a warmed
# placement at rf up to the ring's table width must allocate nothing (no
# replica slice, no Ref string) and New must not format a label per
# vnode, a rebalancer scan over 1 000 objects must not build a ring per
# object, the per-object tracker's warm-path Observe must stay
# allocation-free (the telemetry-overhead guard for the always-on
# accounting plane), one sequential RF-2 write — an inline round of one,
# counted on a counter past 1<<20 so that every result boxes — must stay
# near the ~9 allocations it costs once replies go back to the pool and
# refs are found by their bytes (~12 counted so, ~10 below 256, before
# that; ~21 with per-round and per-apply scaffolding, ~34 before names
# were interned and placement stopped allocating, 53 with a goroutine and
# a context per rpc frame, ~96 under the Skeen PROPOSE/FINAL exchange), a
# warm member's ACCEPT of a round of one at its 2 (3 with a fresh key per
# ACCEPT, 11 with that scaffolding), the same write with leases on near
# the same ~9 (the lease block lives on the ref's record and its release
# is a method: 27 when each write rebuilt a holder table at both replicas
# and returned two closures), an rf=3 write near its ~12 (~17 before)
# with the extra member's ACCEPT on a pooled worker, an rf=1 write (a
# group of one) and read near the ~5 and ~4 they cost outside rounds, and
# the lease read path must keep a 95/5 read/write sequence cached (hit
# ratio, one grant per invalidation) without building a hash ring per
# hit, miss or grant, and a grant and a whole 256-byte KV miss (grant plus
# Restore) must stay near the ~1 and ~11 allocations they cost with
# pooled replies and tag-encoded state bodies (5 and 14 before; a gob body
# alone costs more), a warm small-struct gob value round
# trip must stay near the 4 allocations it costs once its type's
# descriptors are cached (174 on fresh streams), and the statefun
# frame decoders must allocate nothing beyond what they return (their
# readers stay on the stack). These tests self-skip under -race, so
# they need this dedicated non-race invocation to actually bite; the
# measured numbers live next to each budget in its test.
alloc-guard:
	$(GO) test -count=1 -run 'Alloc|SizedOnce|AppendedInPlace' \
		./internal/rpc/ ./internal/core/ ./internal/telemetry/ ./internal/cluster/ \
		./internal/ring/ ./internal/membership/ ./internal/server/ ./internal/statefun/

# verify is the tier-1 gate (see ROADMAP.md): everything must be gofmt
# clean, compile, vet clean (benchmark module included), doc-complete on
# the public API, hold the
# hot-path allocation budgets, pass under the race detector, and survive
# the short nemesis slice (which includes one cache-on schedule).
verify: fmt vet build doclint alloc-guard race chaos-short
