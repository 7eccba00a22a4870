package client

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/objects"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// cacheOnly builds a client whose cache can be driven directly: no node is
// needed to deliver invalidations to it or install grants in it.
func cacheOnly(t *testing.T, tel *telemetry.Telemetry) *leaseCache {
	t.Helper()
	c, err := New(Config{
		Transport: rpc.NewMemNetwork(),
		Views:     membership.NewDirectory(time.Hour),
		Telemetry: tel,
		Cache:     &CacheConfig{ListenAddr: "cache-under-test", Registry: objects.BuiltinRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c.cache
}

// The install ordering of DESIGN.md §5d, end to end through the cache:
// invalidate(9) → install(2) ok → invalidate(3) → delayed install(2)
// refused. The second step is a new primary whose epoch counter is lower
// than the deposed one's; the last is its pre-write grant arriving late.
func TestCacheInstallOrdering(t *testing.T) {
	tel := telemetry.New()
	lc := cacheOnly(t, tel)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "ordered"}
	const ttl = time.Minute
	grant := func(epoch uint64, requested time.Time) *cacheEntry {
		return &cacheEntry{epoch: epoch, expiry: requested.Add(ttl)}
	}
	staleGrants := func() uint64 { return lc.c.DebugCacheStats().StaleGrants }

	beforeAll := time.Now()
	lc.invalidate(ref, 9)
	if e := grant(8, beforeAll); lc.install(ref, e, beforeAll) != nil {
		t.Fatal("a grant requested before invalidate(9), epoch 8, was installed")
	}
	if staleGrants() != 1 {
		t.Fatalf("stale grants = %d after one refused install", staleGrants())
	}
	afterNine := time.Now().Add(time.Nanosecond)
	if e := grant(2, afterNine); lc.install(ref, e, afterNine) != e {
		t.Fatal("install(2) requested after invalidate(9) refused: a new primary's lower counter is uncacheable")
	}
	lc.invalidate(ref, 3)
	if st := lc.c.DebugCacheStats(); st.Entries != 0 {
		t.Fatalf("invalidate(3) left the epoch-2 copy resident: %+v", st)
	}
	if e := grant(2, afterNine); lc.install(ref, e, afterNine) != nil {
		t.Fatal("delayed install(2), requested before invalidate(3), was installed")
	}
	afterThree := time.Now().Add(time.Nanosecond)
	if e := grant(3, afterThree); lc.install(ref, e, afterThree) != e {
		t.Fatal("install(3) requested after invalidate(3) refused")
	}
	if got := staleGrants(); got != 2 {
		t.Fatalf("stale grants = %d, want 2", got)
	}
	// The same count is what /metrics and `dso-cli stats` show.
	var prom strings.Builder
	if err := telemetry.WritePrometheus(&prom, tel.Metrics().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if want := "crucial_cache_stale_grants_total 2\n"; !strings.Contains(prom.String(), want) {
		t.Fatalf("metrics exposition lacks %q:\n%s", want, prom.String())
	}
}

// 10 000 distinct refs, each invalidated and each refused a grant once and
// never touched again, must not stay in the floor and backoff maps for the
// life of the client.
func TestCacheFloorAndBackoffBounded(t *testing.T) {
	lc := cacheOnly(t, nil)
	const ttl = time.Millisecond
	now := time.Now()
	lc.install(core.Ref{Key: "seed"}, &cacheEntry{expiry: now.Add(ttl)}, now) // the cache learns the TTL from a grant
	peakFloor, peakBackoff := 0, 0
	for i := 0; i < 10_000; i++ {
		if i%500 == 0 {
			time.Sleep(grantBackoff + ttl) // everything so far is now dead weight
		}
		ref := core.Ref{Type: objects.TypeKV, Key: strconv.Itoa(i)}
		lc.invalidate(ref, uint64(i))
		lc.refused(ref)
		lc.mu.Lock()
		peakFloor, peakBackoff = max(peakFloor, lc.floor.Len()), max(peakBackoff, len(lc.backoff))
		lc.mu.Unlock()
	}
	// 500 refs per burst, swept whenever a map has doubled.
	if peakFloor > 2048 || peakBackoff > 2048 {
		t.Fatalf("peak sizes over 10000 refs: floor %d, backoff %d", peakFloor, peakBackoff)
	}
}

// A refused grant keeps reads of its ref off the lease path for about a
// write round, not longer: a read 2 ms after the refusal asks its primary
// for a lease again.
func TestGrantBackoffSpansAWriteRound(t *testing.T) {
	net := rpc.NewMemNetwork()
	ln, err := net.Listen("primary")
	if err != nil {
		t.Fatal(err)
	}
	var leases atomic.Int32
	srv := rpc.NewServer(func(_ context.Context, kind uint8, _ []byte) ([]byte, error) {
		if kind == server.KindLease {
			leases.Add(1)
		}
		return nil, errors.New("no lease here")
	})
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	dir := membership.NewDirectory(time.Hour)
	dir.Join("n1", "primary")
	c, err := New(Config{
		Transport: net,
		Views:     dir,
		Cache:     &CacheConfig{ListenAddr: "cache-under-test", Registry: objects.BuiltinRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	lc := c.cache
	ctx := context.Background()
	inv := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "refused"},
		Method: "Get", ReadOnly: true, Persist: true}

	refusedAt := time.Now()
	lc.refused(inv.Ref)
	lc.read(ctx, inv)
	if leases.Load() != 0 && time.Since(refusedAt) < grantBackoff {
		t.Fatal("a read inside the backoff window asked for a lease")
	}
	time.Sleep(2 * time.Millisecond)
	before := leases.Load()
	lc.read(ctx, inv)
	if leases.Load() == before {
		t.Fatal("a read 2 ms after a refused grant did not ask for a lease again")
	}
}
