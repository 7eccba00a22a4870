package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/chaos"
	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// Lease-cache coherence tests (DESIGN.md §5d). Every test asserts the
// user-visible guarantee — a read never returns a value an up-to-date
// linearization could not — rather than protocol internals, so the
// implementation can evolve under them.

func cacheOpts(ttl time.Duration) Options {
	return Options{LeaseTTL: ttl, ClientCache: true}
}

// TestCacheHitsServeLocally: after the first read leases the object,
// subsequent reads are answered from the client cache.
func TestCacheHitsServeLocally(t *testing.T) {
	c := startCluster(t, cacheOpts(time.Second))
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "hot"}

	if _, err := cl.Call(ctx, ref, "Set", int64(7)); err != nil {
		t.Fatal(err)
	}
	const reads = 50
	for i := 0; i < reads; i++ {
		res, err := cl.Call(ctx, ref, "Get")
		if err != nil {
			t.Fatal(err)
		}
		if res[0].(int64) != 7 {
			t.Fatalf("read %d: Get = %v, want 7", i, res[0])
		}
	}
	st := cl.DebugCacheStats()
	// Read 1 misses (no lease yet) and fills; the rest must all hit.
	if st.Hits < reads-1 {
		t.Fatalf("cache hits = %d, want >= %d (stats %+v)", st.Hits, reads-1, st)
	}
	if st.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.Entries)
	}
}

// TestCacheWriteInvalidates: a write by another client synchronously
// invalidates the cached copy, so the next read observes the new value.
func TestCacheWriteInvalidates(t *testing.T) {
	c := startCluster(t, cacheOpts(5*time.Second))
	reader := newClient(t, c)
	writer := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "shared"}

	if _, err := writer.Call(ctx, ref, "Set", int64(1)); err != nil {
		t.Fatal(err)
	}
	// Warm the reader's cache (first read fills, second hits).
	for i := 0; i < 2; i++ {
		if res, err := reader.Call(ctx, ref, "Get"); err != nil || res[0].(int64) != 1 {
			t.Fatalf("warm read: %v %v", res, err)
		}
	}
	// The TTL is 5s, far longer than this test: only the synchronous
	// invalidation — not expiry — can explain the reader seeing the write.
	if _, err := writer.Call(ctx, ref, "Set", int64(2)); err != nil {
		t.Fatal(err)
	}
	res, err := reader.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 2 {
		t.Fatalf("read after remote write = %v, want 2 (stale cache)", res[0])
	}
	if st := reader.DebugCacheStats(); st.Invalidations == 0 {
		t.Fatalf("no invalidation recorded: %+v", st)
	}
}

// TestCacheLeaseExpiry: a lease past its TTL is not served from; the read
// re-acquires and still returns the current value.
func TestCacheLeaseExpiry(t *testing.T) {
	c := startCluster(t, cacheOpts(30*time.Millisecond))
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "expiring"}

	if _, err := cl.Call(ctx, ref, "Set", int64(3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.Call(ctx, ref, "Get"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond) // let the lease die of old age
	res, err := cl.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 3 {
		t.Fatalf("read after expiry = %v, want 3", res[0])
	}
	if st := cl.DebugCacheStats(); st.LeaseExpiries == 0 {
		t.Fatalf("no lease expiry recorded: %+v", st)
	}
}

// TestCacheWriteRacingGrant hammers one object with concurrent cached
// readers and a writer. Every reader must observe a monotonically
// non-decreasing counter (a stale resurrected lease would show a dip) and
// the final read must equal the number of increments.
func TestCacheWriteRacingGrant(t *testing.T) {
	c := startCluster(t, cacheOpts(40*time.Millisecond))
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "race"}
	writer := newClient(t, c)
	if _, err := writer.Call(ctx, ref, "Set", int64(0)); err != nil {
		t.Fatal(err)
	}

	const (
		readers    = 4
		increments = 60
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var failed atomic.Bool
	for r := 0; r < readers; r++ {
		rc := newClient(t, c)
		wg.Add(1)
		go func(rc interface {
			Call(context.Context, core.Ref, string, ...any) ([]any, error)
		}) {
			defer wg.Done()
			last := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := rc.Call(ctx, ref, "Get")
				if err != nil {
					t.Errorf("reader: %v", err)
					failed.Store(true)
					return
				}
				v := res[0].(int64)
				if v < last {
					t.Errorf("non-monotonic read: %d after %d", v, last)
					failed.Store(true)
					return
				}
				last = v
			}
		}(rc)
	}
	for i := 0; i < increments; i++ {
		if _, err := writer.Call(ctx, ref, "IncrementAndGet"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if failed.Load() {
		t.Fatal("reader failure above")
	}
	res, err := writer.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != increments {
		t.Fatalf("final value = %v, want %d", res[0], increments)
	}
}

// TestCacheAcrossRebalance: a cached object whose ownership moves to a
// freshly added node must not serve stale reads — the view-change fence
// plus invalidation keep the cache coherent across the hand-off.
func TestCacheAcrossRebalance(t *testing.T) {
	c := startCluster(t, cacheOpts(100*time.Millisecond))
	cl := newClient(t, c)
	ctx := ctxT(t)

	const n = 24
	for i := 0; i < n; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprintf("mv%d", i)}
		if _, err := cl.Call(ctx, ref, "Set", int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Call(ctx, ref, "Get"); err != nil { // lease it
			t.Fatal(err)
		}
	}
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	// Writes after the hand-off, then reads: every read must see its
	// object's post-rebalance value no matter which node now owns it.
	for i := 0; i < n; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprintf("mv%d", i)}
		if _, err := cl.Call(ctx, ref, "AddAndGet", int64(1000)); err != nil {
			t.Fatal(err)
		}
		res, err := cl.Call(ctx, ref, "Get")
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(i + 1000); res[0].(int64) != want {
			t.Fatalf("object %d after rebalance = %v, want %d", i, res[0], want)
		}
	}
}

// TestCacheBlackholedInvalidation: when the primary cannot deliver an
// invalidation (the listener is partitioned away), the write must wait out
// the lease's expiry before committing — and the partitioned client must
// never read stale state afterwards, because its own clock expires the
// lease no later than the server's.
func TestCacheBlackholedInvalidation(t *testing.T) {
	const ttl = 120 * time.Millisecond
	tel := telemetry.New()
	eng := chaos.New(rpc.NewMemNetwork(), chaos.Options{Seed: 1, Telemetry: tel})
	c := startCluster(t, Options{
		LeaseTTL:    ttl,
		ClientCache: true,
		Chaos:       eng,
		Telemetry:   tel,
	})
	reader := newClient(t, c)
	writer := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "blackhole"}

	if _, err := writer.Call(ctx, ref, "Set", int64(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reader.Call(ctx, ref, "Get"); err != nil {
			t.Fatal(err)
		}
	}
	// Blackhole the reader's invalidation listener (cache-client-01 is the
	// first client's listener endpoint name), then write.
	eng.Partition([]string{"cache-client-01"}, []string{"dso-01", "client-01", "client-02"})
	start := time.Now()
	if _, err := writer.Call(ctx, ref, "Set", int64(2)); err != nil {
		t.Fatal(err)
	}
	wrote := time.Since(start)
	eng.Heal()
	// The reader's lease started before the grant request left, so by the
	// time the write committed the reader's copy is already expired: its
	// next read must miss (or re-acquire) and see the new value.
	res, err := reader.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 2 {
		t.Fatalf("read after blackholed invalidation = %v, want 2", res[0])
	}
	// The write must have been fenced by the expiry wait (allow generous
	// scheduling slack below the TTL, but it cannot have been instant).
	if wrote < ttl/2 {
		t.Fatalf("write committed in %v — did not wait out the unreachable lease (ttl %v)", wrote, ttl)
	}
	waits := tel.Metrics().Counter(telemetry.MetServerLeaseExpiryWts).Value()
	if waits == 0 {
		t.Fatal("no lease expiry wait recorded on the write path")
	}
}

// TestRF2ReadsServedAtPrimary: without a client cache, every read-only call
// on an rf=2 object goes to the primary, which serves it from its own copy
// without an ordering round. The follower serves no reads: a read sent
// straight to it is bounced.
func TestRF2ReadsServedAtPrimary(t *testing.T) {
	tel := telemetry.New()
	c := startCluster(t, Options{Nodes: 3, RF: 2, LeaseTTL: time.Second, Telemetry: tel})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "replicated-hot"}
	inv := func(method string, args ...any) int64 {
		t.Helper()
		res, err := cl.InvokeObject(ctx, core.Invocation{Ref: ref, Method: method, Args: args, Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].(int64)
	}

	inv("AddAndGet", int64(42))
	local := tel.Metrics().Counter(telemetry.MetServerLocalReads)
	rounds := tel.Metrics().Counter(telemetry.MetServerSMRRounds)
	l0, r0 := local.Value(), rounds.Value()
	const reads = 60
	for i := 0; i < reads; i++ {
		if v := inv("Get"); v != 42 {
			t.Fatalf("read %d = %d, want 42", i, v)
		}
	}
	if got := local.Value() - l0; got != reads {
		t.Fatalf("%d of %d reads served locally at the primary", got, reads)
	}
	if got := rounds.Value() - r0; got != 0 {
		t.Fatalf("%d ordering rounds for %d reads", got, reads)
	}

	group := c.Dir.Placement().Place(ref.String(), 2)
	conn, err := c.Transport.Dial(c.Dir.View().Addrs[group[1]])
	if err != nil {
		t.Fatal(err)
	}
	rc := rpc.NewClient(conn)
	defer rc.Close()
	payload, err := core.EncodeInvocation(core.Invocation{Ref: ref, Method: "Get", Persist: true, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rc.Call(ctx, server.KindInvoke, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := core.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.DecodeError(resp.Err); !errors.Is(err, core.ErrWrongNode) {
		t.Fatalf("read at the follower %s: err = %v, want ErrWrongNode", group[1], err)
	}

	if v := inv("AddAndGet", int64(1)); v != 43 {
		t.Fatalf("AddAndGet = %d, want 43", v)
	}
	for i := 0; i < 10; i++ {
		if v := inv("Get"); v != 43 {
			t.Fatalf("read %d after the write = %d, want 43", i, v)
		}
	}
}

// TestReadOnlyFlagRevalidated: a hostile or buggy client marking a
// mutating method read-only must not bypass the write machinery — the
// server re-validates against its own registry.
func TestReadOnlyFlagRevalidated(t *testing.T) {
	c := startCluster(t, cacheOpts(time.Second))
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "hostile"}

	if _, err := cl.InvokeObject(ctx, core.Invocation{
		Ref: ref, Method: "Set", Args: []any{int64(9)}, ReadOnly: true,
	}); err != nil {
		t.Fatal(err)
	}
	// The write must actually have landed (version advanced, not skipped).
	res, err := cl.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 9 {
		t.Fatalf("smuggled write lost: Get = %v, want 9", res[0])
	}
}

// TestCacheWrittenKeyCachedAgain: a write costs the cached copy one miss,
// not its cacheability — the grant that follows the invalidation is
// installed and the reads after it hit again, write after write.
func TestCacheWrittenKeyCachedAgain(t *testing.T) {
	c := startCluster(t, cacheOpts(5*time.Second))
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "rewritten"}

	const rounds, reads = 3, 10
	for w := int64(1); w <= rounds; w++ {
		if _, err := cl.Call(ctx, ref, "Set", w); err != nil {
			t.Fatal(err)
		}
		before := cl.DebugCacheStats()
		for i := 0; i < reads; i++ {
			res, err := cl.Call(ctx, ref, "Get")
			if err != nil {
				t.Fatal(err)
			}
			if res[0].(int64) != w {
				t.Fatalf("write %d read %d: Get = %v", w, i, res[0])
			}
		}
		after := cl.DebugCacheStats()
		// The first read re-leases (at most one more may meet the grant
		// backoff); every other one must be a hit.
		if got := after.Hits - before.Hits; got < reads-2 {
			t.Fatalf("after write %d: %d of %d reads hit (stats %+v)", w, got, reads, after)
		}
		if w > 1 && after.Invalidations < uint64(w-1) {
			t.Fatalf("after write %d: %d invalidations, want >= %d", w, after.Invalidations, w-1)
		}
	}
}

// TestCacheNewPrimaryLowerEpochInstalled: the floor a primary's
// revocations left at a client must not outlive that primary. The object
// migrates to a node whose epoch counter has never moved; its first grant
// carries an epoch far under the client's floor and must be installed
// because it was requested after the last invalidation landed.
func TestCacheNewPrimaryLowerEpochInstalled(t *testing.T) {
	c := startCluster(t, Options{Nodes: 2, LeaseTTL: 200 * time.Millisecond, ClientCache: true})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "moves-to-a-fresh-table"}

	// Ten revocation rounds: the old primary's counter, and with it the
	// client's floor for ref, reach 10.
	for w := int64(1); w <= 10; w++ {
		if _, err := cl.Call(ctx, ref, "Set", w); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Call(ctx, ref, "Get"); err != nil {
			t.Fatal(err)
		}
	}
	if st := cl.DebugCacheStats(); st.Invalidations < 9 {
		t.Fatalf("set-up: %d invalidations, want >= 9", st.Invalidations)
	}
	if err := primaryNode(t, c, ref).MigrateObject(ctx, ref, otherNodes(c, ref)[:1], false); err != nil {
		t.Fatal(err)
	}
	// The first read learns the new placement the hard way: its grant
	// request reaches the deposed primary, is refused, and backs off.
	if _, err := cl.Call(ctx, ref, "Get"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	before := cl.DebugCacheStats()
	const reads = 20
	for i := 0; i < reads; i++ {
		res, err := cl.Call(ctx, ref, "Get")
		if err != nil {
			t.Fatal(err)
		}
		if res[0].(int64) != 10 {
			t.Fatalf("read %d after migration = %v, want 10", i, res[0])
		}
	}
	after := cl.DebugCacheStats()
	if got := after.Hits - before.Hits; got < reads/2 {
		t.Fatalf("%d of %d reads hit after the move to a primary with a lower epoch counter (stats %+v)", got, reads, after)
	}
}
