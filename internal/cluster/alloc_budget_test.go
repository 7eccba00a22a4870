package cluster

import (
	"context"
	"strconv"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// replicatedInvokeAllocBudget is what one sequential RF-2 AddAndGet on the
// zero WritePolicy allocated, client and both replicas together, at the
// commit before the one-round merge: 725-730 over five samples of 500
// calls, measured 2026-10-04 on the 2-vCPU reference box (go1.24). The
// merged round must not cost the unbatched path more than the two paths it
// replaced; `make alloc-guard` holds it there. Most of the figure is
// per-frame gob on PROPOSE/FINAL (ROADMAP item 1a), so expect to lower it.
const replicatedInvokeAllocBudget = 730

// TestReplicatedInvokeAllocBudget pins the allocations of the round of one.
func TestReplicatedInvokeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	c, err := StartLocal(Options{Nodes: 3, RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	add := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "alloc/counter"},
		Method: "AddAndGet", Args: []any{int64(1)}, Persist: true}
	if _, err := cl.InvokeObject(ctx, add); err != nil { // genesis, connections, caches
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		if _, err := cl.InvokeObject(ctx, add); err != nil {
			t.Fatal(err)
		}
	})
	if got > replicatedInvokeAllocBudget {
		t.Fatalf("replicated AddAndGet allocates %.0f/op, budget %d", got, replicatedInvokeAllocBudget)
	}
	t.Logf("replicated AddAndGet allocates %.0f/op (budget %d)", got, replicatedInvokeAllocBudget)
}

// The lease read path's budgets, measured 2026-10-04 on the 2-vCPU
// reference box (go1.24): a cache hit on a 256-byte KV cell allocates 5
// (invocation and result slices, the value copy), a grant round trip
// 235-240, nearly all of it gob on the KindLease frames (ROADMAP item 1a). Building the view's ring on either path — 384 vnodes
// hashed from formatted labels, then sorted — is over 1 000 allocations by
// itself, so neither budget survives a ring.New per operation.
const (
	cacheHitAllocBudget   = 8
	leaseGrantAllocBudget = 400
)

// TestLeaseReadPathAllocBudget drives one client through a fixed 95/5
// read/write sequence over 64 KV cells and pins what the lease cache must
// deliver on it: reads hit, a key costs one grant per invalidation and no
// more, and neither a hit nor a grant builds a ring.
func TestLeaseReadPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	tel := telemetry.New()
	// Every write of the first TTL waits out the post-view fence the three
	// joins armed, so the TTL is also this test's running time.
	c, err := StartLocal(Options{Nodes: 3, LeaseTTL: 2 * time.Second, ClientCache: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The nodes count grants; the client stays uninstrumented, as in the
	// benchmark's gated run, so a hit is not charged for its span.
	cl, err := client.New(client.Config{Transport: c.Transport, Views: c.Dir,
		Cache: &client.CacheConfig{ListenAddr: "cache-alloc-budget", Registry: c.Registry()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const keys, ops = 64, 4000
	value := make([]byte, 256)
	cell := func(i int) core.Ref { return core.Ref{Type: objects.TypeKV, Key: "alloc/cell/" + strconv.Itoa(i)} }
	call := func(i int, method string, args ...any) {
		t.Helper()
		if _, err := cl.InvokeObject(ctx, core.Invocation{Ref: cell(i), Method: method, Args: args}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ { // grants never create: every cell exists first
		call(i, "Put", value)
	}
	writes := 0
	for i := 0; i < ops; i++ {
		k := (i * 7) % keys
		if i%20 == 19 {
			call(k, "Put", value)
			writes++
		} else {
			call(k, "Get")
		}
	}
	st := cl.DebugCacheStats()
	grants := tel.Metrics().Counter(telemetry.MetServerLeaseGrants).Value()
	if ratio := float64(st.Hits) / float64(st.Hits+st.Misses); ratio < 0.8 {
		t.Fatalf("hit ratio %.2f over %d reads and %d writes, want >= 0.8 (stats %+v)", ratio, ops-writes, writes, st)
	}
	// A key is granted once, and once more each time its copy is taken
	// away (expiries only on a box too slow to finish inside one TTL).
	if slack := uint64(4); grants > keys+st.Invalidations+st.LeaseExpiries+slack {
		t.Fatalf("%d grants for %d keys, %d invalidations and %d expiries", grants, keys, st.Invalidations, st.LeaseExpiries)
	}
	if st.StaleGrants != 0 {
		t.Fatalf("%d grants discarded at install with one sequential caller", st.StaleGrants)
	}

	call(0, "Get") // make sure cell 0 is leased
	hits := st.Hits
	hit := testing.AllocsPerRun(500, func() { call(0, "Get") })
	if got := cl.DebugCacheStats().Hits - hits; got < 500 {
		t.Fatalf("only %d of the 500 measured reads were cache hits", got)
	}
	if hit > cacheHitAllocBudget {
		t.Fatalf("a cache-hit read allocates %.0f, budget %d", hit, cacheHitAllocBudget)
	}

	// One grant, end to end: the KindLease round trip a cache miss pays,
	// sent raw so that every run is a grant (a renewal, from the table's
	// point of view). Measured last: the probe's holder address answers no
	// invalidation, so a write to cell 0 would now wait out its lease.
	primary := c.Dir.Placement().Place(cell(0).String(), 1)[0]
	conn, err := c.Transport.Dial(c.Dir.View().Addrs[primary])
	if err != nil {
		t.Fatal(err)
	}
	rc := rpc.NewClient(conn)
	defer rc.Close()
	body, err := core.EncodeValue(server.LeaseRequest{Ref: cell(0), HolderAddr: "alloc-probe"})
	if err != nil {
		t.Fatal(err)
	}
	before := tel.Metrics().Counter(telemetry.MetServerLeaseGrants).Value()
	grant := testing.AllocsPerRun(200, func() {
		if _, err := rc.Call(ctx, server.KindLease, body); err != nil {
			t.Fatal(err)
		}
	})
	if got := tel.Metrics().Counter(telemetry.MetServerLeaseGrants).Value() - before; got < 200 {
		t.Fatalf("only %d of the 200 measured lease requests were granted", got)
	}
	if grant > leaseGrantAllocBudget {
		t.Fatalf("a lease grant allocates %.0f, budget %d", grant, leaseGrantAllocBudget)
	}
	t.Logf("hit ratio %.2f, %d grants for %d keys + %d invalidations; cache hit %.0f allocs (budget %d), grant %.0f allocs (budget %d)",
		float64(st.Hits)/float64(st.Hits+st.Misses), grants, keys, st.Invalidations, hit, cacheHitAllocBudget, grant, leaseGrantAllocBudget)
}
