package cluster

import (
	"context"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"crucial/internal/chaos"
	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// setLarge sets inv's counter to 1<<20 through cl before a write budget is
// measured on it. Go boxes an int64 below 256 without allocating, so a
// budget whose counter crossed 256 during its runs would average two
// costs: from 1<<20 on, every AddAndGet result boxes.
func setLarge(t *testing.T, cl *client.Client, inv core.Invocation) {
	t.Helper()
	inv.Method, inv.Args = "Set", []any{int64(1 << 20)}
	if _, err := cl.InvokeObject(context.Background(), inv); err != nil {
		t.Fatal(err)
	}
}

// replicatedInvokeAllocBudget is what one sequential RF-2 AddAndGet, an
// inline round of one, allocates, client and both replicas together, plus
// about 10 %: 9 in each of 20 samples of 500 calls, and in five more each
// at -cpu 1 and 4, measured 2026-10-20 on the 2-vCPU reference box
// (go1.24), with the counter past 1<<20 (setLarge), so that each of the
// three results (client, primary, member) boxes: the client's argument
// and result lists and result box, the primary's argument list, result
// list and box and round buffer, and the member's argument list, result
// list and box. The coordinator hands the member's reply back to the
// payload pool, and both replicas decode the call against their record's
// ref, so neither copies the key. Counted the same way it cost 12 before
// that (10 with the counter below 256, where results box for free); 21
// before a round allocated only what its invocation carries; before names
// decoded to shared copies, placement stopped building a replica slice
// and a Ref string, frame readers stayed on the stack and a round's
// payload was encoded in one pass 34-35, as one ACCEPT round trip with a
// goroutine and a context per frame 53, under the Skeen PROPOSE/FINAL
// exchange 96, and 694 with a gob stream per control frame. `make
// alloc-guard` holds it there.
const replicatedInvokeAllocBudget = 10

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
	setLarge(t, cl, add)
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

// rfThreeWriteAllocBudget is what one sequential rf=3 AddAndGet allocates,
// client and all three replicas together, plus about 10 %: 12 in each of
// 30 samples (2026-10-20, same box and conditions as above; 17 before
// replies were recycled and keys found by their bytes, 15 of them with
// the counter below 256, 34 before the round allocated only what it
// carries). The second member's ACCEPT runs on a pooled accept worker, so
// the round starts no goroutine and makes no channel; with a goroutine and
// a channel per such member, and before the savings listed above, it cost
// 57.
const rfThreeWriteAllocBudget = 13

// TestRFThreeWriteAllocBudget pins the allocations of a round with a
// member beyond the last.
func TestRFThreeWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	c, err := StartLocal(Options{Nodes: 3, RF: 3})
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
	add := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "alloc/rf3"},
		Method: "AddAndGet", Args: []any{int64(1)}, Persist: true}
	if _, err := cl.InvokeObject(ctx, add); err != nil { // genesis, connections, workers
		t.Fatal(err)
	}
	setLarge(t, cl, add)
	got := testing.AllocsPerRun(500, func() {
		if _, err := cl.InvokeObject(ctx, add); err != nil {
			t.Fatal(err)
		}
	})
	if got > rfThreeWriteAllocBudget {
		t.Fatalf("rf=3 AddAndGet allocates %.0f/op, budget %d", got, rfThreeWriteAllocBudget)
	}
	t.Logf("rf=3 AddAndGet allocates %.0f/op (budget %d)", got, rfThreeWriteAllocBudget)
}

// leasedWriteAllocBudget is what the sequential RF-2 AddAndGet of
// TestReplicatedInvokeAllocBudget allocates with leases on (no cache
// holds the counter), once the post-view write fence has run out, plus
// about 10 %: 9 in each of 20 samples (2026-10-20, same box and
// conditions as above), what the write costs with leases off (12 before
// replies were recycled and keys found by their bytes, 21 before the
// round allocated only what it carries). The lease block and holders live
// on the ref's record and their release is a method. Before, each write
// rebuilt a holder table at the primary and at the member, and returned
// two release closures: 27.
const leasedWriteAllocBudget = 10

// TestLeasedWriteAllocBudget pins what the lease write hooks (prepareWrite
// at the primary, memberWriteFence at the member) add to a write.
func TestLeasedWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	c, err := StartLocal(Options{Nodes: 3, RF: 2, LeaseTTL: 2 * time.Second})
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
	add := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "alloc/leased"},
		Method: "AddAndGet", Args: []any{int64(1)}, Persist: true}
	// The first write waits out the one-TTL fence the three joins armed,
	// and makes the genesis round, the connections and the caches.
	if _, err := cl.InvokeObject(ctx, add); err != nil {
		t.Fatal(err)
	}
	setLarge(t, cl, add)
	got := testing.AllocsPerRun(500, func() {
		if _, err := cl.InvokeObject(ctx, add); err != nil {
			t.Fatal(err)
		}
	})
	if got > leasedWriteAllocBudget {
		t.Fatalf("leased AddAndGet allocates %.0f/op, budget %d", got, leasedWriteAllocBudget)
	}
	t.Logf("leased AddAndGet allocates %.0f/op (budget %d)", got, leasedWriteAllocBudget)
}

// frameCounter is an rpc.Transport that counts, per kind, the request
// frames written on the connections it dials.
type frameCounter struct {
	rpc.Transport
	mu     sync.Mutex
	counts map[uint8]int
}

func (t *frameCounter) Dial(addr string) (net.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: t}, nil
}

// requests returns how many request frames of kind were written.
func (t *frameCounter) requests(kind uint8) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[kind]
}

// countingConn cuts its written byte stream into rpc frames (the rpc
// client serializes writes, so Write never runs concurrently with itself).
type countingConn struct {
	net.Conn
	t       *frameCounter
	pending []byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.pending = append(c.pending, p...)
	for len(c.pending) >= rpc.FrameHeaderSize {
		m := rpc.ParseFrameHeader(c.pending)
		if len(c.pending) < rpc.FrameHeaderSize+m.PayloadLen {
			break
		}
		if m.IsRequest() {
			c.t.mu.Lock()
			c.t.counts[m.Kind]++
			c.t.mu.Unlock()
		}
		c.pending = c.pending[rpc.FrameHeaderSize+m.PayloadLen:]
	}
	return c.Conn.Write(p)
}

// One sequential RF-2 write is one peer round trip: its primary sends the
// other member exactly one request frame, the ACCEPT, and nothing else
// (two under Skeen: PROPOSE and FINAL).
func TestReplicatedWritePeerFrames(t *testing.T) {
	counter := &frameCounter{Transport: rpc.NewMemNetwork(), counts: make(map[uint8]int)}
	c, err := StartLocal(Options{Nodes: 3, RF: 2, Chaos: chaos.New(counter, chaos.Options{})})
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
	add := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "frames/counter"},
		Method: "AddAndGet", Args: []any{int64(1)}, Persist: true}
	if _, err := cl.InvokeObject(ctx, add); err != nil { // genesis, connections
		t.Fatal(err)
	}
	peerFrames := func() (n int) {
		counter.mu.Lock()
		defer counter.mu.Unlock()
		for kind, k := range counter.counts {
			if kind != server.KindInvoke {
				n += k
			}
		}
		return n
	}
	const writes = 50
	before, invokes := peerFrames(), counter.requests(server.KindInvoke)
	for i := 0; i < writes; i++ {
		if _, err := cl.InvokeObject(ctx, add); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter.requests(server.KindInvoke) - invokes; got != writes {
		t.Fatalf("%d client frames for %d writes", got, writes)
	}
	if got := peerFrames() - before; got != writes {
		t.Fatalf("%d peer request frames for %d sequential RF-2 writes, want exactly one each", got, writes)
	}
}

// The rf=1 budgets: one sequential AddAndGet, on a counter past 1<<20
// (setLarge), and one Get on an ephemeral counter of a three-node
// cluster, client and server together. Measured 2026-10-20 on the 2-vCPU
// reference box (go1.24): a write costs 5 and a read 4 in 20 of 20 runs,
// since the server decodes a call against its record's ref and copies no
// key (6 and 5 before, 4 for the write with the counter below 256). The
// read's budget is about 10 % above; the write's stays at 5, its reading.
// Both cost 6 while every call boxed its Ctl and a write's round of one
// allocated its result slice. Before names were interned and placement
// stopped allocating they cost 10 and 11; with a goroutine, a header
// array and a context per rpc frame 18 and 19 (2026-10-15: a write cost
// 19 before it became a round of one).
const (
	rfOneWriteAllocBudget = 5
	rfOneReadAllocBudget  = 5
)

// TestRFOneInvokeAllocBudget pins what a group of one costs per write and
// per read.
func TestRFOneInvokeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	c, err := StartLocal(Options{Nodes: 3})
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
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "alloc/rf1"}
	for _, tc := range []struct {
		name   string
		inv    core.Invocation
		budget int
	}{
		{"write", core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}}, rfOneWriteAllocBudget},
		{"read", core.Invocation{Ref: ref, Method: "Get"}, rfOneReadAllocBudget},
	} {
		if _, err := cl.InvokeObject(ctx, tc.inv); err != nil { // creation, connections
			t.Fatal(err)
		}
		if tc.name == "write" {
			setLarge(t, cl, tc.inv)
		}
		got := testing.AllocsPerRun(500, func() {
			if _, err := cl.InvokeObject(ctx, tc.inv); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(tc.budget) {
			t.Fatalf("rf=1 %s allocates %.0f/op, budget %d", tc.name, got, tc.budget)
		}
		t.Logf("rf=1 %s allocates %.0f/op (budget %d)", tc.name, got, tc.budget)
	}
}

// The lease read path's budgets, measured on the 2-vCPU reference box
// (go1.24, 2026-10-20): a cache hit on a 256-byte KV cell allocates 5
// (invocation and result slices, the value copy), a grant round trip 1 and
// a whole miss — grant, Restore and the local read — 11, each in 20 of 20
// runs, budgets about 10 % above. A grant's reply is drawn from the rpc
// payload pool at the server and handed back at the client, the server
// finds the ref's record by the request's bytes, and the holder address
// decodes to a shared copy; before, the grant cost 5 with its reply handed
// back (4 dropped) and a miss 14. Before
// names were interned, placement stopped allocating and frame readers
// stayed on the stack, a grant cost 6 and a miss 18; with a goroutine, a header array and a context per frame
// 12 and 23, with a gob body 31 and 199, and with gob KindLease frames a
// grant cost 235-240. Building the view's ring on any of these paths — 384
// vnodes hashed and sorted — is over 1 000 allocations by itself, so no
// budget survives a ring.New per operation.
const (
	cacheHitAllocBudget   = 6
	kvMissAllocBudget     = 12
	leaseGrantAllocBudget = 2
)

// TestLeaseReadPathAllocBudget drives one client through a fixed 95/5
// read/write sequence over 64 KV cells and pins what the lease cache must
// deliver on it: reads hit, a key costs one grant per invalidation and no
// more, and neither a hit, a miss nor a grant builds a ring.
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

	// A miss, end to end: a cache that holds one object, reading two cells
	// in turn, pays a grant round trip and a Restore of the 256-byte cell
	// on every read — the kv_read_mostly miss.
	missCl, err := client.New(client.Config{Transport: c.Transport, Views: c.Dir,
		Cache: &client.CacheConfig{ListenAddr: "cache-alloc-miss", Registry: c.Registry(), MaxObjects: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer missCl.Close()
	read := func(i int) {
		t.Helper()
		if _, err := missCl.InvokeObject(ctx, core.Invocation{Ref: cell(i), Method: "Get"}); err != nil {
			t.Fatal(err)
		}
	}
	read(1)
	read(2) // connections
	misses := missCl.DebugCacheStats().Misses
	miss := testing.AllocsPerRun(200, func() { read(1); read(2) }) / 2
	if got := missCl.DebugCacheStats().Misses - misses; got < 400 {
		t.Fatalf("only %d of the 400 measured reads were misses", got)
	}
	if miss > kvMissAllocBudget {
		t.Fatalf("a cache miss on a 256-byte KV cell allocates %.0f, budget %d", miss, kvMissAllocBudget)
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
	body := server.LeaseRequest{Ref: cell(0), HolderAddr: "alloc-probe"}.Encode()
	before := tel.Metrics().Counter(telemetry.MetServerLeaseGrants).Value()
	grant := testing.AllocsPerRun(200, func() {
		out, err := rc.Call(ctx, server.KindLease, body)
		if err != nil {
			t.Fatal(err)
		}
		rpc.PutBuffer(out) // as the client cache does once it has decoded it
	})
	if got := tel.Metrics().Counter(telemetry.MetServerLeaseGrants).Value() - before; got < 200 {
		t.Fatalf("only %d of the 200 measured lease requests were granted", got)
	}
	if grant > leaseGrantAllocBudget {
		t.Fatalf("a lease grant allocates %.0f, budget %d", grant, leaseGrantAllocBudget)
	}
	t.Logf("hit ratio %.2f, %d grants for %d keys + %d invalidations; cache hit %.0f allocs (budget %d), miss %.1f allocs (budget %d), grant %.0f allocs (budget %d)",
		float64(st.Hits)/float64(st.Hits+st.Misses), grants, keys, st.Invalidations, hit, cacheHitAllocBudget, miss, kvMissAllocBudget, grant, leaseGrantAllocBudget)
}
