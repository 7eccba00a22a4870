package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/netsim"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/storage/s3sim"
)

// durableStore is the shared cold store: zero latency, immediate LIST
// consistency, so tests assert recovery logic rather than storage timing.
func durableStore() *s3sim.Store {
	return s3sim.New(s3sim.Options{Profile: netsim.Zero(), ListLag: -1})
}

// durableOpts enables the durability tier with an aggressive snapshot
// cadence, so tests reliably exercise the checkpoint-plus-WAL-replay
// recovery path (not just a pure log replay).
func durableOpts(store *s3sim.Store) Options {
	return Options{
		Nodes: 3,
		RF:    2,
		Durability: core.DurabilityPolicy{
			Enabled:          true,
			SyncEvery:        4,
			SnapshotInterval: 50 * time.Millisecond,
			SegmentBytes:     16 << 10,
		},
		ColdStore: store,
	}
}

// addPersist bumps a replicated persistent counter by 1 and returns its
// new value.
func addPersist(ctx context.Context, t *testing.T, cl interface {
	InvokeObject(context.Context, core.Invocation) ([]any, error)
}, ref core.Ref) int64 {
	t.Helper()
	res, err := cl.InvokeObject(ctx, core.Invocation{
		Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}, Persist: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].(int64)
}

func getPersist(ctx context.Context, t *testing.T, cl interface {
	InvokeObject(context.Context, core.Invocation) ([]any, error)
}, ref core.Ref) int64 {
	t.Helper()
	res, err := cl.InvokeObject(ctx, core.Invocation{Ref: ref, Method: "Get", Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].(int64)
}

// TestDurabilityRecoversFullClusterCrash is the tier's reason to exist:
// every node goes down at once — no survivor to state-transfer from — and
// a fresh cluster over the same cold store serves every acknowledged
// write. The workload straddles a checkpoint so recovery must both
// restore a snapshot AND replay WAL records, including records for
// operations the checkpoint already covers (replay idempotence: the
// position each record carries gates re-execution).
func TestDurabilityRecoversFullClusterCrash(t *testing.T) {
	store := durableStore()
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "durable-counter"}

	c1 := startCluster(t, durableOpts(store))
	cl1 := newClient(t, c1)
	for i := 0; i < 10; i++ {
		addPersist(ctx, t, cl1, ref)
	}
	// Let at least one checkpoint cover the first ten operations; the log
	// behind the cut is truncated, so recovery genuinely needs the
	// snapshot for them.
	time.Sleep(250 * time.Millisecond)
	for i := 0; i < 7; i++ {
		addPersist(ctx, t, cl1, ref)
	}
	_ = cl1.Close()
	if err := c1.Close(); err != nil {
		t.Fatalf("crash all nodes: %v", err)
	}

	// Nothing survives in memory. The new cluster shares only the store.
	c2 := startCluster(t, durableOpts(store))
	cl2 := newClient(t, c2)
	if got := getPersist(ctx, t, cl2, ref); got != 17 {
		t.Fatalf("recovered counter = %d, want 17 (all acked writes)", got)
	}
	// The recovered cluster must also be live for new writes.
	if got := addPersist(ctx, t, cl2, ref); got != 18 {
		t.Fatalf("post-recovery write = %d, want 18", got)
	}
}

// TestDurabilityRecoversConcurrentRFOneWrites crashes a one-node RF-1
// cluster under concurrent durable writes to one counter. Every acked
// increment must come back: replay skips a record whose version the copy
// has already reached, so a ref's records must reach the log in apply
// order even though no delivery loop serializes a group of one.
func TestDurabilityRecoversConcurrentRFOneWrites(t *testing.T) {
	store := durableStore()
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "durable-rf1"}
	opts := durableOpts(store)
	opts.Nodes, opts.RF = 1, 1

	c1 := startCluster(t, opts)
	cl1 := newClient(t, c1)
	const writers, perWriter = 16, 200
	var acked, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := cl1.InvokeObject(ctx, core.Invocation{
					Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}, Persist: true,
				}); err != nil {
					failed.Add(1)
					continue
				}
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	_ = cl1.Close()
	if err := c1.Close(); err != nil {
		t.Fatalf("crash the node: %v", err)
	}

	c2 := startCluster(t, opts)
	got := getPersist(ctx, t, newClient(t, c2), ref)
	if got < acked.Load() || got > acked.Load()+failed.Load() {
		t.Fatalf("recovered counter = %d, want %d acked (+ up to %d in doubt)", got, acked.Load(), failed.Load())
	}
}

// TestDurabilityDoesNotResurrectEphemeralState: only persistent objects
// ride the durability tier — an ephemeral counter restarts from zero.
func TestDurabilityDoesNotResurrectEphemeralState(t *testing.T) {
	store := durableStore()
	ctx := ctxT(t)
	eph := core.Ref{Type: objects.TypeAtomicLong, Key: "scratch"}

	c1 := startCluster(t, durableOpts(store))
	cl1 := newClient(t, c1)
	if _, err := cl1.Call(ctx, eph, "AddAndGet", int64(9)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // give the snapshotter every chance to over-capture
	_ = cl1.Close()
	_ = c1.Close()

	c2 := startCluster(t, durableOpts(store))
	cl2 := newClient(t, c2)
	res, err := cl2.Call(ctx, eph, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 0 {
		t.Fatalf("ephemeral counter = %v after full restart, want 0", res[0])
	}
}

// TestDurabilityDirectivesSurviveFullCrash: the manifest carries the
// directive table, so a hot-key pin placed by the rebalancer (or an
// operator via dso-cli migrate) survives a whole-cluster outage instead
// of silently reverting placement to hash order.
func TestDurabilityDirectivesSurviveFullCrash(t *testing.T) {
	store := durableStore()
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "pinned"}

	c1 := startCluster(t, durableOpts(store))
	cl1 := newClient(t, c1)
	addPersist(ctx, t, cl1, ref)
	pin := []ring.NodeID{"dso-02", "dso-01"}
	c1.Dir.SetDirective(ref.String(), pin)
	// The pin must land in a checkpoint manifest before the crash.
	time.Sleep(250 * time.Millisecond)
	_ = cl1.Close()
	_ = c1.Close()

	c2 := startCluster(t, durableOpts(store))
	v := c2.Dir.View()
	targets, ok := v.Directives.Lookup(ref.String())
	if !ok {
		t.Fatalf("directive table lost in the crash: %+v", v.Directives)
	}
	if len(targets) != 2 || targets[0] != pin[0] || targets[1] != pin[1] {
		t.Fatalf("recovered directive = %v, want %v", targets, pin)
	}
	// And the pinned object's state came back too.
	cl2 := newClient(t, c2)
	if got := getPersist(ctx, t, cl2, ref); got != 1 {
		t.Fatalf("pinned object state = %d, want 1", got)
	}
}

// TestDurabilitySnapshotOnlyLosesTail documents the SyncEvery<0 contract:
// with the WAL disabled, acks never wait on cold storage and a full crash
// keeps at most the last checkpoint — recovery must still come up clean,
// with the counter somewhere in [0, acked].
func TestDurabilitySnapshotOnlyLosesTail(t *testing.T) {
	store := durableStore()
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "lossy"}

	opts := durableOpts(store)
	opts.Durability.SyncEvery = -1 // snapshot-only durability
	c1 := startCluster(t, opts)
	cl1 := newClient(t, c1)
	const acked = 12
	for i := 0; i < acked; i++ {
		addPersist(ctx, t, cl1, ref)
	}
	time.Sleep(250 * time.Millisecond)
	_ = cl1.Close()
	_ = c1.Close()

	c2 := startCluster(t, opts)
	cl2 := newClient(t, c2)
	got := getPersist(ctx, t, cl2, ref)
	if got < 0 || got > acked {
		t.Fatalf("snapshot-only recovery = %d, want within [0, %d]", got, acked)
	}
	if got == 0 {
		t.Fatalf("snapshot-only recovery = 0: the 250ms checkpoint window never captured anything")
	}
}

// A cluster restarted over a cold store counts its views afresh, while the
// copies it recovers stand at positions stamped with the old cluster's
// view IDs. Each node raises the directory's next view ID above what it
// recovered before it joins, so the restarted cluster's views come after
// the recovered positions, and its first write is acked on top of them.
func TestRestartedClusterViewsOutnumberRecoveredEpochs(t *testing.T) {
	store := durableStore()
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "epoch-counter"}

	c1 := startCluster(t, durableOpts(store))
	cl1 := newClient(t, c1)
	addPersist(ctx, t, cl1, ref)
	// Membership churn takes the first cluster's view IDs well past the
	// three a fresh cluster starts with.
	ids := c1.NodeIDs()
	for i := 0; i < 5; i++ {
		if err := c1.CrashNode(ids[2]); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.RestartNode(ids[2]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		addPersist(ctx, t, cl1, ref)
	}
	var recovered uint64
	for _, id := range c1.NodeIDs() {
		n, _ := c1.Node(id)
		if epoch, _, ok := n.DebugPosition(ref); ok {
			recovered = max(recovered, epoch)
		}
	}
	if recovered < 10 {
		t.Fatalf("copies at epoch %d after the churn, want past 10", recovered)
	}
	time.Sleep(150 * time.Millisecond) // a checkpoint covers the writes
	_ = cl1.Close()
	if err := c1.Close(); err != nil {
		t.Fatalf("crash all nodes: %v", err)
	}

	c2 := startCluster(t, durableOpts(store))
	if v := c2.Dir.View(); v.ID <= recovered {
		t.Fatalf("restarted cluster at view %d, want it above the recovered epoch %d", v.ID, recovered)
	}
	cl2 := newClient(t, c2)
	if got := addPersist(ctx, t, cl2, ref); got != 5 {
		t.Fatalf("first write after the restart = %d, want 5", got)
	}
	for _, id := range c2.NodeIDs() {
		n, _ := c2.Node(id)
		if epoch, _, ok := n.DebugPosition(ref); ok && epoch <= recovered {
			t.Fatalf("%s holds the counter at epoch %d, not past the recovered %d", id, epoch, recovered)
		}
	}
}
