package cluster

import (
	"context"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/statefun"
)

// gobStreamsDuring returns how many gob streams the process opened while f
// ran.
func gobStreamsDuring(t *testing.T, f func() error) uint64 {
	t.Helper()
	before := core.ReadCodecStats().GobStreams
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return core.ReadCodecStats().GobStreams - before
}

// The per-operation frames carry no gob: on an RF-2 cluster with leases
// and the client cache on, a write that revokes a cached lease — the
// invalidation, then PROPOSE, FINAL and their replies — and a lease grant,
// which ships the object's tag-encoded state body (the primary's Snapshot
// and the client's Restore), open no gob stream.
func TestControlFramesOpenNoGobStreams(t *testing.T) {
	c, err := StartLocal(Options{Nodes: 3, RF: 2, LeaseTTL: time.Second, ClientCache: true})
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
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "gob/counter"}
	add := core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}, Persist: true}
	get := core.Invocation{Ref: ref, Method: "Get", Persist: true}
	if _, err := cl.InvokeObject(ctx, add); err != nil { // genesis, past the joins' view fence
		t.Fatal(err)
	}
	gobStreams := func(inv core.Invocation) uint64 {
		t.Helper()
		return gobStreamsDuring(t, func() error {
			_, err := cl.InvokeObject(ctx, inv)
			return err
		})
	}

	misses := cl.DebugCacheStats().Misses
	if got := gobStreams(get); got != 0 {
		t.Fatalf("a lease grant opened %d gob streams, want 0", got)
	}
	if cl.DebugCacheStats().Misses != misses+1 || cl.DebugCacheStats().Entries != 1 {
		t.Fatalf("the read was not a grant that left the object cached: %+v", cl.DebugCacheStats())
	}
	invalidations := cl.DebugCacheStats().Invalidations
	if got := gobStreams(add); got != 0 {
		t.Fatalf("a replicated write revoking one lease opened %d gob streams, want 0", got)
	}
	if got := cl.DebugCacheStats().Invalidations - invalidations; got != 1 {
		t.Fatalf("the write sent %d invalidations to the cache, want 1", got)
	}
}

// A checkpoint pass writes every persistent object as a tag-encoded
// transfer record around its tag-encoded state body: over KV, AtomicLong
// and statefun mailbox objects the only gob stream it opens is the one of
// its manifest.
func TestCheckpointOpensOnlyManifestGobStream(t *testing.T) {
	opts := durableOpts(durableStore())
	opts.Durability.SnapshotInterval = time.Hour // passes run only when the test asks
	c := startCluster(t, opts)
	cl := newClient(t, c)
	ctx := ctxT(t)
	invs := []core.Invocation{
		{Ref: core.Ref{Type: objects.TypeKV, Key: "ckpt/kv"}, Method: "Put", Args: []any{make([]byte, 256)}},
		{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "ckpt/long"}, Method: "AddAndGet", Args: []any{int64(3)}},
	}
	for _, inv := range invs {
		inv.Persist = true
		if _, err := cl.InvokeObject(ctx, inv); err != nil {
			t.Fatal(err)
		}
	}
	to := statefun.Address{FnType: "fn", ID: "ckpt"}
	if _, err := statefun.PushEnvelope(ctx, cl, statefun.Envelope{To: to, From: "s", Seq: 1, Name: "m", Body: []byte("body")}, 0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, id := range c.NodeIDs() {
		n, _ := c.Node(id)
		objs := n.DebugObjectCount()
		total += objs
		if got := gobStreamsDuring(t, n.DebugCheckpoint); got != 1 {
			t.Fatalf("node %s: a checkpoint pass over %d objects opened %d gob streams, want 1 (the manifest)", id, objs, got)
		}
	}
	if total != 6 {
		t.Fatalf("the passes covered %d copies, want 6 (three objects at RF 2)", total)
	}
}
