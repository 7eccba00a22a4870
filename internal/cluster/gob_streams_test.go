package cluster

import (
	"context"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/objects"
)

// The per-operation control frames carry no gob: on an RF-2 cluster with
// leases and the client cache on, a write that revokes a cached lease — the
// invalidation, then PROPOSE, FINAL and their replies — opens no gob stream,
// and a lease grant opens exactly the pair that ships the object's state
// (the primary's Snapshot and the client's Restore, still gob).
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
		before := core.ReadCodecStats().GobStreams
		if _, err := cl.InvokeObject(ctx, inv); err != nil {
			t.Fatal(err)
		}
		return core.ReadCodecStats().GobStreams - before
	}

	misses := cl.DebugCacheStats().Misses
	if got := gobStreams(get); got != 2 {
		t.Fatalf("a lease grant opened %d gob streams, want 2 (Snapshot + Restore)", got)
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
