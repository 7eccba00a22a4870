package cluster

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/objects"
)

// The write-path microbenchmarks (`go test -run '^$' -bench BenchmarkWrite
// -benchmem ./internal/cluster/`) increment one persistent counter on a
// 3-node RF=2 cluster. BenchmarkWriteHotCounter drives it from 64 writers:
// their writes overrun the counter's lane and ride shared rounds
// (DESIGN.md §5e). BenchmarkWriteSequential drives it from one, so every
// write is an inline round of one. Persist matters: only replicated
// objects take the ordering round that group commit amortizes.

// hotCounterWriters is how many goroutines contend on the hot counter.
const hotCounterWriters = 64

// writeBenchCounter boots the cluster and creates the counter, so genesis
// placement is out of the loop, and returns a client and the increment.
func writeBenchCounter(b *testing.B) (*Cluster, *client.Client, core.Invocation) {
	b.Helper()
	c, cl := benchCluster(b, Options{Nodes: 3, RF: 2})
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "bench/hot"}
	set := core.Invocation{Ref: ref, Method: "Set", Args: []any{int64(0)}, Persist: true}
	if _, err := cl.InvokeObject(context.Background(), set); err != nil {
		b.Fatal(err)
	}
	return c, cl, core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}
}

func BenchmarkWriteHotCounter(b *testing.B) {
	c, cl, inc := writeBenchCounter(b)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// Several client connections, so a single connection's frame stream is
	// not the measured bottleneck — the contended write path is.
	clients := []*client.Client{cl}
	for i := 1; i < 8; i++ {
		extra, err := c.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = extra.Close() })
		clients = append(clients, extra)
	}
	var next atomic.Uint64
	b.SetParallelism(max(1, hotCounterWriters/runtime.GOMAXPROCS(0)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cl := clients[next.Add(1)%uint64(len(clients))]
		for pb.Next() {
			if _, err := cl.InvokeObject(ctx, inc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWriteSequential(b *testing.B) {
	_, cl, inc := writeBenchCounter(b)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.InvokeObject(ctx, inc); err != nil {
			b.Fatal(err)
		}
	}
}
