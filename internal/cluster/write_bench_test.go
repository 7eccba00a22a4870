package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/objects"
)

// The write-path microbenchmarks (`go test -run '^$' -bench BenchmarkWrite
// -benchmem ./internal/cluster/`): parallel increments of one hot counter
// on a 3-node RF=2 cluster, with group commit off (one ordering round
// per increment) and on (concurrent increments coalesce into shared
// rounds, DESIGN.md §5e). The batch-size ablation shows where the
// amortization saturates. Parallelism is the point — group commit only has
// something to coalesce when writes are concurrent — so every benchmark
// drives the counter from many goroutines via RunParallel.

func benchWrite(b *testing.B, write core.WritePolicy) {
	b.Helper()
	c, cl := benchCluster(b, Options{Nodes: 3, RF: 2, Write: write})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// Persist matters: only replicated objects take the SMR ordering round
	// that group commit amortizes. An ephemeral ref would measure the
	// single-copy direct path and show no batching effect at all.
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "bench/hot"}
	set := core.Invocation{Ref: ref, Method: "Set", Args: []any{int64(0)}, Persist: true}
	inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}
	// Create the object up front so genesis placement is out of the loop.
	if _, err := cl.InvokeObject(ctx, set); err != nil {
		b.Fatal(err)
	}
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
	b.SetParallelism(32) // 32 writers per GOMAXPROCS unit contend on one object
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

func BenchmarkWriteUnbatched(b *testing.B) {
	benchWrite(b, core.WritePolicy{})
}

func BenchmarkWriteBatched(b *testing.B) {
	benchWrite(b, core.DefaultWritePolicy())
}

// The batch-size ablation varies MaxBatch: the gain should grow with the
// cap until the offered concurrency (not the cap) limits batch sizes.
func BenchmarkWriteBatch8(b *testing.B) {
	benchWrite(b, core.WritePolicy{MaxBatch: 8})
}

func BenchmarkWriteBatch64(b *testing.B) {
	benchWrite(b, core.WritePolicy{MaxBatch: 64})
}

func BenchmarkWriteBatch256(b *testing.B) {
	benchWrite(b, core.WritePolicy{MaxBatch: 256})
}
