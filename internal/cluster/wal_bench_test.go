package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/netsim"
	"crucial/internal/objects"
	"crucial/internal/storage/s3sim"
)

// The durability-overhead microbenchmarks (`go test -run '^$' -bench
// BenchmarkWAL -benchmem ./internal/cluster/`): the same contended
// hot-counter workload as BenchmarkWriteHotCounter (3 nodes, RF=2, 8
// client connections, parallel writers) with the durability tier off,
// snapshot-only, group-fsynced, and fsynced per operation. Group commit
// already coalesces concurrent increments into shared ordering rounds, so
// one WAL flush covers many acks — the group-fsync column is the tier's
// advertised operating point and should stay within ~2x of
// durability-off.

func benchWAL(b *testing.B, dur core.DurabilityPolicy) {
	b.Helper()
	opts := Options{Nodes: 3, RF: 2, Durability: dur}
	if dur.Enabled {
		// Long snapshot interval: the benchmark measures the WAL on the
		// ack path, not checkpoint interference.
		opts.Durability.SnapshotInterval = time.Minute
		opts.ColdStore = s3sim.New(s3sim.Options{Profile: netsim.Zero(), ListLag: -1})
	}
	c, cl := benchCluster(b, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "bench/hot"}
	set := core.Invocation{Ref: ref, Method: "Set", Args: []any{int64(0)}, Persist: true}
	inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}
	if _, err := cl.InvokeObject(ctx, set); err != nil {
		b.Fatal(err)
	}
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
	b.SetParallelism(32)
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

// BenchmarkWALOff is the baseline: the identical workload with the
// durability tier disabled (equals BenchmarkWriteHotCounter).
func BenchmarkWALOff(b *testing.B) {
	benchWAL(b, core.DurabilityPolicy{})
}

// BenchmarkWALSnapshotOnly disables the log (SyncEvery < 0): acks never
// wait on cold storage, so this isolates the tier's bookkeeping cost.
func BenchmarkWALSnapshotOnly(b *testing.B) {
	benchWAL(b, core.DurabilityPolicy{Enabled: true, SyncEvery: -1})
}

// BenchmarkWALGroupFsync is the advertised operating point: acks wait on
// a flush that covers up to 64 records.
func BenchmarkWALGroupFsync(b *testing.B) {
	benchWAL(b, core.DurabilityPolicy{Enabled: true, SyncEvery: 64})
}

// BenchmarkWALSyncEveryOp is the worst case: one flush per record, every
// ack pays a full storage round trip of its own.
func BenchmarkWALSyncEveryOp(b *testing.B) {
	benchWAL(b, core.DurabilityPolicy{Enabled: true, SyncEvery: 1})
}
