package cluster

import (
	"context"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/objects"
)

// The read-path microbenchmarks (`go test -run '^$' -bench BenchmarkRead
// -benchmem ./internal/cluster/`): the same Get on the same hot object,
// with the lease cache off (every read is an RPC round to the owner) and
// on (reads after the first are answered from the client-local copy). The
// gap between the two is the per-read cost the cache removes.

func benchCluster(b *testing.B, opts Options) (*Cluster, *client.Client) {
	b.Helper()
	c, err := StartLocal(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	cl, err := c.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = cl.Close() })
	return c, cl
}

func benchRead(b *testing.B, opts Options) {
	b.Helper()
	_, cl := benchCluster(b, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "bench/hot"}
	if _, err := cl.Call(ctx, ref, "Set", int64(42)); err != nil {
		b.Fatal(err)
	}
	// Warm the cache (a no-op when caching is off) so the steady state —
	// not the first-read lease grant — is what gets measured.
	if _, err := cl.Call(ctx, ref, "Get"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Call(ctx, ref, "Get"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadUncached(b *testing.B) {
	benchRead(b, Options{})
}

func BenchmarkReadCached(b *testing.B) {
	// A long TTL so no lease expires mid-run: the benchmark isolates the
	// steady-state hit path.
	benchRead(b, Options{LeaseTTL: time.Minute, ClientCache: true})
}
