package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/telemetry"
)

// Group-commit integration tests: the same concurrent hot-counter load the
// write benchmark drives, but checked for exactness — every increment must
// land exactly once no matter how the lanes cut the stream into
// rounds — plus the observability contract (DESIGN.md §5e).

// hammerCounter runs workers*perWorker stamped increments of one counter,
// persistent or not, through nclients clients and returns the final value.
func hammerCounter(t *testing.T, c *Cluster, workers, perWorker, nclients int, persist bool) int64 {
	t.Helper()
	clients := make([]*client.Client, nclients)
	var err error
	for i := range clients {
		if clients[i], err = c.NewClient(); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "wb/counter"}
	if _, err := clients[0].InvokeObject(ctx, core.Invocation{
		Ref: ref, Method: "Set", Args: []any{int64(0)}, Persist: persist}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		cl := clients[w%nclients]
		go func() {
			defer wg.Done()
			inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: persist}
			for i := 0; i < perWorker; i++ {
				if _, err := cl.InvokeObject(ctx, inc); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	out, err := clients[0].InvokeObject(ctx, core.Invocation{
		Ref: ref, Method: "Get", Persist: persist})
	if err != nil {
		t.Fatal(err)
	}
	return out[0].(int64)
}

// TestWriteBatchingExactlyOnce floods one counter through the write path
// and checks the final value: a round that dropped a queued write, applied
// one twice (a retry landing in a second round after its first already
// delivered), or mixed up per-invocation results would be off. A
// persistent counter's writes overrun its lane and ride cut rounds, so it
// takes fewer rounds than writes, and both copies must have counted the
// same applies. An ephemeral counter's rounds have a group of one, which
// has no ACCEPT to amortize and never queues: it lives on one node, and
// every write is a round of its own.
func TestWriteBatchingExactlyOnce(t *testing.T) {
	for _, persist := range []bool{true, false} {
		writeBatchingExactlyOnce(t, persist)
	}
}

func writeBatchingExactlyOnce(t *testing.T, persist bool) {
	const workers, perWorker = 24, 25
	tel := telemetry.New()
	c, err := StartLocal(Options{Nodes: 3, RF: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	value := hammerCounter(t, c, workers, perWorker, 4, persist)
	if value != workers*perWorker {
		t.Fatalf("persist=%v: counter = %d after %d increments", persist, value, workers*perWorker)
	}
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "wb/counter"}
	var versions []uint64 // of the nodes holding a copy
	for _, id := range c.Dir.View().Members {
		if v, _ := c.nodes[id].DebugVersion(ref); v > 0 {
			versions = append(versions, v)
		}
	}
	want := 1
	if persist {
		want = 2
	}
	if len(versions) != want || versions[0] != versions[len(versions)-1] {
		t.Errorf("persist=%v: copies at versions %v, want %d agreeing", persist, versions, want)
	}
	m := tel.Metrics()
	batches := m.Counter(telemetry.MetServerBatches).Value()
	rounds := m.Counter(telemetry.MetServerSMRRounds).Value()
	// The hammer orders workers*perWorker+2 ops: the increments, the Set
	// and the lease-less final Get, which a group of one serves from its
	// copy instead.
	if !persist {
		if ops := uint64(workers*perWorker + 1); batches != 0 || rounds != ops {
			t.Errorf("ephemeral: %d cut rounds, %d ordering rounds for %d ops; want none and one each", batches, rounds, ops)
		}
	} else if batches == 0 || rounds >= workers*perWorker {
		t.Errorf("persistent: %d cut rounds, %d ordering rounds for %d increments: batching amortized nothing",
			batches, rounds, workers*perWorker)
	}
}

// TestWriteBatchingMetrics checks the observability contract on /metrics:
// the batch-size histogram exports unitless as crucial_server_batch_size,
// the round counter as crucial_server_batches_total, and the client-side
// flush counter as crucial_client_write_flushes_total.
func TestWriteBatchingMetrics(t *testing.T) {
	tel := telemetry.New()
	c, err := StartLocal(Options{Nodes: 3, RF: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hammerCounter(t, c, 16, 10, 2, true)

	var b strings.Builder
	if err := telemetry.WritePrometheus(&b, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, want := range []string{
		"crucial_server_batches_total",
		"crucial_server_batch_size_bucket",
		"crucial_server_batch_size_count",
		"crucial_client_write_flushes_total",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("prometheus exposition lacks %s", want)
		}
	}
	if strings.Contains(exp, "crucial_server_batch_size_seconds") {
		t.Error("batch-size histogram exported with a _seconds suffix: it is unitless")
	}
}
