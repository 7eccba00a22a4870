package cluster

import (
	"context"
	"reflect"
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
// land exactly once no matter how the batcher slices the stream into
// rounds — plus the observability contract (DESIGN.md §5e).

// hammerCounter runs workers*perWorker stamped increments of one
// persistent counter through nclients clients and returns the final value.
func hammerCounter(t *testing.T, c *Cluster, workers, perWorker, nclients int) int64 {
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
		Ref: ref, Method: "Set", Args: []any{int64(0)}, Persist: true}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		cl := clients[w%nclients]
		go func() {
			defer wg.Done()
			inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}
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
		Ref: ref, Method: "Get", Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	return out[0].(int64)
}

// TestWriteBatchingExactlyOnce floods one counter through the write path
// under each way of slicing the stream into rounds — the zero policy and
// MaxBatch 1 (rounds of one, inline), group commit with and without a
// linger — and checks the final value: a round that dropped a queued write,
// applied one twice (a retry landing in a second round after its first
// already delivered), or mixed up per-invocation results would be off.
// However the rounds were cut, every replica must have counted the same
// applies and replayed the same number of retries, and group commit must
// have taken fewer rounds than ops.
func TestWriteBatchingExactlyOnce(t *testing.T) {
	const workers, perWorker = 24, 25
	type outcome struct {
		value    int64
		versions []uint64 // per node, in node-ID order; 0 where no copy lives
		replays  uint64
	}
	var first outcome
	for i, pol := range []core.WritePolicy{{}, {MaxBatch: 1}, core.DefaultWritePolicy(),
		{MaxBatch: 8, MaxDelay: 200 * time.Microsecond, Pipeline: 2}} {
		tel := telemetry.New()
		c, err := StartLocal(Options{Nodes: 3, RF: 2, Telemetry: tel, Write: pol})
		if err != nil {
			t.Fatal(err)
		}
		got := outcome{value: hammerCounter(t, c, workers, perWorker, 4)}
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: "wb/counter"}
		for _, id := range c.Dir.View().Members {
			v, _ := c.nodes[id].DebugVersion(ref)
			got.versions = append(got.versions, v)
		}
		m := tel.Metrics()
		got.replays = m.Counter(telemetry.MetServerDedupHits).Value()
		batches := m.Counter(telemetry.MetServerBatches).Value()
		rounds := m.Counter(telemetry.MetServerSMRRounds).Value()
		_ = c.Close()

		if got.value != workers*perWorker {
			t.Fatalf("%+v: counter = %d after %d increments", pol, got.value, workers*perWorker)
		}
		if pol.Batching() != (batches > 0) {
			t.Errorf("%+v: %d group-commit rounds", pol, batches)
		}
		// The hammer orders workers*perWorker+2 ops: the increments, the
		// Set and the lease-less final Get. Rounds of one take exactly
		// that many; group commit must save at least those two.
		if ops := uint64(workers*perWorker + 2); !pol.Batching() && rounds != ops {
			t.Errorf("%+v: %d ordering rounds for %d ops, want one each", pol, rounds, ops)
		} else if pol.Batching() && rounds > workers*perWorker {
			t.Errorf("%+v: %d ordering rounds for %d ops: batching amortized nothing", pol, rounds, workers*perWorker)
		}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("%+v: outcome %+v differs from the zero policy's %+v", pol, got, first)
		}
	}
}

// TestWriteBatchingDisabledByDefault pins the compatibility contract: the
// zero Options keep the classic one-round-per-mutation path, so existing
// deployments see no behavior change until they opt in.
func TestWriteBatchingDisabledByDefault(t *testing.T) {
	tel := telemetry.New()
	c, err := StartLocal(Options{Nodes: 3, RF: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := hammerCounter(t, c, 8, 5, 2); got != 40 {
		t.Fatalf("counter = %d after 40 increments", got)
	}
	if n := tel.Metrics().Counter(telemetry.MetServerBatches).Value(); n != 0 {
		t.Errorf("zero WritePolicy cut %d batch rounds, want the classic path", n)
	}
}

// TestWriteBatchingMetrics checks the observability contract on /metrics:
// the batch-size histogram exports unitless as crucial_server_batch_size,
// the round counter as crucial_server_batches_total, and the client-side
// flush counter as crucial_client_write_flushes_total.
func TestWriteBatchingMetrics(t *testing.T) {
	tel := telemetry.New()
	c, err := StartLocal(Options{
		Nodes:     3,
		RF:        2,
		Telemetry: tel,
		Write:     core.WritePolicy{MaxBatch: 16, Pipeline: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hammerCounter(t, c, 16, 10, 2)

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
