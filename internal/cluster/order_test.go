package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/chaos"
	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// refsLedBySameNode returns n persistent counter refs whose RF-2 groups
// share their primary in c's current view.
func refsLedBySameNode(t *testing.T, c *Cluster, n int) []core.Ref {
	t.Helper()
	view := c.Dir.View()
	var refs []core.Ref
	for i := 0; len(refs) < n && i < 1000; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprint("order/", i)}
		if len(refs) == 0 || view.Place(ref.String(), 2)[0] == view.Place(refs[0].String(), 2)[0] {
			refs = append(refs, ref)
		}
	}
	if len(refs) < n {
		t.Fatalf("found %d refs with one primary, want %d", len(refs), n)
	}
	return refs
}

// Objects are ordered one at a time, not one node at a time: on a 2-node
// RF-2 cluster, a round whose method runs 200 ms on ref A must not delay a
// write to ref B that the same node leads. Under a node-wide total order
// every member applies one round at a time, so B waits out A.
func TestSlowRoundDoesNotStallOtherRefs(t *testing.T) {
	c := startCluster(t, Options{Nodes: 2, RF: 2})
	cl := newClient(t, c)
	ctx := context.Background()
	refs := refsLedBySameNode(t, c, 2)
	a, b := refs[0], refs[1]
	for _, ref := range refs { // genesis, connections
		if _, err := cl.InvokeObject(ctx, core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}); err != nil {
			t.Fatal(err)
		}
	}
	slow := make(chan error, 1)
	go func() {
		_, err := cl.InvokeObject(ctx, core.Invocation{Ref: a, Method: "SimulatedWork",
			Args: []any{int64(200_000)}, Persist: true})
		slow <- err
	}()
	time.Sleep(20 * time.Millisecond) // A's round is applying
	start := time.Now()
	if _, err := cl.InvokeObject(ctx, core.Invocation{Ref: b, Method: "IncrementAndGet", Persist: true}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("write to B took %v behind a 200 ms round on A", d)
	}
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}

// A lost ACCEPT leaves a gap at its member: the next round parks there,
// and past the park bound the member pulls a copy and resumes after its
// position. The client retries through the failed rounds, every acked
// increment counts exactly once, and both copies end equal. The rule
// drops two frames: the ACCEPT and the coordinator's redial of it, which
// would otherwise close the gap itself.
func TestDroppedAcceptParksPullsAndConverges(t *testing.T) {
	tel := telemetry.New()
	eng := chaos.New(rpc.NewMemNetwork(), chaos.Options{Seed: 1})
	c := startCluster(t, Options{Nodes: 2, RF: 2, Chaos: eng, Telemetry: tel,
		PeerCallTimeout: 50 * time.Millisecond,
		ClientRetry:     core.RetryPolicy{MaxRetries: 50, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, Multiplier: 2},
	})
	cl := newClient(t, c)
	ctx := context.Background()
	ref := refsLedBySameNode(t, c, 1)[0]
	add := core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}, Persist: true}
	const ops = 12
	for i := int64(1); i <= ops; i++ {
		if i == 4 {
			eng.AddRule(chaos.Rule{Kind: server.KindAccept, Dir: chaos.Requests,
				Faults: chaos.LinkFaults{Drop: 1}, MaxHits: 2})
		}
		res, err := cl.InvokeObject(ctx, add)
		if err != nil {
			t.Fatalf("increment %d: %v", i, err)
		}
		if got := res[0].(int64); got != i {
			t.Fatalf("increment %d acked %d: an acked increment was lost or doubled", i, got)
		}
	}
	if eng.Counts().FramesDropped != 2 {
		t.Fatalf("%d ACCEPT frames dropped, want 2", eng.Counts().FramesDropped)
	}
	if pulls := tel.Metrics().Counter(telemetry.MetServerPulls).Value(); pulls == 0 {
		t.Fatal("the member never pulled across the gap")
	}
	var snaps []string
	for _, id := range c.NodeIDs() {
		n, _ := c.Node(id)
		s, err := n.DebugSnapshot(ref)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, string(s))
	}
	if snaps[0] != snaps[1] {
		t.Fatal("copies differ after the gap closed")
	}
}

// A fault-free run refuses no round at a predecessor mismatch: eight clients
// increment 32 RF-2 counters 500 times each, and every counter ends at
// exactly the number of increments acked on it.
func TestFaultFreeRunRefusesNoForks(t *testing.T) {
	tel := telemetry.New()
	c := startCluster(t, Options{Nodes: 3, RF: 2, Telemetry: tel})
	ctx := context.Background()
	const workers, perWorker, refCount = 8, 500, 32
	var acked [refCount]atomic.Int64
	ref := func(i int) core.Ref {
		return core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprint("forks/", i)}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := newClient(t, c)
			for i := 0; i < perWorker; i++ {
				k := (w*7 + i) % refCount
				if _, err := cl.InvokeObject(ctx, core.Invocation{Ref: ref(k), Method: "AddAndGet",
					Args: []any{int64(1)}, Persist: true}); err != nil {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
				acked[k].Add(1)
			}
		}(w)
	}
	wg.Wait()
	cl := newClient(t, c)
	for k := range acked {
		res, err := cl.InvokeObject(ctx, core.Invocation{Ref: ref(k), Method: "Get", ReadOnly: true, Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].(int64); got != acked[k].Load() {
			t.Errorf("counter %d holds %d, %d increments acked", k, got, acked[k].Load())
		}
	}
	if n := tel.Metrics().Counter(telemetry.MetServerForkRefusals).Value(); n != 0 {
		t.Fatalf("%d predecessor-mismatch refusals in a fault-free run", n)
	}
}
