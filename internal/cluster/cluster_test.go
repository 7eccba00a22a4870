package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/ring"
)

func startCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c, err := StartLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func newClient(t *testing.T, c *Cluster) *client.Client {
	t.Helper()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSingleNodeAtomicLong(t *testing.T) {
	c := startCluster(t, Options{})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "counter"}

	res, err := cl.Call(ctx, ref, "AddAndGet", int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 5 {
		t.Fatalf("AddAndGet = %v", res[0])
	}
	res, err = cl.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 5 {
		t.Fatalf("Get = %v", res[0])
	}
}

func TestObjectsSpreadAcrossNodes(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3})
	cl := newClient(t, c)
	ctx := ctxT(t)

	const n = 60
	for i := 0; i < n; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprintf("c%d", i)}
		if _, err := cl.Call(ctx, ref, "Set", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, id := range c.NodeIDs() {
		node, ok := c.Node(id)
		if !ok {
			t.Fatalf("node %s missing", id)
		}
		cnt := node.DebugObjectCount()
		if cnt == 0 {
			t.Fatalf("node %s holds no objects; placement is not spreading", id)
		}
		total += cnt
	}
	if total != n {
		t.Fatalf("%d objects resident, want %d", total, n)
	}
}

// AddAndGet returns a distinct value per call when all increments are 1,
// so uniqueness + final total is a linearizability witness for the counter.
func TestConcurrentIncrementsLinearizable(t *testing.T) {
	c := startCluster(t, Options{Nodes: 2})
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "shared"}

	const workers = 8
	const perWorker = 50
	seen := make(chan int64, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(t, c)
			for i := 0; i < perWorker; i++ {
				res, err := cl.Call(ctx, ref, "AddAndGet", int64(1))
				if err != nil {
					t.Errorf("AddAndGet: %v", err)
					return
				}
				seen <- res[0].(int64)
			}
		}()
	}
	wg.Wait()
	close(seen)

	unique := make(map[int64]bool)
	var max int64
	count := 0
	for v := range seen {
		if unique[v] {
			t.Fatalf("value %d returned twice: not linearizable", v)
		}
		unique[v] = true
		if v > max {
			max = v
		}
		count++
	}
	if count != workers*perWorker || max != int64(workers*perWorker) {
		t.Fatalf("count=%d max=%d, want both %d", count, max, workers*perWorker)
	}
}

func TestBarrierAcrossClients(t *testing.T) {
	c := startCluster(t, Options{Nodes: 2})
	ctx := ctxT(t)

	const parties = 6
	ref := core.Ref{Type: objects.TypeCyclicBarrier, Key: "b"}
	inv := func(cl *client.Client) ([]any, error) {
		return cl.InvokeObject(ctx, core.Invocation{
			Ref: ref, Method: "Await", Init: []any{int64(parties)},
		})
	}

	release := make(chan time.Time, parties)
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := newClient(t, c)
			// Stagger arrivals to prove the early ones block.
			time.Sleep(time.Duration(i) * 20 * time.Millisecond)
			if _, err := inv(cl); err != nil {
				t.Errorf("Await: %v", err)
				return
			}
			release <- time.Now()
		}(i)
	}
	wg.Wait()
	close(release)

	var first, last time.Time
	for ts := range release {
		if first.IsZero() || ts.Before(first) {
			first = ts
		}
		if ts.After(last) {
			last = ts
		}
	}
	if last.Sub(first) > time.Second {
		t.Fatalf("parties released %v apart; barrier did not synchronize", last.Sub(first))
	}
}

func TestFutureAcrossClients(t *testing.T) {
	c := startCluster(t, Options{})
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeFuture, Key: "f"}

	getter := newClient(t, c)
	setter := newClient(t, c)

	got := make(chan any, 1)
	go func() {
		res, err := getter.Call(ctx, ref, "Get")
		if err != nil {
			t.Errorf("Get: %v", err)
			got <- nil
			return
		}
		got <- res[0]
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := setter.Call(ctx, ref, "Set", "result"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "result" {
			t.Fatalf("future value = %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("getter never released")
	}
}

func TestPersistentObjectSurvivesPrimaryCrash(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3, RF: 2})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "durable"}

	set := func(v int64) error {
		_, err := cl.InvokeObject(ctx, core.Invocation{
			Ref: ref, Method: "Set", Args: []any{v}, Persist: true,
		})
		return err
	}
	get := func() (int64, error) {
		res, err := cl.InvokeObject(ctx, core.Invocation{
			Ref: ref, Method: "Get", Persist: true,
		})
		if err != nil {
			return 0, err
		}
		return res[0].(int64), nil
	}

	if err := set(42); err != nil {
		t.Fatal(err)
	}
	// Identify and kill the primary replica.
	view := c.Dir.View()
	primary := view.Ring().ReplicaSet(ref.String(), 2)[0]
	if err := c.CrashNode(primary); err != nil {
		t.Fatal(err)
	}
	got, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("value after primary crash = %d, want 42", got)
	}
	// And the object is writable again (re-replicated onto a new group).
	if err := set(43); err != nil {
		t.Fatal(err)
	}
	if got, err = get(); err != nil || got != 43 {
		t.Fatalf("after re-set: %d, %v", got, err)
	}
}

func TestEphemeralObjectLostOnCrash(t *testing.T) {
	c := startCluster(t, Options{Nodes: 2})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "volatile"}

	if _, err := cl.Call(ctx, ref, "Set", int64(7)); err != nil {
		t.Fatal(err)
	}
	view := c.Dir.View()
	owner, _ := view.Ring().Owner(ref.String())
	if err := c.CrashNode(owner); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 0 {
		t.Fatalf("ephemeral object survived crash with value %v", res[0])
	}
}

func TestRebalanceOnNodeAddition(t *testing.T) {
	c := startCluster(t, Options{Nodes: 2})
	cl := newClient(t, c)
	ctx := ctxT(t)

	const n = 40
	for i := 0; i < n; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprintf("k%d", i)}
		if _, err := cl.Call(ctx, ref, "Set", int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	added, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	// Every value must be readable and unchanged after the ring shifted.
	for i := 0; i < n; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprintf("k%d", i)}
		res, err := cl.Call(ctx, ref, "Get")
		if err != nil {
			t.Fatalf("Get k%d: %v", i, err)
		}
		if res[0].(int64) != int64(100+i) {
			t.Fatalf("k%d = %v after rebalance, want %d", i, res[0], 100+i)
		}
	}
	if added.DebugObjectCount() == 0 {
		t.Fatal("new node received no objects")
	}
}

func TestGracefulLeaveHandsOffState(t *testing.T) {
	c := startCluster(t, Options{Nodes: 2})
	cl := newClient(t, c)
	ctx := ctxT(t)

	const n = 30
	for i := 0; i < n; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprintf("g%d", i)}
		if _, err := cl.Call(ctx, ref, "Set", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.NodeIDs()
	if err := c.StopNode(ids[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprintf("g%d", i)}
		res, err := cl.Call(ctx, ref, "Get")
		if err != nil {
			t.Fatalf("Get g%d: %v", i, err)
		}
		if res[0].(int64) != int64(i+1) {
			t.Fatalf("g%d = %v after graceful leave, want %d", i, res[0], i+1)
		}
	}
}

func TestReplicatedCounterConcurrentIncrements(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3, RF: 2})
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "repl-counter"}

	const workers = 6
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(t, c)
			for i := 0; i < perWorker; i++ {
				if _, err := cl.InvokeObject(ctx, core.Invocation{
					Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}, Persist: true,
				}); err != nil {
					t.Errorf("AddAndGet: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	cl := newClient(t, c)
	res, err := cl.InvokeObject(ctx, core.Invocation{Ref: ref, Method: "Get", Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != workers*perWorker {
		t.Fatalf("replicated counter = %v, want %d", res[0], workers*perWorker)
	}
}

func TestUnknownTypeError(t *testing.T) {
	c := startCluster(t, Options{})
	cl := newClient(t, c)
	ctx := ctxT(t)
	_, err := cl.Call(ctx, core.Ref{Type: "NoSuchType", Key: "x"}, "Get")
	if !errors.Is(err, core.ErrUnknownType) {
		t.Fatalf("want ErrUnknownType, got %v", err)
	}
}

func TestUnknownMethodError(t *testing.T) {
	c := startCluster(t, Options{})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "x"}
	_, err := cl.Call(ctx, ref, "Bogus")
	if !errors.Is(err, core.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	c := startCluster(t, Options{Nodes: 2})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode(); err == nil {
		t.Fatal("AddNode succeeded on closed cluster")
	}
}

func TestCrashUnknownNode(t *testing.T) {
	c := startCluster(t, Options{})
	if err := c.CrashNode(ring.NodeID("ghost")); err == nil {
		t.Fatal("CrashNode on unknown id succeeded")
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := client.New(client.Config{}); err == nil {
		t.Fatal("client without transport accepted")
	}
}

func TestSemaphoreOverWire(t *testing.T) {
	c := startCluster(t, Options{Nodes: 2})
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeSemaphore, Key: "sem"}
	init := []any{int64(1)}

	acquire := func(cl *client.Client) error {
		_, err := cl.InvokeObject(ctx, core.Invocation{Ref: ref, Method: "Acquire", Init: init})
		return err
	}
	releaseSem := func(cl *client.Client) error {
		_, err := cl.InvokeObject(ctx, core.Invocation{Ref: ref, Method: "Release", Init: init})
		return err
	}

	cl1, cl2 := newClient(t, c), newClient(t, c)
	if err := acquire(cl1); err != nil {
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() { second <- acquire(cl2) }()
	select {
	case err := <-second:
		t.Fatalf("second Acquire returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := releaseSem(cl1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second Acquire never released")
	}
}

func TestNodeStatsCount(t *testing.T) {
	c := startCluster(t, Options{})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "s"}
	for i := 0; i < 5; i++ {
		if _, err := cl.Call(ctx, ref, "IncrementAndGet"); err != nil {
			t.Fatal(err)
		}
	}
	id := c.NodeIDs()[0]
	n, _ := c.Node(id)
	if n.Stats().Invocations < 5 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

// Every replica evaluates a CompareAndSet on its own copy, so the
// comparison must not depend on map iteration order: on an RF-2 cluster, a
// CAS whose expected value equals the current 8-key map swaps on both
// replicas every time, and their copies stay equal.
func TestReplicasAgreeOnMapCompareAndSet(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3, RF: 2})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicReference, Key: "cas/map"}
	state := func(v int64) map[string]any {
		m := make(map[string]any, 8)
		for i, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
			m[k] = int64(i) + v
		}
		return m
	}
	cas := func(expect, update any) bool {
		t.Helper()
		res, err := cl.InvokeObject(ctx, core.Invocation{Ref: ref, Method: "CompareAndSet",
			Args: []any{expect, update}, Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].(bool)
	}
	if !cas(nil, state(0)) {
		t.Fatal("CAS from nil failed")
	}
	for i := int64(0); i < 100; i++ {
		if !cas(state(i), state(i+1)) {
			t.Fatalf("CAS %d with an equal map as the expected value failed", i)
		}
	}
	var copies []any
	for _, id := range c.Dir.Placement().Place(ref.String(), 2) {
		n, _ := c.Node(id)
		data, err := n.DebugSnapshot(ref)
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := objects.NewAtomicReference(nil)
		if err := obj.(core.Snapshotter).Restore(data); err != nil {
			t.Fatal(err)
		}
		res, err := obj.Call(nil, "Get", nil)
		if err != nil {
			t.Fatal(err)
		}
		copies = append(copies, res[0])
	}
	if len(copies) != 2 || !reflect.DeepEqual(copies[0], copies[1]) || !reflect.DeepEqual(copies[0], state(100)) {
		t.Fatalf("replica copies %v, want both %v", copies, state(100))
	}
}
