package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// placement returns ref's current replica set under the installed view
// (directive-aware, like every router in the system).
func placement(c *Cluster, ref core.Ref, rf int) []ring.NodeID {
	return c.Dir.View().Place(ref.String(), rf)
}

// primaryNode resolves ref's current primary node handle.
func primaryNode(t *testing.T, c *Cluster, ref core.Ref) *server.Node {
	t.Helper()
	set := placement(c, ref, c.RF())
	if len(set) == 0 {
		t.Fatalf("no placement for %s", ref)
	}
	n, ok := c.Node(set[0])
	if !ok {
		t.Fatalf("primary %s not running", set[0])
	}
	return n
}

// otherNodes lists cluster members excluding ref's current primary,
// deterministically ordered.
func otherNodes(c *Cluster, ref core.Ref) []ring.NodeID {
	set := placement(c, ref, c.RF())
	var out []ring.NodeID
	for _, id := range c.NodeIDs() {
		if len(set) > 0 && id == set[0] {
			continue
		}
		out = append(out, id)
	}
	return out
}

// Live migration end to end: pin a counter onto an explicit replica set,
// verify the value survived, the directive routes new traffic to the new
// primary, and writes keep working there.
func TestMigrateObjectEndToEnd(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3, RF: 2, Telemetry: telemetry.New()})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "viral"}

	if _, err := cl.Call(ctx, ref, "Set", int64(41)); err != nil {
		t.Fatal(err)
	}
	src := primaryNode(t, c, ref)
	targets := otherNodes(c, ref)
	if len(targets) < 2 {
		t.Fatalf("need 2 targets, have %v", targets)
	}
	targets = targets[:2]

	if err := src.MigrateObject(ctx, ref, targets, false); err != nil {
		t.Fatal(err)
	}

	v := c.Dir.View()
	if v.Directives.Len() != 1 {
		t.Fatalf("directive table has %d entries after migration, want 1", v.Directives.Len())
	}
	set := placement(c, ref, 2)
	if set[0] != targets[0] {
		t.Fatalf("post-flip primary %s, want %s", set[0], targets[0])
	}
	// Value preserved and writable on the new primary.
	res, err := cl.Call(ctx, ref, "AddAndGet", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 42 {
		t.Fatalf("post-migration AddAndGet = %v, want 42", res[0])
	}
	// The copy actually lives on the new primary now.
	newPrimary, _ := c.Node(targets[0])
	if !newPrimary.DebugHasObject(ref) {
		t.Fatal("new primary has no resident copy after migration")
	}
}

// Un-pin: migrating back with unpin restores hash placement and the value.
func TestMigrateObjectUnpin(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3, RF: 2, Telemetry: telemetry.New()})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "boomerang"}

	if _, err := cl.Call(ctx, ref, "Set", int64(7)); err != nil {
		t.Fatal(err)
	}
	hashSet := placement(c, ref, 2)
	src := primaryNode(t, c, ref)
	targets := otherNodes(c, ref)[:2]
	if err := src.MigrateObject(ctx, ref, targets, false); err != nil {
		t.Fatal(err)
	}

	// The new primary un-pins it. Right after the flip its open may find
	// a member still busy with the hand-off, so retry through
	// ErrRebalancing the way any caller would.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := primaryNode(t, c, ref).MigrateObject(ctx, ref, nil, true)
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrRebalancing) || time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := placement(c, ref, 2); got[0] != hashSet[0] {
		t.Fatalf("un-pinned primary %s, want hash primary %s", got[0], hashSet[0])
	}
	if c.Dir.View().Directives.Len() != 0 {
		t.Fatal("directive table not empty after un-pin")
	}
	res, err := cl.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 7 {
		t.Fatalf("value after round trip = %v, want 7", res[0])
	}
}

// Only the current primary may migrate: anyone else answers ErrWrongNode,
// so callers re-route exactly like an invocation.
func TestMigrateObjectWrongNode(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3, Telemetry: telemetry.New()})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "somewhere"}
	if _, err := cl.Call(ctx, ref, "Set", int64(1)); err != nil {
		t.Fatal(err)
	}
	others := otherNodes(c, ref)
	n, _ := c.Node(others[0])
	err := n.MigrateObject(ctx, ref, []ring.NodeID{others[0]}, false)
	if !errors.Is(err, core.ErrWrongNode) {
		t.Fatalf("non-primary migration returned %v, want ErrWrongNode", err)
	}
}

// Clients racing a migration never observe a failure (the fence bounces
// with ErrRebalancing, which they retry through) and never lose a write:
// the final counter equals the number of successful increments.
func TestInvokeDuringMigrationLosesNothing(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3, RF: 2, Telemetry: telemetry.New()})
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "contested"}

	cl := newClient(t, c)
	if _, err := cl.Call(ctx, ref, "Set", int64(0)); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var applied atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wcl := newClient(t, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := wcl.Call(ctx, ref, "AddAndGet", int64(1)); err != nil {
					t.Errorf("write failed across migration: %v", err)
					return
				}
				applied.Add(1)
			}
		}()
	}

	// Bounce the object across every node while the writers hammer it.
	time.Sleep(20 * time.Millisecond)
	for hop := 0; hop < 3; hop++ {
		src := primaryNode(t, c, ref)
		targets := otherNodes(c, ref)[:2]
		if err := src.MigrateObject(ctx, ref, targets, false); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	res, err := cl.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int64); got != applied.Load() {
		t.Fatalf("counter = %d after %d successful increments", got, applied.Load())
	}
}

// The rebalancer closes the loop on its own: sustained load on one key
// installs a directive moving it off its hash primary, with no manual
// migration call.
func TestRebalancerPinsSustainedHotObject(t *testing.T) {
	hot := core.Ref{Type: objects.TypeAtomicLong, Key: "celebrity"}
	c := startCluster(t, Options{
		Nodes:     3,
		RF:        2,
		Telemetry: telemetry.New(),
		Rebalance: core.RebalancePolicy{
			Enabled:  true,
			Interval: 50 * time.Millisecond,
			HotRate:  50,
			// The skew gate compares against the mean over rated objects;
			// 2x is plenty with the cold population below.
			HotFactor: 2,
			Sustain:   2,
			Cooldown:  time.Second,
		},
	})
	cl := newClient(t, c)
	ctx := ctxT(t)

	hashPrimary := placement(c, hot, 2)[0]

	// A cold population co-resident with the hot key: its node serves both
	// the celebrity and ordinary tenants, which is exactly the imbalance
	// the rebalancer exists to correct (evacuating the hot key leaves the
	// tenants their node). Cold keys also keep the cluster-wide mean rate
	// low so the skew gate can fire.
	var cold []core.Ref
	for i := 0; len(cold) < 4 && i < 64; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprintf("cold-%d", i)}
		if placement(c, ref, 2)[0] == hashPrimary {
			cold = append(cold, ref)
		}
	}
	if len(cold) == 0 {
		t.Fatal("no cold key hashes to the hot primary; widen the candidate range")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.Call(ctx, hot, "AddAndGet", int64(1)); err != nil {
				t.Errorf("hot write failed: %v", err)
				return
			}
			if i%10 == 0 {
				if _, err := cl.Call(ctx, cold[(i/10)%len(cold)], "Get"); err != nil {
					t.Errorf("cold read failed: %v", err)
					return
				}
			}
			i++
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	var pinned bool
	for time.Now().Before(deadline) {
		v := c.Dir.View()
		if set, ok := v.Directives.Lookup(hot.String()); ok && len(set) > 0 && set[0] != hashPrimary {
			pinned = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !pinned {
		t.Fatal("rebalancer never pinned the sustained hot object off its hash primary")
	}
}

// A client outside the cluster process seeds from a static member list
// (no directive table, view ID 0). After the rebalancer pins a key
// elsewhere, routing from that seed alone would bounce on the old hash
// primary forever — RemoteViews must learn the flip from the cluster
// over KindView and route by the directive table.
func TestRemoteViewsFollowDirectiveFlip(t *testing.T) {
	c := startCluster(t, Options{Nodes: 3, RF: 2, Telemetry: telemetry.New()})
	cl := newClient(t, c)
	ctx := ctxT(t)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "viral"}

	if _, err := cl.Call(ctx, ref, "Set", int64(9)); err != nil {
		t.Fatal(err)
	}
	src := primaryNode(t, c, ref)
	targets := otherNodes(c, ref)[:2]
	if err := src.MigrateObject(ctx, ref, targets, false); err != nil {
		t.Fatal(err)
	}

	// The static seed an external client starts from: members and
	// addresses only — the directive the migration just installed is
	// deliberately absent, and ID 0 means "older than anything live".
	live := c.Dir.View()
	seed := membership.View{Members: live.Members, Addrs: live.Addrs}
	rv := client.NewRemoteViews(c.Transport, seed)
	ext, err := client.New(client.Config{Transport: c.Transport, Views: rv})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ext.Close() })

	res, err := ext.Call(ctx, ref, "AddAndGet", int64(1))
	if err != nil {
		t.Fatalf("external client lost the pinned key: %v", err)
	}
	if res[0].(int64) != 10 {
		t.Fatalf("AddAndGet = %v, want 10", res[0])
	}
	if v := rv.View(); v.Directives.Len() != 1 {
		t.Fatalf("RemoteViews never learned the directive table: %+v", v.Directives)
	}
}
