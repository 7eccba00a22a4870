package membership

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/ring"
)

func TestJoinInstallsViews(t *testing.T) {
	d := NewDirectory(time.Second)
	v1 := d.Join("a", "addr-a")
	if v1.ID != 1 || len(v1.Members) != 1 {
		t.Fatalf("first view = %+v", v1)
	}
	v2 := d.Join("b", "addr-b")
	if v2.ID != 2 || len(v2.Members) != 2 {
		t.Fatalf("second view = %+v", v2)
	}
	if v2.Addrs["b"] != "addr-b" {
		t.Fatalf("address lost: %+v", v2.Addrs)
	}
}

func TestMembersSorted(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Join("c", "3")
	d.Join("a", "1")
	v := d.Join("b", "2")
	want := []ring.NodeID{"a", "b", "c"}
	for i, m := range v.Members {
		if m != want[i] {
			t.Fatalf("members = %v", v.Members)
		}
	}
}

func TestLeaveAndCrash(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Join("a", "1")
	d.Join("b", "2")
	v := d.Leave("a")
	if v.Contains("a") || !v.Contains("b") {
		t.Fatalf("view after leave = %+v", v)
	}
	v = d.Crash("b")
	if len(v.Members) != 0 {
		t.Fatalf("view after crash = %+v", v)
	}
}

func TestSubscribeGetsCurrentThenUpdates(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Join("a", "1")

	var mu sync.Mutex
	var got []uint64
	cancel := d.Subscribe(func(v View) {
		mu.Lock()
		got = append(got, v.ID)
		mu.Unlock()
	})
	defer cancel()

	d.Join("b", "2")
	d.Leave("a")

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("listener saw views %v, want [1 2 3]", got)
	}
}

func TestCancelStopsNotifications(t *testing.T) {
	d := NewDirectory(time.Second)
	var count int
	cancel := d.Subscribe(func(View) { count++ })
	cancel()
	d.Join("a", "1")
	if count != 1 { // only the bootstrap call
		t.Fatalf("listener called %d times after cancel", count)
	}
}

func TestViewsStrictlyOrderedUnderConcurrency(t *testing.T) {
	d := NewDirectory(time.Second)
	var mu sync.Mutex
	var seen []uint64
	cancel := d.Subscribe(func(v View) {
		mu.Lock()
		seen = append(seen, v.ID)
		mu.Unlock()
	})
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.Join(ring.NodeID(rune('a'+i)), "x")
		}(i)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seen); i++ {
		if seen[i] != seen[i-1]+1 {
			t.Fatalf("views out of order: %v", seen)
		}
	}
	if len(seen) != 11 {
		t.Fatalf("saw %d views, want 11", len(seen))
	}
}

func TestHeartbeatUnknownNode(t *testing.T) {
	d := NewDirectory(time.Second)
	if err := d.Heartbeat("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
}

func TestFailureDetection(t *testing.T) {
	d := NewDirectory(30 * time.Millisecond)
	d.Join("a", "1")
	d.Join("b", "2")

	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := d.Heartbeat("a"); err != nil {
			t.Fatal(err)
		}
		removed := d.CheckFailures()
		if len(removed) > 0 {
			if removed[0] != "b" || len(removed) != 1 {
				t.Fatalf("removed %v, want [b]", removed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale node never removed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	v := d.View()
	if v.Contains("b") || !v.Contains("a") {
		t.Fatalf("view after detection = %+v", v)
	}
}

func TestCheckFailuresNoStale(t *testing.T) {
	d := NewDirectory(time.Hour)
	d.Join("a", "1")
	if removed := d.CheckFailures(); len(removed) != 0 {
		t.Fatalf("removed %v with fresh heartbeats", removed)
	}
}

func TestViewCloneIsolation(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Join("a", "1")
	v := d.View()
	v.Addrs["evil"] = "x"
	v.Members[0] = "evil"
	v2 := d.View()
	if v2.Contains("evil") {
		t.Fatal("View() exposed internal members slice")
	}
	if _, ok := v2.Addrs["evil"]; ok {
		t.Fatal("View() exposed internal addr map")
	}
}

func TestViewRing(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Join("a", "1")
	v := d.Join("b", "2")
	r := v.Ring()
	if r.Size() != 2 {
		t.Fatalf("ring size %d", r.Size())
	}
	owner, ok := r.Owner("some-key")
	if !ok || (owner != "a" && owner != "b") {
		t.Fatalf("owner = %v, %v", owner, ok)
	}
}

func TestRejoinUpdatesAddress(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Join("a", "old")
	v := d.Join("a", "new")
	if v.Addrs["a"] != "new" {
		t.Fatalf("address not updated: %+v", v.Addrs)
	}
	if len(v.Members) != 1 {
		t.Fatalf("duplicate member: %v", v.Members)
	}
}

func TestCrashUnknownNodeNoOp(t *testing.T) {
	d := NewDirectory(time.Second)
	before := d.Join("a", "1")
	var calls int
	cancel := d.Subscribe(func(View) { calls++ })
	defer cancel()
	v := d.Crash("ghost")
	if v.ID != before.ID || !v.Contains("a") {
		t.Fatalf("crash of unknown node installed view %+v", v)
	}
	if calls != 1 { // bootstrap only — no spurious view notification
		t.Fatalf("listener called %d times", calls)
	}
}

func TestRejoinSameAddressNoOp(t *testing.T) {
	d := NewDirectory(time.Second)
	v1 := d.Join("a", "1")
	v2 := d.Join("a", "1")
	if v2.ID != v1.ID {
		t.Fatalf("redundant join bumped view %d -> %d", v1.ID, v2.ID)
	}
	// A changed address is a real change and must install a view.
	if v3 := d.Join("a", "2"); v3.ID != v1.ID+1 {
		t.Fatalf("address change did not install a view: %+v", v3)
	}
}

// TestRunFailureDetectorRemovesSilentNode covers the background ticker
// path: the detector must evict a node that stops heartbeating while a
// heartbeating one survives, and must stop when the context is cancelled.
func TestRunFailureDetectorRemovesSilentNode(t *testing.T) {
	d := NewDirectory(20 * time.Millisecond)
	d.Join("alive", "1")
	d.Join("silent", "2")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.RunFailureDetector(ctx, 5*time.Millisecond)
	}()

	deadline := time.Now().Add(2 * time.Second)
	for d.View().Contains("silent") {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("failure detector never removed the silent node")
		}
		if err := d.Heartbeat("alive"); err != nil {
			cancel()
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !d.View().Contains("alive") {
		t.Fatal("heartbeating node was evicted")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("detector did not stop on context cancellation")
	}
}

// TestCheckFailuresConcurrentWithMembershipChurn races the failure
// detector against joins, leaves and heartbeats. A node that keeps
// heartbeating must never be evicted — staleness is re-validated under
// the directory lock at removal time — and the directory must stay
// internally consistent throughout (run with -race).
//
// Time is a fake clock that only the heartbeating goroutine advances, one
// millisecond before each heartbeat, so "keeps heartbeating" holds by
// construction (steady is never more than 1ms stale against a 5ms timeout)
// however the scheduler treats the goroutines; the churned nodes never
// heartbeat, and every other one is left only after it has expired, so
// the detector's evictions race the leaves for two seconds of fake time.
func TestCheckFailuresConcurrentWithMembershipChurn(t *testing.T) {
	d := NewDirectory(5 * time.Millisecond)
	var clock atomic.Int64
	d.now = func() time.Time { return time.Unix(0, clock.Load()) }
	d.Join("steady", "s")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churn: join/leave a rotating cast
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				// Every other node stays past the timeout, so its Leave
				// races the detector's eviction of it.
				id := ring.NodeID(rune('a' + i%5))
				d.Join(id, "x")
				for until := clock.Load() + int64(i%2)*int64(6*time.Millisecond); clock.Load() < until; {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
				d.Leave(id)
			}
		}
	}()
	evictions := 0
	var scans atomic.Int64
	go func() { // aggressive detector
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, n := range d.CheckFailures() {
					evictions++
					if n == "steady" {
						t.Error("heartbeating node evicted by the failure detector")
					}
				}
				scans.Add(1)
				runtime.Gosched()
			}
		}
	}()

	for i := 0; i < 2000; i++ { // steady heartbeats
		clock.Add(int64(time.Millisecond))
		if err := d.Heartbeat("steady"); err != nil {
			t.Errorf("steady is no longer a member: %v", err)
			break
		}
		for s := scans.Load(); scans.Load() == s; { // at least one scan per tick
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if !d.View().Contains("steady") {
		t.Fatal("steady node missing from the final view")
	}
	t.Logf("detector evicted %d churned nodes", evictions)
}

// Fence must be a pure function of the member set — equal for any two
// views with the same members (even across independently-numbered
// directories) and different when membership differs.
func TestViewFence(t *testing.T) {
	a := View{ID: 1, Members: []ring.NodeID{"n1", "n2", "n3"}}
	b := View{ID: 42, Members: []ring.NodeID{"n1", "n2", "n3"}}
	if a.Fence() != b.Fence() {
		t.Fatal("same members, different fences")
	}
	c := View{ID: 1, Members: []ring.NodeID{"n1", "n2"}}
	if a.Fence() == c.Fence() {
		t.Fatal("different members, same fence")
	}
	// Concatenation ambiguity: {"n1", "n2n3"} vs {"n1n2", "n3"}.
	d := View{Members: []ring.NodeID{"n1", "n2n3"}}
	e := View{Members: []ring.NodeID{"n1n2", "n3"}}
	if d.Fence() == e.Fence() {
		t.Fatal("member separator does not disambiguate concatenations")
	}
}
