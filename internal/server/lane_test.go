package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/objects"
	"crucial/internal/rpc"
	"crucial/internal/telemetry"
)

// queuedOn reports how many writes wait in ref's lane at n.
func queuedOn(n *Node, ref core.Ref) int {
	e := n.pin(ref, false)
	if e == nil {
		return 0
	}
	defer n.release(e)
	e.rmu.Lock()
	defer e.rmu.Unlock()
	return len(e.queued)
}

// Sixteen concurrent writers on one rf=2 ref never put more than
// pipelineDepth of its rounds in flight from the primary: the member never
// holds more at once, which is the bound laneMemory relies on. The writes
// the lane queues ride cut rounds, and every increment lands once.
func TestLaneBoundsRoundsInFlight(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	tel := telemetry.New()
	cfg := validConfig(net, dir)
	cfg.RF, cfg.Telemetry = 2, tel
	n1 := startNode(t, cfg)
	cfg.ID, cfg.Addr, cfg.Telemetry = "n2", "n2", nil
	n2 := startNode(t, cfg)
	ref := refLedBy(t, n1, objects.TypeAtomicLong)

	var active, peak atomic.Int32
	n2.beforeApply = func(core.Ref) {
		cur := active.Add(1)
		for old := peak.Load(); cur > old && !peak.CompareAndSwap(old, cur); old = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond) // keep the round in flight a while
		active.Add(-1)
	}

	const writers, perWriter = 16, 10
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := n1.invoke(ctx, core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > pipelineDepth {
		t.Fatalf("%d rounds of one ref in flight at the member, want at most %d", p, pipelineDepth)
	}
	res, err := n1.invoke(ctx, core.Invocation{Ref: ref, Method: "Get", ReadOnly: true, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int64); got != writers*perWriter {
		t.Fatalf("counter = %d after %d increments", got, writers*perWriter)
	}
	if tel.Metrics().Counter(telemetry.MetServerBatches).Value() == 0 {
		t.Error("no write was ever queued: the test did not load the lane")
	}
	for _, e := range n1.residents() {
		if e.rmu.Lock(); e.inflight != 0 || len(e.queued) != 0 {
			t.Errorf("lane of %s left open on an idle node: %d in flight, %d queued", e.ref, e.inflight, len(e.queued))
		}
		e.rmu.Unlock()
	}
	if s := n1.DebugTableSizes(); s.Records != s.Resident {
		t.Errorf("%d records for %d copies on an idle node", s.Records, s.Resident)
	}
}

// A queued write whose caller gives up leaves the queue unexecuted, and the
// writes behind it still run once the lane frees.
func TestLaneQueuedWriteCanceled(t *testing.T) {
	n1, n2, _, ref := startPair(t, objects.TypeAtomicLong, 0, nil)
	ctx := context.Background()
	inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}
	held, release := holdApplies(t, n2, pipelineDepth)
	done := make(chan error, pipelineDepth+1)
	write := func(ctx context.Context) {
		_, err := n1.invoke(ctx, inc)
		done <- err
	}
	for i := 0; i < pipelineDepth; i++ {
		go write(ctx)
		<-held
	}
	waitQueued := func(k int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); queuedOn(n1, ref) != k; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d writes queued, want %d", queuedOn(n1, ref), k)
			}
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	canceled := make(chan error, 1)
	go func() {
		_, err := n1.invoke(cctx, inc)
		canceled <- err
	}()
	waitQueued(1)
	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued write: err = %v, want context.Canceled", err)
	}
	waitQueued(0)
	go write(ctx)
	waitQueued(1)
	release()
	for i := 0; i < pipelineDepth+1; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	res, err := n1.invoke(ctx, core.Invocation{Ref: ref, Method: "Get", ReadOnly: true, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int64); got != pipelineDepth+1 {
		t.Fatalf("counter = %d, want %d: the canceled write ran, or a queued one was lost", got, pipelineDepth+1)
	}
}

// The first writes to a fresh rf=2 object race: the lane keeps two of its
// rounds in flight, so the member may take seq 2's ACCEPT before seq 1's,
// the genesis round that creates its copy. The overtaking round waits for
// that copy, rather than refusing and pulling one while seq 1 is still on
// its way: every write is acked, and each counter counts all of them.
func TestRoundOvertakingGenesisWaitsForIt(t *testing.T) {
	n1, _, _, _ := startPair(t, objects.TypeAtomicLong, 0, nil)
	const refs, writers = 155, 8
	fresh := make([]core.Ref, 0, refs)
	for i := 0; len(fresh) < refs; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: "fresh-" + strconv.Itoa(i)}
		if group, _ := n1.replicaGroup(ref, true); len(group) == 2 && group[0] == n1.cfg.ID {
			fresh = append(fresh, ref)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	var failed atomic.Int32
	for _, ref := range fresh {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := n1.invoke(ctx, core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}); err != nil {
					if failed.Add(1) <= 3 {
						t.Error(err)
					}
				}
			}()
		}
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d first writes failed", n, refs*writers)
	}
	for _, ref := range fresh {
		res, err := n1.invoke(ctx, core.Invocation{Ref: ref, Method: "Get", ReadOnly: true, Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].(int64); got != writers {
			t.Fatalf("%s = %d after %d increments", ref, got, writers)
		}
	}
}
