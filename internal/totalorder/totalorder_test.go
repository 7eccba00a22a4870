package totalorder

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// memTransport wires nodes together in process, optionally delaying
// messages to shake out ordering races.
type memTransport struct {
	mu    sync.Mutex
	nodes map[string]*Node
	// maxDelay > 0 inserts random sleeps before message handling.
	maxDelay time.Duration
	// failProposeTo simulates an unreachable node.
	failProposeTo string
}

func newMemTransport() *memTransport {
	return &memTransport{nodes: make(map[string]*Node)}
}

func (t *memTransport) add(n *Node) { t.nodes[n.ID()] = n }

func (t *memTransport) delay() {
	if t.maxDelay > 0 {
		time.Sleep(time.Duration(rand.Int63n(int64(t.maxDelay))))
	}
}

func (t *memTransport) Propose(_ context.Context, target string, id MsgID, payload []byte) (uint64, error) {
	if target == t.failProposeTo {
		return 0, errors.New("simulated network failure")
	}
	t.delay()
	t.mu.Lock()
	n, ok := t.nodes[target]
	t.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("no node %q", target)
	}
	return n.HandlePropose(id, payload), nil
}

func (t *memTransport) Abort(_ context.Context, target string, id MsgID) error {
	t.mu.Lock()
	n, ok := t.nodes[target]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("no node %q", target)
	}
	n.Drop(id)
	return nil
}

func (t *memTransport) Final(_ context.Context, target string, id MsgID, ts uint64) error {
	t.delay()
	t.mu.Lock()
	n, ok := t.nodes[target]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("no node %q", target)
	}
	n.HandleFinal(id, ts)
	return nil
}

// recorder captures delivery order per node.
type recorder struct {
	mu    sync.Mutex
	order []MsgID
}

func (r *recorder) deliver(id MsgID, _ []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.order = append(r.order, id)
	return true
}

func (r *recorder) snapshot() []MsgID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MsgID, len(r.order))
	copy(out, r.order)
	return out
}

func buildCluster(t *testing.T, tr *memTransport, names ...string) map[string]*recorder {
	t.Helper()
	recs := make(map[string]*recorder, len(names))
	for _, name := range names {
		rec := &recorder{}
		recs[name] = rec
		tr.add(NewNode(name, rec.deliver))
	}
	return recs
}

func TestSingleMessageDeliveredEverywhere(t *testing.T) {
	tr := newMemTransport()
	recs := buildCluster(t, tr, "a", "b", "c")
	id := MsgID{Origin: "client", Seq: 1}
	if err := Multicast(context.Background(), tr, []string{"a", "b", "c"}, id, []byte("op")); err != nil {
		t.Fatal(err)
	}
	for name, rec := range recs {
		got := rec.snapshot()
		if len(got) != 1 || got[0] != id {
			t.Fatalf("node %s delivered %v", name, got)
		}
	}
}

func TestSequentialMessagesKeepOrder(t *testing.T) {
	tr := newMemTransport()
	recs := buildCluster(t, tr, "a", "b")
	group := []string{"a", "b"}
	for i := 1; i <= 5; i++ {
		id := MsgID{Origin: "client", Seq: uint64(i)}
		if err := Multicast(context.Background(), tr, group, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for name, rec := range recs {
		got := rec.snapshot()
		if len(got) != 5 {
			t.Fatalf("node %s delivered %d messages", name, len(got))
		}
		for i, id := range got {
			if id.Seq != uint64(i+1) {
				t.Fatalf("node %s delivered out of order: %v", name, got)
			}
		}
	}
}

// The core safety property: all nodes deliver the same sequence under
// concurrent senders with random network delays.
func TestConcurrentSendersSameOrderEverywhere(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		tr := newMemTransport()
		tr.maxDelay = 500 * time.Microsecond
		recs := buildCluster(t, tr, "a", "b", "c")
		group := []string{"a", "b", "c"}

		const senders = 4
		const perSender = 8
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					id := MsgID{Origin: fmt.Sprintf("s%d", s), Seq: uint64(i)}
					if err := Multicast(context.Background(), tr, group, id, nil); err != nil {
						t.Errorf("multicast: %v", err)
						return
					}
				}
			}(s)
		}
		wg.Wait()

		want := recs["a"].snapshot()
		if len(want) != senders*perSender {
			t.Fatalf("node a delivered %d of %d messages", len(want), senders*perSender)
		}
		for _, name := range []string{"b", "c"} {
			got := recs[name].snapshot()
			if len(got) != len(want) {
				t.Fatalf("node %s delivered %d messages, node a %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: node %s order differs at %d:\n a: %v\n %s: %v",
						trial, name, i, want, name, got)
				}
			}
		}
	}
}

// Overlapping groups must still agree on the relative order of messages
// addressed to both.
func TestOverlappingGroups(t *testing.T) {
	tr := newMemTransport()
	tr.maxDelay = 300 * time.Microsecond
	recs := buildCluster(t, tr, "a", "b", "c")
	groupAB := []string{"a", "b"}
	groupBC := []string{"b", "c"}

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			id := MsgID{Origin: "x", Seq: uint64(i)}
			if err := Multicast(context.Background(), tr, groupAB, id, nil); err != nil {
				t.Errorf("multicast ab: %v", err)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			id := MsgID{Origin: "y", Seq: uint64(i)}
			if err := Multicast(context.Background(), tr, groupBC, id, nil); err != nil {
				t.Errorf("multicast bc: %v", err)
			}
		}(i)
	}
	wg.Wait()

	// b sees all 20; a sees x's 10; c sees y's 10; the order of x-messages
	// at a must be a subsequence-consistent projection of b's order.
	bOrder := recs["b"].snapshot()
	if len(bOrder) != 20 {
		t.Fatalf("node b delivered %d messages", len(bOrder))
	}
	aOrder := recs["a"].snapshot()
	var bProjX []MsgID
	for _, id := range bOrder {
		if id.Origin == "x" {
			bProjX = append(bProjX, id)
		}
	}
	if len(aOrder) != len(bProjX) {
		t.Fatalf("a delivered %d, b's x-projection has %d", len(aOrder), len(bProjX))
	}
	for i := range aOrder {
		if aOrder[i] != bProjX[i] {
			t.Fatalf("a and b disagree on x-message order:\n a: %v\n b|x: %v", aOrder, bProjX)
		}
	}
}

func TestProposeIdempotent(t *testing.T) {
	n := NewNode("a", func(MsgID, []byte) bool { return true })
	id := MsgID{Origin: "c", Seq: 1}
	ts1 := n.HandlePropose(id, nil)
	ts2 := n.HandlePropose(id, nil)
	if ts1 != ts2 {
		t.Fatalf("re-propose returned %d, first %d", ts2, ts1)
	}
}

func TestFinalIdempotentAfterDelivery(t *testing.T) {
	var count int
	n := NewNode("a", func(MsgID, []byte) bool { count++; return true })
	id := MsgID{Origin: "c", Seq: 1}
	ts := n.HandlePropose(id, nil)
	n.HandleFinal(id, ts)
	n.HandleFinal(id, ts) // retry
	if count != 1 {
		t.Fatalf("message delivered %d times", count)
	}
	if n.PendingCount() != 0 {
		t.Fatalf("pending count %d", n.PendingCount())
	}
}

func TestHoldbackUntilSmallerMessageFinal(t *testing.T) {
	var order []MsgID
	n := NewNode("a", func(id MsgID, _ []byte) bool { order = append(order, id); return true })
	id1 := MsgID{Origin: "c", Seq: 1}
	id2 := MsgID{Origin: "c", Seq: 2}
	ts1 := n.HandlePropose(id1, nil) // ts 1
	ts2 := n.HandlePropose(id2, nil) // ts 2
	// Finalize the later message first: it must be held back because id1
	// is pending with a smaller proposed timestamp.
	n.HandleFinal(id2, ts2)
	if len(order) != 0 {
		t.Fatalf("delivered %v before earlier message finalized", order)
	}
	n.HandleFinal(id1, ts1)
	if len(order) != 2 || order[0] != id1 || order[1] != id2 {
		t.Fatalf("delivery order %v", order)
	}
}

func TestClockAdvancesToFinal(t *testing.T) {
	n := NewNode("a", func(MsgID, []byte) bool { return true })
	id := MsgID{Origin: "c", Seq: 1}
	n.HandlePropose(id, nil)
	n.HandleFinal(id, 100)
	if got := n.Clock(); got < 100 {
		t.Fatalf("clock %d did not advance to final ts", got)
	}
}

func TestMulticastEmptyGroup(t *testing.T) {
	tr := newMemTransport()
	err := Multicast(context.Background(), tr, nil, MsgID{Origin: "c", Seq: 1}, nil)
	if err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestMulticastProposeFailure(t *testing.T) {
	tr := newMemTransport()
	buildCluster(t, tr, "a", "b")
	tr.failProposeTo = "b"
	err := Multicast(context.Background(), tr, []string{"a", "b"}, MsgID{Origin: "c", Seq: 1}, nil)
	if err == nil {
		t.Fatal("multicast succeeded despite propose failure")
	}
}

func TestMsgIDLess(t *testing.T) {
	a := MsgID{Origin: "a", Seq: 5}
	b := MsgID{Origin: "b", Seq: 1}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("origin ordering broken")
	}
	c := MsgID{Origin: "a", Seq: 6}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("seq ordering broken")
	}
	if a.String() != "a/5" {
		t.Fatalf("String = %q", a.String())
	}
}

// Payloads must arrive intact at every replica.
func TestPayloadIntegrity(t *testing.T) {
	tr := newMemTransport()
	var mu sync.Mutex
	got := map[string][]byte{}
	for _, name := range []string{"a", "b"} {
		name := name
		tr.add(NewNode(name, func(_ MsgID, p []byte) bool {
			mu.Lock()
			got[name] = p
			mu.Unlock()
			return true
		}))
	}
	payload := []byte{1, 2, 3, 4}
	if err := Multicast(context.Background(), tr, []string{"a", "b"}, MsgID{Origin: "c", Seq: 9}, payload); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for name, p := range got {
		if string(p) != string(payload) {
			t.Fatalf("node %s payload %v", name, p)
		}
	}
}

func TestDropUnblocksLaterMessages(t *testing.T) {
	var order []MsgID
	n := NewNode("a", func(id MsgID, _ []byte) bool { order = append(order, id); return true })
	zombie := MsgID{Origin: "dead", Seq: 1}
	live := MsgID{Origin: "live", Seq: 1}
	n.HandlePropose(zombie, nil) // never finalized
	ts := n.HandlePropose(live, nil)
	n.HandleFinal(live, ts)
	if len(order) != 0 {
		t.Fatalf("live message delivered past a pending zombie: %v", order)
	}
	n.Drop(zombie)
	if len(order) != 1 || order[0] != live {
		t.Fatalf("Drop did not unblock delivery: %v", order)
	}
}

func TestDropKeepsFinalMessages(t *testing.T) {
	var order []MsgID
	n := NewNode("a", func(id MsgID, _ []byte) bool { order = append(order, id); return true })
	id := MsgID{Origin: "c", Seq: 1}
	blocker := MsgID{Origin: "b", Seq: 1}
	n.HandlePropose(blocker, nil)
	ts := n.HandlePropose(id, nil)
	n.HandleFinal(id, ts)
	n.Drop(id) // must be a no-op: the message is final
	n.Drop(blocker)
	if len(order) != 1 || order[0] != id {
		t.Fatalf("final message lost by Drop: %v", order)
	}
}

func TestPurgeOriginsFlushesDeadCoordinators(t *testing.T) {
	var order []MsgID
	n := NewNode("a", func(id MsgID, _ []byte) bool { order = append(order, id); return true })
	zombieA := MsgID{Origin: "dead", Seq: 1}
	zombieB := MsgID{Origin: "dead", Seq: 2}
	live := MsgID{Origin: "a", Seq: 1}
	n.HandlePropose(zombieA, nil)
	n.HandlePropose(zombieB, nil)
	ts := n.HandlePropose(live, nil)
	n.HandleFinal(live, ts)
	if len(order) != 0 {
		t.Fatal("delivery proceeded past zombies")
	}
	n.PurgeOrigins(func(origin string) bool { return origin == "a" })
	if len(order) != 1 || order[0] != live {
		t.Fatalf("purge did not unblock: %v", order)
	}
	if n.PendingCount() != 0 {
		t.Fatalf("pending after purge: %d", n.PendingCount())
	}
}

func TestMulticastFailureAborts(t *testing.T) {
	tr := newMemTransport()
	recs := buildCluster(t, tr, "a", "b")
	tr.failProposeTo = "b"
	bad := MsgID{Origin: "c", Seq: 1}
	if err := Multicast(context.Background(), tr, []string{"a", "b"}, bad, nil); err == nil {
		t.Fatal("multicast should fail")
	}
	// The failed message must not block a subsequent healthy multicast.
	tr.failProposeTo = ""
	good := MsgID{Origin: "c", Seq: 2}
	if err := Multicast(context.Background(), tr, []string{"a", "b"}, good, nil); err != nil {
		t.Fatal(err)
	}
	for name, rec := range recs {
		got := rec.snapshot()
		if len(got) != 1 || got[0] != good {
			t.Fatalf("node %s delivered %v, want only the good message", name, got)
		}
	}
}

// The delivery outcome memory is bounded: 100 000 deliveries never leave
// more than two generations remembered, duplicates of the latest
// deliveries are still recognised, and the oldest outcomes are forgotten.
func TestOutcomeMemoryBounded(t *testing.T) {
	delivered := 0
	n := NewNode("a", func(MsgID, []byte) bool { delivered++; return true })
	const total = 100_000
	most := 0
	for seq := uint64(1); seq <= total; seq++ {
		id := MsgID{Origin: "c", Seq: seq}
		n.HandleFinal(id, n.HandlePropose(id, nil))
		most = max(most, len(n.recent.cur)+len(n.recent.old))
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
	if most > 2*outcomeGeneration {
		t.Fatalf("outcome memory peaked at %d entries, bound %d (two generations)", most, 2*outcomeGeneration)
	}
	last := MsgID{Origin: "c", Seq: total}
	n.HandlePropose(last, nil) // a late retry of both frames
	n.HandleFinal(last, 1)
	if delivered != total || n.PendingCount() != 0 {
		t.Fatalf("duplicate of the latest delivery re-queued or re-delivered (%d delivered, %d pending)", delivered, n.PendingCount())
	}
	if !n.WaitDelivered(last, time.Millisecond) {
		t.Fatal("latest delivery's outcome forgotten")
	}
	if _, ok := n.recent.get(MsgID{Origin: "c", Seq: 1}); ok {
		t.Fatal("the first of 100 000 deliveries is still remembered")
	}
}
