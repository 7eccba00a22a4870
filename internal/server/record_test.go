package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/netsim"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/rpc"
)

// lookupExisting returns ref's record at n and whether it holds a copy.
// The record is not kept pinned.
func (n *Node) lookupExisting(ref core.Ref) (*entry, bool) {
	e := n.pin(ref, false)
	if e == nil {
		return nil, false
	}
	defer n.release(e)
	resident, _, _ := e.kind()
	return e, resident
}

// pinned returns ref's record at n, created when absent and pinned until
// the test ends.
func pinned(t *testing.T, n *Node, ref core.Ref) *entry {
	e := n.pin(ref, true)
	t.Cleanup(func() { n.release(e) })
	return e
}

// busyAt reports whether n has admitted rounds for ref.
func busyAt(n *Node, ref core.Ref) bool {
	e := n.pin(ref, false)
	if e == nil {
		return false
	}
	defer n.release(e)
	return e.busy()
}

// eventually polls cond for up to ten seconds and fails the test with
// what's account if it never holds.
func eventually(t *testing.T, what func() string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
	}
}

// says is eventually's account for a fixed message.
func says(msg string) func() string { return func() string { return msg } }

// absentRecords describes n's records without a copy.
func absentRecords(n *Node) string {
	n.recMu.RLock()
	defer n.recMu.RUnlock()
	out := ""
	for _, byKey := range n.records {
		for _, e := range byKey {
			e.rmu.Lock()
			if e.obj == nil {
				out += fmt.Sprintf("%s: pins %d, holders %d, fenced %v, pulling %v, admitted %d\n",
					e.ref, e.pins.Load(), len(e.holders), !e.fenceUntil.IsZero(), e.pull != nil, e.count)
			}
			e.rmu.Unlock()
		}
	}
	return out
}

// recordState names the lifecycle state of ref's record at n: gone (no
// record), absent, pulling, serving or fenced. A handed-off record that
// something still holds reads absent.
func recordState(n *Node, ref core.Ref) string {
	n.recMu.RLock()
	e := n.records[ref.Type][ref.Key]
	n.recMu.RUnlock()
	if e == nil {
		return "gone"
	}
	e.rmu.Lock()
	defer e.rmu.Unlock()
	switch {
	case e.obj == nil && e.pull != nil:
		return "pulling"
	case e.obj == nil:
		return "absent"
	case e.fencedLocked():
		return "fenced"
	}
	return "serving"
}

// lifecycleFixture boots n1 and n2 at RF 2 with leases on and a replica
// hop long enough to watch a pull in flight, and returns them with a
// persistent ref n1 leads and the address of a lease holder that answers
// every invalidation.
func lifecycleFixture(t *testing.T) (n1, n2 *Node, dir *membership.Directory, ref core.Ref, holder string) {
	t.Helper()
	net := rpc.NewMemNetwork()
	dir = membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.RF, cfg.LeaseTTL = 2, 50*time.Millisecond
	cfg.Profile = &netsim.Profile{Scale: 1, DSOReplica: netsim.Latency{Base: 20 * time.Millisecond}}
	n1 = startNode(t, cfg)
	cfg.ID, cfg.Addr = "n2", "n2"
	n2 = startNode(t, cfg)
	holder = "holder"
	l, err := net.Listen(holder)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(func(context.Context, uint8, []byte) ([]byte, error) { return nil, nil })
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return n1, n2, dir, refLedBy(t, n1, objects.TypeAtomicLong), holder
}

// Every transition of a record's lifecycle, in one table: absent (a lease
// holder or an admitted round without a copy), pulling, serving, fenced,
// handed off, and gone from the table once nothing holds it.
func TestRecordLifecycle(t *testing.T) {
	n1, n2, dir, ref, holder := lifecycleFixture(t)
	ctx := context.Background()
	inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}
	parked := core.Ref{Type: objects.TypeAtomicLong, Key: "parked"}
	future := core.Ref{Type: objects.TypeFuture, Key: "spent"}
	for i := 0; ; i++ {
		if group, _ := n1.replicaGroup(future, false); group[0] == n1.cfg.ID {
			break
		}
		future.Key = "spent-" + strconv.Itoa(i)
	}
	with := func(n *Node, ref core.Ref, do func(*entry)) {
		e := n.pin(ref, false)
		defer n.release(e)
		do(e)
	}
	mustInvoke := func(inv core.Invocation) {
		t.Helper()
		if _, err := n1.invoke(ctx, inv); err != nil {
			t.Fatal(err)
		}
	}
	mustInvokeLocal := func(inv core.Invocation) {
		t.Helper()
		if _, err := n1.invokeLocal(ctx, inv); err != nil {
			t.Fatal(err)
		}
	}
	var pulled, parkedDone chan error
	steps := []struct {
		name string
		do   func()
		at   *Node
		ref  core.Ref
		want string
	}{
		{"no call, no record", func() {}, n1, ref, "gone"},
		{"a pull that finds no copy anywhere leaves no record", func() { n1.selfHeal(ref) }, n1, ref, "gone"},
		{"the genesis round", func() { mustInvoke(inc) }, n1, ref, "serving"},
		{"a migration fence", func() {
			with(n1, ref, func(e *entry) { e.setFence(time.Now().Add(migrationFenceTTL)) })
			if _, err := n1.invoke(ctx, inc); !errors.Is(err, core.ErrRebalancing) {
				t.Fatalf("write on a fenced copy: err = %v, want ErrRebalancing", err)
			}
		}, n1, ref, "fenced"},
		{"the fence lifted", func() { with(n1, ref, func(e *entry) { e.setFence(time.Time{}) }) }, n1, ref, "serving"},
		{"a hand-off", func() { with(n1, ref, n1.handOff) }, n1, ref, "gone"},
		{"a pull in flight", func() {
			pulled = make(chan error, 1)
			go func() { n1.selfHeal(ref); pulled <- nil }()
			eventually(t, says("no pull seen in flight"), func() bool { return recordState(n1, ref) == "pulling" })
			n1.selfHeal(ref) // one pull at a time: this one returns at once
		}, n1, ref, "pulling"},
		{"the pull done", func() { <-pulled }, n1, ref, "serving"},
		{"a write opens the pulled copy", func() { mustInvoke(inc) }, n1, ref, "serving"},
		{"a lease holder outlives the copy", func() {
			if resp := n1.leases.grant(LeaseRequest{Ref: ref, Persist: true, HolderAddr: holder}); !resp.Granted {
				t.Fatalf("grant refused: %s", resp.Reason)
			}
			with(n1, ref, n1.handOff)
		}, n1, ref, "absent"},
		{"its revocation", func() { with(n1, ref, n1.leases.revokeAsync) }, n1, ref, "gone"},
		{"an ACCEPT ahead of its genesis round", func() {
			parkedDone = make(chan error, 1)
			body := acceptBody(t, dir, "n1", 2, false, core.Invocation{Ref: parked, Method: "IncrementAndGet", Persist: true})
			go func() { _, err := n2.handleAccept(ctx, body); parkedDone <- err }()
			eventually(t, says("the early ACCEPT was never admitted"), func() bool { return busyAt(n2, parked) })
		}, n2, parked, "absent"},
		{"the genesis round arrives", func() {
			body := acceptBody(t, dir, "n1", 1, true, core.Invocation{Ref: parked, Method: "IncrementAndGet", Persist: true})
			if _, err := n2.handleAccept(ctx, body); err != nil {
				t.Fatal(err)
			}
			if err := <-parkedDone; err != nil {
				t.Fatalf("the parked round: %v", err)
			}
		}, n2, parked, "serving"},
		{"a future set", func() { mustInvokeLocal(core.Invocation{Ref: future, Method: "Set", Args: []any{int64(1)}}) }, n1, future, "serving"},
		{"the future spent", func() { mustInvokeLocal(core.Invocation{Ref: future, Method: "Take"}) }, n1, future, "gone"},
	}
	for _, st := range steps {
		st.do()
		if got := recordState(st.at, st.ref); got != st.want {
			t.Fatalf("%s: %s's record at %s is %s, want %s", st.name, st.ref, st.at.cfg.ID, got, st.want)
		}
	}
}

// The record table stays flat: after a genesis write, an ACCEPT admitted
// before its copy exists, a pull, a pull of a ref no node holds, a live
// migration whose fence the flip lifts, a spent future, a lease grant that
// a write revokes, and a Join and a Leave handing copies over (each
// re-opening the refs it moved), every quiescent node holds exactly one
// record per copy and no lease holder. No absent record outlives its pull,
// waiter or fence.
func TestTableStaysFlat(t *testing.T) {
	n1, n2, dir, ref, holder := lifecycleFixture(t)
	ctx := context.Background()
	nodes := map[ring.NodeID]*Node{"n1": n1, "n2": n2}
	write := func(ref core.Ref) {
		t.Helper()
		group, _ := n1.replicaGroup(ref, true)
		if _, err := nodes[group[0]].invoke(ctx, core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}); err != nil {
			t.Fatalf("write %s at %s: %v", ref, group[0], err)
		}
	}
	flat := func(when string) {
		t.Helper()
		for _, n := range nodes {
			eventually(t, func() string {
				return fmt.Sprintf("%s, %s: %+v, want one record per copy and no holder\n%s", when, n.cfg.ID, n.DebugTableSizes(), absentRecords(n))
			}, func() bool { s := n.DebugTableSizes(); return s.Records == s.Resident && s.LeaseHolders == 0 })
		}
	}
	refs := []core.Ref{ref}
	for i := 0; len(refs) < 16; i++ {
		refs = append(refs, core.Ref{Type: objects.TypeAtomicLong, Key: "flat-" + strconv.Itoa(i)})
	}
	for _, r := range refs {
		write(r) // genesis
	}

	// An ACCEPT that overtakes the genesis round creating its copy.
	parked := core.Ref{Type: objects.TypeAtomicLong, Key: "flat-parked"}
	inc := core.Invocation{Ref: parked, Method: "IncrementAndGet", Persist: true}
	done := make(chan error, 1)
	go func() { _, err := n2.handleAccept(ctx, acceptBody(t, dir, "n9", 2, false, inc)); done <- err }()
	eventually(t, says("the early ACCEPT was never admitted"), func() bool { return busyAt(n2, parked) })
	if _, err := n2.handleAccept(ctx, acceptBody(t, dir, "n9", 1, true, inc)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// A copy handed off by hand and pulled back, and a pull of a ref no node
	// holds, at its primary and at its member.
	e := n1.pin(ref, false)
	n1.handOff(e)
	n1.release(e)
	n1.selfHeal(ref)
	for _, lead := range []*Node{n1, n2} {
		ghost := core.Ref{Type: objects.TypeAtomicLong, Key: "flat-ghost"}
		for i := 0; ; i++ {
			if group, _ := n1.replicaGroup(ghost, true); group[0] == lead.cfg.ID {
				break
			}
			ghost.Key = "flat-ghost-" + strconv.Itoa(i)
		}
		n1.selfHeal(ghost)
	}

	// A spent future.
	future := core.Ref{Type: objects.TypeFuture, Key: "flat-future"}
	owner, _ := n1.replicaGroup(future, false)
	for _, m := range []string{"Set", "Take"} {
		if _, err := nodes[owner[0]].invokeLocal(ctx, core.Invocation{Ref: future, Method: m, Args: []any{int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}

	// A lease grant on the copy a write opened, revoked by the next write.
	write(ref)
	if resp := n1.leases.grant(LeaseRequest{Ref: ref, Persist: true, HolderAddr: holder}); !resp.Granted {
		t.Fatalf("grant refused: %s", resp.Reason)
	}
	write(ref)

	// A live migration to n2; the flip lifts the fence on n1.
	if err := n1.MigrateObject(ctx, ref, []ring.NodeID{"n2", "n1"}, false); err != nil {
		t.Fatal(err)
	}
	write(ref)
	flat("after a pull, a migration and a revocation")

	// A Join and a Leave: a third node takes its share and hands it back.
	cfg := n1.cfg
	cfg.ID, cfg.Addr = "n3", "n3"
	n3 := startNode(t, cfg)
	nodes["n3"] = n3
	for _, r := range refs {
		write(r)
	}
	flat("after a Join")
	if err := n3.Close(); err != nil {
		t.Fatal(err)
	}
	delete(nodes, "n3")
	for _, r := range refs {
		write(r)
	}
	flat("after a Leave")
	for _, n := range nodes {
		if s := n.DebugTableSizes(); s.Resident < len(refs) {
			t.Fatalf("%s holds %d copies of the %d replicated refs", n.cfg.ID, s.Resident, len(refs))
		}
	}
}
