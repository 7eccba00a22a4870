package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/ring"
	"crucial/internal/telemetry"
	"crucial/internal/totalorder"
)

// entry is one resident object plus its monitor. The mutex serializes all
// calls on the object (linearizability through mutual exclusion); the
// condition variable implements server-side blocking for synchronization
// objects, mirroring Java monitors (paper Section 5).
type entry struct {
	mu   sync.Mutex
	cond *sync.Cond
	obj  core.Object
	// persist and sync are fixed at creation and read without mu: every
	// copy of one lineage is created from the same invocation or from a
	// snapshot of a copy that was, so a transfer never changes them.
	persist bool
	sync    bool
	init    []any
	// transferring marks a copy this node has handed off and dropped
	// (removeObject); an invocation that looked the entry up before bounces
	// with ErrRebalancing so its client re-routes to the new owner.
	transferring bool
	// dedup is the at-most-once window (see dedup.go), guarded by mu like
	// the object itself.
	dedup dedupState
	// version counts operations applied to this copy (guarded by mu).
	// Replicas of one object apply the same totally-ordered sequence, so
	// equal versions mean equal state; state transfers carry the snapshot's
	// version and a receiver refuses to replace a copy that has applied
	// more — otherwise a snapshot taken before an op but installed after it
	// would silently roll back an acknowledged update.
	version uint64
	// The ref's lane (see awaitTurn), guarded by mu: pos is where the copy
	// stands in the ref's order, first the round that opened pos.Fence's
	// order, recent the replies of the last rounds applied, and turn, when
	// non-nil, is closed the next time pos moves, waking parked rounds.
	pos    position
	first  totalorder.MsgID
	recent [laneMemory]laneRecord
	turn   chan struct{}
}

func newEntry(obj core.Object, persist, syncObj bool, init []any) *entry {
	e := &entry{obj: obj, persist: persist, sync: syncObj, init: init}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// nodeCtl is the core.Ctl handed to object methods. It operates on the
// entry's monitor; the object's lock is held whenever object code runs.
type nodeCtl struct {
	n   *Node
	e   *entry
	ctx context.Context
}

// Wait blocks until cond() holds, re-checking after every Broadcast on the
// same object. It aborts with ErrStopped when the node shuts down.
//
// Cancellation: a waiter must not depend on another Broadcast to notice
// its context died, so the first time Wait actually blocks it installs a
// context watcher that broadcasts the object's monitor on cancellation.
// The watcher acquires the entry lock before broadcasting, which closes
// the check-then-sleep race: a waiter holding the lock either sees
// ctx.Done before sleeping, or is parked in cond.Wait (lock released) and
// receives the wakeup.
//
// When the node is instrumented, time actually spent blocked is recorded
// into the server.monitor_wait histogram and attributed to the active
// server.invoke span (accumulated across multiple waits), so reports can
// separate "the barrier was slow" from "the method was slow". A Wait whose
// condition already holds records nothing.
func (c nodeCtl) Wait(cond func() bool) error {
	var start time.Time
	blocked := false
	if c.n.instrumented {
		defer func() {
			if blocked {
				d := time.Since(start)
				c.n.hMonitorWait.Observe(d)
				telemetry.SpanFromContext(c.ctx).AddTiming(telemetry.TimingMonitor, d)
			}
		}()
	}
	var stopWatch func() bool
	for !cond() {
		if !blocked {
			blocked = true
			if c.n.instrumented {
				start = time.Now()
			}
			if c.ctx.Done() != nil {
				stopWatch = context.AfterFunc(c.ctx, func() {
					c.e.mu.Lock()
					c.e.cond.Broadcast()
					c.e.mu.Unlock()
				})
				defer stopWatch()
			}
		}
		if c.n.closed.Load() {
			return core.ErrStopped
		}
		select {
		case <-c.ctx.Done():
			return c.ctx.Err()
		default:
		}
		c.e.cond.Wait()
	}
	return nil
}

// Broadcast wakes all waiters of the object.
func (c nodeCtl) Broadcast() { c.e.cond.Broadcast() }

// Context returns the invocation context.
func (c nodeCtl) Context() context.Context { return c.ctx }

var _ core.Ctl = nodeCtl{}

// replicaGroup computes the nodes responsible for a reference in the
// installed view: the view's directive table first (per-key placement
// overrides installed by the rebalancer), the consistent-hashing ring for
// everything else. rf is clamped by membership size inside the ring. The
// view is returned too, so that a round fences its messages on the view
// its group came from; before the first view installs the group is empty.
func (n *Node) replicaGroup(ref core.Ref, persist bool) ([]ring.NodeID, membership.View) {
	v, r := n.currentView()
	if r == nil {
		return nil, v
	}
	rf := 1
	if persist {
		rf = n.cfg.RF
	}
	return v.Directives.PlaceRef(r, ref.Type, ref.Key, rf), v
}

// lookupOrCreate returns the entry for ref, materializing the object from
// the registry on first access (using the invocation's Init arguments).
func (n *Node) lookupOrCreate(inv core.Invocation) (*entry, error) {
	n.objMu.Lock()
	defer n.objMu.Unlock()
	if e, ok := n.objects[inv.Ref]; ok {
		return e, nil
	}
	info, err := n.cfg.Registry.Lookup(inv.Ref.Type)
	if err != nil {
		return nil, err
	}
	obj, err := info.New(inv.Init)
	if err != nil {
		return nil, fmt.Errorf("server: create %s: %w", inv.Ref, err)
	}
	persist := inv.Persist && !info.Synchronization
	e := newEntry(obj, persist, info.Synchronization, inv.Init)
	n.addObjectLocked(inv.Ref, e)
	return e, nil
}

// addObjectLocked publishes a new copy of ref and wakes the rounds waiting
// for one (awaitCopy). The caller holds objMu.
func (n *Node) addObjectLocked(ref core.Ref, e *entry) {
	n.objects[ref] = e
	if n.copyAdded != nil {
		close(n.copyAdded)
		n.copyAdded = nil
	}
}

// invokeLocal serves a call on a synchronization object (barrier,
// semaphore, future, latch). Such objects are never replicated (paper,
// fn. 2) and never ordered — a call parks under the monitor until another
// call releases it — so it runs directly on the object's rf=1 owner. An
// object the call left Finished (core.Finisher) is dropped.
func (n *Node) invokeLocal(ctx context.Context, inv core.Invocation) ([]any, error) {
	group, _ := n.replicaGroup(inv.Ref, false)
	if err := n.primacy(inv.Ref, group); err != nil {
		return nil, err
	}
	e, err := n.lookupOrCreate(inv)
	if err != nil {
		return nil, err
	}
	results, err := n.applyOne(ctx, e, inv)
	if f, ok := e.obj.(core.Finisher); ok {
		e.mu.Lock()
		finished := f.Finished()
		e.mu.Unlock()
		if finished {
			n.objMu.Lock()
			if n.objects[inv.Ref] == e {
				delete(n.objects, inv.Ref)
			}
			n.objMu.Unlock()
		}
	}
	return results, err
}

// applyOne runs one invocation outside any round: a synchronization call,
// or a read from a copy proved current. A copy mid-transfer or fenced for a
// migration bounces it — under the monitor, so that a call admitted before
// the fence cannot land behind the migration's final snapshot.
func (n *Node) applyOne(ctx context.Context, e *entry, inv core.Invocation) ([]any, error) {
	n.lockEntry(ctx, e)
	defer e.mu.Unlock()
	if e.transferring || n.migrationFenced(inv.Ref) {
		return nil, core.ErrRebalancing
	}
	invs := [1]core.Invocation{inv}
	var res [1]opResult
	n.applyLocked(ctx, e, invs[:], res[:])
	return res[0].results, res[0].err
}

// lockEntry acquires e's monitor; instrumented nodes attribute the wait to
// the active span.
func (n *Node) lockEntry(ctx context.Context, e *entry) {
	if !n.instrumented {
		e.mu.Lock()
		return
	}
	start := time.Now()
	e.mu.Lock()
	telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingAcquire, time.Since(start))
}

// applyLocked runs invs, in order, on e; the caller holds e.mu. It is the
// single place methods execute, whether they arrive through a round
// (applyOrdered), outside one (applyOne) or from the WAL (replayRecord).
// Instrumented nodes record each method's wall time in server.exec (it
// includes any Ctl.Wait blocking — subtract the span's monitor_wait timing
// for pure compute). Every invocation is individually dedup-checked,
// executed, version-bumped and dedup-recorded.
// Per-invocation bumps (rather than one per round) keep this copy's apply
// version comparable across replicas regardless of how each coordinator
// happened to slice the same operation stream into rounds; a dedup replay
// skips its bump: replaying is not applying.
func (n *Node) applyLocked(ctx context.Context, e *entry, invs []core.Invocation, res []opResult) (replays int) {
	for i, inv := range invs {
		results, err, replayed := n.dedupLookupLocked(ctx, e, inv)
		if replayed {
			replays++
		} else {
			var execStart time.Time
			if n.instrumented {
				execStart = time.Now()
			}
			results, err = e.obj.Call(nodeCtl{n: n, e: e, ctx: ctx}, inv.Method, inv.Args)
			if !inv.ReadOnly {
				// Reads leave the apply version alone: the version counts
				// state changes, and — since primary-local reads bypass the
				// SMR round — bumping it per read would make
				// replica versions diverge and break the "equal versions,
				// equal state" invariant that state transfer relies on.
				e.version++
			}
			if n.instrumented {
				n.hExec.Observe(time.Since(execStart))
			}
			n.dedupRecordLocked(e, inv, results, err)
		}
		if res != nil {
			res[i] = opResult{results: results, err: err}
		}
	}
	return replays
}

// lookupExisting returns the resident entry for ref without materializing
// one. SMR delivery uses it to distinguish "apply to my copy" from "I have
// no base copy for this object" (see applyOrdered).
func (n *Node) lookupExisting(ref core.Ref) (*entry, bool) {
	n.objMu.Lock()
	defer n.objMu.Unlock()
	e, ok := n.objects[ref]
	return e, ok
}

// residents snapshots the object table, for walks that take entry monitors
// or call peers and so must not hold objMu.
func (n *Node) residents() ([]core.Ref, []*entry) {
	n.objMu.Lock()
	defer n.objMu.Unlock()
	refs := make([]core.Ref, 0, len(n.objects))
	entries := make([]*entry, 0, len(n.objects))
	for ref, e := range n.objects {
		refs = append(refs, ref)
		entries = append(entries, e)
	}
	return refs, entries
}

// dedupLookupLocked answers a stamped retry whose original was already
// applied, replaying the recorded response instead of re-executing. The
// caller holds e.mu. Synchronization objects are excluded: their calls
// must actually block.
func (n *Node) dedupLookupLocked(ctx context.Context, e *entry, inv core.Invocation) ([]any, error, bool) {
	if !inv.Stamped() || e.sync || inv.ReadOnly {
		// Read-only calls skip dedup entirely: re-executing a read is
		// harmless (its retry window extends to the later execution), and
		// recording reads would evict write records from the bounded
		// window — the records that actually protect correctness.
		return nil, nil, false
	}
	rec, ok := e.dedup.lookup(inv.ClientID, inv.Seq)
	if !ok {
		return nil, nil, false
	}
	n.cDedupHits.Inc()
	telemetry.SpanFromContext(ctx).SetAttr(telemetry.AttrChaos, "replayed")
	return rec.Results, core.DecodeError(rec.Err), true
}

// dedupRecordLocked remembers an applied stamped invocation's outcome.
// Every outcome the method itself produced is recorded — including its
// errors, which a replayed retry must reproduce; routing-layer bounces
// (ErrRebalancing, ErrWrongNode) never reach this point because apply
// returns before calling the object.
func (n *Node) dedupRecordLocked(e *entry, inv core.Invocation, results []any, err error) {
	if !inv.Stamped() || e.sync || inv.ReadOnly {
		return
	}
	if evicted := e.dedup.record(inv.ClientID, inv.Seq, results, core.EncodeError(err)); evicted > 0 {
		n.cDedupEvictions.Add(uint64(evicted))
	}
}

// DebugObjectCount reports resident objects (tests and introspection).
func (n *Node) DebugObjectCount() int {
	n.objMu.Lock()
	defer n.objMu.Unlock()
	return len(n.objects)
}

// DebugHasObject reports residency of a reference (tests).
func (n *Node) DebugHasObject(ref core.Ref) bool {
	_, ok := n.lookupExisting(ref)
	return ok
}

// DebugSnapshot returns the state body of ref's local copy (tests).
func (n *Node) DebugSnapshot(ref core.Ref) ([]byte, error) {
	e, ok := n.lookupExisting(ref)
	if !ok {
		return nil, fmt.Errorf("server: %s not resident", ref)
	}
	msg, err := n.snapshotEntry(ref, e)
	return msg.Snapshot, err
}

// DebugVersion reports the apply version of ref's local copy (tests).
func (n *Node) DebugVersion(ref core.Ref) (uint64, bool) {
	e, ok := n.lookupExisting(ref)
	if !ok {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version, true
}
