package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/ring"
	"crucial/internal/telemetry"
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
	return v.Directives.Place(r, ref.String(), rf), v
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
	n.objects[inv.Ref] = e
	return e, nil
}

// invokeLocal executes an invocation on this node directly (the rf=1
// path). Ownership is validated against the current ring so stale clients
// are redirected.
func (n *Node) invokeLocal(ctx context.Context, inv core.Invocation) ([]any, error) {
	group, _ := n.replicaGroup(inv.Ref, false)
	if err := n.primacy(inv.Ref, group); err != nil {
		return nil, err
	}
	if n.isStale(inv.Ref) {
		// The copy is marked behind the committed history (see markStale).
		// Resolve it on the spot with a poll over the wider rf-sized set —
		// the likeliest holders of a better leftover copy. With rf=1 this
		// node is the whole set and the poll is trivially definitive: no
		// better copy can exist anywhere, so the mark clears and whatever
		// this node holds is the lineage's best surviving state.
		if pollGroup, _ := n.replicaGroup(inv.Ref, true); len(pollGroup) > 0 {
			n.pullObject(ctx, inv.Ref, pollGroup)
		}
		if n.isStale(inv.Ref) {
			return nil, fmt.Errorf("%w: %s stale on %s", core.ErrRebalancing, inv.Ref, n.cfg.ID)
		}
	}
	e, err := n.lookupOrCreate(inv)
	if err != nil {
		return nil, err
	}
	// Ownership again, now that the entry is in hand: a placement flip since
	// the check above hands the copy off and removes it here, and the lookup
	// then created the object fresh — a write acked on it would be lost.
	group, _ = n.replicaGroup(inv.Ref, false)
	if err := n.primacy(inv.Ref, group); err != nil {
		return nil, err
	}
	if n.leases != nil && !inv.ReadOnly && !e.sync {
		// Mutations must fence outstanding leases before executing; reads
		// and synchronization objects (never leased) skip the hook.
		done, err := n.prepareWrite(ctx, inv.Ref)
		if err != nil {
			return nil, err
		}
		defer done()
	}
	results, version, err := n.applyOne(ctx, e, inv)
	if e.persist && !inv.ReadOnly && !errors.Is(err, core.ErrRebalancing) &&
		n.dur != nil && n.dur.log != nil {
		// The rf=1 write path has no ordering round, so the WAL record is
		// synthesized here: a genesis-flagged round of one (replay may have
		// to re-create the object — with rf=1 no replica held another
		// copy) under a locally sequenced id. The ack waits on the flush
		// exactly like the replicated path's.
		if payload, encErr := encodeRoundPayload(true, []core.Invocation{inv}); encErr == nil {
			c := n.appendWAL(string(n.cfg.ID), n.seq.Add(1), version, payload)
			if werr := waitDurable(ctx, c); werr != nil {
				return nil, werr
			}
		}
	}
	return results, err
}

// applyOne is apply for a single invocation outside any round (the rf=1
// path and lease-covered reads); a copy mid-transfer is its error.
func (n *Node) applyOne(ctx context.Context, e *entry, inv core.Invocation) ([]any, uint64, error) {
	invs := [1]core.Invocation{inv}
	var res [1]opResult
	version, _, err := n.apply(ctx, e, invs[:], res[:], true)
	if err != nil {
		return nil, version, err
	}
	return res[0].results, version, res[0].err
}

// apply runs invs, in order, under one acquisition of the object monitor:
// the single place methods execute, whether they arrive through an
// ordering round, the rf=1 path or a lease-covered read. Instrumented
// nodes attribute monitor acquisition time to the active span and record
// each method's wall time (which includes any Ctl.Wait blocking — subtract
// the span's monitor_wait timing for pure compute) in server.exec.
//
// The returned version is the copy's apply version right after the last
// invocation and replays counts the invocations answered from the
// at-most-once window, both read inside the same critical section as the
// executions — the SMR layer compares them across replicas to detect a
// forked copy (see checkRound), and a version read after the monitor is
// released could already include a later delivery. The only error is
// ErrRebalancing (copy handed off): nothing has executed at that point,
// so skipping a whole round is sound; method outcomes land in res (when
// the caller wants them: nil discards), index-aligned with invs.
//
// unordered marks a call outside any round (applyOne). It also bounces
// while the ref is migration-fenced here — checked under the monitor, so
// that a call admitted before the fence cannot land behind the migration's
// final snapshot; in-flight rounds are waited out by pushObject instead.
func (n *Node) apply(ctx context.Context, e *entry, invs []core.Invocation, res []opResult, unordered bool) (version uint64, replays int, err error) {
	var acquire time.Time
	if n.instrumented {
		acquire = time.Now()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n.instrumented {
		telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingAcquire, time.Since(acquire))
	}
	if e.transferring || (unordered && n.migrationFenced(invs[0].Ref)) {
		return e.version, 0, core.ErrRebalancing
	}
	replays = n.applyLocked(ctx, e, invs, res)
	return e.version, replays, nil
}

// applyLocked is apply's loop, for callers that already hold e.mu (WAL
// replay gates on the version under the same lock). Every invocation is
// individually dedup-checked, executed, version-bumped and dedup-recorded.
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
				// state changes, and — since primary-local and follower reads
				// bypass the SMR round — bumping it per read would make
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
