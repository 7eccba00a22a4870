package server

import (
	"context"
	"fmt"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/ring"
	"crucial/internal/telemetry"
)

// nodeCtl is the core.Ctl handed to object methods. It operates on the
// entry's monitor; the object's lock is held whenever object code runs.
// Each record has one (entry.ctl), handed out by pointer, so a call boxes
// nothing: applyLocked sets ctx to the running call's context under the
// monitor, and a call parked in Wait puts its own back when it wakes.
type nodeCtl struct {
	n   *Node
	e   *entry
	ctx context.Context
}

// Wait blocks until cond() holds, re-checking after every Broadcast on the
// same object. It aborts with ErrStopped when the node shuts down. A
// waiter must not depend on another Broadcast to notice its context died,
// so the first time Wait blocks it installs a watcher that broadcasts the
// monitor on cancellation (the record's one wakeAll closure); the watcher
// takes the monitor first, so a waiter either sees ctx.Done before
// sleeping or is parked and wakes, and Wait stops it on its way out.
// Instrumented nodes record the time actually blocked in
// server.monitor_wait and on the active server.invoke span, so reports
// separate "the barrier was slow" from "the method was slow". Other calls
// run on the object while this one sleeps and set c.ctx to theirs; Wait
// keeps its own and puts it back each time it wakes, monitor held.
func (c *nodeCtl) Wait(cond func() bool) (err error) {
	ctx := c.ctx
	var start time.Time
	var stopWatch func() bool
	blocked := false
	for !cond() {
		if !blocked {
			blocked = true
			if c.n.instrumented {
				start = time.Now()
			}
			if ctx.Done() != nil {
				stopWatch = context.AfterFunc(ctx, c.e.wakeAll)
			}
		}
		if c.n.closed.Load() {
			err = core.ErrStopped
			break
		}
		if err = ctx.Err(); err != nil {
			break
		}
		c.e.cond.Wait()
		c.ctx = ctx
	}
	if stopWatch != nil {
		stopWatch()
	}
	if blocked && c.n.instrumented {
		d := time.Since(start)
		c.n.hMonitorWait.Observe(d)
		telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingMonitor, d)
	}
	return err
}

// Broadcast wakes all waiters of the object. It touches only the record's
// condition variable, so a timer may call it after the call returned.
func (c *nodeCtl) Broadcast() { c.e.cond.Broadcast() }

// Context returns the running invocation's context.
func (c *nodeCtl) Context() context.Context { return c.ctx }

var _ core.Ctl = (*nodeCtl)(nil)

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
	e := n.pin(inv.Ref, true)
	defer n.release(e)
	obj, err := n.createCopy(e, inv)
	if err != nil {
		return nil, err
	}
	results, err := n.applyOne(ctx, e, inv)
	if _, ok := obj.(core.Finisher); ok {
		e.dropCopy(true)
	}
	return results, err
}

// applyOne runs one invocation outside any round: a synchronization call,
// or a read from a copy proved current. A copy handed off or fenced for a
// migration bounces it — under the monitor, so that a call admitted before
// the fence cannot land behind the migration's final snapshot.
func (n *Node) applyOne(ctx context.Context, e *entry, inv core.Invocation) ([]any, error) {
	n.lockEntry(ctx, e)
	defer e.mu.Unlock()
	if e.obj == nil || e.fencedLocked() {
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
// Instrumented nodes record each method's wall time, Ctl.Wait blocking
// included, in server.exec. Every invocation is dedup-checked, executed
// and dedup-recorded on its own.
//
// A caller that discards the outcomes (res nil: a member, WAL replay)
// does not run a read at all — one that the wire flag and this node's own
// registry both call read-only. A read changes no state and records no
// dedup entry, so skipping it leaves the copy as running it would.
func (n *Node) applyLocked(ctx context.Context, e *entry, invs []core.Invocation, res []opResult) {
	for i, inv := range invs {
		if res == nil && inv.ReadOnly && core.IsReadOnlyMethod(inv.Ref.Type, inv.Method) {
			continue
		}
		results, err, replayed := n.dedupLookupLocked(ctx, e, inv)
		if !replayed {
			var execStart time.Time
			if n.instrumented {
				execStart = time.Now()
			}
			e.ctl.ctx = ctx
			results, err = e.obj.Call(&e.ctl, inv.Method, inv.Args)
			e.ctl.ctx = nil // the record keeps no call's context
			if n.instrumented {
				n.hExec.Observe(time.Since(execStart))
			}
			n.dedupRecordLocked(e, inv, results, err)
		}
		if res != nil {
			res[i] = opResult{results: results, err: err}
		}
	}
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
func (n *Node) DebugObjectCount() int { return len(n.residents()) }

// DebugHasObject reports residency of a reference (tests).
func (n *Node) DebugHasObject(ref core.Ref) bool {
	_, _, ok := n.DebugPosition(ref)
	return ok
}

// DebugSnapshot returns the state body of ref's local copy (tests).
func (n *Node) DebugSnapshot(ref core.Ref) ([]byte, error) {
	e := n.pin(ref, false)
	if e == nil {
		return nil, fmt.Errorf("server: %s not resident", ref)
	}
	defer n.release(e)
	msg, err := n.snapshotEntry(e)
	return msg.Snapshot, err
}

// DebugPosition reports the position of ref's local copy in its order —
// the view epoch and the seq of the last round it applied — and whether
// the node holds one (tests).
func (n *Node) DebugPosition(ref core.Ref) (epoch, seq uint64, ok bool) {
	e := n.pin(ref, false)
	if e == nil {
		return 0, 0, false
	}
	defer n.release(e)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pos.Epoch, e.pos.Seq, e.obj != nil
}
