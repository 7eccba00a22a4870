package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/core"
)

// One record per ref (DESIGN.md §5c, "The record", has the lifecycle as
// a table). A ref's copy, or none, and everything around it live in one
// entry in one table (Node.records). The copy moves absent → pulling →
// serving ⇄ fenced → handed off through holdCopy, claimPull, setFence
// and dropCopy. Locks go table (Node.recMu), record (rmu), monitor (mu).
// Callers pin the records they use (pin … release), and a record leaves
// the table in dropIfIdle alone. The table is keyed by type, then key, so
// that the type and key bytes a frame carries find their record without
// building a string (knownRef).

// entry is one ref's record at this node; its monitor (mu, cond) is the
// object's, as in the paper: it serializes the calls on the copy, and the
// condition variable gives synchronization objects server-side blocking.
type entry struct {
	ref  core.Ref
	pins atomic.Int32 // callers between pin and release

	// rmu guards the record's state. obj and fenceUntil are written under
	// rmu and mu both, and read under either.
	rmu        sync.Mutex
	obj        core.Object // the copy; nil while absent, pulling or handed off
	fenceUntil time.Time   // a live migration's fence deadline (migrate.go)
	// persist and sync come with the copy and are the same for every copy
	// of one lineage; read under either lock.
	persist bool
	sync    bool
	// pull is closed when the running open or selfHeal pull ends; nil
	// while none runs.
	pull chan struct{}
	// opened is the view epoch in which this node, as the ref's primary,
	// last made its copy the group's highest (open); 0: never.
	opened uint64
	wake   chan struct{} // closed when a copy arrives (awaitCopy)
	// The primary's write lane (lane.go): rounds in flight from this node,
	// at most pipelineDepth, and the writes waiting for a slot.
	inflight int
	queued   []*laneWrite
	// Admitted rounds (admit): count of them, all from origin.
	origin string
	count  int
	// Leases (lease.go): writing counts the mutations that block grants,
	// holders maps each grant's holder to its server-side expiry.
	writing int
	holders map[string]time.Time

	mu   sync.Mutex
	cond sync.Cond
	ctl  nodeCtl // the Ctl the copy's calls get (applyLocked), under mu
	// wakeAll broadcasts cond under mu: the one closure every Ctl.Wait
	// that blocks arms its cancellation watcher with.
	wakeAll func()
	init    []any
	// dedup is the at-most-once window (see dedup.go).
	dedup dedupState
	// The ref's order at this copy (see awaitTurn): pos is where the copy
	// stands, recent the last rounds applied, and turn, when non-nil, is
	// closed the next time pos moves, waking parked rounds.
	pos    position
	recent [laneMemory]laneRecord
	turn   chan struct{}
}

// pin returns ref's record, pinned until release: with create, an absent
// one is made when there is none; without, nil.
func (n *Node) pin(ref core.Ref, create bool) *entry {
	n.recMu.RLock()
	e := n.records[ref.Type][ref.Key]
	if e != nil || !create {
		if e != nil {
			e.pins.Add(1)
		}
		n.recMu.RUnlock()
		return e
	}
	n.recMu.RUnlock()
	n.recMu.Lock()
	if e = n.records[ref.Type][ref.Key]; e == nil {
		e = &entry{ref: ref}
		e.cond.L = &e.mu
		e.ctl = nodeCtl{n: n, e: e}
		e.wakeAll = func() {
			e.mu.Lock()
			e.cond.Broadcast()
			e.mu.Unlock()
		}
		byKey := n.records[ref.Type]
		if byKey == nil {
			byKey = make(map[string]*entry)
			n.records[ref.Type] = byKey
		}
		byKey[ref.Key] = e
	}
	e.pins.Add(1)
	n.recMu.Unlock()
	return e
}

// knownRef returns the ref of this node's record for type typ and the key
// bytes a frame carries, or the zero Ref when it has none. The lookup
// builds no string (m[string(b)] does not copy b), and the ref it returns
// shares the record's strings, so a frame on a ref this node holds
// decodes without copying its key. The key is compared by its bytes once
// its length prefix is read, so every encoding of one ref finds one
// record.
func (n *Node) knownRef(typ string, key []byte) core.Ref {
	n.recMu.RLock()
	e := n.records[typ][string(key)]
	n.recMu.RUnlock()
	if e == nil {
		return core.Ref{}
	}
	return e.ref
}

// release unpins e, which leaves the table if nothing else holds it.
func (n *Node) release(e *entry) {
	if e.pins.Add(-1) == 0 {
		n.dropIfIdle(e)
	}
}

// dropIfIdle is the one way out of the table: e leaves once it is idle,
// that is unpinned, without a copy, a lease holder or a migration fence.
// A round, a lane slot, a queued write, a lease block or a pull is held by
// a caller that pins the record.
func (n *Node) dropIfIdle(e *entry) {
	idle := func() bool {
		return e.pins.Load() == 0 && e.obj == nil && len(e.holders) == 0 && e.fenceUntil.IsZero()
	}
	e.rmu.Lock()
	ok := idle()
	e.rmu.Unlock()
	if !ok {
		return
	}
	n.recMu.Lock()
	e.rmu.Lock()
	if byKey := n.records[e.ref.Type]; idle() && byKey[e.ref.Key] == e {
		delete(byKey, e.ref.Key)
		if len(byKey) == 0 {
			delete(n.records, e.ref.Type)
		}
	}
	e.rmu.Unlock()
	n.recMu.Unlock()
}

// recordsWhere lists the records keep, run under each one's record lock,
// picks: a snapshot for walks that take monitors or call peers and so must
// not hold the table lock.
func (n *Node) recordsWhere(keep func(*entry) bool) []*entry {
	n.recMu.RLock()
	defer n.recMu.RUnlock()
	var out []*entry
	for _, byKey := range n.records {
		for _, e := range byKey {
			e.rmu.Lock()
			if keep(e) {
				out = append(out, e)
			}
			e.rmu.Unlock()
		}
	}
	return out
}

// residents lists the records holding a copy.
func (n *Node) residents() []*entry {
	return n.recordsWhere(func(e *entry) bool { return e.obj != nil })
}

// kind reports whether e holds a copy, and the copy's persist and sync.
func (e *entry) kind() (resident, persist, syncObj bool) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	resident = e.obj != nil
	return resident, resident && e.persist, resident && e.sync
}

// holdCopy gives e, which has none, a copy at position at, and wakes the
// rounds waiting for one (e.rmu held): absent, pulling or handed off →
// serving.
func (e *entry) holdCopy(obj core.Object, persist, syncObj bool, init []any, dedup dedupState, at position) {
	e.mu.Lock()
	e.obj, e.persist, e.sync, e.init, e.dedup = obj, persist, syncObj, init, dedup
	e.recent = [laneMemory]laneRecord{}
	e.setPos(at)
	e.mu.Unlock()
	if e.wake != nil {
		close(e.wake)
		e.wake = nil
	}
}

// createCopy gives e a fresh copy from inv's Init arguments unless it
// holds one (a genesis round, a synchronization object's first call, WAL
// replay), and returns the copy.
func (n *Node) createCopy(e *entry, inv core.Invocation) (core.Object, error) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	if e.obj != nil {
		return e.obj, nil
	}
	info, err := n.cfg.Registry.Lookup(inv.Ref.Type)
	if err != nil {
		return nil, err
	}
	// The one place an Init list is decoded (core.DecodeInvocationOn).
	init, err := inv.InitValues()
	if err != nil {
		return nil, err
	}
	obj, err := info.New(init)
	if err != nil {
		return nil, fmt.Errorf("server: create %s: %w", inv.Ref, err)
	}
	e.holdCopy(obj, inv.Persist && !info.Synchronization, info.Synchronization, init, dedupState{}, position{})
	return obj, nil
}

// newCopy builds the copy a transferMsg carries, for a transfer and for a
// checkpoint's restore alike.
func (n *Node) newCopy(msg transferMsg) (core.Object, error) {
	info, err := n.cfg.Registry.Lookup(msg.Ref.Type)
	if err != nil {
		return nil, err
	}
	obj, err := info.New(msg.Init)
	if err != nil {
		return nil, fmt.Errorf("server: create %s: %w", msg.Ref, err)
	}
	snap, ok := obj.(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("server: type %s is not snapshotable", msg.Ref.Type)
	}
	if err := snap.Restore(msg.Snapshot); err != nil {
		return nil, fmt.Errorf("server: restore %s: %w", msg.Ref, err)
	}
	return obj, nil
}

// dropCopy takes e's copy away — serving or fenced → handed off — or,
// with spentOnly, only a spent synchronization object (core.Finisher).
// Whoever still holds the record bounces with ErrRebalancing (applyOne,
// applyOrdered), and waiters wake. It reports whether the copy went.
func (e *entry) dropCopy(spentOnly bool) bool {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	if e.obj == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if f, ok := e.obj.(core.Finisher); spentOnly && !(ok && f.Finished()) {
		return false
	}
	e.obj, e.dedup = nil, dedupState{}
	e.cond.Broadcast()
	return true
}

// awaitCopy holds a member's round for a ref this node has no copy of
// until one arrives (the genesis round it overtook, or a transfer), for up
// to waitTimeout, and reports whether e holds a copy. It gives up at once
// when the round's fence is not the installed view's.
func (n *Node) awaitCopy(ctx context.Context, e *entry, fence uint64) bool {
	var timer *time.Timer
	for {
		ep := n.epoch.Load()
		e.rmu.Lock()
		if held := e.obj != nil; held || fence != ep.fence {
			e.rmu.Unlock()
			return held
		}
		if e.wake == nil {
			e.wake = make(chan struct{})
		}
		wake := e.wake
		e.rmu.Unlock()
		if timer == nil {
			timer = time.NewTimer(n.waitTimeout())
			defer timer.Stop()
		}
		select {
		case <-wake:
		case <-ep.next:
		case <-ctx.Done():
			return false
		case <-timer.C:
			return false
		}
	}
}

// admit registers one round on e and reports whether it may proceed: a
// record admits one origin's rounds until they all settle. The view fence
// stops a stale primary from starting a round after a replica moved on,
// but not a shared replica that accepts the old primary's round, installs
// the next view, then accepts the new primary's round while the first is
// unapplied; both would commit on copies that never see the other's op
// (DESIGN.md §5c). A duplicate of an admitted round has its origin and
// settles like it. Every admitted round settles within awaitTurn's bound.
func (e *entry) admit(origin string) bool {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	if e.count > 0 && e.origin != origin {
		return false
	}
	e.origin = origin
	e.count++
	return true
}

// settle ends one admitted round, applied or refused.
func (e *entry) settle() {
	e.rmu.Lock()
	e.count--
	e.rmu.Unlock()
}

// busy reports whether e has admitted rounds. A busy copy is not
// snapshotted for a fetch or a push: the snapshot would miss an op the
// receiver, not in that round's group, can only get from a later one.
func (e *entry) busy() bool {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	return e.count > 0
}

// claimPull makes the caller e's one running pull, an open's or
// selfHeal's (absent → pulling), and returns nil, or returns the running
// pull's channel, which endPull closes.
func (e *entry) claimPull() (running chan struct{}) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	if e.pull != nil {
		return e.pull
	}
	e.pull = make(chan struct{})
	return nil
}

func (e *entry) endPull() {
	e.rmu.Lock()
	close(e.pull)
	e.pull = nil
	e.rmu.Unlock()
}

// setFence fences e for a live migration until the deadline (serving →
// fenced), or lifts the fence at the zero time (fenced → serving).
func (e *entry) setFence(until time.Time) {
	e.rmu.Lock()
	e.mu.Lock()
	e.fenceUntil = until
	e.mu.Unlock()
	e.rmu.Unlock()
}

// fencedLocked reports whether a migration fences e (rmu or mu held). A
// fence past its deadline (its migration died) no longer bounces.
func (e *entry) fencedLocked() bool {
	return !e.fenceUntil.IsZero() && time.Now().Before(e.fenceUntil)
}

func (e *entry) fenced() bool {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	return e.fencedLocked()
}

// TableSizes is what DebugTableSizes reports.
type TableSizes struct {
	Records      int // refs in the record table
	Resident     int // records holding a copy
	LeaseHolders int // outstanding lease grants
	DedupClients int // clients in the copies' at-most-once windows
}

// DebugTableSizes measures the node's per-ref state (tests and soak
// checks): once a node is quiescent every record holds a copy.
func (n *Node) DebugTableSizes() (s TableSizes) {
	n.recMu.RLock()
	defer n.recMu.RUnlock()
	for _, byKey := range n.records {
		s.Records += len(byKey)
		for _, e := range byKey {
			e.rmu.Lock()
			s.LeaseHolders += len(e.holders)
			if e.obj != nil {
				e.mu.Lock()
				s.Resident++
				s.DedupClients += len(e.dedup.Clients)
				e.mu.Unlock()
			}
			e.rmu.Unlock()
		}
	}
	return s
}
