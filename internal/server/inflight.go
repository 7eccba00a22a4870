package server

import (
	"sync"

	"crucial/internal/core"
	"crucial/internal/totalorder"
)

// In-flight round tracking: one object must never have rounds from two
// different coordinators in flight at once.
//
// The view fence (see acceptMsg) stops a stale primary from *starting* a
// round after a replica moved to the new view, but not this interleaving:
// a shared replica accepts the old primary's round under view N, installs
// view N+1, then accepts the new primary's round for the same object. Both
// rounds commit — each coordinator acknowledges a result computed on a copy
// that never sees the other's operation, and the two acknowledgments
// cannot be linearized (the nemesis observes two concurrent AddAndGets
// acknowledging the same counter value).
//
// The tracker closes the window: every accepted round is registered until
// this node has applied or refused it, and a round for an object that has
// an unsettled round from a different origin is refused (the client
// retries once the pending one settles). It also backs the snapshot
// barrier: an object with unsettled rounds is "busy", and serving a fetch
// for it would hand out a base copy missing an operation the receiver will
// never get from its coordinator. Every admitted round settles: a member
// holds one for at most awaitTurn's bound, a view change releases the
// parked ones at once, and a coordinator settles right after its own apply.

// refFlight is a ref's unsettled rounds: admit refuses every other origin
// while one has any, so they all come from one origin.
type refFlight struct {
	origin string
	count  int
}

type inflightTracker struct {
	mu    sync.Mutex
	byID  map[totalorder.MsgID]core.Ref
	byRef map[core.Ref]refFlight
}

func newInflightTracker() *inflightTracker {
	return &inflightTracker{
		byID:  make(map[totalorder.MsgID]core.Ref),
		byRef: make(map[core.Ref]refFlight),
	}
}

// admit registers a round and reports whether it may be accepted.
// Duplicate admits of one ID (retried or chaos-duplicated frames) are
// idempotent.
func (t *inflightTracker) admit(id totalorder.MsgID, ref core.Ref) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; ok {
		return true
	}
	f, ok := t.byRef[ref]
	if ok && f.origin != id.Origin {
		return false
	}
	t.byID[id] = ref
	t.byRef[ref] = refFlight{origin: id.Origin, count: f.count + 1}
	return true
}

// settle removes a round once this node applied or refused it (no-op for
// unknown IDs, e.g. the second settle of a duplicated frame).
func (t *inflightTracker) settle(id totalorder.MsgID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ref, ok := t.byID[id]
	if !ok {
		return
	}
	delete(t.byID, id)
	if f := t.byRef[ref]; f.count > 1 {
		f.count--
		t.byRef[ref] = f
	} else {
		delete(t.byRef, ref)
	}
}

// busy reports whether ref has unsettled rounds.
func (t *inflightTracker) busy(ref core.Ref) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.byRef[ref]
	return ok
}
