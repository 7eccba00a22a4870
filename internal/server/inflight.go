package server

import (
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/totalorder"
)

// In-flight proposal tracking: one object must never have proposals from
// two different coordinators in flight at once.
//
// The view fence (see proposeMsg) stops a stale primary from *starting* a
// round after a replica moved to the new view, but not this interleaving:
// a shared replica accepts the old primary's propose under view N,
// installs view N+1, then accepts the new primary's propose for the same
// object. Both rounds commit — each coordinator acknowledges a result
// computed on a copy that never sees the other's operation, and the two
// acknowledgments cannot be linearized (the nemesis observes two
// concurrent AddAndGets acknowledging the same counter value).
//
// The tracker closes the window: every accepted proposal is registered
// until it is delivered or aborted, and a propose for an object that has
// an undelivered proposal from a different origin is refused (the
// coordinator aborts and the client retries once the pending op settles).
// It also backs the snapshot barrier: an object with undelivered
// proposals is "busy", and serving a fetch for it would hand out a base
// copy missing an operation the receiver will never get by multicast.

// inflightEntry is one accepted, not yet settled proposal.
type inflightEntry struct {
	ref    core.Ref
	origin string
	at     time.Time
}

// refFlight is a ref's undelivered proposals: admit refuses every other
// origin while one has any, so they all come from one origin.
type refFlight struct {
	origin string
	count  int
}

type inflightTracker struct {
	mu    sync.Mutex
	byID  map[totalorder.MsgID]inflightEntry
	byRef map[core.Ref]refFlight
	ttl   time.Duration // mirrors the total-order pending TTL
}

func newInflightTracker(ttl time.Duration) *inflightTracker {
	return &inflightTracker{
		byID:  make(map[totalorder.MsgID]inflightEntry),
		byRef: make(map[core.Ref]refFlight),
		ttl:   ttl,
	}
}

// admit registers a proposal and reports whether it may be accepted.
// Duplicate admits of one ID (retried or chaos-duplicated frames) are
// idempotent.
func (t *inflightTracker) admit(id totalorder.MsgID, ref core.Ref) bool {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gcLocked(now)
	if _, ok := t.byID[id]; ok {
		return true
	}
	f, ok := t.byRef[ref]
	if ok && f.origin != id.Origin {
		return false
	}
	t.byID[id] = inflightEntry{ref: ref, origin: id.Origin, at: now}
	t.byRef[ref] = refFlight{origin: id.Origin, count: f.count + 1}
	return true
}

// settle removes a proposal after delivery or abort (no-op for unknown
// IDs, e.g. an abort for a refused propose).
func (t *inflightTracker) settle(id totalorder.MsgID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeLocked(id)
}

// busy reports whether ref has undelivered proposals.
func (t *inflightTracker) busy(ref core.Ref) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gcLocked(time.Now())
	_, ok := t.byRef[ref]
	return ok
}

// purge drops proposals from origins that are no longer alive, mirroring
// the total-order layer's view-synchrony flush (PurgeOrigins).
func (t *inflightTracker) purge(alive func(origin string) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, e := range t.byID {
		if !alive(e.origin) {
			t.removeLocked(id)
		}
	}
}

// gcLocked expires entries past the TTL — the backstop for aborts that
// never arrive, mirroring the total-order pending GC.
func (t *inflightTracker) gcLocked(now time.Time) {
	if t.ttl <= 0 {
		return
	}
	cutoff := now.Add(-t.ttl)
	for id, e := range t.byID {
		if e.at.Before(cutoff) {
			t.removeLocked(id)
		}
	}
}

func (t *inflightTracker) removeLocked(id totalorder.MsgID) {
	e, ok := t.byID[id]
	if !ok {
		return
	}
	delete(t.byID, id)
	if f := t.byRef[e.ref]; f.count > 1 {
		f.count--
		t.byRef[e.ref] = f
	} else {
		delete(t.byRef, e.ref)
	}
}
