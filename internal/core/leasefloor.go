package core

import "time"

// LeaseFloors is the holder-side guard against a lease grant whose reply
// lost the race home to the invalidation that killed it (DESIGN.md §5d).
// Client caches and follower replicas keep one each; it is not safe for
// concurrent use — the holder's own lock covers it. The zero value is
// ready.
//
// A revocation can only be aimed at grants issued before it was sent, so
// a floor binds only grants the holder *requested before* the
// invalidation landed on its own clock, and of those only the ones with
// an older epoch: a grantor draws grant and revocation epochs from one
// monotonic counter, so a grant it issued after the revocation carries at
// least the revocation's epoch. A grant requested after the invalidation
// landed is never bound, whatever its epoch — that is what lets a new
// primary, whose counter starts lower, be cached at once.
type LeaseFloors struct {
	m       map[Ref]leaseFloor
	sweepAt int
}

// leaseFloor is the highest epoch any invalidation of the ref has carried
// and the instant the latest one landed.
type leaseFloor struct {
	epoch uint64
	at    time.Time
}

// Raise records an invalidation of ref at epoch that landed at now. ttl
// is the lease duration: a floor older than that can bind nothing (a
// grant requested before it has expired by the holder's own clock), so
// such floors are swept (SweepDoubled), which bounds the map by twice the
// refs invalidated within one TTL. With no TTL known nothing is swept.
func (f *LeaseFloors) Raise(ref Ref, epoch uint64, now time.Time, ttl time.Duration) {
	if f.m == nil {
		f.m = make(map[Ref]leaseFloor)
	}
	f.m[ref] = leaseFloor{epoch: max(epoch, f.m[ref].epoch), at: now}
	if ttl > 0 {
		SweepDoubled(f.m, &f.sweepAt, func(fl leaseFloor) bool { return now.Sub(fl.at) > ttl })
	}
}

// minSweep keeps SweepDoubled off small maps.
const minSweep = 64

// SweepDoubled bounds a map whose entries die of old age without anyone
// coming back for them: once m has grown to *sweepAt entries (and at
// least minSweep) it deletes the dead ones and re-arms at twice what is
// left, so a sweep costs O(1) per insert and m never holds more than twice
// its live entries.
func SweepDoubled[K comparable, V any](m map[K]V, sweepAt *int, dead func(V) bool) {
	if len(m) < max(*sweepAt, minSweep) {
		return
	}
	for k, v := range m {
		if dead(v) {
			delete(m, k)
		}
	}
	*sweepAt = 2 * len(m)
}

// Binds reports whether a grant for ref that the holder requested at
// requested, carrying epoch, may be one an invalidation already revoked
// and must be discarded.
func (f *LeaseFloors) Binds(ref Ref, epoch uint64, requested time.Time) bool {
	fl, ok := f.m[ref]
	return ok && !requested.After(fl.at) && epoch < fl.epoch
}

// Len is the number of refs with a recorded floor.
func (f *LeaseFloors) Len() int { return len(f.m) }
