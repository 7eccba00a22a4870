package core

import (
	"strconv"
	"testing"
	"time"
)

// The ordering table of DESIGN.md §5d: a new primary's lower counter is
// installable as soon as it is requested after the old primary's
// invalidation landed, while a grant still in flight across a later
// invalidation is refused whatever counter it came from.
func TestLeaseFloorsRequestedBeforeRule(t *testing.T) {
	var f LeaseFloors
	ref := Ref{Type: "KV", Key: "k"}
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	const ttl = time.Second

	if f.Binds(ref, 0, at(0)) {
		t.Fatal("no invalidation yet, epoch 0 bound")
	}
	f.Raise(ref, 9, at(10), ttl) // old primary revokes at epoch 9
	for _, c := range []struct {
		name      string
		epoch     uint64
		requested int
		bound     bool
	}{
		{"pre-write grant still in flight", 8, 5, true},
		{"same primary, granted after the write", 9, 5, false},
		{"requested the instant the invalidation landed", 8, 10, true},
		{"new primary, lower counter, requested after", 2, 11, false},
	} {
		if got := f.Binds(ref, c.epoch, at(c.requested)); got != c.bound {
			t.Errorf("after invalidate(9): %s: bound = %v, want %v", c.name, got, c.bound)
		}
	}
	f.Raise(ref, 3, at(20), ttl) // the new primary revokes at epoch 3: max epoch kept, instant moved
	if !f.Binds(ref, 2, at(15)) {
		t.Error("after invalidate(3): delayed install(2) requested before it was accepted")
	}
	if f.Binds(ref, 3, at(21)) {
		t.Error("after invalidate(3): grant requested after it was refused")
	}
	if other := (Ref{Type: "KV", Key: "other"}); f.Binds(other, 0, at(0)) {
		t.Error("floor leaked to another ref")
	}
}

// 10 000 distinct refs invalidated over many TTLs leave a map bounded by
// the refs of the last TTL, not by the refs ever seen.
func TestLeaseFloorsBounded(t *testing.T) {
	var f LeaseFloors
	const ttl = 100 * time.Millisecond
	now := time.Unix(1000, 0)
	peak := 0
	for i := 0; i < 10_000; i++ {
		now = now.Add(time.Millisecond) // 100 refs per TTL
		f.Raise(Ref{Type: "KV", Key: strconv.Itoa(i)}, uint64(i), now, ttl)
		peak = max(peak, f.Len())
	}
	if peak > 2*100+minSweep {
		t.Fatalf("floor map peaked at %d entries with 100 refs invalidated per TTL", peak)
	}
	// Without a TTL nothing is known to be dead, so nothing is swept.
	var g LeaseFloors
	for i := 0; i < 200; i++ {
		g.Raise(Ref{Key: strconv.Itoa(i)}, 1, now, 0)
	}
	if g.Len() != 200 {
		t.Fatalf("ttl 0 swept floors: %d left of 200", g.Len())
	}
}
