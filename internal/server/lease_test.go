package server

import (
	"strconv"
	"testing"
	"time"

	"crucial/internal/core"
)

// The follower's half of the install ordering (DESIGN.md §5d): a replica
// lease from a new primary with a lower epoch counter is stored once it
// was requested after the old primary's revocation landed; one still in
// flight across a revocation is not.
func TestHeldLeaseInstallOrdering(t *testing.T) {
	lt := newLeaseTable(nil, time.Minute)
	ref := core.Ref{Type: "AtomicLong", Key: "held"}
	lease := func(epoch uint64) replicaLease {
		return replicaLease{epoch: epoch, expiry: time.Now().Add(time.Minute)}
	}
	held := func() (uint64, bool) {
		rl, ok := lt.heldLease(ref)
		return rl.epoch, ok
	}

	beforeAll := time.Now()
	lt.dropHeld(ref, 9)
	lt.storeHeld(ref, lease(8), beforeAll)
	if _, ok := held(); ok {
		t.Fatal("a lease requested before revoke(9), epoch 8, was stored")
	}
	afterNine := time.Now().Add(time.Nanosecond)
	lt.storeHeld(ref, lease(2), afterNine)
	if e, ok := held(); !ok || e != 2 {
		t.Fatal("store(2) requested after revoke(9) refused: a new primary's lower counter never heals")
	}
	lt.onViewChange() // drops the lease, must keep the floor
	lt.dropHeld(ref, 3)
	lt.storeHeld(ref, lease(2), afterNine)
	if _, ok := held(); ok {
		t.Fatal("delayed store(2), requested before revoke(3), was stored")
	}
}

// 10 000 distinct refs revoked once each leave heldFloor bounded by the
// refs of one TTL.
func TestHeldFloorBounded(t *testing.T) {
	lt := newLeaseTable(nil, time.Millisecond)
	peak := 0
	for i := 0; i < 10_000; i++ {
		if i%500 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		lt.dropHeld(core.Ref{Type: "KV", Key: strconv.Itoa(i)}, uint64(i))
		lt.heldMu.Lock()
		peak = max(peak, lt.heldFloor.Len())
		lt.heldMu.Unlock()
	}
	if peak > 2048 {
		t.Fatalf("heldFloor peaked at %d entries over 10000 refs", peak)
	}
}
