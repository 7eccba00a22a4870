package telemetry

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

func okey(i int) ObjectKey {
	return ObjectKey{Type: "AtomicLong", Key: fmt.Sprintf("k%d", i)}
}

// TestTrackerExactBelowCapacity: with fewer distinct keys than slots the
// tracker is an exact counter — no evictions, no error bounds.
func TestTrackerExactBelowCapacity(t *testing.T) {
	tr := NewObjectTracker(16)
	for i := 0; i < 8; i++ {
		for j := 0; j <= i; j++ {
			tr.ObserveInvoke(okey(i), j%2 == 0, time.Duration(j)*time.Millisecond, 10)
		}
	}
	snap := tr.Snapshot()
	if snap.Evictions != 0 {
		t.Fatalf("evictions = %d below capacity", snap.Evictions)
	}
	if len(snap.Stats) != 8 {
		t.Fatalf("tracked %d keys, want 8", len(snap.Stats))
	}
	// Sorted hottest-first: k7 (8 observations) leads.
	if snap.Stats[0].Key != "k7" || snap.Stats[0].Count != 8 {
		t.Fatalf("top = %s/%d, want k7/8", snap.Stats[0].Key, snap.Stats[0].Count)
	}
	for _, st := range snap.Stats {
		if st.CountErr != 0 {
			t.Fatalf("key %s has error bound %d below capacity", st.Key, st.CountErr)
		}
		if st.Reads+st.Writes != st.Invokes {
			t.Fatalf("key %s: reads %d + writes %d != invokes %d",
				st.Key, st.Reads, st.Writes, st.Invokes)
		}
		if st.Latency.Count != st.Invokes {
			t.Fatalf("key %s: latency count %d != invokes %d", st.Key, st.Latency.Count, st.Invokes)
		}
		if st.Bytes != 10*st.Invokes {
			t.Fatalf("key %s: bytes %d, want %d", st.Key, st.Bytes, 10*st.Invokes)
		}
	}
}

// TestTrackerEvictionAdversarial churns one-hit keys through a small
// tracker while a few hot keys keep receiving traffic, and checks the
// Space-Saving invariants: bounded memory, hot keys retained, and every
// reported count within its error bound of the true count.
func TestTrackerEvictionAdversarial(t *testing.T) {
	const capacity = 8
	tr := NewObjectTracker(capacity)
	truth := make(map[ObjectKey]uint64)
	hot := []ObjectKey{okey(0), okey(1), okey(2)}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		var k ObjectKey
		if rng.Intn(2) == 0 {
			k = hot[rng.Intn(len(hot))]
		} else {
			// Adversarial churn: a fresh key every time, each seen once.
			k = ObjectKey{Type: "Map", Key: fmt.Sprintf("churn%d", i)}
		}
		tr.ObserveCall(k)
		truth[k]++
	}
	snap := tr.Snapshot()
	if len(snap.Stats) > capacity {
		t.Fatalf("tracked %d keys, capacity %d", len(snap.Stats), capacity)
	}
	if snap.Evictions == 0 {
		t.Fatal("adversarial churn produced no evictions")
	}
	var total uint64
	for _, st := range snap.Stats {
		k := ObjectKey{Type: st.Type, Key: st.Key}
		exact := truth[k]
		if exact > st.Count {
			t.Fatalf("key %v: count %d underestimates true %d (Space-Saving never undercounts)",
				k, st.Count, exact)
		}
		if st.Count-st.CountErr > exact {
			t.Fatalf("key %v: count %d - err %d exceeds true %d",
				k, st.Count, st.CountErr, exact)
		}
		total += st.Count
	}
	// The three hot keys (~10000 observations among them vs ≤1 for any
	// churn key) must all survive.
	for _, k := range hot {
		found := false
		for _, st := range snap.Stats {
			if st.Type == k.Type && st.Key == k.Key {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("hot key %v evicted by one-hit churn", k)
		}
	}
	if snap.Total != 20000 {
		t.Fatalf("total = %d, want 20000", snap.Total)
	}
}

// TestTrackerConcurrent hammers all three observation kinds from many
// goroutines; run under -race this doubles as the data-race check. The
// single-mutex design makes the invariant exact: total equals the number
// of observations made.
func TestTrackerConcurrent(t *testing.T) {
	tr := NewObjectTracker(32)
	workers := runtime.GOMAXPROCS(0) * 2
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < perWorker; i++ {
				k := okey(rng.Intn(64))
				switch i % 3 {
				case 0:
					tr.ObserveCall(k)
				case 1:
					tr.ObserveInvoke(k, i%2 == 0, time.Duration(i)*time.Microsecond, i)
				default:
					tr.ObserveApply(k, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if want := uint64(workers * perWorker); snap.Total != want {
		t.Fatalf("total = %d, want %d", snap.Total, want)
	}
	if len(snap.Stats) > 32 {
		t.Fatalf("tracked %d keys, capacity 32", len(snap.Stats))
	}
}

// TestTrackerMerge is the collector path: two per-node snapshots with
// overlapping keys merge keywise, histograms included.
func TestTrackerMerge(t *testing.T) {
	a, b := NewObjectTracker(16), NewObjectTracker(16)
	shared := okey(0)
	a.ObserveInvoke(shared, true, time.Millisecond, 100)
	a.ObserveInvoke(shared, true, time.Millisecond, 100)
	b.ObserveInvoke(shared, false, 4*time.Millisecond, 50)
	b.ObserveApply(shared, 3)
	a.ObserveCall(okey(1))
	b.ObserveCall(okey(2))

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Node, sb.Node = "n1", "n2"
	m := sa.Merge(sb)
	if m.Total != sa.Total+sb.Total {
		t.Fatalf("merged total %d, want %d", m.Total, sa.Total+sb.Total)
	}
	if len(m.Stats) != 3 {
		t.Fatalf("merged %d keys, want 3", len(m.Stats))
	}
	top := m.Stats[0]
	if top.Key != shared.Key {
		t.Fatalf("merged top = %s, want %s", top.Key, shared.Key)
	}
	if top.Invokes != 3 || top.Applies != 3 || top.Reads != 2 || top.Writes != 1 {
		t.Fatalf("merged shared stats = %+v", top)
	}
	if top.Bytes != 250 {
		t.Fatalf("merged bytes = %d, want 250", top.Bytes)
	}
	if top.Latency.Count != 3 {
		t.Fatalf("merged latency count = %d, want 3", top.Latency.Count)
	}
	if top.Latency.Max < 4*time.Millisecond {
		t.Fatalf("merged latency max = %v, want >= 4ms", top.Latency.Max)
	}
	if m.Window != maxDur(sa.Window, sb.Window) {
		t.Fatalf("merged window = %v, want max(%v, %v)", m.Window, sa.Window, sb.Window)
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// TestTrackerZipfianRecall drives a zipfian workload over far more keys
// than slots and requires the tracker's top 10 to recover at least 9 of
// the true top 10 — the accuracy bar for dso-cli top being trustworthy.
func TestTrackerZipfianRecall(t *testing.T) {
	tr := NewObjectTracker(DefaultObjectTopK)
	truth := make(map[ObjectKey]uint64)
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.2, 1, 9999) // 10k distinct keys
	for i := 0; i < 200000; i++ {
		k := okey(int(zipf.Uint64()))
		tr.ObserveCall(k)
		truth[k]++
	}

	exact := make([]trackerKV, 0, len(truth))
	for k, n := range truth {
		exact = append(exact, trackerKV{k, n})
	}
	sortKVDesc(exact)

	snap := tr.Snapshot()
	got := make(map[ObjectKey]bool)
	for i := 0; i < 10 && i < len(snap.Stats); i++ {
		got[ObjectKey{Type: snap.Stats[i].Type, Key: snap.Stats[i].Key}] = true
	}
	recall := 0
	for i := 0; i < 10 && i < len(exact); i++ {
		if got[exact[i].k] {
			recall++
		}
	}
	if recall < 9 {
		t.Fatalf("top-10 recall %d/10, want >= 9 (tracked %d keys of %d distinct)",
			recall, len(snap.Stats), len(truth))
	}
}

type trackerKV struct {
	k ObjectKey
	n uint64
}

func sortKVDesc(s []trackerKV) {
	sort.Slice(s, func(i, j int) bool { return s[i].n > s[j].n })
}

// TestObjectsSnapshotGob checks the KindObjectStats payload survives a
// gob round trip intact (the RPC uses core.EncodeValue, which is gob for
// control-plane types).
func TestObjectsSnapshotGob(t *testing.T) {
	tr := NewObjectTracker(8)
	tr.ObserveInvoke(okey(1), true, time.Millisecond, 64)
	tr.ObserveApply(okey(1), 2)
	in := tr.Snapshot()
	in.Node = "n1"

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out ObjectsSnapshot
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Node != "n1" || out.Total != in.Total || len(out.Stats) != len(in.Stats) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	if out.Stats[0].Latency.P99 != in.Stats[0].Latency.P99 {
		t.Fatalf("latency percentiles lost in transit")
	}
}

// TestNilTrackerIsNoop: the disabled state must be safe everywhere the
// instrumentation hooks call it.
func TestNilTrackerIsNoop(t *testing.T) {
	var tr *ObjectTracker
	tr.ObserveCall(okey(0))
	tr.ObserveInvoke(okey(0), true, time.Second, 1)
	tr.ObserveApply(okey(0), 5)
	tr.Reset()
	if snap := tr.Snapshot(); len(snap.Stats) != 0 || snap.Total != 0 {
		t.Fatalf("nil tracker snapshot = %+v", snap)
	}
	var tel *Telemetry
	if tel.Objects() != nil {
		t.Fatal("nil telemetry returned a tracker")
	}
}

// TestTrackerObserveAllocs pins the warm-path cost: observing an
// already-tracked key must not allocate, the property that keeps the
// accounting always-on on the RPC hot path. Skipped under -race (the
// detector's instrumentation allocates).
func TestTrackerObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	tr := NewObjectTracker(64)
	k := okey(3)
	tr.ObserveInvoke(k, true, time.Millisecond, 32)
	if n := testing.AllocsPerRun(200, func() {
		tr.ObserveInvoke(k, false, 2*time.Millisecond, 64)
	}); n != 0 {
		t.Fatalf("ObserveInvoke on a warm key allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		tr.ObserveCall(k)
		tr.ObserveApply(k, 1)
	}); n != 0 {
		t.Fatalf("ObserveCall+ObserveApply on a warm key allocate %.1f/op, want 0", n)
	}
}

// BenchmarkTrackerObserve measures the per-invocation accounting cost on
// the server hot path (warm key); TestTrackerObserveAllocs gates its
// allocations.
func BenchmarkTrackerObserve(b *testing.B) {
	tr := NewObjectTracker(DefaultObjectTopK)
	k := okey(1)
	tr.ObserveInvoke(k, true, time.Millisecond, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ObserveInvoke(k, i%4 == 0, time.Microsecond, 128)
	}
}

// BenchmarkTrackerObserveEvicting measures the worst case: every
// observation is a new key forcing a min-scan takeover.
func BenchmarkTrackerObserveEvicting(b *testing.B) {
	tr := NewObjectTracker(DefaultObjectTopK)
	keys := make([]ObjectKey, DefaultObjectTopK*4)
	for i := range keys {
		keys[i] = okey(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ObserveCall(keys[i%len(keys)])
	}
}
