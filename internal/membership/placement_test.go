package membership

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"crucial/internal/core"
	"crucial/internal/ring"
)

// A directive flip changes no member, so it must publish the ring the
// previous install built; a membership change must not.
func TestPlacementReusesRingAcrossDirectiveInstalls(t *testing.T) {
	d := threeNodeDir()
	before := d.Placement()
	v := d.SetDirective("Obj[hot]", []ring.NodeID{"n3", "n1"})
	flipped := d.Placement()
	if flipped.ViewID != v.ID {
		t.Fatalf("placement is for view %d after installing view %d", flipped.ViewID, v.ID)
	}
	if flipped.ring != before.ring {
		t.Fatal("a directive-only install built a new ring")
	}
	if got := flipped.Place("Obj[hot]", 2); !slices.Equal(got, []ring.NodeID{"n3", "n1"}) {
		t.Fatalf("published placement ignores the directive: %v", got)
	}
	if got := before.Place("Obj[hot]", 2); !slices.Equal(got, before.ring.ReplicaSet("Obj[hot]", 2)) {
		t.Fatalf("the flip reached into the placement published before it: %v", got)
	}
	d.Join("n4", "addr4")
	if joined := d.Placement(); joined.ring == flipped.ring || joined.ring.Size() != 4 {
		t.Fatalf("a membership change kept the old ring (size %d)", joined.ring.Size())
	}
}

// Before any view installs, Placement answers (with nobody) rather than
// returning nil.
func TestPlacementOfEmptyDirectory(t *testing.T) {
	if got := NewDirectory(0).Placement().Place("k", 2); len(got) != 0 {
		t.Fatalf("empty directory placed a key on %v", got)
	}
}

// Placement().Place runs lock-free beside installs of every kind (run under
// -race), and what it answers always equals View.Place of the view whose ID
// it carries; a listener never hears of a view the placement is behind.
func TestPlacementAgainstConcurrentInstalls(t *testing.T) {
	d := threeNodeDir()
	const installs = 60
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("Obj[k%d]", i)
	}
	var mu sync.Mutex
	views := map[uint64]View{}
	record := func(v View) {
		mu.Lock()
		views[v.ID] = v
		mu.Unlock()
	}
	cancel := d.Subscribe(func(v View) {
		record(v)
		if p := d.Placement(); p.ViewID < v.ID {
			t.Errorf("listener told of view %d while Placement still answers for view %d", v.ID, p.ViewID)
		}
	})
	defer cancel()

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	type sample struct {
		view uint64
		key  string
		set  []ring.NodeID
	}
	samples := make([][]sample, 4)
	for r := range samples {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := d.Placement()
				k := keys[i%len(keys)]
				set := p.Place(k, 2)
				if i%256 == 0 {
					samples[r] = append(samples[r], sample{p.ViewID, k, set})
				}
			}
		}(r)
	}
	for w, churn := range []func(i int){
		func(i int) { d.Join(ring.NodeID(fmt.Sprintf("x%d", i%3)), "addr") },
		func(i int) { d.Crash(ring.NodeID(fmt.Sprintf("x%d", i%3))) },
		func(i int) { d.SetDirective(keys[i%len(keys)], []ring.NodeID{"n2", "n1"}) },
		func(i int) { d.ClearDirective(keys[i%len(keys)]) },
	} {
		writers.Add(1)
		go func(w int, churn func(int)) {
			defer writers.Done()
			for i := 0; i < installs; i++ {
				churn(i + w)
			}
		}(w, churn)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	checked := 0
	for _, ss := range samples {
		for _, s := range ss {
			v, ok := views[s.view]
			if !ok {
				continue // the three joins of threeNodeDir predate the subscription
			}
			if want := v.Place(s.key, 2); !slices.Equal(s.set, want) {
				t.Fatalf("view %d: Placement placed %s on %v, View.Place on %v", s.view, s.key, s.set, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no sample compared")
	}
}

// A warmed placement of a hash-placed ref, at any rf the ring's table
// covers, allocates nothing: no Ref.String, no replica slice.
func TestPlacementPlaceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	d := threeNodeDir()
	d.SetDirective("AtomicLong[hot]", []ring.NodeID{"n2"})
	p := d.Placement()
	ref := core.Ref{Type: "AtomicLong", Key: "cold"}
	for rf := 1; rf <= 3; rf++ {
		if got := testing.AllocsPerRun(100, func() { p.PlaceRef(ref, rf) }); got != 0 {
			t.Fatalf("PlaceRef at rf %d allocates %.0f", rf, got)
		}
		if got := testing.AllocsPerRun(100, func() { p.Place("AtomicLong[cold]", rf) }); got != 0 {
			t.Fatalf("Place at rf %d allocates %.0f", rf, got)
		}
	}
}

// The fence is a digest of the member list and the directive table; these
// values were computed before placement moved to a successor table, so a
// change to the digest shows here. View.Placement places like View.Place.
func TestFenceAndViewPlacementUnchanged(t *testing.T) {
	v := View{ID: 7, Members: []ring.NodeID{"n1", "n2", "n3"}}
	if got := v.Fence(); got != 0x6bce59f1ad9c0b16 {
		t.Fatalf("fence %#x", got)
	}
	v.Directives = ring.Directives{}.With("AtomicLong[hot]", []ring.NodeID{"n3", "n1"}).With("Map[m]", []ring.NodeID{"n2"})
	if got := v.Fence(); got != 0xc43c5830270af7c4 {
		t.Fatalf("fence with directives %#x", got)
	}
	p := v.Placement()
	if p.ViewID != v.ID {
		t.Fatalf("placement for view %d", p.ViewID)
	}
	for _, ref := range []core.Ref{{Type: "AtomicLong", Key: "hot"}, {Type: "Map", Key: "m"}, {Type: "AtomicLong", Key: "cold"}} {
		for rf := 1; rf <= 4; rf++ {
			if got, want := p.PlaceRef(ref, rf), v.Place(ref.String(), rf); !slices.Equal(got, want) {
				t.Fatalf("%s rf %d: Placement puts it on %v, View.Place on %v", ref, rf, got, want)
			}
		}
	}
}
