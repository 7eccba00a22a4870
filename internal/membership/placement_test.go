package membership

import (
	"fmt"
	"slices"
	"sync"
	"testing"

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
