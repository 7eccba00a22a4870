package membership

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"crucial/internal/ring"
)

func threeNodeDir() *Directory {
	d := NewDirectory(time.Second)
	d.Join("n1", "addr1")
	d.Join("n2", "addr2")
	d.Join("n3", "addr3")
	return d
}

func TestSetDirectiveInstallsNextView(t *testing.T) {
	d := threeNodeDir()
	before := d.View()

	v := d.SetDirective("Obj[hot]", []ring.NodeID{"n2", "n3"})
	if v.ID != before.ID+1 {
		t.Fatalf("view ID %d, want %d", v.ID, before.ID+1)
	}
	if len(v.Members) != len(before.Members) {
		t.Fatal("directive flip changed membership")
	}
	if v.Directives.Version != before.Directives.Version+1 {
		t.Fatalf("directive version %d, want %d", v.Directives.Version, before.Directives.Version+1)
	}
	got, ok := v.Directives.Lookup("Obj[hot]")
	if !ok || len(got) != 2 || got[0] != "n2" || got[1] != "n3" {
		t.Fatalf("directive entry = %v, ok=%v", got, ok)
	}
	if set := v.Place("Obj[hot]", 2); set[0] != "n2" || set[1] != "n3" {
		t.Fatalf("Place ignored the directive: %v", set)
	}
}

// A directive flip must change the view fence (it changes placement like a
// membership change does), and clearing the last directive must restore
// the directive-free fence — views without overrides keep the legacy fence
// so mixed-version replicas still agree.
func TestDirectiveFlipChangesFence(t *testing.T) {
	d := threeNodeDir()
	f0 := d.View().Fence()

	pinned := d.SetDirective("Obj[hot]", []ring.NodeID{"n2"})
	if pinned.Fence() == f0 {
		t.Fatal("directive install left the fence unchanged")
	}
	cleared := d.ClearDirective("Obj[hot]")
	if cleared.Fence() != f0 {
		t.Fatalf("fence %#x after clearing all directives, want the original %#x",
			cleared.Fence(), f0)
	}
}

func TestClearDirectiveAbsentKeyInstallsNothing(t *testing.T) {
	d := threeNodeDir()
	before := d.View()
	v := d.ClearDirective("Obj[never-pinned]")
	if v.ID != before.ID || v.Directives.Version != before.Directives.Version {
		t.Fatalf("no-op clear installed view %d (directives v%d)", v.ID, v.Directives.Version)
	}
}

// Directive-table versions must be strictly monotonic under concurrent
// updates: every install observed by a subscriber carries a larger version
// and a larger view ID than the one before it, and no update is lost.
func TestDirectiveVersionMonotonicUnderConcurrency(t *testing.T) {
	d := threeNodeDir()

	var seenMu sync.Mutex
	var versions, viewIDs []uint64
	cancel := d.Subscribe(func(v View) {
		seenMu.Lock()
		versions = append(versions, v.Directives.Version)
		viewIDs = append(viewIDs, v.ID)
		seenMu.Unlock()
	})
	defer cancel()

	const workers, updates = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("Obj[k%d]", w)
			for i := 0; i < updates; i++ {
				v := d.SetDirective(key, []ring.NodeID{"n2"})
				if v.Directives.Version == 0 {
					t.Errorf("worker %d: install returned version 0", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	seenMu.Lock()
	defer seenMu.Unlock()
	// Subscribe bootstraps with the current view, so one extra delivery
	// precedes the installs.
	if len(versions) != workers*updates+1 {
		t.Fatalf("subscriber saw %d deliveries, want %d", len(versions), workers*updates+1)
	}
	for i := 1; i < len(versions); i++ {
		if versions[i] <= versions[i-1] {
			t.Fatalf("install %d: version %d not greater than predecessor %d",
				i, versions[i], versions[i-1])
		}
		if viewIDs[i] <= viewIDs[i-1] {
			t.Fatalf("install %d: view ID %d not greater than predecessor %d",
				i, viewIDs[i], viewIDs[i-1])
		}
	}
	final := d.View()
	if final.Directives.Len() != workers {
		t.Fatalf("final table has %d entries, want %d", final.Directives.Len(), workers)
	}
	if final.Directives.Version != uint64(workers*updates) {
		t.Fatalf("final version %d, want %d (one bump per install)",
			final.Directives.Version, workers*updates)
	}
}

// Directives survive membership changes: a join or crash re-derives the
// view but carries the override table along.
func TestDirectivesSurviveMembershipChange(t *testing.T) {
	d := threeNodeDir()
	d.SetDirective("Obj[hot]", []ring.NodeID{"n2", "n3"})

	v := d.Join("n4", "addr4")
	got, ok := v.Directives.Lookup("Obj[hot]")
	if !ok || got[0] != "n2" {
		t.Fatalf("directive lost across join: %v, ok=%v", got, ok)
	}
	v = d.Crash("n2")
	if _, ok := v.Directives.Lookup("Obj[hot]"); !ok {
		t.Fatal("directive lost across crash")
	}
	// The dead target is filtered at placement time, not table time.
	set := v.Place("Obj[hot]", 2)
	if set[0] != "n3" {
		t.Fatalf("placement after target crash = %v, want n3 primary", set)
	}
}

// SyncDirectives is the propagation half of placement flips between
// processes with private directories: a strictly newer remote table is
// adopted wholesale (next view, same members), anything else no-ops.
func TestSyncDirectivesAdoptsStrictlyNewer(t *testing.T) {
	d := threeNodeDir()
	before := d.View()

	remote := ring.Directives{}.With("Obj[hot]", []ring.NodeID{"n3", "n1"})
	v, adopted := d.SyncDirectives(remote)
	if !adopted {
		t.Fatal("newer remote table not adopted")
	}
	if v.ID != before.ID+1 {
		t.Fatalf("adoption installed view %d, want %d", v.ID, before.ID+1)
	}
	if set, ok := v.Directives.Lookup("Obj[hot]"); !ok || set[0] != "n3" {
		t.Fatalf("adopted table lookup = %v, ok=%v", set, ok)
	}

	// Same version again: no-op, no new view.
	if _, adopted := d.SyncDirectives(remote); adopted {
		t.Fatal("equal-version table adopted twice")
	}
	// A local flip after adoption keeps versions strictly monotonic.
	v3 := d.SetDirective("Obj[other]", []ring.NodeID{"n2"})
	if v3.Directives.Version <= remote.Version {
		t.Fatalf("local flip version %d not past adopted %d",
			v3.Directives.Version, remote.Version)
	}
	// Older than local: no-op even with different content.
	older := ring.Directives{}.With("Obj[stale]", []ring.NodeID{"n1"})
	if older.Version >= v3.Directives.Version {
		t.Fatalf("test setup: older table version %d not older", older.Version)
	}
	if v4, adopted := d.SyncDirectives(older); adopted || v4.ID != v3.ID {
		t.Fatalf("older table adopted (adopted=%v view=%d)", adopted, v4.ID)
	}
}

// Private directories over one member set (each dso-server process keeps
// its own) agree on a view's ID once they hold the same directive table,
// however many of its versions each adopted on the way: positions in an
// object's order are stamped with view IDs and compared across nodes.
func TestDirectiveStepsAndJumpAgreeOnViewID(t *testing.T) {
	stepped, jumped := threeNodeDir(), threeNodeDir()
	var tables []ring.Directives
	for i, key := range []string{"a", "b", "c"} {
		cur := ring.Directives{}
		if i > 0 {
			cur = tables[i-1]
		}
		tables = append(tables, cur.With(key, []ring.NodeID{"n2"}))
	}
	for _, table := range tables {
		if _, adopted := stepped.SyncDirectives(table); !adopted {
			t.Fatalf("v%d not adopted", table.Version)
		}
	}
	if _, adopted := jumped.SyncDirectives(tables[2]); !adopted {
		t.Fatal("v3 not adopted")
	}
	a, b := stepped.View(), jumped.View()
	if a.Directives.Version != 3 || a.ID != b.ID || a.Fence() != b.Fence() {
		t.Fatalf("stepped to view %d (fence %x), jumped to view %d (fence %x); want one view at directive v3",
			a.ID, a.Fence(), b.ID, b.Fence())
	}
}

// Outnumber lifts the next view's ID above a floor, for joins and
// directive installs alike, and never lowers it.
func TestOutnumberLiftsNextViewID(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Outnumber(40)
	d.Outnumber(7)
	if v := d.Join("n1", "addr1"); v.ID != 41 {
		t.Fatalf("first view after Outnumber(40) has ID %d, want 41", v.ID)
	}
	if v := d.SetDirective("k", []ring.NodeID{"n1"}); v.ID != 42 {
		t.Fatalf("directive view has ID %d, want 42", v.ID)
	}
}
