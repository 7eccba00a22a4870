package ring

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// walkRing is the placement function as it was before the successor table:
// vnode labels formatted with fmt and hashed with hash/fnv, and every
// replica set a fresh clockwise walk. The table must reproduce it exactly.
type walkRing struct {
	vnodes []vnode
	nodes  int
}

func newWalkRing(ns []NodeID) walkRing {
	hash := func(s string) uint64 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(s))
		return mix64(h.Sum64())
	}
	var w walkRing
	for _, n := range ns {
		for v := 0; v < DefaultVirtualNodes; v++ {
			w.vnodes = append(w.vnodes, vnode{hash: hash(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(w.vnodes, func(i, j int) bool {
		a, b := w.vnodes[i], w.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node
	})
	w.nodes = len(ns)
	return w
}

func (w walkRing) replicaSet(key string, rf int) []NodeID {
	if len(w.vnodes) == 0 || rf <= 0 {
		return nil
	}
	rf = min(rf, w.nodes)
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	k := mix64(h.Sum64())
	i := sort.Search(len(w.vnodes), func(i int) bool { return w.vnodes[i].hash >= k })
	var out []NodeID
	for j := 0; len(out) < rf; j++ {
		if n := w.vnodes[(i+j)%len(w.vnodes)].node; !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// The table places every key exactly where the clockwise walk did, for
// every rf from 1 to one past the cluster, over clusters narrower and wider
// than the table; so does PlaceRef, which hashes a ref's fields in turn,
// and so does Moved between any two of the rings.
func TestTableEqualsClockwiseWalk(t *testing.T) {
	keys := 10000
	if testing.Short() {
		keys = 1000
	}
	sizes := []int{1, 3, 5, 9}
	rings := make([]*Ring, len(sizes))
	walks := make([]walkRing, len(sizes))
	for i, size := range sizes {
		rings[i], walks[i] = New(nodes(size), 0), newWalkRing(nodes(size))
	}
	for i, size := range sizes {
		r, w := rings[i], walks[i]
		for k := 0; k < keys; k++ {
			typ, key := "AtomicLong", "key-"+strconv.Itoa(k)
			ref := typ + "[" + key + "]"
			for rf := 1; rf <= size+1; rf++ {
				want := w.replicaSet(ref, rf)
				if got := r.ReplicaSet(ref, rf); !slices.Equal(got, want) {
					t.Fatalf("%d nodes, rf %d: %s on %v, the walk puts it on %v", size, rf, ref, got, want)
				}
				if got := (Directives{}).PlaceRef(r, typ, key, rf); !slices.Equal(got, want) {
					t.Fatalf("%d nodes, rf %d: PlaceRef puts %s on %v, the walk on %v", size, rf, ref, got, want)
				}
			}
			for j := range sizes {
				for _, rf := range []int{1, 2, 3} {
					old, cur := walks[i].replicaSet(ref, rf), walks[j].replicaSet(ref, rf)
					if got, want := Moved(r, rings[j], ref, rf), !slices.Equal(old, cur); got != want {
						t.Fatalf("Moved(%d→%d nodes, %s, rf %d) = %v, want %v", size, sizes[j], ref, rf, got, want)
					}
				}
			}
		}
	}
}

// A replica set served from the table has no spare capacity, so appending
// to it copies: no later lookup sees the caller's element.
func TestReplicaSetAppendDoesNotAlias(t *testing.T) {
	r, w := New(nodes(5), 0), newWalkRing(nodes(5))
	for k := 0; k < 2000; k++ {
		key := "key-" + strconv.Itoa(k)
		for rf := 1; rf <= tableWidth; rf++ {
			set := r.ReplicaSet(key, rf)
			if cap(set) != rf {
				t.Fatalf("rf %d set has capacity %d", rf, cap(set))
			}
			_ = append(set, "intruder")
		}
	}
	for k := 0; k < 2000; k++ {
		key := "key-" + strconv.Itoa(k)
		if got, want := r.ReplicaSet(key, tableWidth), w.replicaSet(key, tableWidth); !slices.Equal(got, want) {
			t.Fatalf("after appends %s is on %v, want %v", key, got, want)
		}
	}
}

// A directive table's PlaceRef agrees with Place on the spelled-out key,
// directed or not, and an empty table places by the ring.
func TestPlaceRefEqualsPlace(t *testing.T) {
	r := New(nodes(5), 0)
	d := Directives{}.With("Map[hot]", []NodeID{"node-04", "node-02"}).
		With("Map[gone]", []NodeID{"node-99"})
	long := string(make([]byte, 200)) // past PlaceRef's stack buffer
	for _, table := range []Directives{{}, d} {
		for _, key := range []string{"hot", "gone", "cold", long} {
			for rf := 1; rf <= 6; rf++ {
				want := table.Place(r, "Map["+key+"]", rf)
				if got := table.PlaceRef(r, "Map", key, rf); !slices.Equal(got, want) {
					t.Fatalf("PlaceRef(Map, %.10q, %d) = %v, Place = %v", key, rf, got, want)
				}
			}
		}
	}
}

func TestPlaceRefAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	r := New(nodes(3), 0)
	d := Directives{}.With("Map[hot]", []NodeID{"node-02"})
	for _, table := range []Directives{{}, d} {
		for rf := 1; rf <= tableWidth; rf++ {
			if got := testing.AllocsPerRun(100, func() { table.PlaceRef(r, "AtomicLong", "cold", rf) }); got != 0 {
				t.Fatalf("%d-entry table, rf %d: PlaceRef allocates %.0f", table.Len(), rf, got)
			}
		}
	}
}

// New builds its table and vnodes without formatting a label per vnode.
func TestNewAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	ns := nodes(3)
	// The sorted node list, the ring, its vnodes and its table: a label
	// formatted per vnode would be 384 more.
	got := testing.AllocsPerRun(20, func() { New(ns, 0) })
	if got > 4 {
		t.Fatalf("New over 3 nodes allocates %.0f", got)
	}
	t.Logf("New over 3 nodes allocates %.0f", got)
}
